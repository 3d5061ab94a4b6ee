#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "xmlq/base/crc32.h"
#include "xmlq/base/fault_injector.h"
#include "xmlq/storage/snapshot.h"

namespace xmlq::storage {

namespace {

constexpr uint64_t kSectionAlign = 64;

uint64_t Align64(uint64_t x) {
  return (x + kSectionAlign - 1) & ~(kSectionAlign - 1);
}

template <typename T>
std::string_view AsBytes(std::span<const T> data) {
  return std::string_view(reinterpret_cast<const char*>(data.data()),
                          data.size() * sizeof(T));
}

}  // namespace

const char* SnapshotSectionName(uint32_t id) {
  switch (static_cast<SectionId>(id)) {
    case SectionId::kNameOffsets: return "name_offsets";
    case SectionId::kNameChars: return "name_chars";
    case SectionId::kNodeKinds: return "node_kinds";
    case SectionId::kNodeNames: return "node_names";
    case SectionId::kBpWords: return "bp_words";
    case SectionId::kContentOffsets: return "content_offsets";
    case SectionId::kContentBuffer: return "content_buffer";
    case SectionId::kValueElementEntries: return "value_element_entries";
    case SectionId::kValueElementOffsets: return "value_element_offsets";
    case SectionId::kValueElementNumeric: return "value_element_numeric";
    case SectionId::kValueElementNumericOffsets:
      return "value_element_numeric_offsets";
    case SectionId::kValueAttributeEntries: return "value_attribute_entries";
    case SectionId::kValueAttributeOffsets: return "value_attribute_offsets";
    case SectionId::kValueAttributeNumeric: return "value_attribute_numeric";
    case SectionId::kValueAttributeNumericOffsets:
      return "value_attribute_numeric_offsets";
  }
  return "?";
}

Result<SnapshotWriteInfo> WriteSnapshot(const std::string& path,
                                        const xml::Document& doc,
                                        const SuccinctDocument& succinct,
                                        const ValueIndex& values) {
  if (XMLQ_FAULT("store.snapshot.write")) {
    return Status::Internal("injected I/O failure writing snapshot \"" +
                            path + "\"");
  }

  // Scratch payloads that only exist in serialized form.
  const xml::NamePool& pool = doc.pool();
  std::vector<uint32_t> name_offsets;
  std::string name_chars;
  name_offsets.reserve(pool.size() + 1);
  for (size_t i = 0; i < pool.size(); ++i) {
    name_offsets.push_back(static_cast<uint32_t>(name_chars.size()));
    name_chars.append(pool.NameOf(static_cast<xml::NameId>(i)));
  }
  name_offsets.push_back(static_cast<uint32_t>(name_chars.size()));

  const std::vector<xml::NodeId> elem_entries =
      values.EntryNodes(/*attribute=*/false);
  const std::vector<xml::NodeId> attr_entries =
      values.EntryNodes(/*attribute=*/true);
  const ContentStore& content = succinct.content();

  // Payloads in canonical SectionId order (index == id - 1).
  const std::string_view payloads[kSnapshotSectionCount] = {
      AsBytes(std::span<const uint32_t>(name_offsets)),
      std::string_view(name_chars),
      AsBytes(std::span<const xml::NodeKind>(doc.KindSpan())),
      AsBytes(doc.NameSpan()),
      AsBytes(succinct.bp().bits().WordSpan()),
      AsBytes(content.OffsetSpan()),
      content.BufferView(),
      AsBytes(std::span<const xml::NodeId>(elem_entries)),
      AsBytes(values.OffsetSpan(/*attribute=*/false)),
      AsBytes(values.NumericSpan(/*attribute=*/false)),
      AsBytes(values.NumericOffsetSpan(/*attribute=*/false)),
      AsBytes(std::span<const xml::NodeId>(attr_entries)),
      AsBytes(values.OffsetSpan(/*attribute=*/true)),
      AsBytes(values.NumericSpan(/*attribute=*/true)),
      AsBytes(values.NumericOffsetSpan(/*attribute=*/true)),
  };

  // Lay out: header, table, then 64-byte-aligned payloads.
  SnapshotSection table[kSnapshotSectionCount];
  uint64_t cursor =
      Align64(sizeof(SnapshotHeader) +
              kSnapshotSectionCount * sizeof(SnapshotSection));
  for (uint32_t i = 0; i < kSnapshotSectionCount; ++i) {
    table[i].id = i + 1;
    table[i].offset = cursor;
    table[i].size = payloads[i].size();
    table[i].crc = Crc32(payloads[i].data(), payloads[i].size());
    cursor = Align64(cursor + table[i].size);
  }
  const uint64_t file_size = cursor;

  SnapshotHeader header;
  std::memcpy(header.magic, kSnapshotMagic, sizeof(header.magic));
  header.version = kSnapshotVersion;
  header.section_count = kSnapshotSectionCount;
  header.file_size = file_size;
  header.table_crc = Crc32(table, sizeof(table));
  header.header_crc = 0;
  header.header_crc = Crc32(&header, sizeof(header));

  std::string image(file_size, '\0');
  std::memcpy(image.data(), &header, sizeof(header));
  std::memcpy(image.data() + sizeof(header), table, sizeof(table));
  SnapshotWriteInfo info;
  info.file_size = file_size;
  info.sections.reserve(kSnapshotSectionCount);
  for (uint32_t i = 0; i < kSnapshotSectionCount; ++i) {
    if (table[i].size != 0) {
      std::memcpy(image.data() + table[i].offset, payloads[i].data(),
                  payloads[i].size());
    }
    info.sections.push_back(SnapshotSectionInfo{
        table[i].id, SnapshotSectionName(table[i].id), table[i].offset,
        table[i].size});
  }
  info.file_crc = Crc32(image.data(), image.size());

  XMLQ_RETURN_IF_ERROR(WriteFileAtomic(path, image));
  return info;
}

}  // namespace xmlq::storage
