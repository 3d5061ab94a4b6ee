#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "xmlq/base/crc32.h"
#include "xmlq/base/fault_injector.h"
#include "xmlq/storage/snapshot.h"

namespace xmlq::storage {

namespace {

constexpr uint64_t kSectionAlign = 64;

/// Every corruption report carries the failing byte offset and the section
/// (or structure) name, so operators can pinpoint the damage with xxd.
Status Corrupt(uint64_t offset, std::string_view where, std::string detail) {
  return Status::ParseError("xqpack: " + std::string(where) + " at offset " +
                            std::to_string(offset) + ": " +
                            std::move(detail));
}

/// The parsed + structurally validated file skeleton.
struct Layout {
  const char* base = nullptr;
  uint64_t file_size = 0;
  SnapshotSection table[kSnapshotSectionCount];

  const SnapshotSection& Entry(SectionId id) const {
    return table[static_cast<uint32_t>(id) - 1];
  }
  std::string_view Payload(SectionId id) const {
    const SnapshotSection& s = Entry(id);
    return {base + s.offset, s.size};
  }
  Status Err(SectionId id, std::string detail) const {
    const SnapshotSection& s = Entry(id);
    return Corrupt(s.offset, SnapshotSectionName(s.id), std::move(detail));
  }
  template <typename T>
  std::span<const T> Typed(SectionId id) const {
    const std::string_view p = Payload(id);
    return {reinterpret_cast<const T*>(p.data()), p.size() / sizeof(T)};
  }
  /// Element count after ElementSized() validated divisibility.
  Status ElementSized(SectionId id, size_t elem_size) const {
    if (Entry(id).size % elem_size != 0) {
      return Err(id, "size " + std::to_string(Entry(id).size) +
                         " is not a multiple of the " +
                         std::to_string(elem_size) + "-byte element");
    }
    return Status::Ok();
  }
};

/// Full checksum validation; fills `layout`: header, section table and
/// padding, then every section CRC in order.
Status ParseLayout(std::span<const char> bytes, Layout* layout) {
  layout->base = bytes.data();
  if (bytes.size() < sizeof(SnapshotHeader)) {
    return Corrupt(0, "header",
                   "file truncated: " + std::to_string(bytes.size()) +
                       " bytes, need at least " +
                       std::to_string(sizeof(SnapshotHeader)));
  }
  SnapshotHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  if (std::memcmp(header.magic, kSnapshotMagic, sizeof(header.magic)) != 0) {
    return Corrupt(0, "header", "bad magic (not an xqpack snapshot)");
  }
  SnapshotHeader crc_input = header;
  crc_input.header_crc = 0;
  const uint32_t computed_crc = Crc32(&crc_input, sizeof(crc_input));
  if (computed_crc != header.header_crc) {
    return Corrupt(0, "header",
                   "header checksum mismatch (stored " +
                       std::to_string(header.header_crc) + ", computed " +
                       std::to_string(computed_crc) + ")");
  }
  if (header.version != kSnapshotVersion) {
    return Corrupt(0, "header",
                   "unsupported version " + std::to_string(header.version) +
                       " (expected " + std::to_string(kSnapshotVersion) +
                       ")");
  }
  if (header.file_size != bytes.size()) {
    return Corrupt(0, "header",
                   "file size mismatch: header says " +
                       std::to_string(header.file_size) + ", file has " +
                       std::to_string(bytes.size()) +
                       " bytes (truncated or trailing garbage)");
  }
  if (header.section_count != kSnapshotSectionCount) {
    return Corrupt(0, "header",
                   "unexpected section count " +
                       std::to_string(header.section_count) + " (expected " +
                       std::to_string(kSnapshotSectionCount) + ")");
  }
  layout->file_size = header.file_size;

  const uint64_t table_offset = sizeof(SnapshotHeader);
  const uint64_t table_size =
      kSnapshotSectionCount * sizeof(SnapshotSection);
  if (table_offset + table_size > bytes.size()) {
    return Corrupt(table_offset, "section_table",
                   "file truncated inside the section table");
  }
  std::memcpy(layout->table, bytes.data() + table_offset, table_size);
  const uint32_t table_crc = Crc32(bytes.data() + table_offset, table_size);
  if (table_crc != header.table_crc) {
    return Corrupt(table_offset, "section_table",
                   "section table checksum mismatch (stored " +
                       std::to_string(header.table_crc) + ", computed " +
                       std::to_string(table_crc) + ")");
  }

  uint64_t prev_end = table_offset + table_size;
  for (uint32_t i = 0; i < kSnapshotSectionCount; ++i) {
    const SnapshotSection& s = layout->table[i];
    const char* name = SnapshotSectionName(i + 1);
    if (s.id != i + 1) {
      return Corrupt(table_offset + i * sizeof(SnapshotSection), name,
                     "section table entry " + std::to_string(i) +
                         " has id " + std::to_string(s.id) + ", expected " +
                         std::to_string(i + 1));
    }
    if (s.flags != 0 || s.reserved != 0) {
      return Corrupt(s.offset, name, "reserved section fields are nonzero");
    }
    if (s.offset % kSectionAlign != 0) {
      return Corrupt(s.offset, name, "section payload is not 64-byte aligned");
    }
    if (s.offset < prev_end || s.offset > layout->file_size ||
        s.size > layout->file_size - s.offset) {
      return Corrupt(s.offset, name,
                     "section bounds [" + std::to_string(s.offset) + ", +" +
                         std::to_string(s.size) +
                         ") overlap a neighbor or exceed the file");
    }
    // Inter-section padding must be zero (no smuggled bytes).
    for (uint64_t b = prev_end; b < s.offset; ++b) {
      if (bytes[b] != 0) {
        return Corrupt(b, name, "nonzero padding byte before section");
      }
    }
    prev_end = s.offset + s.size;
  }
  for (uint64_t b = prev_end; b < layout->file_size; ++b) {
    if (bytes[b] != 0) {
      return Corrupt(b, "trailer", "nonzero padding byte after last section");
    }
  }

  if (XMLQ_FAULT("store.snapshot.verify")) {
    return Corrupt(0, "header", "injected verification failure");
  }
  for (const SnapshotSection& s : layout->table) {
    const uint32_t crc = Crc32(bytes.data() + s.offset, s.size);
    if (crc != s.crc) {
      return Corrupt(s.offset, SnapshotSectionName(s.id),
                     "section checksum mismatch (stored " +
                         std::to_string(s.crc) + ", computed " +
                         std::to_string(crc) + ")");
    }
  }
  return Status::Ok();
}

/// Validates the BP words as the pre-order parenthesization of one n-node
/// tree and derives every node's parent in one pass: a node's parent is the
/// innermost node still open when it opens.
Status DeriveParents(const Layout& layout, size_t n,
                     std::vector<xml::NodeId>* parents) {
  const auto words = layout.Typed<uint64_t>(SectionId::kBpWords);
  const size_t bits = 2 * n;
  if (words.size() != BitVector::ExpectedWords(bits)) {
    return layout.Err(SectionId::kBpWords,
                      "word count " + std::to_string(words.size()) +
                          " does not fit 2 bits for each of " +
                          std::to_string(n) + " nodes");
  }
  if (bits % 64 != 0 && (words.back() >> (bits % 64)) != 0) {
    return layout.Err(SectionId::kBpWords,
                      "nonzero tail bits past the sequence end");
  }
  uint64_t ones = 0;
  for (const uint64_t word : words) {
    ones += static_cast<uint64_t>(std::popcount(word));
  }
  if (ones != n) {
    return layout.Err(SectionId::kBpWords,
                      "open-paren count " + std::to_string(ones) +
                          " does not match node count " + std::to_string(n));
  }
  // The open nodes form a stack, and a node's parent is its top when the
  // node opens. The body does not branch on the bit: each step stores the
  // next node's parent and pushes it, and only the depth and the rank
  // move with the bit (a close's stores are overwritten by the next open).
  // With n opens and n closes the depth ends at 0, so a sequence that never
  // dips to 0 early is one balanced tree.
  parents->assign(n + 1, xml::kNullNode);
  std::vector<xml::NodeId> stack(n + 2, xml::kNullNode);
  int64_t depth = 0;
  xml::NodeId rank = 0;
  for (size_t pos = 0; pos < bits; ++pos) {
    const uint64_t bit = (words[pos / 64] >> (pos % 64)) & 1;
    (*parents)[rank] = stack[depth];
    stack[depth + 1] = rank;
    depth += 2 * static_cast<int64_t>(bit) - 1;
    rank += static_cast<xml::NodeId>(bit);
    if (depth <= 0 && pos + 1 < bits) {
      return layout.Err(SectionId::kBpWords,
                        "unbalanced parentheses (bit " + std::to_string(pos) +
                            (depth < 0 ? " closes no open node)"
                                       : " closes the root early)"));
    }
  }
  parents->pop_back();
  return Status::Ok();
}

/// The tree-shape rules of the data model over kinds and parents: one
/// document node, at the root; content-bearing nodes are leaves; attributes
/// hang off elements, ahead of the element's other children.
Status VerifyShape(const Layout& layout, std::span<const uint8_t> kinds,
                   std::span<const xml::NodeId> parents) {
  const auto kind = [&](size_t i) {
    return static_cast<xml::NodeKind>(kinds[i]);
  };
  if (kind(0) != xml::NodeKind::kDocument) {
    return layout.Err(SectionId::kNodeKinds, "node 0 is not a document node");
  }
  const auto node = [](size_t i) { return "node " + std::to_string(i); };
  for (size_t i = 1; i < kinds.size(); ++i) {
    const xml::NodeId parent = parents[i];
    if (kind(i) == xml::NodeKind::kDocument) {
      return layout.Err(SectionId::kNodeKinds,
                        node(i) + " is a second document node");
    }
    if (xml::IsContentKind(kind(parent))) {
      return layout.Err(SectionId::kNodeKinds,
                        node(i) + " is a child of " + node(parent) + ", a " +
                            std::string(xml::NodeKindName(kind(parent))) +
                            " node, which must be a leaf");
    }
    if (kind(i) != xml::NodeKind::kAttribute) continue;
    if (kind(parent) != xml::NodeKind::kElement) {
      return layout.Err(SectionId::kNodeKinds,
                        "attribute " + node(i) + " is not under an element");
    }
    if (parent != i - 1 && (kind(i - 1) != xml::NodeKind::kAttribute ||
                            parents[i - 1] != parent)) {
      return layout.Err(SectionId::kNodeKinds,
                        "attribute " + node(i) +
                            " comes after a child of its element");
    }
  }
  return Status::Ok();
}

/// The content offsets: one per content-bearing node, monotone, inside the
/// buffer, which the DOM addresses with 32-bit offsets.
Status VerifyContent(const Layout& layout, std::span<const uint8_t> kinds) {
  const auto offsets = layout.Typed<uint64_t>(SectionId::kContentOffsets);
  const std::string_view buffer = layout.Payload(SectionId::kContentBuffer);
  if (buffer.size() > std::numeric_limits<uint32_t>::max()) {
    return layout.Err(SectionId::kContentBuffer,
                      "content buffer exceeds 32-bit text offsets");
  }
  const size_t content_nodes = static_cast<size_t>(
      std::count_if(kinds.begin(), kinds.end(), [](uint8_t k) {
        return xml::IsContentKind(static_cast<xml::NodeKind>(k));
      }));
  if (offsets.size() != content_nodes) {
    return layout.Err(SectionId::kContentOffsets,
                      "entry count " + std::to_string(offsets.size()) +
                          " does not match content-bearing node count " +
                          std::to_string(content_nodes));
  }
  uint64_t prev = 0;
  for (size_t i = 0; i < offsets.size(); ++i) {
    if (offsets[i] < prev || offsets[i] > buffer.size()) {
      return layout.Err(SectionId::kContentOffsets,
                        "offset " + std::to_string(i) +
                            " is not monotone within the content buffer");
    }
    prev = offsets[i];
  }
  return Status::Ok();
}

/// Validates a u32 fence array: size name_count+1, monotone, final == total.
Status VerifyFence(const Layout& layout, SectionId id, size_t name_count,
                   uint64_t total) {
  const auto fence = layout.Typed<uint32_t>(id);
  if (fence.size() != name_count + 1) {
    return layout.Err(id, "fence has " + std::to_string(fence.size()) +
                              " entries, expected name count + 1 = " +
                              std::to_string(name_count + 1));
  }
  uint32_t prev = 0;
  for (const uint32_t f : fence) {
    if (f < prev) return layout.Err(id, "fence is not monotone");
    prev = f;
  }
  if (fence[0] != 0 || fence[name_count] != total) {
    return layout.Err(id, "fence does not cover exactly " +
                              std::to_string(total) + " entries");
  }
  return Status::Ok();
}

/// Validates one value family's runs against the restored DOM and resolves
/// each entry's value from it: every entry is a node of its run's name and
/// family (element entries are data elements), each run is strictly ordered
/// by (value, node), and the runs hold every member of the family — the join
/// engines seed their streams from them and EqualRun binary-searches them.
/// Numeric runs hold nodes of their name and family, sorted by value, with no
/// NaN, which no comparison orders. Fills `parts`.
Status VerifyValueRuns(const Layout& layout, const xml::Document& dom,
                       const RegionIndex& regions, size_t name_count,
                       bool attribute,
                       ValueIndex::FamilyParts* parts) {
  const SectionId entries_id = attribute ? SectionId::kValueAttributeEntries
                                         : SectionId::kValueElementEntries;
  const SectionId fence_id = attribute ? SectionId::kValueAttributeOffsets
                                       : SectionId::kValueElementOffsets;
  const SectionId numeric_id = attribute ? SectionId::kValueAttributeNumeric
                                         : SectionId::kValueElementNumeric;
  const SectionId numeric_fence_id =
      attribute ? SectionId::kValueAttributeNumericOffsets
                : SectionId::kValueElementNumericOffsets;
  XMLQ_RETURN_IF_ERROR(layout.ElementSized(entries_id, sizeof(xml::NodeId)));
  XMLQ_RETURN_IF_ERROR(layout.ElementSized(fence_id, sizeof(uint32_t)));
  XMLQ_RETURN_IF_ERROR(
      layout.ElementSized(numeric_id, sizeof(ValueIndex::NumericEntry)));
  XMLQ_RETURN_IF_ERROR(
      layout.ElementSized(numeric_fence_id, sizeof(uint32_t)));
  const auto entries = layout.Typed<xml::NodeId>(entries_id);
  const auto numeric = layout.Typed<ValueIndex::NumericEntry>(numeric_id);
  XMLQ_RETURN_IF_ERROR(
      VerifyFence(layout, fence_id, name_count, entries.size()));
  XMLQ_RETURN_IF_ERROR(
      VerifyFence(layout, numeric_fence_id, name_count, numeric.size()));
  const auto fence = layout.Typed<uint32_t>(fence_id);
  const auto numeric_fence = layout.Typed<uint32_t>(numeric_fence_id);
  const xml::NodeKind want_kind =
      attribute ? xml::NodeKind::kAttribute : xml::NodeKind::kElement;
  const auto member = [&](xml::NodeId node, size_t name) {
    return node < dom.NodeCount() && dom.Kind(node) == want_kind &&
           dom.Name(node) == name;
  };

  std::vector<ValueIndex::Entry> resolved;
  resolved.reserve(entries.size());
  for (size_t name = 0, i = 0, k = 0; name < name_count; ++name) {
    for (; i < fence[name + 1]; ++i) {
      const xml::NodeId node = entries[i];
      if (!member(node, name)) {
        return layout.Err(entries_id,
                          "entry " + std::to_string(i) +
                              " references a node past the node count or of "
                              "another name or kind");
      }
      const auto value = ValueIndex::IndexedValue(dom, node, attribute);
      if (!value.has_value()) {
        return layout.Err(entries_id, "entry " + std::to_string(i) +
                                          " is not a data element");
      }
      const int order =
          i > fence[name] ? value->compare(resolved.back().value) : 1;
      if (order < 0 || (order == 0 && node <= resolved.back().node)) {
        return layout.Err(entries_id,
                          "entry " + std::to_string(i) +
                              " is out of order or repeats a node");
      }
      resolved.push_back(ValueIndex::Entry{*value, node});
    }
    for (; k < numeric_fence[name + 1]; ++k) {
      if (!member(numeric[k].node, name) ||
          !ValueIndex::IndexedValue(dom, numeric[k].node, attribute)) {
        return layout.Err(numeric_id,
                          "numeric entry " + std::to_string(k) +
                              " references a node past the node count or "
                              "of another name or kind");
      }
      if (std::isnan(numeric[k].value) ||
          (k > numeric_fence[name] &&
           numeric[k].value < numeric[k - 1].value)) {
        return layout.Err(numeric_id, "numeric entry " + std::to_string(k) +
                                          " is NaN or out of order");
      }
    }
  }
  // Entries are distinct members (strict order within a run, one name per
  // run), so matching the family's size means no member is missing. The
  // region postings list every named element and attribute.
  size_t members = 0;
  for (const xml::NodeId node : regions.PostingSpan(attribute)) {
    members += ValueIndex::IndexedValue(dom, node, attribute).has_value();
  }
  if (entries.size() != members) {
    return layout.Err(entries_id,
                      "runs hold " + std::to_string(entries.size()) +
                          " entries, but the document has " +
                          std::to_string(members) +
                          (attribute ? " attributes" : " data elements"));
  }
  *parts = ValueIndex::FamilyParts{std::move(resolved), fence, numeric,
                                   numeric_fence};
  return Status::Ok();
}

/// Prefixes the file path onto a corruption Status so operators see *which*
/// snapshot is damaged, not just where inside it.
Status AnnotatePath(Status status, const std::string& path) {
  if (status.ok() || path.empty()) return status;
  return Status(status.code(), "snapshot \"" + path + "\": " +
                                   status.message());
}

Result<OpenedSnapshot> OpenSnapshotFromBytesImpl(FileBytes bytes,
                                                 const std::string& path) {
  Layout layout;
  XMLQ_RETURN_IF_ERROR(ParseLayout(bytes.bytes(), &layout));

  // -- Name pool ----------------------------------------------------------
  XMLQ_RETURN_IF_ERROR(
      layout.ElementSized(SectionId::kNameOffsets, sizeof(uint32_t)));
  const auto name_offsets = layout.Typed<uint32_t>(SectionId::kNameOffsets);
  const std::string_view name_chars = layout.Payload(SectionId::kNameChars);
  if (name_offsets.empty()) {
    return layout.Err(SectionId::kNameOffsets, "missing fence");
  }
  const size_t name_count = name_offsets.size() - 1;
  uint32_t prev_off = 0;
  for (const uint32_t off : name_offsets) {
    if (off < prev_off || off > name_chars.size()) {
      return layout.Err(SectionId::kNameOffsets, "fence is not monotone");
    }
    prev_off = off;
  }
  if (name_offsets[0] != 0 || name_offsets[name_count] != name_chars.size()) {
    return layout.Err(SectionId::kNameOffsets,
                      "fence does not cover the name characters");
  }

  // -- Node streams and tree shape -----------------------------------------
  const auto kinds = layout.Typed<uint8_t>(SectionId::kNodeKinds);
  const size_t n = kinds.size();
  if (n == 0) {
    return layout.Err(SectionId::kNodeKinds, "empty document");
  }
  if (n > std::numeric_limits<uint32_t>::max() / 2) {
    return layout.Err(SectionId::kNodeKinds, "node count overflows NodeId");
  }
  XMLQ_RETURN_IF_ERROR(
      layout.ElementSized(SectionId::kNodeNames, sizeof(xml::NameId)));
  if (layout.Entry(SectionId::kNodeNames).size != n * sizeof(xml::NameId)) {
    return layout.Err(SectionId::kNodeNames,
                      "array length does not match the node count " +
                          std::to_string(n));
  }
  const auto names = layout.Typed<xml::NameId>(SectionId::kNodeNames);
  for (size_t i = 0; i < n; ++i) {
    if (kinds[i] >
        static_cast<uint8_t>(xml::NodeKind::kProcessingInstruction)) {
      return layout.Err(SectionId::kNodeKinds,
                        "node " + std::to_string(i) + " has invalid kind " +
                            std::to_string(kinds[i]));
    }
    if (names[i] != xml::kInvalidName && names[i] >= name_count) {
      return layout.Err(SectionId::kNodeNames,
                        "node " + std::to_string(i) +
                            " references name id past the pool");
    }
  }
  XMLQ_RETURN_IF_ERROR(
      layout.ElementSized(SectionId::kBpWords, sizeof(uint64_t)));
  std::vector<xml::NodeId> parents;
  XMLQ_RETURN_IF_ERROR(DeriveParents(layout, n, &parents));
  XMLQ_RETURN_IF_ERROR(VerifyShape(layout, kinds, parents));
  XMLQ_RETURN_IF_ERROR(
      layout.ElementSized(SectionId::kContentOffsets, sizeof(uint64_t)));
  XMLQ_RETURN_IF_ERROR(VerifyContent(layout, kinds));

  // -- Derived components -------------------------------------------------
  auto pool = std::make_shared<xml::NamePool>();
  for (size_t i = 0; i < name_count; ++i) {
    const std::string_view name = name_chars.substr(
        name_offsets[i], name_offsets[i + 1] - name_offsets[i]);
    if (pool->Intern(name) != i) {
      return layout.Err(SectionId::kNameChars,
                        "duplicate interned name at id " + std::to_string(i));
    }
  }
  const auto content_offsets =
      layout.Typed<uint64_t>(SectionId::kContentOffsets);
  const std::string_view content_buffer =
      layout.Payload(SectionId::kContentBuffer);
  auto dom = std::make_unique<xml::Document>(xml::Document::FromParts(
      pool, kinds, names, parents, content_offsets, content_buffer));
  auto succinct = std::make_unique<SuccinctDocument>(
      SuccinctDocument::FromParts(
          BalancedParens::FromExternal(
              layout.Typed<uint64_t>(SectionId::kBpWords), 2 * n),
          kinds, names,
          ContentStore::FromExternal(content_buffer, content_offsets),
          pool));
  auto regions = std::make_unique<RegionIndex>(*dom);

  // -- Value index --------------------------------------------------------
  ValueIndex::FamilyParts families[2];
  for (const bool attribute : {false, true}) {
    XMLQ_RETURN_IF_ERROR(VerifyValueRuns(layout, *dom, *regions, name_count,
                                         attribute,
                                         &families[attribute ? 1 : 0]));
  }
  auto values = std::make_unique<ValueIndex>(ValueIndex::FromParts(
      std::move(families[0]), std::move(families[1])));

  OpenedSnapshot out;
  out.dom = std::move(dom);
  out.succinct = std::move(succinct);
  out.regions = std::move(regions);
  out.values = std::move(values);
  out.backing = std::make_unique<SnapshotBacking>(std::move(bytes), path);
  return out;
}

}  // namespace

Result<OpenedSnapshot> OpenSnapshotFromBytes(FileBytes bytes,
                                             std::string path) {
  auto opened = OpenSnapshotFromBytesImpl(std::move(bytes), path);
  if (!opened.ok()) return AnnotatePath(opened.status(), path);
  return opened;
}

Status VerifySnapshotImage(FileBytes bytes, bool deep,
                           const std::string& path) {
  if (!deep) {
    Layout layout;
    return AnnotatePath(ParseLayout(bytes.bytes(), &layout), path);
  }
  // The deep pass re-runs every structural invariant the open path checks.
  auto full = OpenSnapshotFromBytes(std::move(bytes), path);
  return full.ok() ? Status::Ok() : full.status();
}

Result<OpenedSnapshot> OpenSnapshot(const std::string& path,
                                    SnapshotOpenMode mode) {
  FileBytes bytes;
  if (mode == SnapshotOpenMode::kMap) {
    if (XMLQ_FAULT("store.snapshot.map")) {
      return Status::Internal("injected mmap failure opening snapshot \"" +
                              path + "\"");
    }
    XMLQ_ASSIGN_OR_RETURN(bytes, FileBytes::Map(path));
  } else {
    XMLQ_ASSIGN_OR_RETURN(bytes, FileBytes::ReadWhole(path));
  }
  return OpenSnapshotFromBytes(std::move(bytes), path);
}

}  // namespace xmlq::storage
