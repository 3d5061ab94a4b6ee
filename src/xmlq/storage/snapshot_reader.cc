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

bool IsContentKind(uint8_t kind) {
  const auto k = static_cast<xml::NodeKind>(kind);
  return k == xml::NodeKind::kText || k == xml::NodeKind::kAttribute ||
         k == xml::NodeKind::kComment ||
         k == xml::NodeKind::kProcessingInstruction;
}

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

/// Recomputes the BP word/superblock excess directories and the rank
/// directory from the raw bits and compares them with the stored sections —
/// after this pass, excess search and select over the mapped sections are
/// memory-safe even against a crafted file that beat the CRCs.
Status VerifyBalancedParens(const Layout& layout, size_t node_count) {
  const size_t bits = 2 * node_count;
  const auto words = layout.Typed<uint64_t>(SectionId::kBpWords);
  const auto ranks = layout.Typed<uint64_t>(SectionId::kBpSuperRanks);
  const auto word_dir =
      layout.Typed<BalancedParens::ExcessBlock>(SectionId::kBpWordDir);
  const auto super_dir =
      layout.Typed<BalancedParens::ExcessBlock>(SectionId::kBpSuperDir);
  if (words.size() != BitVector::ExpectedWords(bits)) {
    return layout.Err(SectionId::kBpWords, "word count mismatch");
  }
  if (ranks.size() != BitVector::ExpectedSuperRanks(bits)) {
    return layout.Err(SectionId::kBpSuperRanks, "rank directory size mismatch");
  }
  if (word_dir.size() != BalancedParens::ExpectedWordDir(bits)) {
    return layout.Err(SectionId::kBpWordDir, "word directory size mismatch");
  }
  if (super_dir.size() != BalancedParens::ExpectedSuperDir(bits)) {
    return layout.Err(SectionId::kBpSuperDir,
                      "superblock directory size mismatch");
  }

  uint64_t ones = 0;
  int64_t excess = 0;  // absolute excess before the current word
  int32_t super_run = 0;
  int32_t super_min = std::numeric_limits<int32_t>::max();
  int32_t super_max = std::numeric_limits<int32_t>::min();
  for (size_t w = 0; w < words.size(); ++w) {
    if (w % BitVector::kWordsPerSuper == 0 &&
        ranks[w / BitVector::kWordsPerSuper] != ones) {
      return layout.Err(SectionId::kBpSuperRanks,
                        "rank directory entry " +
                            std::to_string(w / BitVector::kWordsPerSuper) +
                            " disagrees with the bits");
    }
    const size_t valid = std::min<size_t>(64, bits - w * 64);
    const uint64_t word = words[w];
    if (valid < 64 && (word >> valid) != 0) {
      return layout.Err(SectionId::kBpWords,
                        "nonzero tail bits past the sequence end");
    }
    int32_t run = 0;
    int32_t mn = std::numeric_limits<int32_t>::max();
    int32_t mx = std::numeric_limits<int32_t>::min();
    for (size_t b = 0; b < valid; ++b) {
      run += ((word >> b) & 1) ? 1 : -1;
      mn = std::min(mn, run);
      mx = std::max(mx, run);
    }
    const BalancedParens::ExcessBlock& stored = word_dir[w];
    if (stored.total != run || stored.min != mn || stored.max != mx) {
      return layout.Err(SectionId::kBpWordDir,
                        "excess directory entry " + std::to_string(w) +
                            " disagrees with the bits");
    }
    if (excess + mn < 0) {
      return layout.Err(SectionId::kBpWords,
                        "unbalanced parentheses (excess drops below zero in "
                        "word " +
                            std::to_string(w) + ")");
    }
    super_min = std::min(super_min, super_run + mn);
    super_max = std::max(super_max, super_run + mx);
    super_run += run;
    excess += run;
    ones += static_cast<uint64_t>(std::popcount(word));
    const bool super_ends = (w + 1) % BalancedParens::kWordsPerSuper == 0 ||
                            w + 1 == words.size();
    if (super_ends) {
      const size_t s = w / BalancedParens::kWordsPerSuper;
      const BalancedParens::ExcessBlock& sb = super_dir[s];
      if (sb.total != super_run || sb.min != super_min ||
          sb.max != super_max) {
        return layout.Err(SectionId::kBpSuperDir,
                          "superblock directory entry " + std::to_string(s) +
                              " disagrees with the bits");
      }
      super_run = 0;
      super_min = std::numeric_limits<int32_t>::max();
      super_max = std::numeric_limits<int32_t>::min();
    }
  }
  if (ranks[ranks.size() - 1] != ones) {
    return layout.Err(SectionId::kBpSuperRanks,
                      "rank directory total disagrees with the bits");
  }
  if (excess != 0) {
    return layout.Err(SectionId::kBpWords,
                      "unbalanced parentheses (final excess " +
                          std::to_string(excess) + ")");
  }
  if (ones != node_count) {
    return layout.Err(SectionId::kBpWords,
                      "open-paren count " + std::to_string(ones) +
                          " does not match node count " +
                          std::to_string(node_count));
  }
  return Status::Ok();
}

/// Verifies the content-bearing bitmap against the node kinds and its rank
/// directory, and the content offsets against the buffer.
Status VerifyContent(const Layout& layout, std::span<const uint8_t> kinds) {
  const size_t n = kinds.size();
  const auto words = layout.Typed<uint64_t>(SectionId::kHasContentWords);
  const auto ranks = layout.Typed<uint64_t>(SectionId::kHasContentSuperRanks);
  const auto offsets = layout.Typed<uint64_t>(SectionId::kContentOffsets);
  const std::string_view buffer = layout.Payload(SectionId::kContentBuffer);
  if (words.size() != BitVector::ExpectedWords(n)) {
    return layout.Err(SectionId::kHasContentWords, "word count mismatch");
  }
  if (ranks.size() != BitVector::ExpectedSuperRanks(n)) {
    return layout.Err(SectionId::kHasContentSuperRanks,
                      "rank directory size mismatch");
  }
  uint64_t ones = 0;
  for (size_t w = 0; w < words.size(); ++w) {
    if (w % BitVector::kWordsPerSuper == 0 &&
        ranks[w / BitVector::kWordsPerSuper] != ones) {
      return layout.Err(SectionId::kHasContentSuperRanks,
                        "rank directory entry " +
                            std::to_string(w / BitVector::kWordsPerSuper) +
                            " disagrees with the bitmap");
    }
    const size_t valid = std::min<size_t>(64, n - w * 64);
    uint64_t expected = 0;
    for (size_t b = 0; b < valid; ++b) {
      if (IsContentKind(kinds[w * 64 + b])) expected |= uint64_t{1} << b;
    }
    if (words[w] != expected) {
      return layout.Err(SectionId::kHasContentWords,
                        "bitmap word " + std::to_string(w) +
                            " disagrees with the node kinds");
    }
    ones += static_cast<uint64_t>(std::popcount(words[w]));
  }
  if (ranks[ranks.size() - 1] != ones) {
    return layout.Err(SectionId::kHasContentSuperRanks,
                      "rank directory total disagrees with the bitmap");
  }
  if (offsets.size() != ones) {
    return layout.Err(SectionId::kContentOffsets,
                      "entry count " + std::to_string(offsets.size()) +
                          " does not match content-bearing node count " +
                          std::to_string(ones));
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

/// Validates one node kind's posting lists: each entry is a node of
/// `want_kind` carrying its list's name, each list is strictly ascending,
/// and the lists together hold exactly the nodes of that kind — so a
/// posting list is the document-ordered population of its name, and
/// RegionOf over it never indexes out of bounds.
Status VerifyPostings(const Layout& layout, SectionId id, SectionId fence_id,
                      size_t name_count, std::span<const uint8_t> kinds,
                      std::span<const xml::NameId> names,
                      xml::NodeKind want_kind) {
  XMLQ_RETURN_IF_ERROR(layout.ElementSized(id, sizeof(xml::NodeId)));
  XMLQ_RETURN_IF_ERROR(layout.ElementSized(fence_id, sizeof(uint32_t)));
  const auto postings = layout.Typed<xml::NodeId>(id);
  const size_t kind_nodes = static_cast<size_t>(
      std::count(kinds.begin(), kinds.end(), static_cast<uint8_t>(want_kind)));
  if (postings.size() != kind_nodes) {
    return layout.Err(id, "postings hold " + std::to_string(postings.size()) +
                              " entries, but the document has " +
                              std::to_string(kind_nodes) + " " +
                              std::string(xml::NodeKindName(want_kind)) +
                              " nodes");
  }
  XMLQ_RETURN_IF_ERROR(
      VerifyFence(layout, fence_id, name_count, postings.size()));
  const auto fence = layout.Typed<uint32_t>(fence_id);
  for (size_t name = 0, i = 0; name < name_count; ++name) {
    for (; i < fence[name + 1]; ++i) {
      const xml::NodeId node = postings[i];
      if (node >= kinds.size() ||
          static_cast<xml::NodeKind>(kinds[node]) != want_kind ||
          names[node] != name) {
        return layout.Err(id, "posting " + std::to_string(i) +
                                  " references a node past the node count "
                                  "or of another name or kind");
      }
      if (i > fence[name] && node <= postings[i - 1]) {
        return layout.Err(id, "posting " + std::to_string(i) +
                                  " is out of order");
      }
    }
  }
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

  // -- Node arrays --------------------------------------------------------
  const auto kinds = layout.Typed<uint8_t>(SectionId::kNodeKinds);
  const size_t n = kinds.size();
  if (n == 0) {
    return layout.Err(SectionId::kNodeKinds, "empty document");
  }
  if (n > std::numeric_limits<uint32_t>::max() / 2) {
    return layout.Err(SectionId::kNodeKinds, "node count overflows NodeId");
  }
  for (const SectionId id :
       {SectionId::kNodeNames, SectionId::kParents, SectionId::kFirstChildren,
        SectionId::kNextSiblings, SectionId::kFirstAttrs,
        SectionId::kTextOffsets, SectionId::kTextLengths}) {
    XMLQ_RETURN_IF_ERROR(layout.ElementSized(id, sizeof(uint32_t)));
    if (layout.Entry(id).size != n * sizeof(uint32_t)) {
      return layout.Err(id, "array length does not match the node count " +
                                std::to_string(n));
    }
  }
  const auto names = layout.Typed<xml::NameId>(SectionId::kNodeNames);
  const auto parents = layout.Typed<xml::NodeId>(SectionId::kParents);
  const auto first_children =
      layout.Typed<xml::NodeId>(SectionId::kFirstChildren);
  const auto next_siblings =
      layout.Typed<xml::NodeId>(SectionId::kNextSiblings);
  const auto first_attrs = layout.Typed<xml::NodeId>(SectionId::kFirstAttrs);
  const auto text_offsets = layout.Typed<uint32_t>(SectionId::kTextOffsets);
  const auto text_lengths = layout.Typed<uint32_t>(SectionId::kTextLengths);
  const std::string_view text_buffer = layout.Payload(SectionId::kTextBuffer);

  if (static_cast<xml::NodeKind>(kinds[0]) != xml::NodeKind::kDocument ||
      parents[0] != xml::kNullNode) {
    return layout.Err(SectionId::kNodeKinds, "node 0 is not a document node");
  }
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
    if (i > 0 && parents[i] >= i) {
      return layout.Err(SectionId::kParents,
                        "node " + std::to_string(i) +
                            " has parent at or after itself");
    }
    if ((first_children[i] != xml::kNullNode && first_children[i] >= n) ||
        (next_siblings[i] != xml::kNullNode && next_siblings[i] >= n) ||
        (first_attrs[i] != xml::kNullNode && first_attrs[i] >= n)) {
      return layout.Err(SectionId::kFirstChildren,
                        "node " + std::to_string(i) +
                            " has a child/sibling/attribute link past the "
                            "node count");
    }
    if (static_cast<uint64_t>(text_offsets[i]) + text_lengths[i] >
        text_buffer.size()) {
      return layout.Err(SectionId::kTextOffsets,
                        "node " + std::to_string(i) +
                            " text slice exceeds the text buffer");
    }
  }

  // -- Succinct structure -------------------------------------------------
  XMLQ_RETURN_IF_ERROR(
      layout.ElementSized(SectionId::kBpWords, sizeof(uint64_t)));
  XMLQ_RETURN_IF_ERROR(
      layout.ElementSized(SectionId::kBpSuperRanks, sizeof(uint64_t)));
  XMLQ_RETURN_IF_ERROR(layout.ElementSized(
      SectionId::kBpWordDir, sizeof(BalancedParens::ExcessBlock)));
  XMLQ_RETURN_IF_ERROR(layout.ElementSized(
      SectionId::kBpSuperDir, sizeof(BalancedParens::ExcessBlock)));
  XMLQ_RETURN_IF_ERROR(VerifyBalancedParens(layout, n));
  XMLQ_RETURN_IF_ERROR(
      layout.ElementSized(SectionId::kHasContentWords, sizeof(uint64_t)));
  XMLQ_RETURN_IF_ERROR(layout.ElementSized(SectionId::kHasContentSuperRanks,
                                           sizeof(uint64_t)));
  XMLQ_RETURN_IF_ERROR(
      layout.ElementSized(SectionId::kContentOffsets, sizeof(uint64_t)));
  XMLQ_RETURN_IF_ERROR(VerifyContent(layout, kinds));

  // -- Region index -------------------------------------------------------
  for (const SectionId id : {SectionId::kRegionEnds, SectionId::kRegionLevels}) {
    XMLQ_RETURN_IF_ERROR(layout.ElementSized(id, sizeof(uint32_t)));
    if (layout.Entry(id).size != n * sizeof(uint32_t)) {
      return layout.Err(id, "array length does not match the node count");
    }
  }
  const auto ends = layout.Typed<uint32_t>(SectionId::kRegionEnds);
  const auto levels = layout.Typed<uint32_t>(SectionId::kRegionLevels);
  // Every region the join engines read is RegionOf(id), so each stored end
  // must be the node's real subtree end, recomputed from the parent links.
  std::vector<uint32_t> subtree_end(n);
  for (size_t i = 0; i < n; ++i) subtree_end[i] = static_cast<uint32_t>(i);
  for (size_t i = n; i-- > 1;) {
    subtree_end[parents[i]] =
        std::max(subtree_end[parents[i]], subtree_end[i]);
  }
  for (size_t i = 0; i < n; ++i) {
    if (ends[i] != subtree_end[i]) {
      return layout.Err(SectionId::kRegionEnds,
                        "subtree end of node " + std::to_string(i) +
                            " disagrees with the parent links");
    }
    const uint32_t expected_level =
        i == 0 ? 0 : levels[parents[i]] + 1;  // parents[i] < i, validated
    if (levels[i] != expected_level) {
      return layout.Err(SectionId::kRegionLevels,
                        "level of node " + std::to_string(i) +
                            " disagrees with its parent");
    }
  }
  XMLQ_RETURN_IF_ERROR(VerifyPostings(
      layout, SectionId::kRegionElementPostings,
      SectionId::kRegionElementOffsets, name_count, kinds, names,
      xml::NodeKind::kElement));
  XMLQ_RETURN_IF_ERROR(VerifyPostings(
      layout, SectionId::kRegionAttributePostings,
      SectionId::kRegionAttributeOffsets, name_count, kinds, names,
      xml::NodeKind::kAttribute));

  // -- Value index --------------------------------------------------------
  const SectionId value_entry_ids[2] = {SectionId::kValueElementEntries,
                                        SectionId::kValueAttributeEntries};
  const SectionId value_offset_ids[2] = {SectionId::kValueElementOffsets,
                                         SectionId::kValueAttributeOffsets};
  const SectionId value_numeric_ids[2] = {SectionId::kValueElementNumeric,
                                          SectionId::kValueAttributeNumeric};
  const SectionId value_numeric_offset_ids[2] = {
      SectionId::kValueElementNumericOffsets,
      SectionId::kValueAttributeNumericOffsets};
  ValueIndex::FamilyParts families[2];
  for (int f = 0; f < 2; ++f) {
    XMLQ_RETURN_IF_ERROR(layout.ElementSized(
        value_entry_ids[f], sizeof(ValueIndex::PackedEntry)));
    XMLQ_RETURN_IF_ERROR(
        layout.ElementSized(value_offset_ids[f], sizeof(uint32_t)));
    XMLQ_RETURN_IF_ERROR(layout.ElementSized(
        value_numeric_ids[f], sizeof(ValueIndex::NumericEntry)));
    XMLQ_RETURN_IF_ERROR(
        layout.ElementSized(value_numeric_offset_ids[f], sizeof(uint32_t)));
    const auto entries =
        layout.Typed<ValueIndex::PackedEntry>(value_entry_ids[f]);
    const auto numeric =
        layout.Typed<ValueIndex::NumericEntry>(value_numeric_ids[f]);
    XMLQ_RETURN_IF_ERROR(VerifyFence(layout, value_offset_ids[f], name_count,
                                     entries.size()));
    XMLQ_RETURN_IF_ERROR(VerifyFence(layout, value_numeric_offset_ids[f],
                                     name_count, numeric.size()));
    // Each per-name run must hold only nodes of that name and family (the
    // join engines seed their streams from it), and must be sorted by value
    // (EqualRun and NumericRun binary-search them); NaN, which no
    // comparison orders, never enters a numeric run.
    const xml::NodeKind want_kind =
        f == 0 ? xml::NodeKind::kElement : xml::NodeKind::kAttribute;
    const auto text_fence = layout.Typed<uint32_t>(value_offset_ids[f]);
    const auto numeric_fence =
        layout.Typed<uint32_t>(value_numeric_offset_ids[f]);
    const auto value_of = [&](const ValueIndex::PackedEntry& e) {
      return std::string_view(text_buffer.data() + e.text_offset, e.length);
    };
    for (size_t name = 0, i = 0, k = 0; name < name_count; ++name) {
      for (; i < text_fence[name + 1]; ++i) {
        const ValueIndex::PackedEntry& e = entries[i];
        if (static_cast<uint64_t>(e.text_offset) + e.length >
                text_buffer.size() ||
            e.node >= n || static_cast<xml::NodeKind>(kinds[e.node]) !=
                               want_kind ||
            names[e.node] != name) {
          return layout.Err(value_entry_ids[f],
                            "entry " + std::to_string(i) +
                                " points outside the text buffer or at a "
                                "node of another name or kind");
        }
        if (i > text_fence[name] && value_of(e) < value_of(entries[i - 1])) {
          return layout.Err(value_entry_ids[f],
                            "entry " + std::to_string(i) + " is out of order");
        }
      }
      for (; k < numeric_fence[name + 1]; ++k) {
        const xml::NodeId node = numeric[k].node;
        if (node >= n ||
            static_cast<xml::NodeKind>(kinds[node]) != want_kind ||
            names[node] != name) {
          return layout.Err(value_numeric_ids[f],
                            "numeric entry " + std::to_string(k) +
                                " references a node past the node count or "
                                "of another name or kind");
        }
        if (std::isnan(numeric[k].value) ||
            (k > numeric_fence[name] &&
             numeric[k].value < numeric[k - 1].value)) {
          return layout.Err(value_numeric_ids[f],
                            "numeric entry " + std::to_string(k) +
                                " is NaN or out of order");
        }
      }
    }
    families[f] = ValueIndex::FamilyParts{
        entries, layout.Typed<uint32_t>(value_offset_ids[f]), numeric,
        layout.Typed<uint32_t>(value_numeric_offset_ids[f])};
  }

  // -- Construction -------------------------------------------------------
  auto pool = std::make_shared<xml::NamePool>();
  for (size_t i = 0; i < name_count; ++i) {
    const std::string_view name = name_chars.substr(
        name_offsets[i], name_offsets[i + 1] - name_offsets[i]);
    if (pool->Intern(name) != i) {
      return layout.Err(SectionId::kNameChars,
                        "duplicate interned name at id " + std::to_string(i));
    }
  }

  auto dom = std::make_unique<xml::Document>(xml::Document::FromParts(
      pool, kinds, names, parents, first_children, next_siblings, first_attrs,
      text_offsets, text_lengths, text_buffer));
  if (!dom->IsPreorder()) {
    return layout.Err(SectionId::kFirstChildren,
                      "node links do not form a consistent pre-order tree");
  }

  BitVector bp_bits =
      BitVector::FromExternal(layout.Typed<uint64_t>(SectionId::kBpWords),
                              2 * n,
                              layout.Typed<uint64_t>(SectionId::kBpSuperRanks),
                              n);
  BalancedParens bp = BalancedParens::FromExternal(
      std::move(bp_bits),
      layout.Typed<BalancedParens::ExcessBlock>(SectionId::kBpWordDir),
      layout.Typed<BalancedParens::ExcessBlock>(SectionId::kBpSuperDir));
  const auto content_offsets =
      layout.Typed<uint64_t>(SectionId::kContentOffsets);
  BitVector has_content = BitVector::FromExternal(
      layout.Typed<uint64_t>(SectionId::kHasContentWords), n,
      layout.Typed<uint64_t>(SectionId::kHasContentSuperRanks),
      content_offsets.size());
  ContentStore content = ContentStore::FromExternal(
      layout.Payload(SectionId::kContentBuffer), content_offsets);
  auto succinct = std::make_unique<SuccinctDocument>(
      SuccinctDocument::FromParts(std::move(bp), kinds, names,
                                  std::move(has_content), std::move(content),
                                  pool));

  auto regions = std::make_unique<RegionIndex>(RegionIndex::FromExternal(
      ends, levels,
      layout.Typed<xml::NodeId>(SectionId::kRegionElementPostings),
      layout.Typed<uint32_t>(SectionId::kRegionElementOffsets),
      layout.Typed<xml::NodeId>(SectionId::kRegionAttributePostings),
      layout.Typed<uint32_t>(SectionId::kRegionAttributeOffsets)));

  auto values = std::make_unique<ValueIndex>(ValueIndex::FromParts(
      dom->TextBufferView(), families[0], families[1]));

  std::vector<SnapshotSectionInfo> infos;
  infos.reserve(kSnapshotSectionCount);
  for (const SnapshotSection& s : layout.table) {
    infos.push_back(SnapshotSectionInfo{s.id, SnapshotSectionName(s.id),
                                        s.offset, s.size});
  }

  OpenedSnapshot out;
  out.dom = std::move(dom);
  out.succinct = std::move(succinct);
  out.regions = std::move(regions);
  out.values = std::move(values);
  out.backing = std::make_unique<SnapshotBacking>(std::move(bytes),
                                                  std::move(infos), path);
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
