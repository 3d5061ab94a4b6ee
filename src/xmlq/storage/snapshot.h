#ifndef XMLQ_STORAGE_SNAPSHOT_H_
#define XMLQ_STORAGE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "xmlq/base/file_io.h"
#include "xmlq/base/status.h"
#include "xmlq/storage/region_index.h"
#include "xmlq/storage/succinct_doc.h"
#include "xmlq/storage/value_index.h"
#include "xmlq/xml/document.h"

namespace xmlq::storage {

/// "xqpack" — the single-file persistent snapshot format (DESIGN.md §6).
///
/// A snapshot stores the primary data of one loaded document — name pool,
/// node kinds and names, the balanced-parentheses words, the content store
/// and the value-index runs — as individually CRC32-checksummed sections
/// behind a magic/version header. Everything one linear pass derives (DOM
/// links, BP directories, has-content bitmap, region index) is rebuilt at
/// open. Every payload starts on a 64-byte boundary with zero padding in
/// between, so an mmap'd file can back the succinct streams directly
/// (zero-copy open); integers are little-endian host format (the only
/// platforms the engine targets).
///
/// File layout:
///   [SnapshotHeader : 64 B]
///   [SnapshotSection : 32 B] x kSnapshotSectionCount   (the section table)
///   [zero pad to 64] [section 1 payload] [zero pad] [section 2 payload] ...
///
/// The header stores the total file size; a file whose actual size differs
/// (truncation, trailing garbage) is rejected, as is any section whose CRC,
/// bounds, alignment or structural invariants fail — always as an error
/// `Status` with the failing offset and section name, never an exception or
/// a crash.

/// First 8 bytes of every snapshot. CR-LF in the magic catches ASCII-mode
/// transfer mangling, the same trick as the PNG signature.
inline constexpr char kSnapshotMagic[8] = {'X', 'Q', 'P', 'A',
                                           'C', 'K', '\r', '\n'};
inline constexpr uint32_t kSnapshotVersion = 3;

struct SnapshotHeader {
  char magic[8];
  uint32_t version = kSnapshotVersion;
  uint32_t section_count = 0;
  uint64_t file_size = 0;   // must equal the actual on-disk size
  uint32_t table_crc = 0;   // CRC32 of the section table
  uint32_t header_crc = 0;  // CRC32 of this header with this field zeroed
  uint8_t reserved[32] = {};
};
static_assert(sizeof(SnapshotHeader) == 64, "on-disk layout");

/// One section-table entry.
struct SnapshotSection {
  uint32_t id = 0;        // SectionId, == table index + 1
  uint32_t flags = 0;     // reserved, must be 0
  uint64_t offset = 0;    // from file start; 64-byte aligned
  uint64_t size = 0;      // payload bytes (excluding padding)
  uint32_t crc = 0;       // CRC32 of the payload
  uint32_t reserved = 0;  // must be 0
};
static_assert(sizeof(SnapshotSection) == 32, "on-disk layout");

/// Section ids in canonical on-disk order. The kNodeKinds/kNodeNames arrays
/// serve both the DOM and the succinct document (pre-order ranks == NodeIds,
/// so the streams are byte-identical and are stored once), and the content
/// sections hold the only copy of the text.
enum class SectionId : uint32_t {
  kNameOffsets = 1,  // u32[name_count+1] fence into kNameChars
  kNameChars,        // concatenated interned names, id order
  kNodeKinds,        // u8[n] NodeKind per node / pre-order rank
  kNodeNames,        // u32[n] NameId per node / pre-order rank
  kBpWords,          // u64[ceil(2n/64)] balanced-parentheses bits
  kContentOffsets,   // u64[] start offset per content-bearing node
  kContentBuffer,    // char[] concatenated content strings
  kValueElementEntries,  // NodeId[] per name, (value, node) order
  kValueElementOffsets,  // u32[name_count+1] fence
  kValueElementNumeric,  // ValueIndex::NumericEntry[]
  kValueElementNumericOffsets,
  kValueAttributeEntries,
  kValueAttributeOffsets,
  kValueAttributeNumeric,
  kValueAttributeNumericOffsets,
};
inline constexpr uint32_t kSnapshotSectionCount = 15;

/// Human-readable section name for error messages and stats ("node_kinds",
/// "bp_words", ...); "?" for unknown ids.
const char* SnapshotSectionName(uint32_t id);

/// How to open a snapshot file.
enum class SnapshotOpenMode {
  kCopy,  // read the whole file into an aligned heap buffer (safe path)
  kMap,   // mmap zero-copy; succinct structures point into the mapping
};

/// Layout of one section as written/validated (for stats & tests).
struct SnapshotSectionInfo {
  uint32_t id = 0;
  const char* name = "?";
  uint64_t offset = 0;
  uint64_t size = 0;
};

struct SnapshotWriteInfo {
  uint64_t file_size = 0;
  /// CRC-32C of the entire on-disk image — what the catalog manifest
  /// records so recovery can verify a snapshot byte-for-byte before
  /// serving it.
  uint32_t file_crc = 0;
  std::vector<SnapshotSectionInfo> sections;
};

/// Keeps the snapshot bytes (heap copy or mmap) alive for the components
/// borrowing from them. `path` is the file the bytes came from ("" for
/// in-memory images) — the integrity scrubber uses it to re-read and
/// quarantine the on-disk copy.
class SnapshotBacking {
 public:
  SnapshotBacking(FileBytes bytes, std::string path = {})
      : bytes_(std::move(bytes)), path_(std::move(path)) {}

  uint64_t file_size() const { return bytes_.size(); }
  const FileBytes& bytes() const { return bytes_; }
  const std::string& path() const { return path_; }

 private:
  FileBytes bytes_;
  std::string path_;
};

/// A fully opened snapshot: every component of a loaded document plus the
/// backing bytes the succinct document borrows from. The backing must outlive
/// all components — callers keep the unique_ptrs together (api::Database
/// does).
struct OpenedSnapshot {
  std::unique_ptr<xml::Document> dom;
  std::unique_ptr<SuccinctDocument> succinct;
  std::unique_ptr<RegionIndex> regions;
  std::unique_ptr<ValueIndex> values;
  std::unique_ptr<SnapshotBacking> backing;
};

/// Serializes the primary data of one document to `path` (atomic write:
/// temp file + rename). Fault site: "store.snapshot.write".
Result<SnapshotWriteInfo> WriteSnapshot(const std::string& path,
                                        const xml::Document& doc,
                                        const SuccinctDocument& succinct,
                                        const ValueIndex& values);

/// Opens a snapshot file. kMap points the succinct streams straight at the
/// mapping; kCopy reads the file into an aligned heap buffer first. The DOM,
/// the directories and the indexes are derived from the primary sections.
/// Corruption (bad magic/version/CRC, truncation, trailing garbage, invalid
/// structural invariants) is reported as kParseError carrying the file
/// path, the failing byte offset and the section name. Fault sites:
/// "store.snapshot.map", "store.snapshot.verify".
Result<OpenedSnapshot> OpenSnapshot(const std::string& path,
                                    SnapshotOpenMode mode);

/// The validation + component-construction core of OpenSnapshot, exposed so
/// tests can feed in-memory (mutated) images without touching disk. `path`
/// (when non-empty) is recorded on the backing and prefixed onto every
/// corruption error.
Result<OpenedSnapshot> OpenSnapshotFromBytes(FileBytes bytes,
                                             std::string path = {});

/// Re-validates a private (never mapped) snapshot image: header, section
/// table, padding and every section CRC; `deep` additionally runs the full
/// structural validation (the integrity scrubber's slow pass) in place.
/// Returns the same positioned kParseError Status family as OpenSnapshot.
Status VerifySnapshotImage(FileBytes bytes, bool deep,
                           const std::string& path = {});

}  // namespace xmlq::storage

#endif  // XMLQ_STORAGE_SNAPSHOT_H_
