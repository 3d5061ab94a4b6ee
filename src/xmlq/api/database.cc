#include "xmlq/api/database.h"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <filesystem>
#include <set>
#include <system_error>
#include <utility>

#include "xmlq/base/crash_point.h"
#include "xmlq/base/crc32.h"
#include "xmlq/base/fault_injector.h"
#include "xmlq/base/file_io.h"
#include "xmlq/base/strings.h"
#include "xmlq/xml/parser.h"
#include "xmlq/xml/serializer.h"
#include "xmlq/xpath/compiler.h"
#include "xmlq/xquery/translate.h"
#include "xmlq/opt/optimizer.h"
#include "xmlq/opt/plan_annotator.h"

namespace xmlq::api {

using algebra::LogicalExpr;
using algebra::LogicalExprPtr;
using algebra::LogicalOp;

Status Database::LoadDocument(std::string name, std::string_view xml_text,
                              xml::ParseOptions options) {
  XMLQ_ASSIGN_OR_RETURN(xml::Document parsed,
                        xml::ParseDocument(xml_text, options));
  return RegisterDocument(std::move(name),
                          std::make_unique<xml::Document>(std::move(parsed)));
}

Status Database::RegisterDocument(std::string name,
                                  std::unique_ptr<xml::Document> doc) {
  if (doc == nullptr) return Status::InvalidArgument("null document");
  if (!doc->IsPreorder()) {
    return Status::InvalidArgument(
        "document node ids must be in pre-order (build top-down)");
  }
  // All physical representations are built outside the catalog lock; only
  // the final pointer swap is serialized.
  auto entry = std::make_shared<Entry>();
  entry->dom = std::move(doc);
  XMLQ_ASSIGN_OR_RETURN(storage::SuccinctDocument succinct,
                        storage::SuccinctDocument::TryBuild(*entry->dom));
  entry->succinct =
      std::make_unique<storage::SuccinctDocument>(std::move(succinct));
  XMLQ_ASSIGN_OR_RETURN(storage::RegionIndex regions,
                        storage::RegionIndex::TryBuild(*entry->dom));
  entry->regions = std::make_unique<storage::RegionIndex>(std::move(regions));
  XMLQ_ASSIGN_OR_RETURN(storage::ValueIndex values,
                        storage::ValueIndex::TryBuild(*entry->dom));
  entry->values = std::make_unique<storage::ValueIndex>(std::move(values));
  entry->synopsis =
      std::make_unique<opt::Synopsis>(*entry->dom, entry->values.get());
  entry->view = exec::IndexedDocument{entry->dom.get(), entry->succinct.get(),
                                      entry->regions.get(),
                                      entry->values.get()};
  return Install(std::move(name), std::move(entry));
}

std::shared_ptr<Database::Entry> Database::EntryFromSnapshot(
    storage::OpenedSnapshot snapshot) {
  auto entry = std::make_shared<Entry>();
  entry->dom = std::move(snapshot.dom);
  entry->succinct = std::move(snapshot.succinct);
  entry->regions = std::move(snapshot.regions);
  entry->values = std::move(snapshot.values);
  entry->backing = std::move(snapshot.backing);
  // The synopsis is a small derived statistic; rebuilding it from the
  // restored DOM keeps it out of the file format.
  entry->synopsis =
      std::make_unique<opt::Synopsis>(*entry->dom, entry->values.get());
  entry->view = exec::IndexedDocument{entry->dom.get(), entry->succinct.get(),
                                      entry->regions.get(),
                                      entry->values.get()};
  return entry;
}

Status Database::Open(std::string name, const std::string& path,
                      storage::SnapshotOpenMode mode) {
  XMLQ_ASSIGN_OR_RETURN(storage::OpenedSnapshot snapshot,
                        storage::OpenSnapshot(path, mode));
  return Install(std::move(name), EntryFromSnapshot(std::move(snapshot)));
}

Status Database::Install(std::string name,
                         std::shared_ptr<const Entry> entry) {
  uint64_t generation = 0;
  {
    std::lock_guard<std::mutex> lock(catalog_mu_);
    auto next = std::make_shared<CatalogState>(*catalog_);
    next->generation = catalog_->generation + 1;
    if (next->entries.empty()) next->default_document = name;
    next->entries[std::move(name)] = std::move(entry);
    generation = next->generation;
    catalog_ = std::move(next);
  }
  // Sweep cached plans compiled under older catalogs. Correctness never
  // depends on this (lookups compare generations); it only frees memory.
  PinPlanCache()->InvalidateGeneration(generation);
  return Status::Ok();
}

std::shared_ptr<const Database::CatalogState> Database::Pin() const {
  std::lock_guard<std::mutex> lock(catalog_mu_);
  return catalog_;
}

Result<storage::SnapshotWriteInfo> Database::Save(
    std::string_view name, const std::string& path) const {
  const std::shared_ptr<const CatalogState> catalog = Pin();
  const Entry* entry = catalog->Find(name);
  if (entry == nullptr) {
    return Status::NotFound("document \"" + std::string(name) +
                            "\" is not loaded");
  }
  return storage::WriteSnapshot(path, *entry->dom, *entry->succinct,
                                *entry->regions, *entry->values);
}

// -- Durable store ----------------------------------------------------------

namespace {

/// The one verify step Attach and Scrub share: reads the snapshot `record`
/// names whole with a plain read() — never mmap, so a file corrupted or
/// truncated at rest cannot SIGBUS the reader — and checks it against the
/// manifest's size and whole-file CRC-32C. That CRC was computed from the
/// bytes WriteSnapshot committed, so corruption that recomputed the in-file
/// header/section checksums to cover its tracks still fails here.
/// `bytes_read` counts what was read, verified or not.
Result<FileBytes> ReadCommittedSnapshot(const std::string& path,
                                        const storage::ManifestRecord& record,
                                        uint64_t* bytes_read) {
  XMLQ_ASSIGN_OR_RETURN(FileBytes bytes, FileBytes::ReadWhole(path));
  *bytes_read += bytes.size();
  if (bytes.size() != record.snapshot_size) {
    return Status::ParseError("snapshot \"" + path + "\": size " +
                              std::to_string(bytes.size()) +
                              " != manifest size " +
                              std::to_string(record.snapshot_size));
  }
  const uint32_t crc = Crc32(bytes.data(), bytes.size());
  if (crc != record.snapshot_crc) {
    return Status::ParseError(
        "snapshot \"" + path + "\": whole-file checksum mismatch " +
        "(manifest " + std::to_string(record.snapshot_crc) + ", computed " +
        std::to_string(crc) + ")");
  }
  return bytes;
}

/// Moves `record`'s snapshot aside to `<file>.quarantined` (keeping the
/// evidence) and journals the drop so the next recovery does not retry it.
Status JournalQuarantine(storage::Manifest& manifest,
                         const storage::ManifestRecord& record) {
  const std::string path = manifest.dir() + "/" + record.file;
  std::error_code ec;
  std::filesystem::rename(path, path + ".quarantined", ec);
  storage::ManifestRecord quarantine;
  quarantine.op = storage::ManifestOp::kQuarantine;
  quarantine.generation = manifest.NextGeneration();
  quarantine.name = record.name;
  quarantine.file = record.file;
  XMLQ_RETURN_IF_ERROR(manifest.Append(quarantine));
  (void)SyncParentDir(path);
  return Status::Ok();
}

void AppendLines(std::string* out, std::string_view label,
                 const std::vector<std::string>& lines) {
  for (const std::string& line : lines) {
    out->append(label);
    out->append(line);
    out->push_back('\n');
  }
}

}  // namespace

std::string RecoveryReport::ToString() const {
  std::string out = "store " + dir + ": " + std::to_string(loaded.size()) +
                    " document(s), " + std::to_string(manifest_records) +
                    " manifest record(s)";
  if (manifest_torn_bytes > 0) {
    out += ", torn tail truncated (" + std::to_string(manifest_torn_bytes) +
           " bytes: " + manifest_torn_detail + ")";
  }
  out.push_back('\n');
  AppendLines(&out, "  loaded ", loaded);
  AppendLines(&out, "  quarantined ", quarantined);
  AppendLines(&out, "  removed orphan ", orphans_removed);
  return out;
}

std::string ScrubReport::ToString() const {
  std::string out = "scrub: " + std::to_string(files_checked) +
                    " snapshot(s), " + std::to_string(bytes_read) +
                    " bytes read (" + (deep ? "deep" : "checksum") +
                    "), " + std::to_string(corrupt) + " corrupt\n";
  AppendLines(&out, "  quarantined ", quarantined);
  AppendLines(&out, "  ", notes);
  return out;
}

Database::~Database() { StopScrubber(); }

Result<RecoveryReport> Database::Attach(const std::string& dir,
                                        storage::SnapshotOpenMode mode) {
  std::lock_guard<std::mutex> lock(store_mu_);
  if (manifest_ != nullptr) {
    return Status::InvalidArgument("already attached to store \"" +
                                   manifest_->dir() + "\"");
  }
  XMLQ_ASSIGN_OR_RETURN(storage::Manifest manifest,
                        storage::Manifest::Open(dir));
  RecoveryReport report;
  report.dir = dir;
  report.manifest_records = manifest.replay().records;
  report.manifest_valid_bytes = manifest.replay().valid_bytes;
  report.manifest_torn_bytes = manifest.replay().torn_bytes;
  report.manifest_torn_detail = manifest.replay().torn_detail;

  // Verify and load every live snapshot, in manifest order. The whole-file
  // CRC recorded in the manifest at commit time is checked against a fresh
  // read *before* the image is trusted, so a snapshot corrupted at rest —
  // even one whose in-file checksums were consistently recomputed — never
  // reaches the catalog. Failures quarantine the file and keep going: one
  // bad snapshot must not take down the rest of the store. Quarantining
  // appends to the manifest, which rewrites entries(), so walk a copy.
  std::vector<storage::ManifestRecord> records;
  for (const auto& [name, record] : manifest.entries()) {
    records.push_back(record);
  }
  struct Recovered {
    uint64_t generation;
    std::string name;
    std::shared_ptr<const Entry> entry;
  };
  std::vector<Recovered> recovered;
  for (const storage::ManifestRecord& record : records) {
    const std::string path = dir + "/" + record.file;
    auto load = [&]() -> Result<std::shared_ptr<const Entry>> {
      uint64_t bytes_read = 0;
      XMLQ_ASSIGN_OR_RETURN(FileBytes bytes,
                            ReadCommittedSnapshot(path, record, &bytes_read));
      storage::OpenedSnapshot snapshot;
      if (mode == storage::SnapshotOpenMode::kMap) {
        // Re-open as a mapping; the bytes just verified stay warm in the
        // page cache, so this does not re-read the file from disk.
        XMLQ_ASSIGN_OR_RETURN(snapshot, storage::OpenSnapshot(path, mode));
      } else {
        XMLQ_ASSIGN_OR_RETURN(
            snapshot, storage::OpenSnapshotFromBytes(std::move(bytes), mode,
                                                     path));
      }
      return std::shared_ptr<const Entry>(
          EntryFromSnapshot(std::move(snapshot)));
    };
    auto entry = load();
    if (entry.ok()) {
      recovered.push_back(
          Recovered{record.generation, record.name, *std::move(entry)});
      report.loaded.push_back(record.name + " (g" +
                              std::to_string(record.generation) + ", " +
                              record.file + ")");
      continue;
    }
    XMLQ_RETURN_IF_ERROR(JournalQuarantine(manifest, record));
    report.quarantined.push_back(record.name + " (" + record.file +
                                 "): " + entry.status().message());
  }

  // Garbage-collect files no committed record references: snapshots from a
  // Persist that crashed before its manifest append, old generations whose
  // unlink crashed, and stray atomic-write temp files. Quarantined evidence
  // and the journal itself are kept.
  std::error_code ec;
  for (const auto& dirent : std::filesystem::directory_iterator(dir, ec)) {
    if (!dirent.is_regular_file(ec)) continue;
    const std::string file = dirent.path().filename().string();
    if (file == storage::kManifestFileName) continue;
    const bool is_snapshot = file.size() > 7 &&
                             file.compare(file.size() - 7, 7, ".xqpack") == 0;
    const bool is_temp = file.find(".tmp") != std::string::npos;
    if (!is_snapshot && !is_temp) continue;
    bool referenced = false;
    for (const auto& [name, record] : manifest.entries()) {
      if (record.file == file) {
        referenced = true;
        break;
      }
    }
    if (referenced) continue;
    std::error_code remove_ec;
    if (std::filesystem::remove(dirent.path(), remove_ec)) {
      report.orphans_removed.push_back(file);
    }
  }
  if (!report.orphans_removed.empty()) (void)SyncParentDir(dir + "/x");

  // Install every recovered document in one catalog swap; the lowest
  // generation becomes the default document when none is set yet (it is
  // the oldest surviving registration, matching load order semantics).
  std::sort(recovered.begin(), recovered.end(),
            [](const Recovered& a, const Recovered& b) {
              return a.generation < b.generation;
            });
  uint64_t catalog_generation = 0;
  {
    std::lock_guard<std::mutex> catalog_lock(catalog_mu_);
    auto next = std::make_shared<CatalogState>(*catalog_);
    next->generation = catalog_->generation + 1;
    for (Recovered& doc : recovered) {
      if (next->default_document.empty()) next->default_document = doc.name;
      next->entries[doc.name] = std::move(doc.entry);
    }
    catalog_generation = next->generation;
    catalog_ = std::move(next);
  }
  PinPlanCache()->InvalidateGeneration(catalog_generation);
  manifest_ = std::make_unique<storage::Manifest>(std::move(manifest));
  store_mode_ = mode;
  epoch_.store(manifest_->epoch());
  return report;
}

Status Database::Persist(std::string_view name) {
  if (follower()) return FollowerRefusal();
  const std::shared_ptr<const CatalogState> catalog = Pin();
  const std::string doc_name = name.empty() ? catalog->default_document
                                            : std::string(name);
  const Entry* entry = catalog->Find(doc_name);
  if (entry == nullptr) {
    return Status::NotFound("document \"" + doc_name + "\" is not loaded");
  }
  std::lock_guard<std::mutex> lock(store_mu_);
  if (manifest_ == nullptr) {
    return Status::InvalidArgument(
        "no store attached (Attach a directory first)");
  }
  XMLQ_CRASH_POINT("persist.begin");
  const uint64_t generation = manifest_->NextGeneration();
  const std::string file = storage::Manifest::SanitizeFileStem(doc_name) +
                           "-g" + std::to_string(generation) + ".xqpack";
  const std::string path = manifest_->dir() + "/" + file;
  XMLQ_ASSIGN_OR_RETURN(
      storage::SnapshotWriteInfo info,
      storage::WriteSnapshot(path, *entry->dom, *entry->succinct,
                             *entry->regions, *entry->values));
  XMLQ_CRASH_POINT("persist.snapshot_written");
  std::string old_file;
  if (const auto it = manifest_->entries().find(doc_name);
      it != manifest_->entries().end()) {
    old_file = it->second.file;
  }
  storage::ManifestRecord record;
  record.op = storage::ManifestOp::kRegister;
  record.generation = generation;
  record.name = doc_name;
  record.file = file;
  record.snapshot_size = info.file_size;
  record.snapshot_crc = info.file_crc;
  // The append below is the commit point: before it, recovery sees the old
  // state (the new file is an unreferenced orphan); after it, the new.
  XMLQ_RETURN_IF_ERROR(manifest_->Append(record));
  XMLQ_CRASH_POINT("persist.committed");
  if (!old_file.empty() && old_file != file) {
    // Best-effort: a crash before this unlink leaves an orphan the next
    // Attach garbage-collects. An mmap of the old file stays valid.
    std::error_code ec;
    std::filesystem::remove(manifest_->dir() + "/" + old_file, ec);
    (void)SyncParentDir(path);
  }
  if (manifest_->ShouldCompact()) {
    // Best-effort journal compaction (atomic old-or-new rewrite): a failure
    // only means the journal keeps its dead records until the next Persist
    // crosses the threshold again.
    (void)manifest_->Compact();
  }
  return Status::Ok();
}

Status Database::Remove(std::string_view name) {
  if (follower()) return FollowerRefusal();
  if (name.empty()) return Status::InvalidArgument("document name required");
  const std::string doc_name(name);
  bool in_store = false;
  {
    std::lock_guard<std::mutex> lock(store_mu_);
    if (manifest_ != nullptr) {
      const auto it = manifest_->entries().find(doc_name);
      if (it != manifest_->entries().end()) {
        in_store = true;
        const std::string file = it->second.file;
        XMLQ_CRASH_POINT("remove.begin");
        storage::ManifestRecord record;
        record.op = storage::ManifestOp::kRemove;
        record.generation = manifest_->NextGeneration();
        record.name = doc_name;
        // The commit point: after this append recovery no longer serves the
        // document, even if the unlink below never happens.
        XMLQ_RETURN_IF_ERROR(manifest_->Append(record));
        XMLQ_CRASH_POINT("remove.committed");
        std::error_code ec;
        std::filesystem::remove(manifest_->dir() + "/" + file, ec);
        (void)SyncParentDir(manifest_->dir() + "/" + file);
      }
    }
  }
  bool dropped = false;
  uint64_t catalog_generation = 0;
  {
    std::lock_guard<std::mutex> lock(catalog_mu_);
    // Swap (and bump the generation) only when the catalog actually
    // changes: a failed remove must not wipe every cached plan.
    if (catalog_->entries.count(doc_name) != 0 ||
        catalog_->degraded.count(doc_name) != 0) {
      auto next = std::make_shared<CatalogState>(*catalog_);
      next->generation = catalog_->generation + 1;
      dropped = next->entries.erase(doc_name) > 0;
      next->degraded.erase(doc_name);
      if (next->default_document == doc_name) {
        next->default_document =
            next->entries.empty() ? "" : next->entries.begin()->first;
      }
      catalog_generation = next->generation;
      catalog_ = std::move(next);
    }
  }
  if (catalog_generation != 0) {
    PinPlanCache()->InvalidateGeneration(catalog_generation);
  }
  if (!in_store && !dropped) {
    return Status::NotFound("document \"" + doc_name + "\" is not loaded");
  }
  return Status::Ok();
}

Result<ScrubReport> Database::Scrub(const ScrubOptions& options) {
  ScrubReport report;
  report.deep = options.deep;
  std::string dir;
  std::vector<storage::ManifestRecord> records;
  {
    std::lock_guard<std::mutex> lock(store_mu_);
    if (manifest_ == nullptr) {
      return Status::InvalidArgument(
          "no store attached (Attach a directory first)");
    }
    dir = manifest_->dir();
    for (const auto& [name, record] : manifest_->entries()) {
      records.push_back(record);
    }
  }
  for (const storage::ManifestRecord& record : records) {
    ++report.files_checked;
    const std::string path = dir + "/" + record.file;
    auto bytes = ReadCommittedSnapshot(path, record, &report.bytes_read);
    const Status status =
        bytes.ok() ? storage::VerifySnapshotImage(bytes->bytes(), options.deep,
                                                  path)
                   : bytes.status();
    if (status.ok()) continue;
    // Only an actual quarantine counts as corruption: a concurrent Persist
    // may have replaced (and unlinked) this generation mid-read, which
    // QuarantineSnapshot detects and skips.
    const size_t before = report.quarantined.size();
    XMLQ_RETURN_IF_ERROR(QuarantineSnapshot(record, status.message(), &report));
    if (report.quarantined.size() > before) ++report.corrupt;
  }
  {
    std::lock_guard<std::mutex> lock(scrub_report_mu_);
    last_scrub_ = report;
  }
  return report;
}

Status Database::QuarantineSnapshot(const storage::ManifestRecord& record,
                                    const std::string& reason,
                                    ScrubReport* report) {
  const std::string path_prefix = [&] {
    std::lock_guard<std::mutex> lock(store_mu_);
    return manifest_ == nullptr ? std::string() : manifest_->dir();
  }();
  const std::string path = path_prefix + "/" + record.file;
  {
    std::lock_guard<std::mutex> lock(store_mu_);
    if (manifest_ == nullptr) return Status::Ok();
    // A concurrent Persist may have replaced this generation while we were
    // reading; then the corrupt bytes are already unlinked history.
    const auto it = manifest_->entries().find(record.name);
    if (it == manifest_->entries().end() ||
        it->second.generation != record.generation) {
      report->notes.push_back(record.name +
                              ": replaced concurrently, skipped");
      return Status::Ok();
    }
    XMLQ_RETURN_IF_ERROR(JournalQuarantine(*manifest_, record));
    report->quarantined.push_back(record.name + " (" + record.file +
                                  "): " + reason);
  }

  // Self-healing trigger (DESIGN.md §14): tell the replication client (when
  // one is attached) which generation just went bad, so it can re-fetch it
  // from the current primary. Outside store_mu_ — the hook only schedules.
  {
    std::function<void(const std::string&, uint64_t)> hook;
    {
      std::lock_guard<std::mutex> lock(quarantine_hook_mu_);
      hook = quarantine_hook_;
    }
    if (hook) hook(record.name, record.generation);
  }

  // Degrade the serving document. A kCopy (or purely in-memory) entry owns
  // bytes validated at load time — it keeps serving, flagged. A kMap entry
  // points at the poisoned file: re-validate a private copy of the mapped
  // bytes and swap it in, or drop the document when the corruption reads
  // through the mapping. In-flight queries are safe either way: they hold
  // catalog pins, and the quarantine *renamed* the file (same inode, the
  // mapping stays backed).
  const std::shared_ptr<const CatalogState> catalog = Pin();
  const auto it = catalog->entries.find(record.name);
  if (it == catalog->entries.end()) {
    report->notes.push_back(record.name + ": not in serving catalog");
    return Status::Ok();
  }
  const Entry& entry = *it->second;
  const bool mapped = entry.backing != nullptr &&
                      entry.backing->mode() == storage::SnapshotOpenMode::kMap &&
                      entry.backing->path() == path;
  std::string note;
  std::shared_ptr<const Entry> replacement;
  bool drop = false;
  if (!mapped) {
    note = "snapshot quarantined (" + reason +
           "); serving load-time-validated in-memory copy";
  } else {
    auto reopened = storage::OpenSnapshotFromBytes(
        FileBytes::Copy(std::string_view(entry.backing->bytes().data(),
                                         entry.backing->bytes().size())),
        storage::SnapshotOpenMode::kCopy, path);
    if (reopened.ok()) {
      replacement = EntryFromSnapshot(std::move(*reopened));
      note = "snapshot quarantined (" + reason +
             "); remapped to revalidated in-memory copy";
    } else {
      drop = true;
      note = "snapshot quarantined and mapped bytes corrupt (" +
             reopened.status().message() + "); document dropped";
    }
  }
  uint64_t catalog_generation = 0;
  {
    std::lock_guard<std::mutex> lock(catalog_mu_);
    auto next = std::make_shared<CatalogState>(*catalog_);
    next->generation = catalog_->generation + 1;
    if (drop) {
      next->entries.erase(record.name);
      next->degraded.erase(record.name);
      if (next->default_document == record.name) {
        next->default_document =
            next->entries.empty() ? "" : next->entries.begin()->first;
      }
    } else {
      if (replacement != nullptr) {
        next->entries[record.name] = std::move(replacement);
      }
      next->degraded[record.name] = note;
    }
    catalog_generation = next->generation;
    catalog_ = std::move(next);
  }
  PinPlanCache()->InvalidateGeneration(catalog_generation);
  report->notes.push_back(record.name + ": " + note);
  return Status::Ok();
}

Status Database::StartScrubber(uint64_t interval_ms, ScrubOptions options) {
  {
    std::lock_guard<std::mutex> lock(store_mu_);
    if (manifest_ == nullptr) {
      return Status::InvalidArgument(
          "no store attached (Attach a directory first)");
    }
  }
  std::lock_guard<std::mutex> lock(scrub_mu_);
  if (scrub_thread_.joinable()) {
    return Status::InvalidArgument("scrubber already running");
  }
  scrub_stop_ = false;
  scrub_thread_ = std::thread(
      [this, interval_ms, options] { ScrubberLoop(interval_ms, options); });
  return Status::Ok();
}

void Database::ScrubberLoop(uint64_t interval_ms, ScrubOptions options) {
  std::unique_lock<std::mutex> lock(scrub_mu_);
  while (!scrub_stop_) {
    if (scrub_cv_.wait_for(lock, std::chrono::milliseconds(interval_ms),
                           [this] { return scrub_stop_; })) {
      break;
    }
    lock.unlock();
    // Only scrub when serving has spare capacity: a pass that cannot get an
    // execution slot is skipped, not queued (the next tick retries).
    auto ticket = scheduler_.TryAdmit();
    if (ticket.ok()) {
      auto report = Scrub(options);
      std::lock_guard<std::mutex> report_lock(scrub_report_mu_);
      if (report.ok()) ++scrub_cycles_;
    } else {
      std::lock_guard<std::mutex> report_lock(scrub_report_mu_);
      ++scrub_skipped_;
    }
    lock.lock();
  }
}

void Database::StopScrubber() {
  std::thread thread;
  {
    std::lock_guard<std::mutex> lock(scrub_mu_);
    scrub_stop_ = true;
    thread = std::move(scrub_thread_);
  }
  scrub_cv_.notify_all();
  if (thread.joinable()) thread.join();
}

bool Database::scrubber_running() const {
  std::lock_guard<std::mutex> lock(scrub_mu_);
  return scrub_thread_.joinable();
}

ScrubReport Database::last_scrub_report() const {
  std::lock_guard<std::mutex> lock(scrub_report_mu_);
  return last_scrub_;
}

uint64_t Database::scrub_cycles() const {
  std::lock_guard<std::mutex> lock(scrub_report_mu_);
  return scrub_cycles_;
}

uint64_t Database::scrub_cycles_skipped() const {
  std::lock_guard<std::mutex> lock(scrub_report_mu_);
  return scrub_skipped_;
}

std::string Database::store_dir() const {
  std::lock_guard<std::mutex> lock(store_mu_);
  return manifest_ == nullptr ? std::string() : manifest_->dir();
}

// -- Replication ------------------------------------------------------------

Result<Database::ReplDelta> Database::ReplDeltaFrom(uint64_t cursor) const {
  std::lock_guard<std::mutex> lock(store_mu_);
  if (manifest_ == nullptr) {
    return Status::InvalidArgument(
        "no store attached (Attach a directory first)");
  }
  ReplDelta delta;
  delta.max_generation = manifest_->max_generation();
  delta.pending = manifest_->LiveRecordsAbove(cursor);
  for (const auto& [name, record] : manifest_->entries()) {
    delta.live.emplace_back(name, record.generation);
  }
  return delta;
}

Status Database::ApplyReplicated(const storage::ManifestRecord& record,
                                 std::string_view bytes) {
  if (record.op != storage::ManifestOp::kRegister) {
    return Status::InvalidArgument("replicated record is not a registration");
  }
  if (record.name.empty()) {
    return Status::InvalidArgument("replicated record carries no name");
  }
  // The shipped file name lands in this store directory verbatim; refuse
  // anything that could escape it or collide with non-snapshot files.
  if (record.file.size() <= 7 ||
      record.file.compare(record.file.size() - 7, 7, ".xqpack") != 0 ||
      record.file.find('/') != std::string::npos ||
      record.file.find("..") != std::string::npos) {
    return Status::InvalidArgument("replicated record file name \"" +
                                   record.file +
                                   "\" is not a store snapshot name");
  }
  std::lock_guard<std::mutex> lock(store_mu_);
  if (manifest_ == nullptr) {
    return Status::InvalidArgument(
        "no store attached (Attach a directory first)");
  }
  // Idempotence, per name (not the global clock): re-shipping a generation
  // this store already has — a crash mid-apply, a reconnect replaying the
  // cursor — is a no-op, while a resync from cursor 0 can still walk the
  // full history to heal divergence.
  if (const auto it = manifest_->entries().find(record.name);
      it != manifest_->entries().end() &&
      it->second.generation >= record.generation) {
    return Status::Ok();
  }
  if (bytes.size() != record.snapshot_size) {
    return Status::ParseError(
        "replicated snapshot for \"" + record.name + "\" g" +
        std::to_string(record.generation) + ": size " +
        std::to_string(bytes.size()) + " != announced " +
        std::to_string(record.snapshot_size));
  }
  const uint32_t crc = Crc32(bytes.data(), bytes.size());
  if (crc != record.snapshot_crc) {
    return Status::ParseError(
        "replicated snapshot for \"" + record.name + "\" g" +
        std::to_string(record.generation) +
        ": whole-file checksum mismatch (announced " +
        std::to_string(record.snapshot_crc) + ", computed " +
        std::to_string(crc) + ")");
  }
  if (XMLQ_FAULT("repl.apply.commit")) {
    return Status::Internal("injected replication apply failure for \"" +
                            record.name + "\" g" +
                            std::to_string(record.generation));
  }
  XMLQ_CRASH_POINT("repl.apply.begin");
  const std::string path = manifest_->dir() + "/" + record.file;
  XMLQ_RETURN_IF_ERROR(WriteFileAtomic(path, bytes));
  XMLQ_CRASH_POINT("repl.apply.snapshot_written");
  // Validate the snapshot opens *before* committing: the manifest append
  // below is the commit point, and a committed-but-unopenable snapshot
  // would only quarantine at the next recovery instead of serving now. A
  // failure here leaves an unreferenced file the next Attach collects.
  XMLQ_ASSIGN_OR_RETURN(storage::OpenedSnapshot snapshot,
                        storage::OpenSnapshot(path, store_mode_));
  std::string old_file;
  if (const auto it = manifest_->entries().find(record.name);
      it != manifest_->entries().end()) {
    old_file = it->second.file;
  }
  // The record is journaled with the *primary's* generation, so this
  // store's manifest clock (max_generation) is exactly the replication
  // cursor to resume from after a restart.
  XMLQ_RETURN_IF_ERROR(manifest_->Append(record));
  XMLQ_CRASH_POINT("repl.apply.committed");
  if (!old_file.empty() && old_file != record.file) {
    std::error_code ec;
    std::filesystem::remove(manifest_->dir() + "/" + old_file, ec);
    (void)SyncParentDir(path);
  }
  if (manifest_->ShouldCompact()) (void)manifest_->Compact();
  return Install(record.name, EntryFromSnapshot(std::move(snapshot)));
}

Status Database::ApplyReplicatedRemove(std::string_view name,
                                       uint64_t primary_generation) {
  const std::string doc_name(name);
  {
    std::lock_guard<std::mutex> lock(store_mu_);
    if (manifest_ == nullptr) {
      return Status::InvalidArgument(
          "no store attached (Attach a directory first)");
    }
    const auto it = manifest_->entries().find(doc_name);
    if (it == manifest_->entries().end()) return Status::Ok();
    const std::string file = it->second.file;
    storage::ManifestRecord record;
    record.op = storage::ManifestOp::kRemove;
    record.generation = primary_generation;
    record.name = doc_name;
    XMLQ_RETURN_IF_ERROR(manifest_->Append(record));
    std::error_code ec;
    std::filesystem::remove(manifest_->dir() + "/" + file, ec);
    (void)SyncParentDir(manifest_->dir() + "/" + file);
  }
  uint64_t catalog_generation = 0;
  {
    std::lock_guard<std::mutex> lock(catalog_mu_);
    if (catalog_->entries.count(doc_name) != 0 ||
        catalog_->degraded.count(doc_name) != 0) {
      auto next = std::make_shared<CatalogState>(*catalog_);
      next->generation = catalog_->generation + 1;
      next->entries.erase(doc_name);
      next->degraded.erase(doc_name);
      if (next->default_document == doc_name) {
        next->default_document =
            next->entries.empty() ? "" : next->entries.begin()->first;
      }
      catalog_generation = next->generation;
      catalog_ = std::move(next);
    }
  }
  if (catalog_generation != 0) {
    PinPlanCache()->InvalidateGeneration(catalog_generation);
  }
  return Status::Ok();
}

void Database::SetPrimaryHint(std::string host_port) {
  std::lock_guard<std::mutex> lock(hint_mu_);
  primary_hint_ = std::move(host_port);
}

std::string Database::primary_hint() const {
  std::lock_guard<std::mutex> lock(hint_mu_);
  return primary_hint_;
}

Status Database::FollowerRefusal() const {
  const std::string hint = primary_hint();
  std::string message =
      "follower is read-only: the replication stream owns this store";
  message += hint.empty() ? "; primary unknown"
                          : "; writes go to the primary at " + hint;
  // The same structured hint the admission layer uses, so wire clients'
  // QueryWithRetry-style backoff parses it without a new code path.
  message += "; retry-after-micros=1000000";
  return Status::InvalidArgument(std::move(message));
}

Result<uint64_t> Database::Promote() {
  std::lock_guard<std::mutex> lock(store_mu_);
  if (manifest_ == nullptr) {
    return Status::InvalidArgument(
        "no store attached (Attach a directory first)");
  }
  XMLQ_CRASH_POINT("promote.begin");
  storage::ManifestRecord record;
  record.op = storage::ManifestOp::kEpoch;
  record.generation = manifest_->epoch() + 1;
  // The append is the commit point: a crash before it leaves the old
  // epoch (and this node still a follower after restart, if its operator
  // config says so); after it, the new epoch fences every older primary.
  XMLQ_RETURN_IF_ERROR(manifest_->Append(record));
  XMLQ_CRASH_POINT("promote.committed");
  epoch_.store(manifest_->epoch());
  follower_.store(false);
  return manifest_->epoch();
}

Status Database::AdoptEpoch(uint64_t epoch) {
  std::lock_guard<std::mutex> lock(store_mu_);
  if (epoch <= epoch_.load()) return Status::Ok();  // monotone: no-op
  if (manifest_ == nullptr) {
    return Status::InvalidArgument(
        "no store attached (Attach a directory first)");
  }
  storage::ManifestRecord record;
  record.op = storage::ManifestOp::kEpoch;
  record.generation = epoch;
  XMLQ_RETURN_IF_ERROR(manifest_->Append(record));
  epoch_.store(manifest_->epoch());
  return Status::Ok();
}

void Database::SetQuarantineHook(
    std::function<void(const std::string&, uint64_t)> hook) {
  std::lock_guard<std::mutex> lock(quarantine_hook_mu_);
  quarantine_hook_ = std::move(hook);
}

void Database::SetReadGate(std::shared_ptr<exec::StalenessGate> gate) const {
  std::lock_guard<std::mutex> lock(read_gate_mu_);
  read_gate_ = std::move(gate);
}

std::shared_ptr<exec::StalenessGate> Database::PinReadGate() const {
  std::lock_guard<std::mutex> lock(read_gate_mu_);
  return read_gate_;
}

bool Database::Contains(std::string_view name) const {
  const std::shared_ptr<const CatalogState> catalog = Pin();
  return catalog->entries.find(name) != catalog->entries.end();
}

const exec::IndexedDocument* Database::Get(std::string_view name) const {
  const std::shared_ptr<const CatalogState> catalog = Pin();
  const Entry* entry = catalog->Find(name);
  return entry == nullptr ? nullptr : &entry->view;
}

const opt::Synopsis* Database::GetSynopsis(std::string_view name) const {
  const std::shared_ptr<const CatalogState> catalog = Pin();
  const Entry* entry = catalog->Find(name);
  return entry == nullptr ? nullptr : entry->synopsis.get();
}

std::string Database::default_document() const {
  return Pin()->default_document;
}

exec::EvalContext Database::MakeContext(const CatalogState& catalog,
                                        const QueryOptions& options) const {
  exec::EvalContext context;
  for (const auto& [name, entry] : catalog.entries) {
    context.documents.emplace(name, entry->view);
  }
  if (!catalog.default_document.empty()) {
    const auto it = catalog.entries.find(catalog.default_document);
    if (it != catalog.entries.end()) {
      context.documents.emplace("", it->second->view);
    }
  }
  context.flwor_mode = options.flwor_mode;
  return context;
}

namespace {

/// Finds every τ node in a plan.
void CollectPatterns(const LogicalExpr& plan,
                     std::vector<const LogicalExpr*>* out) {
  if (plan.op == LogicalOp::kTreePattern) out->push_back(&plan);
  for (const auto& child : plan.children) CollectPatterns(*child, out);
}

/// Every document name the plan scans (for the degraded-doc check).
void CollectDocNames(const LogicalExpr& plan, std::set<std::string>* out) {
  if (plan.op == LogicalOp::kDocScan) out->insert(plan.str);
  for (const auto& child : plan.children) CollectDocNames(*child, out);
}

/// First DocScan in the plan — the document the profile annotator uses for
/// its synopsis estimates.
const LogicalExpr* FindDocScan(const LogicalExpr& plan) {
  if (plan.op == LogicalOp::kDocScan) return &plan;
  for (const auto& child : plan.children) {
    if (const LogicalExpr* found = FindDocScan(*child)) return found;
  }
  return nullptr;
}

/// Unregisters a query from the active-token map on every exit path.
class ActiveRegistration {
 public:
  ActiveRegistration(std::mutex* mu,
                     std::map<uint64_t, std::shared_ptr<CancelToken>>* active,
                     uint64_t id, std::shared_ptr<CancelToken> token)
      : mu_(mu), active_(active), id_(id) {
    std::lock_guard<std::mutex> lock(*mu_);
    (*active_)[id_] = std::move(token);
  }
  ~ActiveRegistration() {
    std::lock_guard<std::mutex> lock(*mu_);
    active_->erase(id_);
  }
  ActiveRegistration(const ActiveRegistration&) = delete;
  ActiveRegistration& operator=(const ActiveRegistration&) = delete;

 private:
  std::mutex* mu_;
  std::map<uint64_t, std::shared_ptr<CancelToken>>* active_;
  uint64_t id_;
};

}  // namespace

void Database::PlanStrategies(const CatalogState& catalog, LogicalExpr* plan,
                              const QueryOptions& options,
                              std::string* explanation) const {
  if (plan->op == LogicalOp::kTreePattern && plan->pattern != nullptr) {
    plan->strategy = options.strategy;
    // The pattern's document is its DocScan child when present.
    std::string doc_name;
    if (!plan->children.empty() &&
        plan->children[0]->op == LogicalOp::kDocScan) {
      doc_name = plan->children[0]->str;
    }
    const Entry* entry = catalog.Find(doc_name);
    if (entry != nullptr && (options.auto_optimize || explanation != nullptr)) {
      const opt::StrategyChoice choice = opt::ChooseStrategy(
          *entry->synopsis, entry->dom->pool(), *plan->pattern);
      if (options.auto_optimize) plan->strategy = choice.strategy;
      if (explanation != nullptr) {
        explanation->append(choice.explanation);
        explanation->push_back('\n');
      }
    }
  }
  for (const auto& child : plan->children) {
    PlanStrategies(catalog, child.get(), options, explanation);
  }
}

namespace {

/// Copies each τ node's engine from `from` onto the same node of `to`, a
/// plan of the same shape (`from` is a bound clone of `to`).
void CopyStrategies(const LogicalExpr& from, LogicalExpr* to) {
  to->strategy = from.strategy;
  for (size_t i = 0; i < from.children.size(); ++i) {
    CopyStrategies(*from.children[i], to->children[i].get());
  }
}

std::string CachedProvenance(const cache::CachedPlan& entry,
                             uint64_t generation,
                             const std::vector<std::string>& binds) {
  const auto age = std::chrono::duration_cast<std::chrono::seconds>(
                       std::chrono::steady_clock::now() - entry.created)
                       .count();
  std::vector<const LogicalExpr*> patterns;
  CollectPatterns(*entry.plan, &patterns);
  std::string out =
      "cached (gen " + std::to_string(generation) + ", age " +
      std::to_string(age) + "s, hits " +
      std::to_string(entry.hit_count.load(std::memory_order_relaxed));
  // The per-τ-node engine picks, in plan order.
  for (size_t i = 0; i < patterns.size(); ++i) {
    out += i == 0 ? (patterns.size() == 1 ? ", strategy " : ", strategies ")
                  : ", ";
    out += exec::PatternStrategyName(patterns[i]->strategy);
  }
  out += ")";
  if (entry.parameterized && !binds.empty()) {
    out += ", binds [";
    for (size_t i = 0; i < binds.size(); ++i) {
      if (i > 0) out += ", ";
      out += binds[i];
    }
    out += "]";
  }
  return out;
}

/// Rebuilds executable query text from a parameterized template by textually
/// replacing each slot's sentinel (planted exactly once by the canonical
/// render) with the quoted bind value — the uncached fallback for explicit
/// binds when the compiled template can't be bound plan-side.
Result<std::string> SubstituteBindText(
    const cache::NormalizedQuery& normalized,
    const std::vector<std::string>& values) {
  std::string text = normalized.compile_text;
  for (size_t i = 0; i < normalized.slots.size(); ++i) {
    const cache::BindSlot& slot = normalized.slots[i];
    std::string needle;
    std::string replacement;
    if (slot.numeric) {
      needle = slot.sentinel;
      replacement = values[i];
    } else {
      needle = "\"" + slot.sentinel + "\"";
      const bool has_d = values[i].find('"') != std::string::npos;
      const bool has_s = values[i].find('\'') != std::string::npos;
      if (has_d && has_s) {
        return Status::InvalidArgument(
            "bind slot " + std::to_string(i) +
            " value mixes both quote characters; not expressible as a "
            "literal for this query");
      }
      const char quote = has_d ? '\'' : '"';
      replacement = quote + values[i] + quote;
    }
    const size_t pos = text.find(needle);
    if (pos == std::string::npos) {
      return Status::Internal("bind sentinel " + std::to_string(i) +
                              " missing from template text");
    }
    text.replace(pos, needle.size(), replacement);
  }
  return text;
}

}  // namespace

Result<exec::QueryResult> Database::Run(
    LogicalExprPtr plan, const QueryOptions& options,
    std::shared_ptr<const CatalogState> catalog,
    std::string provenance) const {
  // Every execution gets a serving identity and a cancel token, registered
  // *before* admission so a queued query is already cancellable.
  const uint64_t query_id =
      next_query_id_.fetch_add(1, std::memory_order_relaxed);
  std::shared_ptr<CancelToken> token =
      std::const_pointer_cast<CancelToken>(options.limits.cancel_token);
  if (token == nullptr) token = std::make_shared<CancelToken>();
  ActiveRegistration registration(&active_mu_, &active_, query_id, token);
  if (options.query_id_out != nullptr) {
    options.query_id_out->store(query_id, std::memory_order_release);
  }

  // Follower-read admission: a replica too stale for the configured bound
  // sheds the read with the standard retry-after hint *before* consuming a
  // scheduler slot. No gate (the default) admits everything.
  if (const std::shared_ptr<exec::StalenessGate> gate = PinReadGate();
      gate != nullptr) {
    XMLQ_RETURN_IF_ERROR(gate->Admit());
  }

  XMLQ_ASSIGN_OR_RETURN(exec::QueryScheduler::Ticket ticket,
                        scheduler_.Admit(token.get()));

  exec::EvalContext context = MakeContext(*catalog, options);
  std::unique_ptr<exec::PlanProfile> profile;
  if (options.collect_stats) {
    profile = exec::PlanProfile::Create(*plan);
    std::string doc_name;
    if (const LogicalExpr* scan = FindDocScan(*plan); scan != nullptr) {
      doc_name = scan->str;
    }
    if (const Entry* entry = catalog->Find(doc_name); entry != nullptr) {
      opt::AnnotateProfile(*entry->synopsis, entry->dom->pool(), *plan,
                           profile.get());
    }
    context.profile = profile.get();
  }
  // The guard lives on this frame: the executor and everything below it only
  // borrow the pointer, and Run outlives the evaluation. The serving token
  // means every query is governed (cancellable) even with no explicit
  // limits; the extra poll every 4096 steps is noise (bench R1).
  QueryLimits limits = options.limits;
  limits.cancel_token = token;
  ResourceGuard guard(limits);
  context.guard = &guard;
  context.breaker = &breaker_;
  context.admitted_seq = ticket.admitted_seq();
  exec::FallbackInfo fallback;
  context.fallback = &fallback;

  exec::Executor executor(&context);
  auto result = executor.Evaluate(*plan);
  if (profile != nullptr) {
    if (fallback.Degraded()) {
      opt::ReannotateFallback(*plan, fallback, profile.get());
    }
    profile->Finalize();
  }
  if (!result.ok()) return result.status();
  result->profile = std::move(profile);
  result->query_id = query_id;
  result->plan_provenance = std::move(provenance);
  // Surface scrubber degradations for every document this query scanned,
  // the same channel engine fallbacks use.
  if (!catalog->degraded.empty()) {
    std::set<std::string> docs;
    CollectDocNames(*plan, &docs);
    for (const std::string& doc : docs) {
      const std::string& resolved =
          doc.empty() ? catalog->default_document : doc;
      const auto it = catalog->degraded.find(resolved);
      if (it == catalog->degraded.end()) continue;
      result->degraded = true;
      if (!result->degradation.empty()) result->degradation += "; ";
      result->degradation += "document \"" + it->first + "\": " + it->second;
    }
  }
  result->pinned = std::move(catalog);
  if (fallback.Degraded()) {
    // The first reroute names the engine and the reason.
    const exec::FallbackInfo::Reroute& first = fallback.reroutes.front();
    result->degraded = true;
    if (!result->degradation.empty()) result->degradation += "; ";
    result->degradation +=
        "τ engine " + std::string(exec::PatternStrategyName(first.from)) +
        (first.quarantined ? " quarantined (circuit breaker open)"
                           : " faulted (" + first.reason + ")") +
        "; degraded to naive navigation";
  }
  return result;
}

Result<LogicalExprPtr> Database::Compile(std::string_view query,
                                         const QueryOptions& options,
                                         const CatalogState& catalog) const {
  xquery::TranslateOptions translate_options;
  translate_options.default_document = catalog.default_document;
  translate_options.apply_rewrites = options.apply_rewrites;
  auto plan = xquery::CompileQuery(query, translate_options);
  if (plan.ok()) return plan;
  // Pure XPath with predicates is outside the XQuery path subset but fully
  // supported by the XPath front end; fall back for absolute paths.
  const std::string_view trimmed = TrimWhitespace(query);
  if (!trimmed.empty() && trimmed[0] == '/') {
    auto xpath_plan = xpath::CompilePath(trimmed, catalog.default_document);
    if (xpath_plan.ok()) return xpath_plan;
  }
  return plan.status();
}

std::string Database::CacheKey(bool is_path, const std::string& path_doc,
                               const QueryOptions& options,
                               const std::string& fingerprint) {
  // Front-end tag: XPath plans depend on the explicit target document;
  // XQuery plans resolve documents (and the default document) from the
  // catalog, which the generation already versions.
  std::string key = is_path ? "P\x1f" + path_doc : std::string("Q");
  key += '\x1f';
  // Options class: anything that changes what Compile/PlanStrategies
  // produce.
  if (options.auto_optimize) {
    key += 'A';
  } else {
    key += 'F';
    key.append(exec::PatternStrategyName(options.strategy));
  }
  key += options.flwor_mode == exec::FlworMode::kEnv ? 'e' : 'p';
  key += options.apply_rewrites ? 'r' : 'n';
  // Limits class: bounded/unbounded bits only — the plan is identical, but
  // keeping classes apart keeps a fleet of deadline-bound queries from
  // sharing hit counters and LRU slots with unbounded ad-hoc runs.
  key += options.limits.deadline_micros != 0 ? 'd' : '-';
  key += options.limits.max_steps != 0 ? 's' : '-';
  key += options.limits.max_memory_bytes != 0 ? 'm' : '-';
  key += '\x1f';
  key += fingerprint;
  return key;
}

Result<exec::QueryResult> Database::CachedExecute(
    std::string_view original_text, const cache::NormalizedQuery& normalized,
    const std::vector<std::string>& values, const QueryOptions& options,
    std::shared_ptr<const CatalogState> catalog, bool is_path,
    const std::string& path_doc) const {
  const std::shared_ptr<cache::PlanCache> plan_cache = PinPlanCache();
  // Explicit binds (PreparedQuery::Execute(binds)) that differ from the
  // text's own literals: every path must substitute them — re-running the
  // original text would execute the literals the query was *prepared* with.
  const bool custom_binds = normalized.parameterized &&
                            &values != &normalized.values &&
                            values != normalized.values;
  const auto run_uncached =
      [&](std::string provenance) -> Result<exec::QueryResult> {
    plan_cache->RecordBypass();
    LogicalExprPtr plan;
    if (custom_binds) {
      // Compile the sentinel template and bind, exactly like a cache hit;
      // when the compiled form hides a sentinel from the binder, fall back
      // to substituting the binds into the template text itself.
      Result<LogicalExprPtr> tmpl =
          is_path ? xpath::CompilePath(normalized.compile_text, path_doc)
                  : Compile(normalized.compile_text, options, *catalog);
      if (tmpl.ok() && cache::ValidateSentinels(**tmpl, normalized.slots)) {
        plan = cache::BindPlan(**tmpl, normalized.slots, values);
      } else {
        XMLQ_ASSIGN_OR_RETURN(const std::string text,
                              SubstituteBindText(normalized, values));
        XMLQ_ASSIGN_OR_RETURN(
            plan, is_path ? xpath::CompilePath(text, path_doc)
                          : Compile(text, options, *catalog));
      }
    } else {
      XMLQ_ASSIGN_OR_RETURN(
          plan, is_path ? xpath::CompilePath(original_text, path_doc)
                        : Compile(original_text, options, *catalog));
    }
    PlanStrategies(*catalog, plan.get(), options);
    return Run(std::move(plan), options, std::move(catalog),
               std::move(provenance));
  };
  if (!plan_cache->config().enabled || !options.use_plan_cache) {
    return run_uncached("fresh (cache bypassed)");
  }

  const std::string key =
      CacheKey(is_path, path_doc, options, normalized.fingerprint);
  std::shared_ptr<cache::CachedPlan> entry =
      plan_cache->Lookup(key, catalog->generation);
  if (entry != nullptr &&
      (entry->parameterized ? entry->slots.size() != values.size()
                            : !values.empty())) {
    // Belt-and-braces against key-namespace bugs: a template whose slot
    // count doesn't match this execution's binds must not be bound (BindPlan
    // indexes values by slot position). Treat as a miss — the re-compiled
    // template just loses the Insert race below.
    entry = nullptr;
  }
  if (entry != nullptr) {
    // Hit: no parse, no rewrite, no optimizer — clone the template (its τ
    // nodes keep their engines), substitute this execution's binds, run.
    LogicalExprPtr bound =
        entry->parameterized
            ? cache::BindPlan(*entry->plan, entry->slots, values)
            : entry->plan->Clone();
    std::string provenance =
        CachedProvenance(*entry, catalog->generation, values);
    return Run(std::move(bound), options, std::move(catalog),
               std::move(provenance));
  }

  // Miss: compile the sentinel template (one plan per fingerprint), check
  // the binder can reach every lifted literal, bind this execution's
  // values, pick each τ node's engine on the *bound* plan (real values →
  // real value-index counts), keep the picks in the template, and try to
  // install it. Query/QueryPath
  // normalize in the light mode (fingerprint + values only — all a hit
  // needs), so the sentinel render happens here, on the slow path.
  cache::NormalizedQuery full_storage;
  const cache::NormalizedQuery* full = &normalized;
  if (normalized.compile_text.empty()) {
    full_storage = cache::NormalizeQuery(original_text);
    full = &full_storage;
  }
  Result<LogicalExprPtr> tmpl =
      is_path ? xpath::CompilePath(full->compile_text, path_doc)
              : Compile(full->compile_text, options, *catalog);
  if (!tmpl.ok() || (full->parameterized &&
                     !cache::ValidateSentinels(**tmpl, full->slots))) {
    return run_uncached("fresh (not cacheable)");
  }
  LogicalExprPtr bound = full->parameterized
                             ? cache::BindPlan(**tmpl, full->slots, values)
                             : (*tmpl)->Clone();
  PlanStrategies(*catalog, bound.get(), options);
  CopyStrategies(*bound, tmpl->get());
  entry = std::make_shared<cache::CachedPlan>();
  entry->key = key;
  entry->generation = catalog->generation;
  entry->slots = full->slots;
  entry->parameterized = full->parameterized;
  entry->created = std::chrono::steady_clock::now();
  entry->plan = std::move(*tmpl);
  entry->bytes = cache::PlanFootprint(*entry->plan) + key.size() +
                 sizeof(cache::CachedPlan);
  // Insert may fail (injected fault, racing first writer, over-budget
  // entry): the query still runs off its own bound copy.
  (void)plan_cache->Insert(std::move(entry));
  return Run(std::move(bound), options, std::move(catalog), "fresh");
}

Result<exec::QueryResult> Database::Query(std::string_view query,
                                          const QueryOptions& options) const {
  // One pin covers compilation and execution, so the default document the
  // plan was compiled against is exactly the one it runs against even when
  // a writer swaps the catalog in between.
  std::shared_ptr<const CatalogState> catalog = Pin();
  const cache::NormalizedQuery normalized =
      cache::NormalizeQuery(query, /*render_compile_text=*/false);
  return CachedExecute(query, normalized, normalized.values, options,
                       std::move(catalog), /*is_path=*/false, "");
}

Result<exec::QueryResult> Database::QueryPath(
    std::string_view path, std::string_view doc_name,
    const QueryOptions& options) const {
  std::shared_ptr<const CatalogState> catalog = Pin();
  const std::string name = doc_name.empty() ? catalog->default_document
                                            : std::string(doc_name);
  const cache::NormalizedQuery normalized =
      cache::NormalizeQuery(path, /*render_compile_text=*/false);
  return CachedExecute(path, normalized, normalized.values, options,
                       std::move(catalog), /*is_path=*/true, name);
}

Result<PreparedQuery> Database::Prepare(std::string_view text,
                                        const QueryOptions& options) const {
  const std::shared_ptr<const CatalogState> catalog = Pin();
  // Surface syntax errors now, not at the first Execute.
  XMLQ_RETURN_IF_ERROR(Compile(text, options, *catalog).status());
  return PreparedQuery(this, std::string(text), options,
                       cache::NormalizeQuery(text));
}

Result<exec::QueryResult> PreparedQuery::Execute() const {
  return Execute(normalized_.values, options_);
}

Result<exec::QueryResult> PreparedQuery::Execute(
    const std::vector<std::string>& binds) const {
  return Execute(binds, options_);
}

Result<exec::QueryResult> PreparedQuery::Execute(
    const std::vector<std::string>& binds,
    const QueryOptions& options) const {
  if (binds.size() != normalized_.slots.size()) {
    return Status::InvalidArgument(
        "prepared query has " + std::to_string(normalized_.slots.size()) +
        " bind slot(s), got " + std::to_string(binds.size()) + " value(s)");
  }
  for (size_t i = 0; i < binds.size(); ++i) {
    const std::string& v = binds[i];
    const bool numeric = normalized_.slots[i].numeric;
    if (numeric) {
      // Numeric slots must stay well-formed numbers — digits with at most
      // one dot and digits on both sides of it — so the bound plan is
      // byte-for-byte what compiling the literal would have produced (a
      // malformed string like "1.2.3" would otherwise diverge from its
      // strtod prefix parse).
      const bool ok = [&] {
        if (v.empty() || !std::isdigit(static_cast<unsigned char>(v[0]))) {
          return false;
        }
        bool seen_dot = false;
        for (size_t j = 0; j < v.size(); ++j) {
          if (v[j] == '.') {
            if (seen_dot || j + 1 >= v.size() ||
                !std::isdigit(static_cast<unsigned char>(v[j + 1]))) {
              return false;
            }
            seen_dot = true;
          } else if (!std::isdigit(static_cast<unsigned char>(v[j]))) {
            return false;
          }
        }
        return true;
      }();
      if (!ok) {
        return Status::InvalidArgument("bind slot " + std::to_string(i) +
                                       " expects a number, got \"" + v +
                                       "\"");
      }
    }
    if (cache::CollidesWithSentinelSpace(v, numeric)) {
      return Status::InvalidArgument(
          "bind slot " + std::to_string(i) +
          " value collides with the plan-cache sentinel encoding");
    }
  }
  return db_->CachedExecute(text_, normalized_, binds, options, db_->Pin(),
                            /*is_path=*/false, "");
}

Result<std::string> Database::Explain(std::string_view query,
                                      const QueryOptions& options) const {
  const std::shared_ptr<const CatalogState> catalog = Pin();
  XMLQ_ASSIGN_OR_RETURN(LogicalExprPtr plan,
                        Compile(query, options, *catalog));
  std::string out;
  // Plan provenance header: what Query(text) would serve right now. Peek,
  // not Lookup — explaining a query must not bump its LRU position or hit
  // counters.
  const std::shared_ptr<cache::PlanCache> plan_cache = PinPlanCache();
  if (plan_cache->config().enabled && options.use_plan_cache) {
    const cache::NormalizedQuery normalized =
        cache::NormalizeQuery(query, /*render_compile_text=*/false);
    const std::string key =
        CacheKey(/*is_path=*/false, "", options, normalized.fingerprint);
    if (const std::shared_ptr<cache::CachedPlan> entry =
            plan_cache->Peek(key, catalog->generation)) {
      out += "-- plan: " +
             CachedProvenance(*entry, catalog->generation, normalized.values) +
             "\n";
    } else {
      out += "-- plan: fresh (not cached)\n";
    }
  }
  out += plan->ToString();
  std::string strategies;
  PlanStrategies(*catalog, plan.get(), options, &strategies);
  if (!strategies.empty()) {
    out += "-- physical strategy --\n" + strategies;
  }
  return out;
}

Result<std::string> Database::ExplainAnalyze(
    std::string_view query, const QueryOptions& options) const {
  QueryOptions analyze_options = options;
  analyze_options.collect_stats = true;
  XMLQ_ASSIGN_OR_RETURN(exec::QueryResult result,
                        Query(query, analyze_options));
  std::string out;
  if (!result.plan_provenance.empty()) {
    out += "-- plan: " + result.plan_provenance + "\n";
  }
  if (result.profile != nullptr) out += result.profile->ToString();
  out += "-- " + std::to_string(result.value.size()) + " item(s)\n";
  if (result.degraded) {
    out += "-- degraded: " + result.degradation + "\n";
  }
  return out;
}

std::shared_ptr<cache::PlanCache> Database::PinPlanCache() const {
  std::lock_guard<std::mutex> lock(plan_cache_mu_);
  return plan_cache_;
}

void Database::SetPlanCache(const cache::CacheConfig& config) const {
  // Swap whole: in-flight queries finish against the instance they pinned;
  // old entries die with the last reference.
  auto next = std::make_shared<cache::PlanCache>(config);
  std::lock_guard<std::mutex> lock(plan_cache_mu_);
  plan_cache_ = std::move(next);
}

cache::CacheStats Database::plan_cache_stats() const {
  return PinPlanCache()->Stats();
}

void Database::SetAdmission(const exec::AdmissionConfig& config) const {
  scheduler_.Configure(config);
}

void Database::SetBreaker(const exec::CircuitBreaker::Config& config) const {
  breaker_.Configure(config);
}

bool Database::Cancel(uint64_t query_id) const {
  std::shared_ptr<CancelToken> token;
  {
    std::lock_guard<std::mutex> lock(active_mu_);
    const auto it = active_.find(query_id);
    if (it == active_.end()) return false;
    token = it->second;
  }
  token->Cancel();
  // Wake the admission queue so a still-queued query notices promptly.
  scheduler_.Poke();
  return true;
}

exec::AdmissionStats Database::admission_stats() const {
  return scheduler_.Stats();
}

std::string Database::BreakerReport() const { return breaker_.Render(); }

std::string Database::ToXml(const exec::QueryResult& result, bool indent) {
  xml::SerializeOptions options;
  options.indent = indent;
  std::string out;
  for (const algebra::Item& item : result.value) {
    if (!out.empty()) out.push_back('\n');
    if (item.IsNode()) {
      out += xml::Serialize(*item.node().doc, item.node().id, options);
    } else {
      out += item.StringValue();
    }
  }
  return out;
}

Result<StorageReport> Database::Report(std::string_view name) const {
  const std::shared_ptr<const CatalogState> catalog = Pin();
  const Entry* entry = catalog->Find(name);
  if (entry == nullptr) {
    return Status::NotFound("document \"" + std::string(name) +
                            "\" is not loaded");
  }
  StorageReport report;
  report.dom_bytes = entry->dom->MemoryUsage();
  report.succinct_structure_bytes = entry->succinct->StructureBytes();
  report.succinct_content_bytes = entry->succinct->ContentBytes();
  report.region_index_bytes = entry->regions->MemoryUsage();
  report.value_index_bytes = entry->values->MemoryUsage();
  report.node_count = entry->dom->NodeCount();
  report.succinct_heap_bytes = entry->succinct->HeapBytes();
  report.region_index_heap_bytes = entry->regions->HeapBytes();
  report.value_index_heap_bytes = entry->values->HeapBytes();
  if (entry->backing != nullptr) {
    report.from_snapshot = true;
    report.mapped =
        entry->backing->mode() == storage::SnapshotOpenMode::kMap;
    report.snapshot_file_bytes = entry->backing->file_size();
  }
  return report;
}

}  // namespace xmlq::api
