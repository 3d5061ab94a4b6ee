// Database's durable store (DESIGN.md §9, §13, §14): recovery, persist and
// remove, the scrubber, replicated apply and the failover epoch.

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <map>
#include <ranges>
#include <system_error>
#include <utility>

#include "xmlq/api/database.h"
#include "xmlq/base/crash_point.h"
#include "xmlq/base/crc32.h"
#include "xmlq/base/fault_injector.h"
#include "xmlq/base/file_io.h"

namespace xmlq::api {

namespace {

/// The one committed-bytes check: `bytes` must have the whole-file size and
/// CRC-32C `record` carries, which come from the bytes WriteSnapshot
/// committed. `subject` names the bytes in the error; `source` names where
/// the expected values came from ("manifest", "announced").
Status CheckCommittedBytes(std::string_view bytes,
                           const storage::ManifestRecord& record,
                           const std::string& subject,
                           std::string_view source) {
  if (bytes.size() != record.snapshot_size) {
    return Status::ParseError(subject + ": size " +
                              std::to_string(bytes.size()) + " != " +
                              std::string(source) + " size " +
                              std::to_string(record.snapshot_size));
  }
  const uint32_t crc = Crc32(bytes.data(), bytes.size());
  if (crc != record.snapshot_crc) {
    return Status::ParseError(
        subject + ": whole-file checksum mismatch (" + std::string(source) +
        " " + std::to_string(record.snapshot_crc) + ", computed " +
        std::to_string(crc) + ")");
  }
  return Status::Ok();
}

/// The one verify step Attach and Scrub share: reads the snapshot `record`
/// names whole with a plain read() — never mmap, so a file corrupted or
/// truncated at rest cannot SIGBUS the reader — and checks it against the
/// manifest's size and whole-file CRC-32C. That CRC was computed at commit,
/// so corruption that recomputed the in-file header/section checksums to
/// cover its tracks still fails here. `bytes_read` counts what was read,
/// verified or not.
Result<FileBytes> ReadCommittedSnapshot(const std::string& path,
                                        const storage::ManifestRecord& record,
                                        uint64_t* bytes_read) {
  XMLQ_ASSIGN_OR_RETURN(FileBytes bytes, FileBytes::ReadWhole(path));
  *bytes_read += bytes.size();
  XMLQ_RETURN_IF_ERROR(
      CheckCommittedBytes(std::string_view(bytes.data(), bytes.size()),
                          record, "snapshot \"" + path + "\"", "manifest"));
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

Status Database::RequireStore() const {
  if (manifest_ != nullptr) return Status::Ok();
  return Status::InvalidArgument(
      "no store attached (Attach a directory first)");
}

Status Database::CommitRegister(const storage::ManifestRecord& record,
                                std::string_view kill_prefix) {
  std::string old_file;
  if (const auto it = manifest_->entries().find(record.name);
      it != manifest_->entries().end()) {
    old_file = it->second.file;
  }
  // The append is the commit point: before it, recovery sees the old state
  // (the new file is an unreferenced orphan); after it, the new.
  XMLQ_RETURN_IF_ERROR(manifest_->Append(record));
  XMLQ_CRASH_POINT(std::string(kill_prefix) + ".committed");
  if (!old_file.empty() && old_file != record.file) {
    // Best-effort: a crash before this unlink leaves an orphan the next
    // Attach garbage-collects. An mmap of the old file stays valid.
    std::error_code ec;
    std::filesystem::remove(manifest_->dir() + "/" + old_file, ec);
    (void)SyncParentDir(manifest_->dir() + "/" + record.file);
  }
  if (manifest_->ShouldCompact()) {
    // Best-effort journal compaction (atomic old-or-new rewrite): a failure
    // only means the journal keeps its dead records until the next commit
    // crosses the threshold again.
    (void)manifest_->Compact();
  }
  return Status::Ok();
}

Status Database::CommitRemove(const std::string& name, uint64_t generation) {
  const std::string path =
      manifest_->dir() + "/" + manifest_->entries().find(name)->second.file;
  XMLQ_CRASH_POINT("remove.begin");
  storage::ManifestRecord record;
  record.op = storage::ManifestOp::kRemove;
  record.generation = generation;
  record.name = name;
  // The commit point: after this append recovery no longer serves the
  // document, even if the unlink below never happens.
  XMLQ_RETURN_IF_ERROR(manifest_->Append(record));
  XMLQ_CRASH_POINT("remove.committed");
  std::error_code ec;
  std::filesystem::remove(path, ec);
  (void)SyncParentDir(path);
  return Status::Ok();
}

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
  const auto live = std::views::values(manifest.entries());
  const std::vector<storage::ManifestRecord> records(live.begin(), live.end());
  // Loaded documents by generation: name, entry.
  std::multimap<uint64_t, std::pair<std::string, std::shared_ptr<const Entry>>>
      recovered;
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
            snapshot, storage::OpenSnapshotFromBytes(std::move(bytes), path));
      }
      return std::shared_ptr<const Entry>(MakeEntry(std::move(snapshot)));
    };
    auto entry = load();
    if (entry.ok()) {
      recovered.emplace(record.generation,
                        std::pair(record.name, *std::move(entry)));
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
    const bool is_snapshot = file.size() > 7 && file.ends_with(".xqpack");
    const bool is_temp = file.find(".tmp") != std::string::npos;
    if (!is_snapshot && !is_temp) continue;
    const auto references = [&](const auto& named) {
      return named.second.file == file;
    };
    if (std::ranges::any_of(manifest.entries(), references)) continue;
    std::error_code remove_ec;
    if (std::filesystem::remove(dirent.path(), remove_ec)) {
      report.orphans_removed.push_back(file);
    }
  }
  if (!report.orphans_removed.empty()) (void)SyncParentDir(dir + "/x");

  // Install every recovered document in one catalog swap; the lowest
  // generation becomes the default document when none is set yet (it is
  // the oldest surviving registration, matching load order semantics).
  MutateCatalog([&](CatalogState& next) {
    for (auto& [generation, doc] : recovered) {
      if (next.default_document.empty()) next.default_document = doc.first;
      next.entries[doc.first] = std::move(doc.second);
    }
    return true;
  });
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
  XMLQ_RETURN_IF_ERROR(RequireStore());
  XMLQ_CRASH_POINT("persist.begin");
  storage::ManifestRecord record;
  record.op = storage::ManifestOp::kRegister;
  record.generation = manifest_->NextGeneration();
  record.name = doc_name;
  record.file = storage::Manifest::SanitizeFileStem(doc_name) + "-g" +
                std::to_string(record.generation) + ".xqpack";
  XMLQ_ASSIGN_OR_RETURN(
      storage::SnapshotWriteInfo info,
      storage::WriteSnapshot(manifest_->dir() + "/" + record.file,
                             *entry->dom, *entry->succinct, *entry->values));
  XMLQ_CRASH_POINT("persist.snapshot_written");
  record.snapshot_size = info.file_size;
  record.snapshot_crc = info.file_crc;
  XMLQ_RETURN_IF_ERROR(CommitRegister(record, "persist"));
  // The committed snapshot replaces a quarantined one, so a degraded note
  // no longer describes the entry.
  MutateCatalog([&](CatalogState& next) {
    return next.degraded.erase(doc_name) != 0;
  });
  return Status::Ok();
}

Status Database::Remove(std::string_view name) {
  if (follower()) return FollowerRefusal();
  if (name.empty()) return Status::InvalidArgument("document name required");
  const std::string doc_name(name);
  bool in_store = false;
  {
    std::lock_guard<std::mutex> lock(store_mu_);
    in_store = manifest_ != nullptr &&
               manifest_->entries().count(doc_name) != 0;
    if (in_store) {
      XMLQ_RETURN_IF_ERROR(
          CommitRemove(doc_name, manifest_->NextGeneration()));
    }
  }
  bool dropped = false;
  MutateCatalog([&](CatalogState& next) {
    dropped = next.entries.count(doc_name) != 0;
    return next.Drop(doc_name);
  });
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
    XMLQ_RETURN_IF_ERROR(RequireStore());
    dir = manifest_->dir();
    const auto live = std::views::values(manifest_->entries());
    records.assign(live.begin(), live.end());
  }
  for (const storage::ManifestRecord& record : records) {
    ++report.files_checked;
    const std::string path = dir + "/" + record.file;
    auto bytes = ReadCommittedSnapshot(path, record, &report.bytes_read);
    const Status status =
        bytes.ok() ? storage::VerifySnapshotImage(std::move(*bytes),
                                                  options.deep, path)
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
  std::string path;
  {
    std::lock_guard<std::mutex> lock(store_mu_);
    if (manifest_ == nullptr) return Status::Ok();
    path = manifest_->dir() + "/" + record.file;
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
  const auto hook = [this] {
    std::lock_guard<std::mutex> lock(quarantine_hook_mu_);
    return quarantine_hook_;
  }();
  if (hook) hook(record.name, record.generation);

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
                      entry.backing->bytes().mapped() &&
                      entry.backing->path() == path;
  std::string note;
  std::shared_ptr<const Entry> replacement;
  bool drop = false;
  // A file truncated at rest no longer backs the whole mapping, and reading
  // past its end raises SIGBUS: such a document is dropped unread.
  std::error_code size_ec;
  const uint64_t quarantined_size =
      std::filesystem::file_size(path + ".quarantined", size_ec);
  if (!mapped) {
    note = "snapshot quarantined (" + reason +
           "); serving load-time-validated in-memory copy";
  } else if (!size_ec && quarantined_size < entry.backing->file_size()) {
    drop = true;
    note = "snapshot quarantined and mapped file truncated (" + reason +
           "); document dropped";
  } else {
    auto reopened = storage::OpenSnapshotFromBytes(
        FileBytes::Copy(std::string_view(entry.backing->bytes().data(),
                                         entry.backing->bytes().size())),
        path);
    if (reopened.ok()) {
      replacement = MakeEntry(std::move(*reopened));
      note = "snapshot quarantined (" + reason +
             "); remapped to revalidated in-memory copy";
    } else {
      drop = true;
      note = "snapshot quarantined and mapped bytes corrupt (" +
             reopened.status().message() + "); document dropped";
    }
  }
  MutateCatalog([&](CatalogState& next) {
    if (drop) return next.Drop(record.name);
    if (replacement != nullptr) {
      next.entries[record.name] = std::move(replacement);
    }
    next.degraded[record.name] = note;
    return true;
  });
  report->notes.push_back(record.name + ": " + note);
  return Status::Ok();
}

Status Database::StartScrubber(uint64_t interval_ms, ScrubOptions options) {
  {
    std::lock_guard<std::mutex> lock(store_mu_);
    XMLQ_RETURN_IF_ERROR(RequireStore());
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
    const bool scrubbed = ticket.ok() && Scrub(options).ok();
    {
      std::lock_guard<std::mutex> report_lock(scrub_report_mu_);
      if (scrubbed) ++scrub_cycles_;
      if (!ticket.ok()) ++scrub_skipped_;
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
  XMLQ_RETURN_IF_ERROR(RequireStore());
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
  if (record.file.size() <= 7 || !record.file.ends_with(".xqpack") ||
      record.file.find('/') != std::string::npos ||
      record.file.find("..") != std::string::npos) {
    return Status::InvalidArgument("replicated record file name \"" +
                                   record.file +
                                   "\" is not a store snapshot name");
  }
  std::lock_guard<std::mutex> lock(store_mu_);
  XMLQ_RETURN_IF_ERROR(RequireStore());
  // Idempotence, per name (not the global clock): re-shipping a generation
  // this store already has — a crash mid-apply, a reconnect replaying the
  // cursor — is a no-op, while a resync from cursor 0 can still walk the
  // full history to heal divergence.
  if (const auto it = manifest_->entries().find(record.name);
      it != manifest_->entries().end() &&
      it->second.generation >= record.generation) {
    return Status::Ok();
  }
  XMLQ_RETURN_IF_ERROR(CheckCommittedBytes(
      bytes, record,
      "replicated snapshot for \"" + record.name + "\" g" +
          std::to_string(record.generation),
      "announced"));
  if (XMLQ_FAULT("repl.apply.commit")) {
    return Status::Internal("injected replication apply failure for \"" +
                            record.name + "\" g" +
                            std::to_string(record.generation));
  }
  XMLQ_CRASH_POINT("repl.apply.begin");
  const std::string path = manifest_->dir() + "/" + record.file;
  XMLQ_RETURN_IF_ERROR(WriteFileAtomic(path, bytes));
  XMLQ_CRASH_POINT("repl.apply.snapshot_written");
  // Validate the snapshot opens *before* committing: a committed but
  // unopenable snapshot would only quarantine at the next recovery instead
  // of serving now. A failure here leaves an unreferenced file the next
  // Attach collects. The record keeps the *primary's* generation, so this
  // store's manifest clock (max_generation) is exactly the replication
  // cursor to resume from after a restart.
  XMLQ_ASSIGN_OR_RETURN(storage::OpenedSnapshot snapshot,
                        storage::OpenSnapshot(path, store_mode_));
  XMLQ_RETURN_IF_ERROR(CommitRegister(record, "repl.apply"));
  return Install(record.name, MakeEntry(std::move(snapshot)));
}

Status Database::ApplyReplicatedRemove(std::string_view name,
                                       uint64_t primary_generation) {
  const std::string doc_name(name);
  {
    std::lock_guard<std::mutex> lock(store_mu_);
    XMLQ_RETURN_IF_ERROR(RequireStore());
    if (manifest_->entries().count(doc_name) == 0) return Status::Ok();
    XMLQ_RETURN_IF_ERROR(CommitRemove(doc_name, primary_generation));
  }
  MutateCatalog(
      [&](CatalogState& next) { return next.Drop(doc_name); });
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
  XMLQ_RETURN_IF_ERROR(RequireStore());
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
  XMLQ_RETURN_IF_ERROR(RequireStore());
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

}  // namespace xmlq::api
