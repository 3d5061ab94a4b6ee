#ifndef XMLQ_API_DATABASE_H_
#define XMLQ_API_DATABASE_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "xmlq/base/limits.h"
#include "xmlq/base/status.h"
#include "xmlq/cache/plan_cache.h"
#include "xmlq/exec/admission.h"
#include "xmlq/exec/executor.h"
#include "xmlq/opt/synopsis.h"
#include "xmlq/storage/manifest.h"
#include "xmlq/storage/region_index.h"
#include "xmlq/storage/snapshot.h"
#include "xmlq/storage/succinct_doc.h"
#include "xmlq/storage/value_index.h"
#include "xmlq/xml/document.h"
#include "xmlq/xml/parser.h"

namespace xmlq::api {

/// Per-query options.
struct QueryOptions {
  /// Pick each τ node's strategy with the cost model; when false,
  /// `strategy` is forced for every pattern in the plan.
  bool auto_optimize = true;
  exec::PatternStrategy strategy = exec::PatternStrategy::kNok;
  exec::FlworMode flwor_mode = exec::FlworMode::kEnv;
  /// Run the logical rewrite pipeline before execution.
  bool apply_rewrites = true;
  /// Collect the per-operator execution profile (EXPLAIN ANALYZE): the
  /// result's `profile` then carries actual cardinalities, engine counters
  /// and wall times next to the optimizer's estimates. Off by default —
  /// disabled collection is engineered to cost nothing measurable.
  bool collect_stats = false;
  /// Resource limits for the query (deadline, step/memory budgets, cancel
  /// flag). Default-constructed = unlimited. A query that exhausts a limit
  /// returns kResourceExhausted; a cancelled one returns kCancelled.
  QueryLimits limits;
  /// Optional: receives this query's serving id *before* admission, so a
  /// concurrent thread can Database::Cancel() it while it is still queued
  /// or running. The caller keeps the atomic alive for the duration of the
  /// call and polls it until non-zero.
  std::atomic<uint64_t>* query_id_out = nullptr;
  /// Consult and populate the plan cache (DESIGN.md §11). Off bypasses the
  /// cache for this query only (it always compiles fresh); the Database-wide
  /// switch is cache::CacheConfig::enabled via SetPlanCache().
  bool use_plan_cache = true;
  /// Accepted for wire and API compatibility and without effect on
  /// evaluation: every τ engine runs its single serial code path at any
  /// value, so results, stats and budgets do not depend on it.
  uint32_t parallelism = 1;
};

/// Storage-footprint report for one document (experiments E2 and R2).
///
/// `*_bytes` count bytes *referenced* by each component (owned or borrowed
/// from a mapped snapshot); `*_heap_bytes` count bytes actually owned on the
/// heap, so for an mmap-opened document the difference is what the snapshot
/// backing provides for free.
struct StorageReport {
  size_t dom_bytes = 0;
  size_t succinct_structure_bytes = 0;
  size_t succinct_content_bytes = 0;
  size_t region_index_bytes = 0;
  size_t value_index_bytes = 0;
  /// Always 0: per-tag counts are the region index's posting fences,
  /// counted in `region_index_bytes`. Kept because footprint totals add it.
  size_t tag_dictionary_bytes = 0;
  size_t node_count = 0;
  // Per-component owned-heap breakdown (satellite of the snapshot store).
  size_t succinct_heap_bytes = 0;
  size_t region_index_heap_bytes = 0;
  size_t value_index_heap_bytes = 0;
  // Snapshot backing, when the document came from Database::Open.
  bool from_snapshot = false;
  bool mapped = false;
  size_t snapshot_file_bytes = 0;
};

/// What Database::Attach found while recovering a durable store directory
/// (DESIGN.md §9): how much of the manifest journal replayed cleanly,
/// which documents are being served, which snapshots failed verification
/// and were quarantined, and which stray files were garbage-collected.
struct RecoveryReport {
  std::string dir;
  uint64_t manifest_records = 0;     // journal records applied
  uint64_t manifest_valid_bytes = 0; // journal prefix replayed
  uint64_t manifest_torn_bytes = 0;  // torn tail truncated (0 = clean)
  std::string manifest_torn_detail;  // why replay stopped, when torn
  std::vector<std::string> loaded;       // "name (g<N>, file)"
  std::vector<std::string> quarantined;  // "name (file): reason"
  std::vector<std::string> orphans_removed;  // uncommitted files unlinked
  std::string ToString() const;
};

/// Knobs for one integrity-scrub pass.
struct ScrubOptions {
  /// Re-run the full structural validation (cross-section invariants, BP
  /// balance, index fences) on top of the checksum sweep.
  bool deep = false;
};

/// What one scrub pass found.
struct ScrubReport {
  uint64_t files_checked = 0;
  uint64_t bytes_read = 0;
  uint64_t corrupt = 0;  // snapshots that failed verification
  bool deep = false;
  std::vector<std::string> quarantined;  // "name (file): reason"
  std::vector<std::string> notes;        // per-document fallback decisions
  std::string ToString() const;
};

/// The embedded native XML database: owns documents in every physical
/// representation (DOM, succinct store, region index, value index, path
/// synopsis) and runs XPath/XQuery through the logical algebra, the rewrite
/// pipeline and the cost-based physical strategy choice.
///
/// Typical use:
///
///   xmlq::api::Database db;
///   db.LoadDocument("bib.xml", xml_text);
///   auto result = db.Query(R"(
///     for $b in doc("bib.xml")/bib/book
///     where $b/price > 50
///     return $b/title)");
///
/// ## Threading model (DESIGN.md §8)
///
/// The catalog is copy-on-write: every query pins an immutable snapshot of
/// the document set at admission, so Query/QueryPath/ExplainAnalyze are
/// const and may run concurrently from any number of threads, including
/// concurrently with LoadDocument/RegisterDocument/Open (which swap the
/// catalog atomically under a small mutex). A returned QueryResult keeps
/// its snapshot pinned, so its node items stay valid even after the
/// documents they point into are replaced.
///
/// Serving controls: SetAdmission() bounds concurrency with a shed-on-
/// overload wait queue, Cancel(query_id) cooperatively stops one query, and
/// a per-engine circuit breaker quarantines a τ engine after repeated
/// faults, degrading queries to the naive navigational engine (reported in
/// QueryResult::degradation and EXPLAIN ANALYZE).
class PreparedQuery;

class Database {
 public:
  Database() = default;
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;
  /// Stops the background scrubber (if running) before members tear down.
  ~Database();

  /// Parses `xml_text` and registers it under `name` (building all physical
  /// representations). The first document loaded also becomes the default
  /// document for absolute paths. Replaces any existing document of that
  /// name; in-flight queries keep their pinned snapshot.
  Status LoadDocument(std::string name, std::string_view xml_text,
                      xml::ParseOptions options = {});

  /// Registers an already-built DOM tree (e.g. from a generator). The
  /// document must satisfy IsPreorder().
  Status RegisterDocument(std::string name,
                          std::unique_ptr<xml::Document> doc);

  /// Writes the document `name` (default document when empty) to `path` as
  /// an xqpack snapshot (single file, checksummed sections, atomic write).
  /// Safe concurrently with queries and catalog swaps (it works on its own
  /// pinned snapshot).
  Result<storage::SnapshotWriteInfo> Save(std::string_view name,
                                          const std::string& path) const;

  /// Opens an xqpack snapshot and registers it under `name`, replacing any
  /// existing document of that name. kMap points the succinct structures
  /// directly at the mapping; kCopy reads into a private heap buffer first.
  /// Corrupt or truncated files are rejected with a positioned kParseError.
  Status Open(std::string name, const std::string& path,
              storage::SnapshotOpenMode mode = storage::SnapshotOpenMode::kMap);

  // -- Durable store (DESIGN.md §9) ---------------------------------------

  /// Attaches this database to a durable store directory, creating it when
  /// absent and *recovering* it when present: replays the manifest journal
  /// (truncating any torn tail from a crashed append), verifies every live
  /// snapshot against the whole-file checksum recorded at commit time,
  /// quarantines snapshots that fail (renamed to `<file>.quarantined`,
  /// journaled, the rest keep serving), garbage-collects files no committed
  /// record references, and registers the surviving documents. The
  /// lowest-generation recovered document becomes the default document when
  /// none is set yet. At most one store may be attached per Database.
  /// Snapshots are verified one at a time, in manifest order.
  Result<RecoveryReport> Attach(
      const std::string& dir,
      storage::SnapshotOpenMode mode = storage::SnapshotOpenMode::kMap);

  /// Durably persists document `name` (default document when empty) into
  /// the attached store: writes a new-generation snapshot file, commits it
  /// with one fsync'd manifest append, then unlinks the previous
  /// generation. Crash-atomic: a crash anywhere leaves the store serving
  /// exactly the old or exactly the new state after recovery. Kill points:
  /// "persist.begin", "persist.snapshot_written", "persist.committed" (plus
  /// the file-level sites inside the snapshot write and journal append).
  Status Persist(std::string_view name = {});

  /// Removes document `name` from the catalog and, when it is store-backed,
  /// durably from the attached store (manifest append, then unlink). Kill
  /// points: "remove.begin", "remove.committed".
  Status Remove(std::string_view name);

  /// One integrity-scrub pass over every live snapshot in the attached
  /// store, one file at a time in manifest order: re-reads each file,
  /// verifies it against the manifest's whole-file CRC-32C — which catches
  /// even corruption hiding behind recomputed in-file section checksums —
  /// and re-validates the image (`deep` adds full structural validation).
  /// A corrupt snapshot is quarantined; a document that was serving
  /// straight off the corrupt mapping degrades to a revalidated in-memory
  /// copy (or is dropped when the poison reached memory), and subsequent
  /// query results carry the degradation note. Safe concurrently with
  /// queries, Persist and Remove.
  Result<ScrubReport> Scrub(const ScrubOptions& options = {});

  /// Starts the background scrubber: one Scrub(options) pass every
  /// `interval_ms`, each pass gated on a free admission slot
  /// (QueryScheduler::TryAdmit) so scrub I/O never competes with a
  /// saturated serving load. Requires an attached store.
  Status StartScrubber(uint64_t interval_ms, ScrubOptions options = {});

  /// Stops and joins the background scrubber; no-op when not running.
  void StopScrubber();

  bool scrubber_running() const;

  /// Most recent background-scrub result (foreground Scrub also records
  /// here) plus how many cycles ran / were skipped for lack of a slot.
  ScrubReport last_scrub_report() const;
  uint64_t scrub_cycles() const;
  uint64_t scrub_cycles_skipped() const;

  /// Directory of the attached store ("" when none).
  std::string store_dir() const;

  // -- Replication (DESIGN.md §13) -----------------------------------------

  /// What a replication subscriber at `cursor` still needs: the primary's
  /// manifest clock, every live registration above the cursor (ascending by
  /// generation, ready to ship), and the full live census (name, generation)
  /// the heartbeat carries so removals propagate even after compaction
  /// erased their journal records.
  struct ReplDelta {
    uint64_t max_generation = 0;
    std::vector<storage::ManifestRecord> pending;
    std::vector<std::pair<std::string, uint64_t>> live;
  };
  Result<ReplDelta> ReplDeltaFrom(uint64_t cursor) const;

  /// Applies one replicated registration shipped by the primary: verifies
  /// `bytes` against the record's whole-file size and CRC, writes the
  /// snapshot atomically, validates it opens, commits with one fsync'd
  /// manifest append (the commit point — the same discipline as Persist),
  /// unlinks the superseded generation and installs the document into the
  /// serving catalog. Idempotent per name: a record whose generation the
  /// local store already has (or passed) is skipped, so re-shipping after a
  /// crash mid-apply is safe. Records keep the *primary's* generations, so
  /// the local manifest clock tracks the replication cursor. Kill points:
  /// "repl.apply.begin", "repl.apply.snapshot_written",
  /// "repl.apply.committed"; fault site: "repl.apply.commit".
  Status ApplyReplicated(const storage::ManifestRecord& record,
                         std::string_view bytes);

  /// Applies a removal learned from the heartbeat census: journals a
  /// kRemove under `primary_generation` (the primary's clock — a follower
  /// never mints generations), unlinks the snapshot and drops the document
  /// from the catalog. No-op when the store has no such document. Only call
  /// when caught up to `primary_generation`, so the clock cannot skip
  /// unseen registrations.
  Status ApplyReplicatedRemove(std::string_view name,
                               uint64_t primary_generation);

  /// Follower mode: Persist and Remove refuse (the replication stream is
  /// the only writer of a follower's store), queries serve normally.
  void SetFollower(bool follower) { follower_.store(follower); }
  bool follower() const { return follower_.load(); }

  /// Address of the primary a follower's writes should go to ("" = unknown).
  /// Installed by the replication client; baked into the structured refusal
  /// Persist/Remove return in follower mode so clients know where to retry.
  void SetPrimaryHint(std::string host_port);
  std::string primary_hint() const;

  // -- Coordinated failover (DESIGN.md §14) --------------------------------

  /// Replication epoch (fencing term): the highest kEpoch record in the
  /// attached manifest, mirrored into an atomic so the serving loop can
  /// stamp it into every repl frame without taking store_mu_. 0 until the
  /// first promotion anywhere in the replication group.
  uint64_t epoch() const { return epoch_.load(); }

  /// Promotes this database to primary: persists epoch+1 as a kEpoch
  /// manifest record (the fsync'd commit point — kill points
  /// "promote.begin" / "promote.committed") and lifts follower mode.
  /// Returns the new epoch. The caller must stop any replication client
  /// *first* so the stream cannot race the promotion. Crash-atomic: a crash
  /// anywhere leaves the store at exactly the old or the new epoch.
  Result<uint64_t> Promote();

  /// Adopts a higher epoch observed on the wire (a follower learning that a
  /// promotion happened): persists it as a kEpoch record when it exceeds
  /// the local epoch; no-op otherwise. Never lowers the epoch.
  Status AdoptEpoch(uint64_t epoch);

  /// Installs (or clears, with nullptr) the hook QuarantineSnapshot calls
  /// after quarantining a snapshot — the self-healing trigger: a
  /// replication client schedules a re-fetch of exactly that generation
  /// from the current primary. Called without Database locks held.
  void SetQuarantineHook(
      std::function<void(const std::string& name, uint64_t generation)> hook);

  /// Installs (or clears, with nullptr) the staleness gate every query
  /// checks before admission — the follower-read shedding policy. The gate
  /// object is shared with the replication client that publishes into it.
  void SetReadGate(std::shared_ptr<exec::StalenessGate> gate) const;

  /// Evaluates an XQuery expression. Thread-safe; may block in admission
  /// when SetAdmission() configured bounded concurrency.
  Result<exec::QueryResult> Query(std::string_view query,
                                  const QueryOptions& options = {}) const;

  /// Evaluates an XPath expression against document `name` (or the default
  /// document when empty), returning matching nodes. Thread-safe.
  Result<exec::QueryResult> QueryPath(std::string_view path,
                                      std::string_view doc_name = {},
                                      const QueryOptions& options = {}) const;

  /// Prepares `text` as a reusable statement: normalizes it, lifts its
  /// comparison literals into bind slots, and validates that it compiles
  /// against the current catalog. The returned handle executes through the
  /// plan cache (parse + optimize happen once per catalog generation, not
  /// per call) and survives catalog swaps — a stale plan recompiles
  /// transparently on the next Execute. Thread-safe; the handle borrows this
  /// Database and must not outlive it.
  Result<PreparedQuery> Prepare(std::string_view text,
                                const QueryOptions& options = {}) const;

  /// Returns the optimized logical plan (and per-pattern strategy choices)
  /// for a query, without executing it (no admission slot is consumed).
  Result<std::string> Explain(std::string_view query,
                              const QueryOptions& options = {}) const;

  /// Executes the query with stats collection on and renders the annotated
  /// plan tree — per operator: estimated vs. actual rows (with q-error),
  /// engine counters (nodes visited, stack traffic, index probes, bytes)
  /// and inclusive wall time — followed by the result item count. An
  /// engine fallback shows up as "[<engine>->naive (fault|quarantined)]".
  Result<std::string> ExplainAnalyze(std::string_view query,
                                     const QueryOptions& options = {}) const;

  /// Serializes a query result: node items as XML, atomics as text, one
  /// item per line.
  static std::string ToXml(const exec::QueryResult& result, bool indent = false);

  // -- Serving controls ----------------------------------------------------

  /// Bounds query concurrency (see exec::AdmissionConfig). The default
  /// config admits everything immediately. Takes effect for subsequent
  /// admissions; running queries keep their slots.
  void SetAdmission(const exec::AdmissionConfig& config) const;

  /// Reconfigures the per-engine circuit breaker and closes every slot.
  void SetBreaker(const exec::CircuitBreaker::Config& config) const;

  /// Cooperatively cancels the active query with this id (ids are published
  /// via QueryOptions::query_id_out and exec::QueryResult::query_id). The
  /// query unwinds with kCancelled at its next guard poll — or leaves the
  /// admission queue immediately if it was still waiting. Returns false
  /// when no such query is active (already finished or never existed).
  bool Cancel(uint64_t query_id) const;

  /// Reconfigures the plan cache, dropping every cached plan (the safe
  /// default when tuning knobs change). `config.enabled = false` turns
  /// transparent caching off database-wide.
  void SetPlanCache(const cache::CacheConfig& config) const;

  /// Plan-cache counters (hits/misses/evictions/...) for monitoring.
  cache::CacheStats plan_cache_stats() const;

  /// Admission counters (running/queued/shed/...) for monitoring.
  exec::AdmissionStats admission_stats() const;

  /// Human-readable circuit-breaker state, one line per degraded engine.
  std::string BreakerReport() const;

  bool Contains(std::string_view name) const;

  /// Physical views of a loaded document (nullptr when absent). The
  /// pointer is valid while the named document is not replaced; concurrent
  /// replacers must coordinate with callers of this accessor (queries do
  /// not need it — they pin snapshots internally).
  const exec::IndexedDocument* Get(std::string_view name) const;
  const opt::Synopsis* GetSynopsis(std::string_view name) const;

  Result<StorageReport> Report(std::string_view name) const;

  /// Name of the default document ("" until the first load).
  std::string default_document() const;

 private:
  struct Entry {
    std::unique_ptr<xml::Document> dom;
    std::unique_ptr<storage::SuccinctDocument> succinct;
    std::unique_ptr<storage::RegionIndex> regions;
    std::unique_ptr<storage::ValueIndex> values;
    std::unique_ptr<opt::Synopsis> synopsis;
    /// Snapshot bytes the components borrow from (opened documents only).
    /// Destruction order is irrelevant: component destructors never touch
    /// borrowed memory.
    std::unique_ptr<storage::SnapshotBacking> backing;
    exec::IndexedDocument view;
  };

  /// One immutable catalog version. Readers pin a shared_ptr to it; writers
  /// copy the entry map (cheap — entries are shared), mutate the copy and
  /// swap it in under `catalog_mu_`. An Entry lives until the last snapshot
  /// (or query result) referencing it is dropped.
  struct CatalogState {
    std::map<std::string, std::shared_ptr<const Entry>, std::less<>> entries;
    std::string default_document;
    /// Strictly increasing version of this catalog, bumped by every swap
    /// (MutateCatalog). Cached plans record the generation they were
    /// compiled under and never serve across one: any semantic input to
    /// compilation or strategy choice (document set, default document,
    /// synopsis) lives in the catalog, so a generation match proves the
    /// cached plan is still what a fresh compile would produce.
    uint64_t generation = 0;
    /// Documents the scrubber degraded (snapshot quarantined; serving an
    /// in-memory fallback): name -> note. Queries touching one surface the
    /// note in QueryResult::degradation, like engine fallbacks do.
    std::map<std::string, std::string, std::less<>> degraded;

    const Entry* Find(std::string_view name) const {
      const auto it = entries.find(name.empty()
                                       ? std::string_view(default_document)
                                       : name);
      return it == entries.end() ? nullptr : it->second.get();
    }

    /// Erases `name`'s entry and degraded note, re-picking a dropped default
    /// document as the first remaining name. True when anything was erased.
    bool Drop(const std::string& name) {
      const bool erased = entries.erase(name) + degraded.erase(name) > 0;
      if (default_document == name) {
        default_document = entries.empty() ? "" : entries.begin()->first;
      }
      return erased;
    }
  };

  friend class PreparedQuery;

  std::shared_ptr<const CatalogState> Pin() const;
  std::shared_ptr<cache::PlanCache> PinPlanCache() const;
  std::shared_ptr<exec::StalenessGate> PinReadGate() const;
  Status Install(std::string name, std::shared_ptr<const Entry> entry);

  /// The one catalog swap: copies the state and lets `mutate` edit the
  /// copy; only when it reports a change does the copy get the next
  /// generation, replace the catalog and sweep older cached plans.
  void MutateCatalog(const std::function<bool(CatalogState&)>& mutate);
  /// Moves a document's components (built, or opened with their backing)
  /// into a catalog entry and derives its synopsis and view.
  static std::shared_ptr<Entry> MakeEntry(storage::OpenedSnapshot parts);

  // The store half (database_store.cc). These three run with store_mu_
  // held.
  /// kInvalidArgument unless a store is attached.
  Status RequireStore() const;
  /// Journals `record`, whose snapshot is written (the commit point, then
  /// kill point "<kill_prefix>.committed"), unlinks the generation it
  /// supersedes and compacts the journal when due.
  Status CommitRegister(const storage::ManifestRecord& record,
                        std::string_view kill_prefix);
  /// Journals a kRemove of `name` (live in the manifest) under `generation`
  /// between kill points "remove.begin" and "remove.committed", then
  /// unlinks its snapshot.
  Status CommitRemove(const std::string& name, uint64_t generation);

  /// Quarantines the snapshot behind `record` (rename + journal append,
  /// under store_mu_) and degrades or drops the serving catalog entry.
  /// `reason` is the verification error; findings land in `report`.
  Status QuarantineSnapshot(const storage::ManifestRecord& record,
                            const std::string& reason, ScrubReport* report);
  void ScrubberLoop(uint64_t interval_ms, ScrubOptions options);

  /// The structured follower write refusal: names the primary (when known)
  /// and carries the standard retry-after hint so wire clients back off and
  /// redirect instead of hard-failing.
  Status FollowerRefusal() const;

  Result<algebra::LogicalExprPtr> Compile(std::string_view query,
                                          const QueryOptions& options,
                                          const CatalogState& catalog) const;

  /// Executes a plan whose τ nodes already carry their engines.
  /// `provenance` ("fresh" / "cached (...)") becomes the result's
  /// plan_provenance.
  Result<exec::QueryResult> Run(algebra::LogicalExprPtr plan,
                                const QueryOptions& options,
                                std::shared_ptr<const CatalogState> catalog,
                                std::string provenance) const;

  /// The transparent-cache execution path shared by Query, QueryPath and
  /// PreparedQuery::Execute: lookup by normalized fingerprint, bind + run on
  /// hit; compile the sentinel template, pick each τ node's engine on the
  /// bound plan and insert on miss. `is_path` compiles via the XPath front
  /// end against `path_doc` instead of Database::Compile. `values` overrides
  /// the normalized query's own literals (PreparedQuery binds).
  Result<exec::QueryResult> CachedExecute(
      std::string_view original_text, const cache::NormalizedQuery& normalized,
      const std::vector<std::string>& values, const QueryOptions& options,
      std::shared_ptr<const CatalogState> catalog, bool is_path,
      const std::string& path_doc) const;

  /// Cache key: front-end tag + options/limits class + fingerprint.
  static std::string CacheKey(bool is_path, const std::string& path_doc,
                              const QueryOptions& options,
                              const std::string& fingerprint);

  exec::EvalContext MakeContext(const CatalogState& catalog,
                                const QueryOptions& options) const;
  /// Stamps every τ node of `plan` with its engine: the cost model's pick
  /// over the node's document (auto_optimize), or the forced `strategy`.
  /// `explanation` (optional) receives the cost model's line per τ node.
  void PlanStrategies(const CatalogState& catalog, algebra::LogicalExpr* plan,
                      const QueryOptions& options,
                      std::string* explanation = nullptr) const;

  // Copy-on-write catalog: the mutex orders writers and guards the root
  // pointer; readers hold it only for the shared_ptr copy.
  mutable std::mutex catalog_mu_;
  std::shared_ptr<const CatalogState> catalog_ =
      std::make_shared<const CatalogState>();

  // Serving state, shared by every concurrent query. All mutable so the
  // const (read-only-catalog) query paths can use them.
  mutable exec::QueryScheduler scheduler_;
  mutable exec::CircuitBreaker breaker_;
  // The plan cache is swapped whole on SetPlanCache; queries pin the
  // shared_ptr, so reconfiguration never races an in-flight lookup.
  mutable std::mutex plan_cache_mu_;
  mutable std::shared_ptr<cache::PlanCache> plan_cache_ =
      std::make_shared<cache::PlanCache>();
  mutable std::atomic<uint64_t> next_query_id_{1};
  mutable std::mutex active_mu_;
  mutable std::map<uint64_t, std::shared_ptr<CancelToken>> active_;

  // Durable store. store_mu_ orders manifest appends, generation allocation
  // and snapshot-file renames/unlinks; it nests *outside* catalog_mu_ and
  // the query paths never take it.
  mutable std::mutex store_mu_;
  std::unique_ptr<storage::Manifest> manifest_;
  storage::SnapshotOpenMode store_mode_ = storage::SnapshotOpenMode::kMap;

  // Replication: follower flag + the staleness gate queries consult before
  // admission (swapped whole like the plan cache, so reconfiguration never
  // races an in-flight check).
  mutable std::atomic<bool> follower_{false};
  mutable std::mutex read_gate_mu_;
  mutable std::shared_ptr<exec::StalenessGate> read_gate_;

  // Coordinated failover (DESIGN.md §14): the manifest's epoch mirrored
  // lock-free for per-frame stamping; writes happen under store_mu_ after
  // the manifest append commits. The primary hint and quarantine hook are
  // installed by the replication client.
  mutable std::atomic<uint64_t> epoch_{0};
  mutable std::mutex hint_mu_;
  std::string primary_hint_;
  mutable std::mutex quarantine_hook_mu_;
  std::function<void(const std::string&, uint64_t)> quarantine_hook_;

  // Background scrubber.
  mutable std::mutex scrub_mu_;
  std::condition_variable scrub_cv_;
  std::thread scrub_thread_;
  bool scrub_stop_ = false;
  mutable std::mutex scrub_report_mu_;
  ScrubReport last_scrub_;
  uint64_t scrub_cycles_ = 0;
  uint64_t scrub_skipped_ = 0;
};

/// A prepared statement from Database::Prepare: the query text with its
/// comparison literals lifted into typed bind slots. The handle holds no
/// compiled state itself — Execute goes through the plan cache by
/// fingerprint, so it stays valid across catalog swaps (the plan silently
/// recompiles under the new generation) and cache evictions. Cheap to copy;
/// safe to Execute concurrently from many threads. Borrows the Database.
class PreparedQuery {
 public:
  /// Number of bind slots ("?" parameters) the text was lifted into. Zero
  /// for queries with no comparison literals (or unsupported syntax — the
  /// statement still works, it just caches by exact text).
  size_t slot_count() const { return normalized_.slots.size(); }
  /// True when slot `i` expects numeric text (the literal it replaced was a
  /// number token).
  bool slot_numeric(size_t i) const { return normalized_.slots[i].numeric; }
  /// The literal values from the original text, in slot order — the
  /// defaults used by Execute() without binds.
  const std::vector<std::string>& default_binds() const {
    return normalized_.values;
  }
  const std::string& text() const { return text_; }

  /// Executes with the original literal values.
  Result<exec::QueryResult> Execute() const;
  /// Executes with `binds` substituted into the slots (one value per slot,
  /// in slot order). String slots accept any text; numeric slots require
  /// number syntax (digits and dots) so the bound plan stays byte-for-byte
  /// what compiling the literal would produce.
  Result<exec::QueryResult> Execute(const std::vector<std::string>& binds) const;
  /// Same, overriding the options captured at Prepare time.
  Result<exec::QueryResult> Execute(const std::vector<std::string>& binds,
                                    const QueryOptions& options) const;

 private:
  friend class Database;
  PreparedQuery(const Database* db, std::string text, QueryOptions options,
                cache::NormalizedQuery normalized)
      : db_(db),
        text_(std::move(text)),
        options_(std::move(options)),
        normalized_(std::move(normalized)) {}

  const Database* db_;
  std::string text_;
  QueryOptions options_;
  cache::NormalizedQuery normalized_;
};

}  // namespace xmlq::api

#endif  // XMLQ_API_DATABASE_H_
