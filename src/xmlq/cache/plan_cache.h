#ifndef XMLQ_CACHE_PLAN_CACHE_H_
#define XMLQ_CACHE_PLAN_CACHE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "xmlq/algebra/logical_plan.h"
#include "xmlq/cache/normalize.h"
#include "xmlq/exec/executor.h"

namespace xmlq::cache {

/// Plan-cache tuning knobs (api::Database::SetPlanCache). The defaults are
/// the production configuration; tests shrink them to force evictions
/// deterministically.
struct CacheConfig {
  bool enabled = true;
  /// Number of independently locked shards (rounded up to a power of two).
  size_t shard_count = 8;
  /// Total resident-plan budget across all shards; LRU eviction keeps each
  /// shard under its 1/shard_count share.
  size_t memory_budget_bytes = size_t{64} << 20;

};

/// Monotonic counters, mirrored after exec::AdmissionStats. All cheap
/// relaxed atomics internally; this is the snapshot type.
struct CacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  /// Lookups that skipped the cache entirely: caching disabled, stats-only
  /// executions, or plans whose compiled form failed sentinel validation.
  uint64_t bypass = 0;
  uint64_t inserts = 0;
  uint64_t insert_faults = 0;  // XMLQ_FAULT site "cache.plan.insert"
  uint64_t evictions = 0;      // LRU / memory-budget removals
  uint64_t invalidations = 0;  // entries dropped by catalog generation swap
  uint64_t resident_bytes = 0; // current footprint estimate
  uint64_t entries = 0;        // current entry count

  /// One line, shell/wire format:
  /// "plan-cache: hits=… misses=… … resident_kb=… entries=…".
  std::string ToString() const;
};

/// One immutable compiled template plus its hit counter. Shared: lookups
/// hand out shared_ptrs, so eviction or invalidation never frees a plan a
/// concurrent execution still reads. `plan` itself is never mutated after
/// insert — executions clone it (binding sentinels) and run the clone. Each
/// τ node of `plan` carries the engine picked for it on the miss path.
struct CachedPlan {
  std::string key;
  uint64_t generation = 0;
  algebra::LogicalExprPtr plan;  // const after Insert
  std::vector<BindSlot> slots;
  bool parameterized = false;
  size_t bytes = 0;
  std::chrono::steady_clock::time_point created{};

  std::atomic<uint64_t> hit_count{0};
};

/// Sharded, thread-safe LRU plan cache. Keys are composed by the caller
/// (api::Database) from front-end tag + options class + limits class +
/// normalized fingerprint; the catalog generation is stored per entry and
/// checked at lookup, so a stale entry can never serve even before the
/// post-swap invalidation sweep reaches it.
class PlanCache {
 public:
  explicit PlanCache(CacheConfig config = {});

  const CacheConfig& config() const { return config_; }

  /// Returns the live entry for `key` compiled at `generation`, bumping its
  /// LRU position and hit counter; null on miss (counted) or generation
  /// mismatch (the stale entry is dropped on the spot).
  std::shared_ptr<CachedPlan> Lookup(const std::string& key,
                                     uint64_t generation);

  /// Lookup without side effects (no LRU touch, no counters) — EXPLAIN uses
  /// this so inspecting a plan doesn't perturb what it reports.
  std::shared_ptr<CachedPlan> Peek(const std::string& key,
                                   uint64_t generation) const;

  /// Inserts `entry` (keyed by entry->key). Returns false without caching
  /// when the XMLQ_FAULT site "cache.plan.insert" fires or when an entry
  /// with the key already exists (first writer wins; the caller just runs
  /// its own copy). Evicts LRU entries as needed to keep the shard within
  /// its budget share; an entry bigger than the share is not admitted.
  bool Insert(std::shared_ptr<CachedPlan> entry);

  /// Drops every entry whose generation != `live_generation`. Called after
  /// each copy-on-write catalog swap; correctness never depends on it (the
  /// generation check in Lookup already fences), it just frees memory.
  void InvalidateGeneration(uint64_t live_generation);

  void RecordBypass() { bypass_.fetch_add(1, std::memory_order_relaxed); }

  CacheStats Stats() const;

 private:
  struct Shard {
    mutable std::mutex mu;
    /// Key → handle into lru (most-recent at front).
    std::unordered_map<std::string,
                       std::list<std::shared_ptr<CachedPlan>>::iterator>
        map;
    std::list<std::shared_ptr<CachedPlan>> lru;
    size_t bytes = 0;
  };

  Shard& ShardFor(const std::string& key);
  const Shard& ShardFor(const std::string& key) const;
  void EraseLocked(Shard& shard,
                   std::list<std::shared_ptr<CachedPlan>>::iterator it);

  CacheConfig config_;
  size_t shard_mask_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<uint64_t> hits_{0}, misses_{0}, bypass_{0}, inserts_{0},
      insert_faults_{0}, evictions_{0}, invalidations_{0},
      resident_bytes_{0}, entries_{0};
};

/// Verifies every slot's sentinel literal occurs somewhere in `plan`
/// (rewrites may duplicate a predicate — e.g. grafting a filter branch —
/// so "at least once" is the invariant; substitution replaces every
/// occurrence). A slot whose sentinel vanished means the compile pipeline
/// transformed a literal in a way the binder can't reach — the caller must
/// not cache that template.
bool ValidateSentinels(const algebra::LogicalExpr& plan,
                       const std::vector<BindSlot>& slots);

/// Deep-copies `tmpl` and replaces every sentinel occurrence of slot i with
/// `values[i]` (raw string value for string slots; digit text + parsed
/// double for numeric slots). `values.size()` must equal `slots.size()`.
algebra::LogicalExprPtr BindPlan(const algebra::LogicalExpr& tmpl,
                                 const std::vector<BindSlot>& slots,
                                 const std::vector<std::string>& values);

/// Rough resident-size estimate of a plan tree (for the memory budget).
size_t PlanFootprint(const algebra::LogicalExpr& plan);

}  // namespace xmlq::cache

#endif  // XMLQ_CACHE_PLAN_CACHE_H_
