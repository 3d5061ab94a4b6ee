#ifndef XMLQ_BASE_LIMITS_H_
#define XMLQ_BASE_LIMITS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>

#include "xmlq/base/status.h"

namespace xmlq {

/// Shared cancellation flag for one query. The serving layer hands every
/// admitted query a token (see api::Database::Cancel); callers may also
/// create their own and stash it in QueryLimits::cancel_token. Cancel() may
/// be called from any thread, any number of times; the query observes it at
/// the next ResourceGuard poll (including while it is still waiting in the
/// admission queue) and returns kCancelled.
///
/// Tokens are shared-ptr managed so a cancel issued concurrently with query
/// completion can never touch freed memory: both the canceller and the
/// guard hold a reference.
class CancelToken {
 public:
  void Cancel() { cancelled_.store(true, std::memory_order_release); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

/// Per-query resource limits. A zero field means "unlimited"; a
/// default-constructed QueryLimits imposes no bounds at all.
struct QueryLimits {
  /// Wall-clock budget, measured from guard construction (steady clock).
  uint64_t deadline_micros = 0;

  /// Abstract work quota. A step roughly corresponds to one node visited,
  /// one tuple produced, or one merge-loop iteration — the same granularity
  /// the operator cost model counts.
  uint64_t max_steps = 0;

  /// Budget for result-side allocations (constructed documents,
  /// materialized sequences). Input documents are not charged.
  uint64_t max_memory_bytes = 0;

  /// Cooperative cancellation: the caller may set this flag from another
  /// thread; the query returns kCancelled at the next poll. Must outlive
  /// the query. Not owned.
  const std::atomic<bool>* cancel = nullptr;

  /// Shared-ownership cancellation token, checked at the same polls as
  /// `cancel`. The serving layer fills this in for every admitted query so
  /// api::Database::Cancel(query_id) works without the caller wiring a flag;
  /// callers may also install their own token here and keep a reference to
  /// cancel directly.
  std::shared_ptr<const CancelToken> cancel_token;

  bool Unlimited() const {
    return deadline_micros == 0 && max_steps == 0 && max_memory_bytes == 0 &&
           cancel == nullptr && cancel_token == nullptr;
  }
};

/// Tracks a running query's resource consumption against QueryLimits.
///
/// The hot path is `Tick(n)`: one add and one compare per call when nothing
/// needs checking. Expensive checks (clock read, cancel-flag load) run only
/// every kPollStride steps. Once any limit trips, the guard is *sticky*:
/// every subsequent Tick returns true and `status()` keeps the original
/// error, so deeply nested operators can unwind without re-diagnosing.
///
/// All counters are mutable so a `const ResourceGuard*` can be threaded
/// through the read-only evaluation APIs. The guard itself is not
/// thread-safe (one guard per query execution); only the cancel flag may be
/// touched from other threads.
class ResourceGuard {
 public:
  /// Steps between slow polls. Small enough that a 1 ms deadline is noticed
  /// promptly on the node-scan paths, large enough to amortize the clock
  /// read to noise (see bench_limits).
  static constexpr uint64_t kPollStride = 4096;

  /// Unarmed guard: Tick never trips. Useful as a placeholder.
  ResourceGuard() = default;

  explicit ResourceGuard(const QueryLimits& limits);

  ResourceGuard(const ResourceGuard&) = delete;
  ResourceGuard& operator=(const ResourceGuard&) = delete;

  bool armed() const { return armed_; }

  /// Records `n` steps of work; returns true when the query must stop (some
  /// limit tripped — the sticky error is in `status()`). Hot path.
  bool Tick(uint64_t n = 1) const {
    steps_ += n;
    if (steps_ < next_poll_) return false;
    return Poll();
  }

  /// Runs the slow checks now, regardless of stride. Returns true when
  /// tripped. Tick(0) is equivalent after a trip; this also works before.
  bool Poll() const;

  /// Records `bytes` of result-side allocation; trips the guard (and
  /// returns the error) when the budget is exceeded.
  Status ChargeMemory(uint64_t bytes) const;

  /// Returns previously charged bytes (e.g. a discarded intermediate).
  void ReleaseMemory(uint64_t bytes) const {
    memory_bytes_ -= bytes < memory_bytes_ ? bytes : memory_bytes_;
  }

  /// Ok until a limit trips; afterwards the first failure, unchanged.
  const Status& status() const { return status_; }

  uint64_t steps() const { return steps_; }
  uint64_t memory_bytes() const { return memory_bytes_; }

 private:
  bool Trip(Status status) const;

  QueryLimits limits_;
  bool armed_ = false;
  std::chrono::steady_clock::time_point deadline_{};
  mutable uint64_t steps_ = 0;
  // Unarmed: UINT64_MAX (never polls). Armed: starts at 1 so the first Tick
  // polls immediately — a pre-set cancel flag or an already-expired deadline
  // is noticed before any real work. After a trip: 0 (every Tick trips).
  mutable uint64_t next_poll_ = std::numeric_limits<uint64_t>::max();
  mutable uint64_t memory_bytes_ = 0;
  mutable Status status_;
};

/// Ticks `n` steps against an optional guard pointer and propagates the
/// guard's sticky error out of the enclosing function on a trip.
#define XMLQ_GUARD_TICK(guard, n)                                      \
  do {                                                                 \
    const ::xmlq::ResourceGuard* _xmlq_g = (guard);                    \
    if (_xmlq_g != nullptr && _xmlq_g->Tick(n)) {                      \
      return _xmlq_g->status();                                        \
    }                                                                  \
  } while (false)

/// Charges `bytes` of result memory against an optional guard pointer,
/// propagating kResourceExhausted when the budget is exceeded.
#define XMLQ_GUARD_CHARGE(guard, bytes)                                \
  do {                                                                 \
    const ::xmlq::ResourceGuard* _xmlq_g = (guard);                    \
    if (_xmlq_g != nullptr) {                                          \
      ::xmlq::Status _xmlq_st = _xmlq_g->ChargeMemory(bytes);          \
      if (!_xmlq_st.ok()) return _xmlq_st;                             \
    }                                                                  \
  } while (false)

}  // namespace xmlq

#endif  // XMLQ_BASE_LIMITS_H_
