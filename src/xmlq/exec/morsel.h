#ifndef XMLQ_EXEC_MORSEL_H_
#define XMLQ_EXEC_MORSEL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace xmlq::exec {

/// A small shared worker pool for parallel snapshot verification
/// (DESIGN.md §12): Attach and Scrub hand it a batch of independent tasks
/// (whole-file CRC chunks, per-record verifies); the calling thread always
/// participates as lane 0 and up to `lanes - 1` pool threads join
/// opportunistically. Tasks are claimed from a shared atomic counter, so a
/// worker that finishes early steals the remaining tasks — work stealing by
/// claiming, the same shape as the net tier's worker pool but with
/// batch-scoped completion instead of per-job queues.
///
/// Determinism contract: which lane runs which task is scheduling-dependent,
/// so per-task state (CRCs, verify results) must be indexed by task, never
/// by lane.
///
/// Threads are spawned lazily up to the configured maximum and sleep when
/// idle. Run() must not be called from inside a batch callback (no nested
/// batches).
class MorselPool {
 public:
  /// Process-wide pool shared by Attach and the scrubber. Never destroyed
  /// (intentionally leaked so pool threads outlive static teardown).
  static MorselPool& Shared();

  /// `max_threads` = 0 picks the hardware concurrency.
  explicit MorselPool(uint32_t max_threads = 0);
  ~MorselPool();

  MorselPool(const MorselPool&) = delete;
  MorselPool& operator=(const MorselPool&) = delete;

  /// Runs fn(task, lane) for every task in [0, tasks), distributing tasks
  /// over at most `lanes` participants (caller = lane 0). Returns once every
  /// task has finished and all participants have left the callback. Lane ids
  /// passed to fn are < max(1, lanes).
  void Run(size_t tasks, uint32_t lanes,
           const std::function<void(size_t task, uint32_t lane)>& fn);

  uint32_t max_threads() const { return max_threads_; }

 private:
  struct Batch {
    std::function<void(size_t, uint32_t)> fn;
    size_t tasks = 0;
    uint32_t lane_limit = 1;  // total participants including the caller
    std::atomic<size_t> next{0};
    uint32_t lanes_claimed = 1;  // guarded by the pool mutex; caller = lane 0
    std::mutex mu;
    std::condition_variable cv;
    int active = 0;  // participants inside RunTasks (guarded by mu)
  };

  void WorkerLoop();
  void RunTasks(Batch& batch, uint32_t lane);

  const uint32_t max_threads_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::shared_ptr<Batch>> queue_;
  std::vector<std::thread> threads_;
  bool stop_ = false;
};

/// Chunk boundaries for splitting `n` items into at most `max_chunks`
/// contiguous near-equal chunks of at least `min_chunk` items each (the
/// whole-file CRC splitter). Returns chunks+1 indices, first 0, last n;
/// for n == 0 returns {0, 0} (one empty chunk).
std::vector<size_t> SplitEvenly(size_t n, size_t min_chunk,
                                size_t max_chunks);

}  // namespace xmlq::exec

#endif  // XMLQ_EXEC_MORSEL_H_
