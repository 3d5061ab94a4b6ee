#include "xmlq/exec/morsel.h"

#include <algorithm>

namespace xmlq::exec {

MorselPool& MorselPool::Shared() {
  static MorselPool* pool = new MorselPool();  // leaked: outlives teardown
  return *pool;
}

MorselPool::MorselPool(uint32_t max_threads)
    : max_threads_(max_threads != 0
                       ? max_threads
                       : std::max(1u, std::thread::hardware_concurrency())) {}

MorselPool::~MorselPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void MorselPool::Run(size_t tasks, uint32_t lanes,
                     const std::function<void(size_t, uint32_t)>& fn) {
  if (tasks == 0) return;
  const uint32_t lane_limit =
      std::max<uint32_t>(1, std::min<uint64_t>(lanes, tasks));
  auto batch = std::make_shared<Batch>();
  batch->fn = fn;
  batch->tasks = tasks;
  batch->lane_limit = lane_limit;
  if (lane_limit > 1) {
    std::lock_guard<std::mutex> lock(mu_);
    const size_t want = std::min<size_t>(max_threads_, lane_limit - 1);
    while (threads_.size() < want) {
      threads_.emplace_back([this] { WorkerLoop(); });
    }
    queue_.push_back(batch);
    cv_.notify_all();
  }
  RunTasks(*batch, 0);
  std::unique_lock<std::mutex> lock(batch->mu);
  batch->cv.wait(lock, [&] {
    return batch->active == 0 &&
           batch->next.load(std::memory_order_relaxed) >= batch->tasks;
  });
}

void MorselPool::WorkerLoop() {
  for (;;) {
    std::shared_ptr<Batch> batch;
    uint32_t lane = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (stop_) return;
      // Drop exhausted batches, claim a lane on the first live one.
      while (!queue_.empty()) {
        std::shared_ptr<Batch>& front = queue_.front();
        if (front->next.load(std::memory_order_relaxed) >= front->tasks ||
            front->lanes_claimed >= front->lane_limit) {
          queue_.pop_front();
          continue;
        }
        batch = front;
        lane = front->lanes_claimed++;
        if (front->lanes_claimed >= front->lane_limit) queue_.pop_front();
        break;
      }
    }
    if (batch != nullptr) RunTasks(*batch, lane);
  }
}

void MorselPool::RunTasks(Batch& batch, uint32_t lane) {
  {
    std::lock_guard<std::mutex> lock(batch.mu);
    ++batch.active;
  }
  for (;;) {
    const size_t task = batch.next.fetch_add(1, std::memory_order_relaxed);
    if (task >= batch.tasks) break;
    batch.fn(task, lane);
  }
  {
    std::lock_guard<std::mutex> lock(batch.mu);
    --batch.active;
  }
  batch.cv.notify_all();
}

std::vector<size_t> SplitEvenly(size_t n, size_t min_chunk,
                                size_t max_chunks) {
  const size_t floor = std::max<size_t>(1, min_chunk);
  size_t chunks = std::max<size_t>(1, std::min(max_chunks, n / floor));
  std::vector<size_t> bounds;
  bounds.reserve(chunks + 1);
  bounds.push_back(0);
  for (size_t c = 1; c <= chunks; ++c) {
    bounds.push_back(n * c / chunks);
  }
  return bounds;
}

}  // namespace xmlq::exec
