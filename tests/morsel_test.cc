// Tests for the parallel verification helpers (DESIGN.md §12) that Attach
// and Scrub use: MorselPool's exactly-once task execution and batch
// isolation between concurrent callers, SplitEvenly's chunk boundaries, and
// the Crc32Combine fold that verifies snapshots chunk-wise.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "xmlq/base/crc32.h"
#include "xmlq/exec/morsel.h"

namespace xmlq::exec {
namespace {

TEST(SplitEvenlyTest, Properties) {
  EXPECT_EQ(SplitEvenly(0, 1, 4), (std::vector<size_t>{0, 0}));
  for (const size_t n : {1ul, 2ul, 7ul, 100ul, 1001ul, 65536ul}) {
    for (const size_t min_chunk : {1ul, 8ul, 1000ul}) {
      for (const size_t max_chunks : {1ul, 3ul, 16ul}) {
        const std::vector<size_t> bounds =
            SplitEvenly(n, min_chunk, max_chunks);
        ASSERT_GE(bounds.size(), 2u);
        EXPECT_EQ(bounds.front(), 0u);
        EXPECT_EQ(bounds.back(), n);
        EXPECT_LE(bounds.size() - 1, max_chunks);
        size_t smallest = n, largest = 0;
        for (size_t c = 0; c + 1 < bounds.size(); ++c) {
          ASSERT_LT(bounds[c], bounds[c + 1]);  // no empty chunks
          const size_t size = bounds[c + 1] - bounds[c];
          smallest = std::min(smallest, size);
          largest = std::max(largest, size);
        }
        EXPECT_LE(largest - smallest, 1u);  // near-equal
        if (bounds.size() > 2) EXPECT_GE(smallest, min_chunk);
      }
    }
  }
}

TEST(MorselPoolTest, EveryTaskRunsExactlyOnce) {
  MorselPool& pool = MorselPool::Shared();
  for (const uint32_t lanes : {1u, 2u, 8u}) {
    constexpr size_t kTasks = 1000;
    std::vector<std::atomic<int>> counts(kTasks);
    std::atomic<uint32_t> max_lane{0};
    pool.Run(kTasks, lanes, [&](size_t task, uint32_t lane) {
      counts[task].fetch_add(1, std::memory_order_relaxed);
      uint32_t seen = max_lane.load(std::memory_order_relaxed);
      while (lane > seen &&
             !max_lane.compare_exchange_weak(seen, lane,
                                             std::memory_order_relaxed)) {
      }
    });
    for (size_t t = 0; t < kTasks; ++t) {
      ASSERT_EQ(counts[t].load(), 1) << "task " << t << " lanes " << lanes;
    }
    EXPECT_LT(max_lane.load(), std::max(1u, lanes));
  }
}

TEST(MorselPoolTest, SingleLaneRunsOnCaller) {
  const std::thread::id caller = std::this_thread::get_id();
  MorselPool::Shared().Run(64, 1, [&](size_t, uint32_t lane) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(lane, 0u);
  });
}

TEST(MorselPoolTest, ConcurrentExternalCallersAreIsolated) {
  // Attach and the scrubber share MorselPool::Shared(); batches from
  // concurrent callers must not leak tasks into each other.
  constexpr size_t kCallers = 4;
  constexpr size_t kTasks = 500;
  std::vector<std::vector<std::atomic<int>>> counts(kCallers);
  for (auto& c : counts) {
    c = std::vector<std::atomic<int>>(kTasks);
  }
  std::vector<std::thread> callers;
  for (size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      MorselPool::Shared().Run(kTasks, 4, [&, c](size_t task, uint32_t) {
        counts[c][task].fetch_add(1, std::memory_order_relaxed);
      });
    });
  }
  for (std::thread& t : callers) t.join();
  for (size_t c = 0; c < kCallers; ++c) {
    for (size_t t = 0; t < kTasks; ++t) {
      ASSERT_EQ(counts[c][t].load(), 1) << "caller " << c << " task " << t;
    }
  }
}

TEST(Crc32CombineTest, MatchesWholeBufferCrc) {
  std::mt19937_64 rng(42);
  for (const size_t len_a : {0ul, 1ul, 3ul, 64ul, 1000ul, 65536ul}) {
    for (const size_t len_b : {0ul, 1ul, 5ul, 255ul, 4096ul, 100000ul}) {
      std::string a(len_a, '\0'), b(len_b, '\0');
      for (char& ch : a) ch = static_cast<char>(rng());
      for (char& ch : b) ch = static_cast<char>(rng());
      const uint32_t whole = Crc32((a + b).data(), len_a + len_b);
      const uint32_t combined = Crc32Combine(
          Crc32(a.data(), len_a), Crc32(b.data(), len_b), len_b);
      ASSERT_EQ(combined, whole) << "len_a=" << len_a << " len_b=" << len_b;
    }
  }
}

TEST(Crc32CombineTest, FoldsAcrossManyChunks) {
  // The exact shape ParallelCrc32 uses: per-chunk CRCs folded left to right.
  std::mt19937_64 rng(7);
  std::string data(1 << 18, '\0');
  for (char& ch : data) ch = static_cast<char>(rng());
  const uint32_t whole = Crc32(data.data(), data.size());
  for (const size_t chunks : {2ul, 3ul, 7ul, 16ul}) {
    const std::vector<size_t> bounds = SplitEvenly(data.size(), 1, chunks);
    uint32_t crc = 0;
    for (size_t c = 0; c + 1 < bounds.size(); ++c) {
      const size_t size = bounds[c + 1] - bounds[c];
      crc = Crc32Combine(crc, Crc32(data.data() + bounds[c], size), size);
    }
    ASSERT_EQ(crc, whole) << chunks << " chunks";
  }
}

}  // namespace
}  // namespace xmlq::exec
