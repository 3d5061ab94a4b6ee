// Serving stress around the parallelism knobs (a TSan target; DESIGN.md
// §12): worker threads run mixed queries with assorted
// QueryOptions::parallelism values — accepted and without effect on
// evaluation — while a writer swaps the document between two versions and
// a canceller kills random in-flight queries. Every query must end in
// exactly one of {ordered-correct result for SOME pinned document version,
// kCancelled, kResourceExhausted}. A second group proves resource limits
// (deadline, step budget) behave identically at any parallelism value, and
// that queries run cleanly beside a running scrubber.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "xmlq/api/database.h"
#include "xmlq/base/limits.h"
#include "xmlq/base/random.h"
#include "xmlq/datagen/auction_gen.h"
#include "xmlq/exec/admission.h"

namespace xmlq {
namespace {

std::unique_ptr<xml::Document> Auction(double scale, uint64_t seed) {
  datagen::AuctionOptions options;
  options.scale = scale;
  options.seed = seed;
  return datagen::GenerateAuctionSite(options);
}

TEST(ParallelStressTest, ConcurrentParallelQueriesSwapsAndCancels) {
  constexpr int kThreads = 8;
  constexpr int kQueriesPerThread = 25;
  constexpr uint64_t kSeed = 2027;

  const char* kPaths[] = {
      "//person/name",
      "//person[address]/name",
      "//item/location",
      "//open_auction[bidder]/current",
  };
  // Per-query knobs the workers cycle through: every stream engine plus
  // auto, at parallelism 2/4/8/0(=hardware).
  struct Knobs {
    bool auto_optimize;
    exec::PatternStrategy strategy;
    uint32_t parallelism;
  };
  const Knobs kKnobs[] = {
      {true, exec::PatternStrategy::kNok, 4},
      {false, exec::PatternStrategy::kNok, 2},
      {false, exec::PatternStrategy::kTwigStack, 8},
      {false, exec::PatternStrategy::kTwigStack, 4},
      {false, exec::PatternStrategy::kPathStack, 4},
      {false, exec::PatternStrategy::kBinaryJoin, 4},
      {false, exec::PatternStrategy::kBinaryJoin, 8},
      {true, exec::PatternStrategy::kNok, 0},
  };

  // Precompute the expected answers for both document versions so a worker
  // can verify its pinned result no matter which version it saw.
  std::vector<std::string> expected_v1, expected_v2;
  {
    api::Database ref;
    ASSERT_TRUE(ref.RegisterDocument("a.xml", Auction(0.02, 7)).ok());
    for (const char* path : kPaths) {
      auto r = ref.QueryPath(path);
      ASSERT_TRUE(r.ok());
      expected_v1.push_back(api::Database::ToXml(*r));
    }
  }
  {
    api::Database ref;
    ASSERT_TRUE(ref.RegisterDocument("a.xml", Auction(0.02, 99)).ok());
    for (const char* path : kPaths) {
      auto r = ref.QueryPath(path);
      ASSERT_TRUE(r.ok());
      expected_v2.push_back(api::Database::ToXml(*r));
    }
  }

  api::Database db;
  ASSERT_TRUE(db.RegisterDocument("a.xml", Auction(0.02, 7)).ok());
  db.SetAdmission({.max_concurrent = 4, .max_queue = 8,
                   .queue_deadline_micros = 5000});

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> latest_query_id{0};
  std::atomic<int> correct{0}, cancelled{0}, exhausted{0};
  std::atomic<int> failures{0};
  std::vector<std::string> failure_notes(kThreads);

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Rng rng = Rng::Stream(kSeed, static_cast<uint64_t>(t));
      for (int i = 0; i < kQueriesPerThread; ++i) {
        const size_t which = rng.Below(std::size(kPaths));
        const Knobs& knobs = kKnobs[rng.Below(std::size(kKnobs))];
        api::QueryOptions options;
        options.auto_optimize = knobs.auto_optimize;
        options.strategy = knobs.strategy;
        options.parallelism = knobs.parallelism;
        std::atomic<uint64_t> id{0};
        options.query_id_out = &id;
        auto result = db.QueryPath(kPaths[which], {}, options);
        latest_query_id.store(id.load(), std::memory_order_relaxed);
        if (result.ok()) {
          const std::string got = api::Database::ToXml(*result);
          if (got == expected_v1[which] || got == expected_v2[which]) {
            correct.fetch_add(1);
          } else {
            failures.fetch_add(1);
            failure_notes[t] =
                std::string("wrong result for ") + kPaths[which];
          }
        } else if (result.status().code() == StatusCode::kCancelled) {
          cancelled.fetch_add(1);
        } else if (result.status().code() ==
                   StatusCode::kResourceExhausted) {
          exhausted.fetch_add(1);
        } else {
          failures.fetch_add(1);
          failure_notes[t] = result.status().ToString();
        }
      }
    });
  }

  // Writer: swap between the two versions while queries pin whichever
  // catalog snapshot they started on.
  std::thread swapper([&] {
    uint64_t flip = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const uint64_t seed = (flip++ % 2 == 0) ? 99 : 7;
      ASSERT_TRUE(db.RegisterDocument("a.xml", Auction(0.02, seed)).ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  // Canceller: fire at the last published id.
  std::thread canceller([&] {
    while (!stop.load(std::memory_order_acquire)) {
      const uint64_t id = latest_query_id.load(std::memory_order_relaxed);
      if (id != 0) db.Cancel(id);
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  });

  for (std::thread& w : workers) w.join();
  stop.store(true, std::memory_order_release);
  swapper.join();
  canceller.join();

  EXPECT_EQ(failures.load(), 0)
      << "first failure note: " << [&] {
           for (const std::string& note : failure_notes) {
             if (!note.empty()) return note;
           }
           return std::string("none");
         }();
  EXPECT_EQ(correct.load() + cancelled.load() + exhausted.load(),
            kThreads * kQueriesPerThread);
  EXPECT_GT(correct.load(), 0);

  const exec::AdmissionStats stats = db.admission_stats();
  EXPECT_EQ(stats.running, 0u);
  EXPECT_EQ(stats.queued, 0u);
}

TEST(ParallelStressTest, StepBudgetIsIdenticalAtAnyParallelism) {
  api::Database db;
  ASSERT_TRUE(db.RegisterDocument("a.xml", Auction(0.05, 7)).ok());
  const char* kPath = "//person[address]/name";
  auto unlimited = db.QueryPath(kPath);
  ASSERT_TRUE(unlimited.ok()) << unlimited.status().ToString();
  const std::string expected = api::Database::ToXml(*unlimited);

  // The smallest step budget the serial run meets (step counting is
  // deterministic, so a binary search pins it exactly).
  auto run = [&](uint64_t max_steps, uint32_t parallelism) {
    api::QueryOptions options;
    options.limits.max_steps = max_steps;
    options.parallelism = parallelism;
    return db.QueryPath(kPath, {}, options);
  };
  uint64_t lo = 1;
  uint64_t hi = 1;
  while (!run(hi, 1).ok()) hi *= 2;
  while (lo < hi) {
    const uint64_t mid = lo + (hi - lo) / 2;
    if (run(mid, 1).ok()) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  const uint64_t budget = lo;
  ASSERT_GT(budget, 1u);

  for (const uint32_t parallelism : {1u, 4u, 8u}) {
    auto met = run(budget, parallelism);
    ASSERT_TRUE(met.ok()) << "parallelism " << parallelism << ": "
                          << met.status().ToString();
    EXPECT_EQ(api::Database::ToXml(*met), expected)
        << "parallelism " << parallelism;
    auto short_by_one = run(budget - 1, parallelism);
    ASSERT_FALSE(short_by_one.ok()) << "parallelism " << parallelism;
    EXPECT_EQ(short_by_one.status().code(), StatusCode::kResourceExhausted)
        << "parallelism " << parallelism << ": "
        << short_by_one.status().ToString();
  }
}

TEST(ParallelStressTest, ExpiredDeadlineTripsAtAnyParallelism) {
  api::Database db;
  ASSERT_TRUE(db.RegisterDocument("a.xml", Auction(0.05, 7)).ok());
  for (const uint32_t parallelism : {1u, 8u}) {
    api::QueryOptions options;
    options.parallelism = parallelism;
    options.limits.deadline_micros = 1;  // already expired at first tick
    auto result = db.QueryPath("//person[address]/name", {}, options);
    if (!result.ok()) {
      EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
          << result.status().ToString();
    }
  }
}

// The scrubber re-reads and re-verifies the store while readers query it:
// scrub passes must stay isolated from the serving path and quarantine
// decisions must stay clean-store-correct under contention.
TEST(ParallelStressTest, ParallelQueriesAndParallelScrubShareThePool) {
  const std::string dir = "parallel_stress_store";
  std::filesystem::remove_all(dir);
  api::Database db;
  ASSERT_TRUE(db.RegisterDocument("a.xml", Auction(0.02, 7)).ok());
  auto attached = db.Attach(dir, storage::SnapshotOpenMode::kCopy);
  ASSERT_TRUE(attached.ok()) << attached.status().ToString();
  ASSERT_TRUE(db.Persist("a.xml").ok());

  std::atomic<bool> stop{false};
  std::atomic<int> scrub_errors{0};
  std::atomic<int> query_errors{0};
  std::thread scrubber([&] {
    for (int i = 0; i < 20; ++i) {
      api::ScrubOptions scrub;
      scrub.deep = i % 2 == 1;
      auto report = db.Scrub(scrub);
      if (!report.ok() || report->corrupt != 0) ++scrub_errors;
    }
    stop.store(true, std::memory_order_release);
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      api::QueryOptions options;
      options.parallelism = 4;
      while (!stop.load(std::memory_order_acquire)) {
        auto result = db.QueryPath("//person/name", "a.xml", options);
        if (!result.ok()) ++query_errors;
      }
    });
  }
  scrubber.join();
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(scrub_errors.load(), 0);
  EXPECT_EQ(query_errors.load(), 0);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace xmlq
