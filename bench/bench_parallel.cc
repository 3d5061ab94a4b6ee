// Experiment R8 (remaining row): the parallel deep scrub over a
// multi-megabyte store — whole-file CRC over chunk lanes folded with
// Crc32Combine plus the full structural verify — at lane counts 1/2/4/8 on
// the shared MorselPool (DESIGN.md §12). Every row carries a `hw_threads`
// counter so a result file says whether its lane counts had cores behind
// them (hw_threads >= lanes) or were time-sliced.

#include <benchmark/benchmark.h>

#include <filesystem>
#include <string>
#include <thread>

#include "bench_util.h"
#include "xmlq/api/database.h"
#include "xmlq/datagen/auction_gen.h"

namespace xmlq::bench {
namespace {

constexpr int kScale = 300;  // XMark permille: a ~4.5 MB snapshot

void BM_DeepScrub(benchmark::State& state) {
  const std::string dir = "bench_parallel_store";
  std::filesystem::remove_all(dir);
  api::Database db;
  {
    datagen::AuctionOptions options;
    options.scale = kScale / 1000.0;
    if (!db.RegisterDocument("auction.xml",
                             datagen::GenerateAuctionSite(options))
             .ok() ||
        !db.Attach(dir, storage::SnapshotOpenMode::kMap).ok() ||
        !db.Persist("auction.xml").ok()) {
      state.SkipWithError("store setup failed");
      std::filesystem::remove_all(dir);
      return;
    }
  }
  api::ScrubOptions scrub;
  scrub.deep = true;
  scrub.parallelism = static_cast<uint32_t>(state.range(0));
  uint64_t bytes = 0;
  for (auto _ : state) {
    auto report = db.Scrub(scrub);
    if (!report.ok() || report->corrupt != 0) {
      state.SkipWithError("scrub failed");
      break;
    }
    bytes = report->bytes_read;
    benchmark::DoNotOptimize(bytes);
  }
  state.counters["snapshot_bytes"] = static_cast<double>(bytes);
  state.counters["hw_threads"] =
      static_cast<double>(std::thread::hardware_concurrency());
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_DeepScrub)
    ->Name("R8/deep_scrub")
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace xmlq::bench

XMLQ_BENCH_MAIN();
