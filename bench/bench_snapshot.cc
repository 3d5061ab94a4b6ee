// Experiment R2: snapshot cold-open vs rebuilding from XML. The xqpack
// claim: opening a saved document (checksummed read + validation + pointing
// the succinct structures at the bytes) is far cheaper than parse + index
// build, and the mmap path additionally owns almost no heap. The timed body
// of the open benchmarks includes full validation — every section CRC plus
// the semantic checks — so the speedup is not bought by trusting the file.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <memory>
#include <string>

#include "bench_util.h"
#include "xmlq/storage/snapshot.h"
#include "xmlq/xml/parser.h"
#include "xmlq/xml/serializer.h"

namespace xmlq::bench {
namespace {

/// Snapshot of the auction document at `permille`, written once under the
/// build tree (the benchmark working directory).
const std::string& SnapshotPath(int permille) {
  static std::map<int, std::string> cache;
  auto& slot = cache[permille];
  if (slot.empty()) {
    slot = "bench_snapshot_" + std::to_string(permille) + ".xqpack";
    const LoadedDoc& doc = AuctionDoc(permille);
    auto info =
        storage::WriteSnapshot(slot, *doc.dom, *doc.succinct, *doc.values);
    if (!info.ok()) {
      std::fprintf(stderr, "snapshot write failed: %s\n",
                   info.status().ToString().c_str());
      std::abort();
    }
  }
  return slot;
}

size_t OwnedHeapBytes(const storage::OpenedSnapshot& snapshot) {
  return snapshot.dom->MemoryUsage() + snapshot.succinct->HeapBytes() +
         snapshot.regions->HeapBytes() + snapshot.values->HeapBytes();
}

/// Baseline: what Database::LoadDocument does — parse the XML text and build
/// every physical view.
void BM_ParseAndBuild(benchmark::State& state) {
  const int permille = static_cast<int>(state.range(0));
  const std::string text = xml::Serialize(*AuctionDoc(permille).dom);
  size_t nodes = 0;
  for (auto _ : state) {
    auto doc = xml::ParseDocument(text);
    if (!doc.ok()) {
      state.SkipWithError(doc.status().ToString().c_str());
      return;
    }
    storage::SuccinctDocument succinct =
        storage::SuccinctDocument::Build(*doc);
    storage::RegionIndex regions(*doc);
    storage::ValueIndex values(*doc);
    nodes = doc->NodeCount();
    benchmark::DoNotOptimize(succinct.NodeCount());
    benchmark::DoNotOptimize(regions.EndSpan().size());
    benchmark::DoNotOptimize(values.size());
  }
  state.counters["nodes"] = static_cast<double>(nodes);
  state.counters["xml_bytes"] = static_cast<double>(text.size());
}
BENCHMARK(BM_ParseAndBuild)->Name("R2/parse_and_build")->Arg(50)->Arg(200);

void OpenBenchmark(benchmark::State& state, storage::SnapshotOpenMode mode) {
  const int permille = static_cast<int>(state.range(0));
  const std::string& path = SnapshotPath(permille);
  size_t nodes = 0;
  size_t owned = 0;
  size_t file_bytes = 0;
  for (auto _ : state) {
    auto snapshot = storage::OpenSnapshot(path, mode);
    if (!snapshot.ok()) {
      state.SkipWithError(snapshot.status().ToString().c_str());
      return;
    }
    nodes = snapshot->dom->NodeCount();
    owned = OwnedHeapBytes(*snapshot);
    file_bytes = snapshot->backing->file_size();
    benchmark::DoNotOptimize(snapshot->succinct->NodeCount());
  }
  state.counters["nodes"] = static_cast<double>(nodes);
  state.counters["file_bytes"] = static_cast<double>(file_bytes);
  state.counters["owned_heap_bytes"] = static_cast<double>(owned);
}

void BM_ColdOpenMap(benchmark::State& state) {
  OpenBenchmark(state, storage::SnapshotOpenMode::kMap);
}
BENCHMARK(BM_ColdOpenMap)->Name("R2/cold_open_mmap")->Arg(50)->Arg(200);

void BM_ColdOpenCopy(benchmark::State& state) {
  OpenBenchmark(state, storage::SnapshotOpenMode::kCopy);
}
BENCHMARK(BM_ColdOpenCopy)->Name("R2/cold_open_copy")->Arg(50)->Arg(200);

/// First query after open, so the end-to-end "time to first result" story
/// includes touching the mapped pages.
void BM_OpenAndFirstQuery(benchmark::State& state) {
  const int permille = static_cast<int>(state.range(0));
  const std::string& path = SnapshotPath(permille);
  for (auto _ : state) {
    auto snapshot =
        storage::OpenSnapshot(path, storage::SnapshotOpenMode::kMap);
    if (!snapshot.ok()) {
      state.SkipWithError(snapshot.status().ToString().c_str());
      return;
    }
    size_t hits = 0;
    for (const uint32_t level : snapshot->regions->LevelSpan()) {
      hits += level == 2;
    }
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_OpenAndFirstQuery)
    ->Name("R2/open_mmap_and_scan")
    ->Arg(50)
    ->Arg(200);

}  // namespace
}  // namespace xmlq::bench

XMLQ_BENCH_MAIN();
