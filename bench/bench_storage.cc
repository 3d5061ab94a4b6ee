// Experiment E2 (paper §4.2): storage footprint and build cost of the
// succinct scheme vs the DOM arena vs the interval-encoded (extended-
// relational) representation. Reported counters: bytes per node for each
// representation; the timed body is the build. The paper's claim: the
// succinct structure (parentheses + label streams) is a small fraction of
// a pointer-based tree.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "xmlq/xml/parser.h"
#include "xmlq/xml/serializer.h"

namespace xmlq::bench {
namespace {

void BM_BuildDomParse(benchmark::State& state) {
  const int permille = static_cast<int>(state.range(0));
  const std::string text = xml::Serialize(*AuctionDoc(permille).dom);
  size_t nodes = 0;
  for (auto _ : state) {
    auto doc = xml::ParseDocument(text);
    if (!doc.ok()) {
      state.SkipWithError(doc.status().ToString().c_str());
      return;
    }
    nodes = doc->NodeCount();
    benchmark::DoNotOptimize(doc->NodeCount());
  }
  state.counters["nodes"] = static_cast<double>(nodes);
  state.counters["dom_bytes_per_node"] =
      static_cast<double>(AuctionDoc(permille).dom->MemoryUsage()) /
      static_cast<double>(nodes);
  state.SetBytesProcessed(
      static_cast<int64_t>(state.iterations() * text.size()));
}
BENCHMARK(BM_BuildDomParse)->Name("E2/build_dom_parse")->Arg(50)->Arg(200);

void BM_BuildSuccinct(benchmark::State& state) {
  const int permille = static_cast<int>(state.range(0));
  const LoadedDoc& doc = AuctionDoc(permille);
  for (auto _ : state) {
    storage::SuccinctDocument succinct =
        storage::SuccinctDocument::Build(*doc.dom);
    benchmark::DoNotOptimize(succinct.NodeCount());
  }
  const double nodes = static_cast<double>(doc.dom->NodeCount());
  state.counters["nodes"] = nodes;
  state.counters["succinct_structure_bytes_per_node"] =
      static_cast<double>(doc.succinct->StructureBytes()) / nodes;
  state.counters["succinct_content_bytes_per_node"] =
      static_cast<double>(doc.succinct->ContentBytes()) / nodes;
  state.counters["dom_bytes_per_node"] =
      static_cast<double>(doc.dom->MemoryUsage()) / nodes;
}
BENCHMARK(BM_BuildSuccinct)->Name("E2/build_succinct")->Arg(50)->Arg(200);

void BM_BuildRegionIndex(benchmark::State& state) {
  const int permille = static_cast<int>(state.range(0));
  const LoadedDoc& doc = AuctionDoc(permille);
  for (auto _ : state) {
    storage::RegionIndex index(*doc.dom);
    benchmark::DoNotOptimize(index.EndSpan().size());
  }
  const double nodes = static_cast<double>(doc.dom->NodeCount());
  state.counters["region_bytes_per_node"] =
      static_cast<double>(doc.regions->MemoryUsage()) / nodes;
}
BENCHMARK(BM_BuildRegionIndex)
    ->Name("E2/build_region_index")
    ->Arg(50)
    ->Arg(200);

void BM_BuildValueIndex(benchmark::State& state) {
  const int permille = static_cast<int>(state.range(0));
  const LoadedDoc& doc = AuctionDoc(permille);
  for (auto _ : state) {
    storage::ValueIndex index(*doc.dom);
    benchmark::DoNotOptimize(index.size());
  }
  const double nodes = static_cast<double>(doc.dom->NodeCount());
  state.counters["value_index_bytes_per_node"] =
      static_cast<double>(doc.values->MemoryUsage()) / nodes;
}
BENCHMARK(BM_BuildValueIndex)->Name("E2/build_value_index")->Arg(50);

/// Footprint summary across scales (timing is irrelevant; one iteration
/// prints the counters the table needs).
void BM_FootprintSummary(benchmark::State& state) {
  const int permille = static_cast<int>(state.range(0));
  const LoadedDoc& doc = AuctionDoc(permille);
  for (auto _ : state) {
    benchmark::DoNotOptimize(doc.dom->NodeCount());
  }
  const double nodes = static_cast<double>(doc.dom->NodeCount());
  state.counters["nodes"] = nodes;
  state.counters["dom_bytes_per_node"] =
      static_cast<double>(doc.dom->MemoryUsage()) / nodes;
  state.counters["succinct_total_bytes_per_node"] =
      static_cast<double>(doc.succinct->MemoryUsage()) / nodes;
  state.counters["succinct_structure_bytes_per_node"] =
      static_cast<double>(doc.succinct->StructureBytes()) / nodes;
  state.counters["region_bytes_per_node"] =
      static_cast<double>(doc.regions->MemoryUsage()) / nodes;
}
BENCHMARK(BM_FootprintSummary)
    ->Name("E2/footprint")
    ->Arg(10)
    ->Arg(50)
    ->Arg(200);

}  // namespace
}  // namespace xmlq::bench

XMLQ_BENCH_MAIN();
