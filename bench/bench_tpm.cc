// Experiment E1 (paper §4.2 headline, deferred to [6]): tree-pattern
// matching throughput — the NoK navigational/hybrid matcher vs the
// join-based engines (TwigStack, PathStack, binary structural joins) vs
// naive DOM navigation, over eight query templates and a document-size
// sweep. The reproduction target is the *ordering* (NoK ≥ holistic joins ≥
// binary joins ≥ naive) and the widening gap with document size.

#include <benchmark/benchmark.h>

#include <optional>
#include <span>

#include "bench_util.h"
#include "xmlq/exec/hybrid.h"
#include "xmlq/exec/naive_nav.h"
#include "xmlq/exec/nok_matcher.h"
#include "xmlq/exec/path_stack.h"
#include "xmlq/exec/structural_join.h"
#include "xmlq/exec/twig_stack.h"
#include "xmlq/xpath/nok_partition.h"

namespace xmlq::bench {
namespace {

struct QueryTemplate {
  const char* name;
  const char* path;
};

// Q1-Q4: linear paths; Q5-Q8: twigs with branches / value predicates.
constexpr QueryTemplate kQueries[] = {
    {"Q1_short_child", "/site/regions/africa/item"},
    {"Q2_long_child", "/site/open_auctions/open_auction/bidder/increase"},
    {"Q3_descendant", "//item/name"},
    {"Q4_deep_descendant", "//mailbox//text"},
    {"Q5_branch", "//person[address][phone]/name"},
    {"Q6_value_pred", "//item[payment = 'Cash']/location"},
    {"Q7_attr_pred", "//person[@id = 'person7']"},
    {"Q8_mixed_twig", "//open_auction[bidder/increase > 20]/current"},
};

enum class Engine { kNok, kTwigStack, kPathStack, kBinaryJoin, kNaive };

const char* EngineName(Engine e) {
  switch (e) {
    case Engine::kNok:
      return "nok";
    case Engine::kTwigStack:
      return "twigstack";
    case Engine::kPathStack:
      return "pathstack";
    case Engine::kBinaryJoin:
      return "binaryjoin";
    case Engine::kNaive:
      return "naive";
  }
  return "?";
}

void RunEngine(benchmark::State& state, const LoadedDoc& doc,
               const algebra::PatternGraph& pattern, Engine engine) {
  size_t results = 0;
  for (auto _ : state) {
    Result<exec::NodeList> matches = [&]() -> Result<exec::NodeList> {
      switch (engine) {
        case Engine::kNok:
          return exec::HybridMatch(doc.view, pattern);
        case Engine::kTwigStack:
          return exec::TwigStackMatch(doc.view, pattern);
        case Engine::kPathStack:
          return exec::PathStackMatch(doc.view, pattern);
        case Engine::kBinaryJoin:
          return exec::BinaryJoinPlanMatch(doc.view, pattern);
        case Engine::kNaive:
          return exec::NaiveMatchPattern(*doc.dom, pattern);
      }
      return Status::Internal("bad engine");
    }();
    if (!matches.ok()) {
      state.SkipWithError(matches.status().ToString().c_str());
      return;
    }
    results = matches->size();
    benchmark::DoNotOptimize(matches->data());
  }
  state.counters["results"] = static_cast<double>(results);
  state.counters["nodes"] = static_cast<double>(doc.dom->NodeCount());
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations() * doc.dom->NodeCount()));
}

void BM_Tpm(benchmark::State& state, const char* path, Engine engine,
            int permille) {
  const LoadedDoc& doc = AuctionDoc(permille);
  algebra::PatternGraph pattern = Pattern(path);
  bool linear = true;
  for (algebra::VertexId v = 0; v < pattern.VertexCount(); ++v) {
    if (pattern.vertex(v).children.size() > 1) linear = false;
  }
  if (engine == Engine::kPathStack && !linear) {
    state.SkipWithError("pathstack: twig query");
    return;
  }
  RunEngine(state, doc, pattern, engine);
}

bool IsLinear(const char* path) {
  const algebra::PatternGraph pattern = Pattern(path);
  for (algebra::VertexId v = 0; v < pattern.VertexCount(); ++v) {
    if (pattern.vertex(v).children.size() > 1) return false;
  }
  return true;
}

// Ablation of the NoK matcher's scan mode (a DESIGN.md design choice): the
// localized candidate-anchored scan (jump to tag-stream candidates, scan
// only their subtrees) vs one whole-document pass with free head anchoring.
void BM_NokScanMode(benchmark::State& state, bool localized, int permille) {
  const LoadedDoc& doc = AuctionDoc(permille);
  const algebra::PatternGraph pattern =
      Pattern("//person[address][phone]/name");
  const xpath::NokPartition partition = xpath::PartitionNok(pattern);
  const xpath::NokPart& part = partition.parts.back();
  const algebra::VertexId requested[] = {pattern.SoleOutput()};
  std::optional<std::span<const uint32_t>> candidates;
  if (localized) {
    candidates = doc.regions->Postings(
        doc.dom->pool().Find(pattern.vertex(part.head).label),
        /*attribute=*/false);
  }
  size_t results = 0;
  for (auto _ : state) {
    auto result = exec::MatchNokPart(*doc.succinct, pattern, part, requested,
                                     candidates);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    results = result->bindings[0].size();
    benchmark::DoNotOptimize(results);
  }
  state.counters["results"] = static_cast<double>(results);
}

bool RegisterAll() {
  for (const int permille : {50, 200}) {
    for (const bool localized : {true, false}) {
      const std::string name =
          std::string("E1/ablation_nok_scan/") +
          (localized ? "candidate_anchored/" : "whole_document/") +
          std::to_string(permille);
      benchmark::RegisterBenchmark(
          name.c_str(), [localized, permille](benchmark::State& state) {
            BM_NokScanMode(state, localized, permille);
          });
    }
  }
  // Per-query engine comparison at scale 0.05 (~13k nodes).
  for (const QueryTemplate& q : kQueries) {
    for (const Engine engine :
         {Engine::kNok, Engine::kTwigStack, Engine::kPathStack,
          Engine::kBinaryJoin, Engine::kNaive}) {
      if (engine == Engine::kPathStack && !IsLinear(q.path)) continue;
      const std::string name =
          std::string("E1/") + q.name + "/" + EngineName(engine);
      benchmark::RegisterBenchmark(
          name.c_str(),
          [path = q.path, engine](benchmark::State& state) {
            BM_Tpm(state, path, engine, 50);
          });
    }
  }
  // Scale sweep on a representative twig (Q5) for the crossover figure.
  for (const int permille : {10, 25, 50, 100, 200}) {
    for (const Engine engine :
         {Engine::kNok, Engine::kTwigStack, Engine::kBinaryJoin,
          Engine::kNaive}) {
      const std::string name = std::string("E1/scale_sweep_Q5/") +
                               EngineName(engine) + "/" +
                               std::to_string(permille);
      benchmark::RegisterBenchmark(
          name.c_str(), [engine, permille](benchmark::State& state) {
            BM_Tpm(state, "//person[address][phone]/name", engine, permille);
          });
    }
  }
  return true;
}

const bool registered = RegisterAll();

}  // namespace
}  // namespace xmlq::bench

XMLQ_BENCH_MAIN();
