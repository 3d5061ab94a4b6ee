// Experiment T1 (paper Table 1): micro-benchmarks of the seven algebra
// operators — σs, ⋈s, πs (structure-based), σv, ⋈v (value-based), τ, γ
// (hybrid) — each driven through the logical-plan interpreter on the
// auction workload.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "xmlq/exec/executor.h"
#include "xmlq/xquery/translate.h"

namespace xmlq::bench {
namespace {

constexpr int kScale = 50;

exec::EvalContext MakeContext() {
  exec::EvalContext context;
  context.documents[""] = AuctionDoc(kScale).view;
  context.documents["auction.xml"] = AuctionDoc(kScale).view;
  return context;
}

void RunPlan(benchmark::State& state, const algebra::LogicalExpr& plan) {
  const exec::EvalContext context = MakeContext();
  exec::Executor executor(&context);
  size_t results = 0;
  for (auto _ : state) {
    auto result = executor.Evaluate(plan);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    results = result->value.size();
    benchmark::DoNotOptimize(results);
  }
  state.counters["results"] = static_cast<double>(results);
}

// σs — selection on tag names over the full element population.
void BM_SelectTag(benchmark::State& state) {
  auto plan = algebra::MakeSelectTag(
      algebra::MakeNavigate(algebra::MakeDocScan("auction.xml"),
                            algebra::Axis::kDescendant, "*", false),
      "item");
  RunPlan(state, *plan);
}
BENCHMARK(BM_SelectTag)->Name("T1/select_tag_sigma_s");

// πs — one navigation step (child axis) from a large context list.
void BM_Navigate(benchmark::State& state) {
  auto plan = algebra::MakeNavigate(
      algebra::MakeNavigate(algebra::MakeDocScan("auction.xml"),
                            algebra::Axis::kDescendant, "item", false),
      algebra::Axis::kChild, "name", false);
  RunPlan(state, *plan);
}
BENCHMARK(BM_Navigate)->Name("T1/navigate_pi_s");

// ⋈s — structural join of two tag streams.
void BM_StructuralJoin(benchmark::State& state) {
  auto plan = algebra::MakeStructuralJoin(
      algebra::MakeNavigate(algebra::MakeDocScan("auction.xml"),
                            algebra::Axis::kDescendant, "item", false),
      algebra::MakeNavigate(algebra::MakeDocScan("auction.xml"),
                            algebra::Axis::kDescendant, "text", false),
      algebra::Axis::kDescendant, /*return_ancestor=*/false);
  RunPlan(state, *plan);
}
BENCHMARK(BM_StructuralJoin)->Name("T1/structural_join_sigma_join_s");

// σv — value selection over element string-values.
void BM_SelectValue(benchmark::State& state) {
  auto plan = algebra::MakeSelectValue(
      algebra::MakeNavigate(algebra::MakeDocScan("auction.xml"),
                            algebra::Axis::kDescendant, "price", false),
      algebra::ValuePredicate{algebra::CompareOp::kGt, "200",
                              algebra::ValueTyping::kNumber});
  RunPlan(state, *plan);
}
BENCHMARK(BM_SelectValue)->Name("T1/select_value_sigma_v");

// ⋈v — value join: items whose location equals some person's city.
void BM_ValueJoin(benchmark::State& state) {
  auto join = std::make_unique<algebra::LogicalExpr>(
      algebra::LogicalOp::kValueJoin);
  join->predicate.op = algebra::CompareOp::kEq;
  join->children.push_back(
      algebra::MakeNavigate(algebra::MakeDocScan("auction.xml"),
                            algebra::Axis::kDescendant, "location", false));
  join->children.push_back(
      algebra::MakeNavigate(algebra::MakeDocScan("auction.xml"),
                            algebra::Axis::kDescendant, "city", false));
  RunPlan(state, *join);
}
BENCHMARK(BM_ValueJoin)->Name("T1/value_join_sigma_join_v");

// τ — tree pattern matching (the hybrid NoK engine).
void BM_TreePattern(benchmark::State& state) {
  auto chain = xpath::CompilePath("//person[address][phone]/name",
                                  "auction.xml");
  if (!chain.ok()) {
    state.SkipWithError(chain.status().ToString().c_str());
    return;
  }
  RunPlan(state, **chain);
}
BENCHMARK(BM_TreePattern)->Name("T1/tree_pattern_tau");

// γ — construction: build a result document per person.
void BM_Construct(benchmark::State& state) {
  xquery::TranslateOptions options;
  options.default_document = "auction.xml";
  auto plan = xquery::CompileQuery(
      "<out>{for $p in //person return <p>{$p/name}</p>}</out>", options);
  if (!plan.ok()) {
    state.SkipWithError(plan.status().ToString().c_str());
    return;
  }
  RunPlan(state, **plan);
}
BENCHMARK(BM_Construct)->Name("T1/construct_gamma");

}  // namespace
}  // namespace xmlq::bench

XMLQ_BENCH_MAIN();
