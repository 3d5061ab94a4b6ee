// Experiment E6 (ablation over §3/§6's logical optimization): the same
// query executed (a) from the raw navigation-chain plan, (b) after
// navigation folding into τ, and (c) after folding + σv pushdown, plus the
// cost-based strategy choice. The reproduction target: each rewrite strictly
// helps, and folding is the enabling step for the NoK matcher.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "xmlq/algebra/rewrite.h"
#include "xmlq/exec/executor.h"
#include "xmlq/xpath/compiler.h"
#include "xmlq/xpath/parser.h"

namespace xmlq::bench {
namespace {

constexpr int kScale = 50;

exec::EvalContext MakeContext() {
  exec::EvalContext context;
  context.documents[""] = AuctionDoc(kScale).view;
  context.documents["auction.xml"] = AuctionDoc(kScale).view;
  return context;
}

/// Builds the naive logical plan for a simple path + trailing value
/// selection: DocScan -> Navigate* -> SelectValue (no rewrites applied).
algebra::LogicalExprPtr RawPlan() {
  auto ast = xpath::ParsePath("//open_auction/bidder/increase");
  auto chain = xpath::CompileToNavigationChain(*ast, "auction.xml");
  if (!chain.ok()) std::abort();
  return algebra::MakeSelectValue(
      std::move(*chain),
      algebra::ValuePredicate{algebra::CompareOp::kGt, "20", true});
}

void RunPlan(benchmark::State& state, const algebra::LogicalExpr& plan,
             exec::PatternStrategy strategy) {
  const exec::EvalContext context = MakeContext();
  const algebra::LogicalExprPtr stamped = plan.Clone();
  algebra::SetPatternStrategy(stamped.get(), strategy);
  exec::Executor executor(&context);
  size_t results = 0;
  for (auto _ : state) {
    auto result = executor.Evaluate(*stamped);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    results = result->value.size();
    benchmark::DoNotOptimize(results);
  }
  state.counters["results"] = static_cast<double>(results);
}

void BM_NoRewrites(benchmark::State& state) {
  const algebra::LogicalExprPtr plan = RawPlan();
  RunPlan(state, *plan, exec::PatternStrategy::kNok);
}
BENCHMARK(BM_NoRewrites)->Name("E6/no_rewrites_navigate_chain");

void BM_FoldOnly(benchmark::State& state) {
  algebra::LogicalExprPtr plan = RawPlan();
  algebra::FuseSelectTagIntoNavigate(&plan);
  algebra::FoldNavigationChains(&plan);
  algebra::RemoveRedundantDocOrderDedup(&plan);
  // SelectValue still applied post-hoc (not pushed into the pattern).
  RunPlan(state, *plan, exec::PatternStrategy::kNok);
}
BENCHMARK(BM_FoldOnly)->Name("E6/fold_into_pattern");

void BM_FoldAndPushdown(benchmark::State& state) {
  algebra::LogicalExprPtr plan = RawPlan();
  algebra::ApplyAllRewrites(&plan);
  RunPlan(state, *plan, exec::PatternStrategy::kNok);
}
BENCHMARK(BM_FoldAndPushdown)->Name("E6/fold_plus_pushdown");

void BM_FullyOptimizedTwig(benchmark::State& state) {
  algebra::LogicalExprPtr plan = RawPlan();
  algebra::ApplyAllRewrites(&plan);
  RunPlan(state, *plan, exec::PatternStrategy::kTwigStack);
}
BENCHMARK(BM_FullyOptimizedTwig)->Name("E6/fold_plus_pushdown_twigstack");

}  // namespace
}  // namespace xmlq::bench

XMLQ_BENCH_MAIN();
