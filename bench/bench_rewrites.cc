// Experiment E6 (ablation over §3/§6's logical optimization): the same
// query executed (a) from the raw navigation-chain plan, (b) after
// navigation folding into τ, and (c) after folding + σv pushdown, plus the
// cost-based strategy choice. The reproduction target: each rewrite strictly
// helps, and folding is the enabling step for the NoK matcher.
//
// The E6/r6_* rows ablate rewrite R6 (`where` unnesting) on FLWOR shapes
// of the served workloads: every rewrite but R6 (the conjunct runs once per
// tuple), all rewrites (the conjunct is a τ predicate), and the
// hand-written predicate twin. Each τ runs the cost model's pick, which the
// row's label names.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "xmlq/algebra/rewrite.h"
#include "xmlq/exec/executor.h"
#include "xmlq/opt/optimizer.h"
#include "xmlq/opt/synopsis.h"
#include "xmlq/xquery/translate.h"
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
      algebra::ValuePredicate{algebra::CompareOp::kGt, "20",
                              algebra::ValueTyping::kNumber});
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

// --- Rewrite R6 ablation ----------------------------------------------------

struct FlworShape {
  const char* name;
  const char* flwor;
  const char* twin;
};

// store_rw's bibliography lookup, point_mix's person lookup and the oracle's
// cash-payment filter, at the served documents' sizes.
constexpr FlworShape kFlworShapes[] = {
    {"bib_id",
     "for $b in doc(\"bib.xml\")//book where $b/@id = 'b417' "
     "return $b/author",
     "doc(\"bib.xml\")//book[@id = 'b417']/author"},
    {"person_id",
     "for $p in doc(\"auction.xml\")//person where $p/@id = 'person33' "
     "return $p/emailaddress",
     "doc(\"auction.xml\")//person[@id = 'person33']/emailaddress"},
    {"item_cash",
     "for $i in doc(\"auction.xml\")//item where $i/payment = 'Cash' "
     "return $i/location",
     "doc(\"auction.xml\")//item[payment = 'Cash']/location"},
};

const LoadedDoc& ShapeDoc(const std::string& name) {
  return name == "bib.xml" ? BibDoc(1000) : AuctionDoc(100);
}

/// Every rewrite of ApplyAllRewrites but R6, to a fixpoint.
void RewriteWithoutUnnesting(algebra::LogicalExprPtr* plan) {
  while (algebra::NormalizeDocCalls(plan) +
             algebra::FuseSelectTagIntoNavigate(plan) +
             algebra::FoldNavigationChains(plan) +
             algebra::PushSelectValueIntoPattern(plan) +
             algebra::GraftPatternFilters(plan) +
             algebra::RemoveRedundantDocOrderDedup(plan) >
         0) {
  }
}

/// Stamps each τ node with the cost model's pick; returns the picks.
std::string PickEngines(algebra::LogicalExpr* plan) {
  std::string picks;
  if (plan->op == algebra::LogicalOp::kTreePattern &&
      plan->children[0]->op == algebra::LogicalOp::kDocScan) {
    const LoadedDoc& doc = ShapeDoc(plan->children[0]->str);
    const opt::Synopsis synopsis(*doc.dom, doc.values.get());
    plan->strategy =
        opt::ChooseStrategy(synopsis, doc.dom->pool(), *plan->pattern)
            .strategy;
    picks = std::string(algebra::PatternStrategyName(plan->strategy));
  }
  for (const auto& child : plan->children) {
    const std::string below = PickEngines(child.get());
    if (!below.empty()) picks += (picks.empty() ? "" : ",") + below;
  }
  return picks;
}

enum class R6Plan { kOff, kOn, kTwin };

void BM_UnnestWhere(benchmark::State& state, const FlworShape& shape,
                    R6Plan which) {
  xquery::TranslateOptions options;
  options.apply_rewrites = which != R6Plan::kOff;
  auto plan =
      xquery::CompileQuery(which == R6Plan::kTwin ? shape.twin : shape.flwor,
                           options);
  if (!plan.ok()) {
    state.SkipWithError(plan.status().ToString().c_str());
    return;
  }
  if (which == R6Plan::kOff) RewriteWithoutUnnesting(&*plan);
  state.SetLabel(PickEngines(plan->get()));
  exec::EvalContext context;
  context.documents["bib.xml"] = BibDoc(1000).view;
  context.documents["auction.xml"] = AuctionDoc(100).view;
  exec::Executor executor(&context);
  size_t results = 0;
  for (auto _ : state) {
    auto result = executor.Evaluate(**plan);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    results = result->value.size();
    benchmark::DoNotOptimize(results);
  }
  state.counters["results"] = static_cast<double>(results);
}

void RegisterUnnestWhere() {
  constexpr std::pair<R6Plan, const char*> kPlans[] = {
      {R6Plan::kOff, "r6_off"},
      {R6Plan::kOn, "r6_on"},
      {R6Plan::kTwin, "twin"},
  };
  for (const FlworShape& shape : kFlworShapes) {
    for (const auto& [which, tag] : kPlans) {
      benchmark::RegisterBenchmark(
          (std::string("E6/") + tag + "/" + shape.name).c_str(),
          [&shape, which = which](benchmark::State& state) {
            BM_UnnestWhere(state, shape, which);
          });
    }
  }
}

const bool kUnnestWhereRegistered = (RegisterUnnestWhere(), true);

}  // namespace
}  // namespace xmlq::bench

XMLQ_BENCH_MAIN();
