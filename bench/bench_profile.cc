// Experiment R3: overhead of operator-level observability. Stats collection
// is opt-in (EvalContext::profile / OpStats* sinks); when disabled the
// executor's profiling wrapper is a single null check and the engines pay
// only dead local-counter increments. The acceptance bar is <3% slowdown on
// the bench_operators workloads with collection off versus the pre-
// instrumentation baseline; the on/off pairs here measure the same delta
// directly, plus the full cost of enabled collection for the record.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "xmlq/api/database.h"
#include "xmlq/datagen/auction_gen.h"
#include "xmlq/exec/executor.h"
#include "xmlq/exec/op_stats.h"
#include "xmlq/xpath/compiler.h"

namespace xmlq::bench {
namespace {

constexpr int kScale = 50;

void RunProfiled(benchmark::State& state, const char* path,
                 exec::PatternStrategy strategy, bool collect) {
  exec::EvalContext context;
  context.documents[""] = AuctionDoc(kScale).view;
  context.documents["auction.xml"] = AuctionDoc(kScale).view;
  auto plan = xpath::CompilePath(path, "auction.xml");
  if (!plan.ok()) {
    state.SkipWithError(plan.status().ToString().c_str());
    return;
  }
  algebra::SetPatternStrategy(plan->get(), strategy);
  exec::Executor executor(&context);
  size_t results = 0;
  for (auto _ : state) {
    std::unique_ptr<exec::PlanProfile> profile;
    if (collect) {
      profile = exec::PlanProfile::Create(**plan);
      context.profile = profile.get();
    }
    auto result = executor.Evaluate(**plan);
    context.profile = nullptr;
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    results = result->value.size();
    benchmark::DoNotOptimize(results);
  }
  state.counters["results"] = static_cast<double>(results);
}

// The τ hot path under each engine, stats off vs on.
void BM_NokOff(benchmark::State& state) {
  RunProfiled(state, "//person[address][phone]/name",
              exec::PatternStrategy::kNok, /*collect=*/false);
}
BENCHMARK(BM_NokOff)->Name("R3/nok_twig_stats_off");

void BM_NokOn(benchmark::State& state) {
  RunProfiled(state, "//person[address][phone]/name",
              exec::PatternStrategy::kNok, /*collect=*/true);
}
BENCHMARK(BM_NokOn)->Name("R3/nok_twig_stats_on");

void BM_TwigStackOff(benchmark::State& state) {
  RunProfiled(state, "//person[address][phone]/name",
              exec::PatternStrategy::kTwigStack, /*collect=*/false);
}
BENCHMARK(BM_TwigStackOff)->Name("R3/twigstack_stats_off");

void BM_TwigStackOn(benchmark::State& state) {
  RunProfiled(state, "//person[address][phone]/name",
              exec::PatternStrategy::kTwigStack, /*collect=*/true);
}
BENCHMARK(BM_TwigStackOn)->Name("R3/twigstack_stats_on");

// A navigation-heavy path: many per-node counter sites in naive/DOM code.
void BM_NaiveOff(benchmark::State& state) {
  RunProfiled(state, "/site/people/person/profile/interest",
              exec::PatternStrategy::kNaive, /*collect=*/false);
}
BENCHMARK(BM_NaiveOff)->Name("R3/naive_path_stats_off");

void BM_NaiveOn(benchmark::State& state) {
  RunProfiled(state, "/site/people/person/profile/interest",
              exec::PatternStrategy::kNaive, /*collect=*/true);
}
BENCHMARK(BM_NaiveOn)->Name("R3/naive_path_stats_on");

// End-to-end EXPLAIN ANALYZE through the api layer (annotation + execution
// + rendering), manually timed on the steady clock.
void BM_ExplainAnalyze(benchmark::State& state) {
  static api::Database* db = [] {
    auto* d = new api::Database;
    datagen::AuctionOptions gen;
    gen.scale = kScale / 1000.0;
    if (!d->RegisterDocument("auction.xml",
                             datagen::GenerateAuctionSite(gen))
             .ok()) {
      std::abort();
    }
    return d;
  }();
  for (auto _ : state) {
    const uint64_t begin = SteadyNowNanos();
    auto text = db->ExplainAnalyze("//person[address][phone]/name");
    const uint64_t end = SteadyNowNanos();
    if (!text.ok()) {
      state.SkipWithError(text.status().ToString().c_str());
      return;
    }
    state.SetIterationTime(static_cast<double>(end - begin) * 1e-9);
    benchmark::DoNotOptimize(text->size());
  }
}
BENCHMARK(BM_ExplainAnalyze)
    ->Name("R3/explain_analyze_end_to_end")
    ->UseManualTime();

}  // namespace
}  // namespace xmlq::bench

XMLQ_BENCH_MAIN();
