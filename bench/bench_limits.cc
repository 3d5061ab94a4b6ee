// Experiment R1: overhead of resource governance. The guard's hot path is a
// counter add + compare per "step" (node scanned / pair merged / tuple
// bound), with the real checks (deadline clock read, cancel-flag load)
// amortized behind a 4096-step polling stride. The acceptance bar for this
// repo is <3% slowdown on the NoK matching path with an armed-but-huge
// budget versus an ungoverned run.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "xmlq/base/limits.h"
#include "xmlq/exec/executor.h"
#include "xmlq/xpath/compiler.h"

namespace xmlq::bench {
namespace {

constexpr int kScale = 50;

// Armed guard whose budgets are far beyond what any benchmark run uses, so
// every poll passes: measures pure bookkeeping cost, not early exits.
QueryLimits HugeLimits() {
  QueryLimits limits;
  limits.deadline_micros = 3600ull * 1000 * 1000;
  limits.max_steps = 1ull << 50;
  limits.max_memory_bytes = 1ull << 44;
  return limits;
}

void RunGoverned(benchmark::State& state, const char* path,
                 exec::PatternStrategy strategy, bool armed) {
  exec::EvalContext context;
  context.documents[""] = AuctionDoc(kScale).view;
  context.documents["auction.xml"] = AuctionDoc(kScale).view;
  const QueryLimits limits = HugeLimits();
  ResourceGuard guard(limits);
  if (armed) context.guard = &guard;
  auto plan = xpath::CompilePath(path, "auction.xml");
  if (!plan.ok()) {
    state.SkipWithError(plan.status().ToString().c_str());
    return;
  }
  algebra::SetPatternStrategy(plan->get(), strategy);
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

// The NoK matching path (the paper's main matcher) — the overhead target.
void BM_NokUngoverned(benchmark::State& state) {
  RunGoverned(state, "//person[address][phone]/name",
              exec::PatternStrategy::kNok, /*armed=*/false);
}
BENCHMARK(BM_NokUngoverned)->Name("R1/nok_twig_ungoverned");

void BM_NokGoverned(benchmark::State& state) {
  RunGoverned(state, "//person[address][phone]/name",
              exec::PatternStrategy::kNok, /*armed=*/true);
}
BENCHMARK(BM_NokGoverned)->Name("R1/nok_twig_governed");

// A long path keeps more streams in flight (more tick sites per node).
void BM_PathUngoverned(benchmark::State& state) {
  RunGoverned(state, "/site/people/person/profile/interest",
              exec::PatternStrategy::kNok, /*armed=*/false);
}
BENCHMARK(BM_PathUngoverned)->Name("R1/nok_path_ungoverned");

void BM_PathGoverned(benchmark::State& state) {
  RunGoverned(state, "/site/people/person/profile/interest",
              exec::PatternStrategy::kNok, /*armed=*/true);
}
BENCHMARK(BM_PathGoverned)->Name("R1/nok_path_governed");

// TwigStack for comparison: per-iteration ticks on the merge loop.
void BM_TwigStackUngoverned(benchmark::State& state) {
  RunGoverned(state, "//person[address][phone]/name",
              exec::PatternStrategy::kTwigStack, /*armed=*/false);
}
BENCHMARK(BM_TwigStackUngoverned)->Name("R1/twigstack_ungoverned");

void BM_TwigStackGoverned(benchmark::State& state) {
  RunGoverned(state, "//person[address][phone]/name",
              exec::PatternStrategy::kTwigStack, /*armed=*/true);
}
BENCHMARK(BM_TwigStackGoverned)->Name("R1/twigstack_governed");

// Raw cost of the guard hot path itself, for the record: armed (counter +
// compare, poll every 4096) vs unarmed (compare against UINT64_MAX).
void BM_TickArmed(benchmark::State& state) {
  const QueryLimits limits = HugeLimits();
  ResourceGuard guard(limits);
  for (auto _ : state) {
    benchmark::DoNotOptimize(guard.Tick());
  }
}
BENCHMARK(BM_TickArmed)->Name("R1/tick_armed");

void BM_TickUnarmed(benchmark::State& state) {
  ResourceGuard guard;
  for (auto _ : state) {
    benchmark::DoNotOptimize(guard.Tick());
  }
}
BENCHMARK(BM_TickUnarmed)->Name("R1/tick_unarmed");

}  // namespace
}  // namespace xmlq::bench

XMLQ_BENCH_MAIN();
