#ifndef XMLQ_EXEC_EXECUTOR_H_
#define XMLQ_EXEC_EXECUTOR_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "xmlq/algebra/env.h"
#include "xmlq/algebra/logical_plan.h"
#include "xmlq/base/limits.h"
#include "xmlq/base/status.h"
#include "xmlq/exec/node_stream.h"
#include "xmlq/exec/op_stats.h"

namespace xmlq::exec {

using algebra::PatternStrategy;
using algebra::PatternStrategyName;

class CircuitBreaker;  // exec/admission.h

/// How (and why) the executor degraded a query to the naive navigational
/// engine. Filled in by MatchPattern when the serving layer attached one to
/// the EvalContext: one entry per rerouted pattern (a τ inside a loop is
/// listed once), in the order they were first rerouted.
struct FallbackInfo {
  struct Reroute {
    const algebra::PatternGraph* pattern = nullptr;
    PatternStrategy from = PatternStrategy::kNok;  // the node's engine
    /// True when the breaker had quarantined the engine and it was never
    /// tried; false when it faulted and the pattern re-ran on naive.
    bool quarantined = false;
    std::string reason;  // fault message, or "circuit breaker open"
  };
  std::vector<Reroute> reroutes;

  bool Degraded() const { return !reroutes.empty(); }
};

/// How FLWOR expressions are evaluated (experiment F2).
enum class FlworMode : uint8_t {
  kEnv,        // materialize the layered Env (Definition 3), then iterate
  kPipelined,  // direct nested-loop recursion, no materialization
};

/// Everything a plan needs at run time. The documents map is keyed by the
/// name used in doc("...") / DocScan; the entry under "" is the default
/// document.
struct EvalContext {
  std::map<std::string, IndexedDocument, std::less<>> documents;
  FlworMode flwor_mode = FlworMode::kEnv;
  /// Optional resource governor polled throughout evaluation (deadline,
  /// step quota, memory budget, cancellation). Not owned; must outlive the
  /// evaluation. Null means ungoverned.
  const ResourceGuard* guard = nullptr;
  /// Optional per-operator profile (EXPLAIN ANALYZE). Must be built from
  /// the exact plan object being evaluated (PlanProfile::Create). Not owned.
  /// Null (the default) disables stats collection entirely — the executor
  /// then performs no lookups, no clock reads and no counter updates.
  PlanProfile* profile = nullptr;
  /// Optional per-strategy circuit breaker (exec/admission.h), shared by
  /// every query of the owning Database. When set, MatchPattern consults it
  /// before running a specialized engine and reports faults/successes back.
  /// Not owned. Null disables quarantine (faults still fall back).
  CircuitBreaker* breaker = nullptr;
  /// Admission number of this query (QueryScheduler ticket) — the logical
  /// clock the breaker's cool-down counts in. 0 outside the serving layer.
  uint64_t admitted_seq = 0;
  /// Optional degradation record for this query; MatchPattern fills it when
  /// an engine fault or quarantine rerouted a pattern to the naive engine.
  /// Not owned.
  FallbackInfo* fallback = nullptr;
};

/// Holds a query's output plus any documents constructed by γ (node items
/// in `value` may point into them).
struct QueryResult {
  algebra::Sequence value;
  std::vector<std::unique_ptr<xml::Document>> constructed;
  /// Per-operator execution profile; non-null only when the caller asked
  /// for stats (api::QueryOptions::collect_stats). Already finalized.
  std::unique_ptr<PlanProfile> profile;
  /// Serving-layer identity of this execution (api::Database assigns it;
  /// 0 when the executor was driven directly). The id a concurrent caller
  /// would pass to Database::Cancel.
  uint64_t query_id = 0;
  /// True when the query survived an engine fault or quarantine by
  /// degrading to the naive navigational engine; `degradation` says which
  /// engine was abandoned and why.
  bool degraded = false;
  std::string degradation;
  /// Where the plan came from: "fresh" (compiled for this execution) or
  /// "cached (gen N, age Ns, hits K, strategy S, binds ...)". Empty when the
  /// executor was driven directly (api::Database fills it).
  std::string plan_provenance;
  /// Keeps the catalog snapshot the query was pinned to alive: node items
  /// in `value` point into documents owned by it, so a result stays valid
  /// even after the Database swaps or drops the documents it was computed
  /// from. Null when the executor was driven directly.
  std::shared_ptr<const void> pinned;
};

/// Interprets logical algebra plans. Stateless across Evaluate calls except
/// for the constructed-document arena of the current call.
class Executor {
 public:
  explicit Executor(const EvalContext* context) : context_(context) {}

  /// Evaluates a plan to completion.
  Result<QueryResult> Evaluate(const algebra::LogicalExpr& plan);

  /// Lower-level entry point: evaluates with an initial variable scope.
  /// Exposed for tests; `out` receives constructed documents.
  Result<algebra::Sequence> EvaluateWithVars(
      const algebra::LogicalExpr& expr,
      const std::map<std::string, algebra::Sequence>& vars,
      QueryResult* out);

  /// Runs just the τ operator on `pattern` over `doc` with `strategy`,
  /// degrading to the naive engine on a fault or quarantine. Used by the
  /// plan interpreter. `stats` (optional) receives the engine's counters.
  Result<NodeList> MatchPattern(const IndexedDocument& doc,
                                const algebra::PatternGraph& pattern,
                                PatternStrategy strategy,
                                OpStats* stats = nullptr) const;

 private:
  struct Scope {
    const Scope* parent = nullptr;
    std::string_view name;
    const algebra::Sequence* value = nullptr;
  };

  /// Profiling wrapper: dispatches to EvalDispatch, and — only when the
  /// context carries a PlanProfile — records invocations, output rows and
  /// inclusive wall time on the operator's ProfileNode.
  Result<algebra::Sequence> Eval(const algebra::LogicalExpr& expr,
                                 const Scope* scope, QueryResult* out);

  Result<algebra::Sequence> EvalDispatch(const algebra::LogicalExpr& expr,
                                         const Scope* scope,
                                         QueryResult* out);

  /// The engine-counter sink for `expr`, or nullptr when not profiling.
  OpStats* StatsFor(const algebra::LogicalExpr& expr) const;

  // Implemented in executor.cc.
  Result<algebra::Sequence> EvalNavigate(const algebra::LogicalExpr& expr,
                                         const Scope* scope,
                                         QueryResult* out);
  Result<algebra::Sequence> EvalStructuralJoin(
      const algebra::LogicalExpr& expr, const Scope* scope, QueryResult* out);
  Result<algebra::Sequence> EvalValueJoin(const algebra::LogicalExpr& expr,
                                          const Scope* scope,
                                          QueryResult* out);
  Result<algebra::Sequence> EvalTreePattern(const algebra::LogicalExpr& expr,
                                            const Scope* scope,
                                            QueryResult* out);

  // Implemented in expr_eval.cc.
  Result<algebra::Sequence> EvalBinary(const algebra::LogicalExpr& expr,
                                       const Scope* scope, QueryResult* out);
  Result<algebra::Sequence> EvalFunction(const algebra::LogicalExpr& expr,
                                         const Scope* scope,
                                         QueryResult* out);

  // Implemented in env_eval.cc.
  Result<algebra::Sequence> EvalFlwor(const algebra::LogicalExpr& expr,
                                      const Scope* scope, QueryResult* out);

  // Implemented in construct.cc.
  Result<algebra::Sequence> EvalConstruct(const algebra::LogicalExpr& expr,
                                          const Scope* scope,
                                          QueryResult* out);

  Result<const IndexedDocument*> LookupDocument(std::string_view name) const;
  Result<const IndexedDocument*> DocumentOf(const xml::Document* dom) const;
  const algebra::Sequence* LookupVar(const Scope* scope,
                                     std::string_view name) const;

  const EvalContext* context_;

  friend class FlworEnvBuilder;  // env_eval.cc helper
};

}  // namespace xmlq::exec

#endif  // XMLQ_EXEC_EXECUTOR_H_
