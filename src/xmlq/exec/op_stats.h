#ifndef XMLQ_EXEC_OP_STATS_H_
#define XMLQ_EXEC_OP_STATS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "xmlq/algebra/logical_plan.h"

namespace xmlq::exec {

/// Per-operator execution counters, accumulated across every invocation of
/// the operator within one query (an operator under a FLWOR loop runs once
/// per binding; its counters are cumulative, with `invocations` recording
/// how often it ran).
///
/// Every field except `wall_nanos` is *deterministic*: for a fixed document,
/// query and strategy, repeated runs produce identical values, so tests can
/// assert algorithmic behavior (e.g. "TwigStack consumes each stream element
/// exactly once") instead of timing. `wall_nanos` is measured with
/// std::chrono::steady_clock and excluded from DeterministicEquals().
///
/// Counter semantics (an engine only touches the counters that exist in its
/// cost model — the rest stay 0):
///  - `input_rows` / `output_rows`: items consumed from child operators /
///    items produced. Filled by the executor's profiling wrapper
///    (input_rows is derived as the sum of child outputs at Finalize()).
///  - `nodes_visited`: document nodes the engine examined — NoK scan opens,
///    stream-element cursor advances (TwigStack/PathStack/structural join),
///    DOM nodes touched by navigation.
///  - `stack_pushes` / `stack_pops`: entries pushed/popped on the engines'
///    chained or merge stacks.
///  - `index_probes`: entries fetched from the region/value indexes (per-tag
///    stream elements materialized, RegionOf lookups, candidate seeds).
///  - `bytes_touched`: content bytes materialized for value-predicate and
///    string-value evaluation.
struct OpStats {
  uint64_t invocations = 0;
  uint64_t input_rows = 0;
  uint64_t output_rows = 0;
  uint64_t nodes_visited = 0;
  uint64_t stack_pushes = 0;
  uint64_t stack_pops = 0;
  uint64_t index_probes = 0;
  uint64_t bytes_touched = 0;
  uint64_t wall_nanos = 0;  // steady_clock; excluded from determinism

  void MergeFrom(const OpStats& other);

  /// Field-wise equality ignoring `wall_nanos` — the comparison tests use to
  /// assert counter determinism across runs.
  bool DeterministicEquals(const OpStats& other) const;
};

/// The optimizer's annotation for one plan operator: what the synopsis-based
/// estimator predicted before execution. `rows < 0` means "no estimate" (the
/// operator is outside the synopsis' reach, e.g. a value join).
struct PlanEstimate {
  double rows = -1;
  std::string strategy;       // chosen physical strategy; τ operators only
  bool HasRows() const { return rows >= 0; }
};

/// One node of the collected profile tree; mirrors the logical plan shape.
struct ProfileNode {
  std::string label;        // operator rendering, e.g. "Navigate(child::name)"
  OpStats stats;
  PlanEstimate estimate;
  std::vector<ProfileNode> children;

  /// Total rows produced across all invocations — the same units as
  /// PlanEstimate::rows, so QError() compares total to total even for
  /// operators invoked once per binding.
  double ActualRows() const;
  /// q-error of the estimate vs. the actual output cardinality:
  /// max(est/actual, actual/est) with both sides clamped to ≥1 so empty
  /// results do not divide by zero. Returns 0 when no estimate is present.
  double QError() const;
};

/// The profile of one query execution: a tree of ProfileNodes built from the
/// optimized logical plan before execution, filled in by the executor while
/// the query runs, and finalized (derived fields computed, lookup table
/// dropped) before it is handed to the caller.
///
/// The executor resolves the node for an operator via NodeFor() — an O(1)
/// pointer lookup — so collection adds one map probe, two steady_clock reads
/// and a handful of integer adds per operator invocation, and *nothing at
/// all* when no profile is attached to the EvalContext.
class PlanProfile {
 public:
  /// Builds the profile skeleton (labels + lookup table) for `plan`. The
  /// plan must outlive the execution phase, not the profile itself.
  static std::unique_ptr<PlanProfile> Create(const algebra::LogicalExpr& plan);

  /// The profile node collecting stats for `expr` (nullptr for foreign
  /// exprs or after Finalize()).
  ProfileNode* NodeFor(const algebra::LogicalExpr* expr);

  /// Computes derived fields (input_rows = Σ child output_rows) and drops
  /// the expr lookup table, making the profile self-contained.
  void Finalize();

  ProfileNode& root() { return root_; }
  const ProfileNode& root() const { return root_; }

  /// Renders the annotated plan tree, one operator per line:
  ///
  ///   TreePattern [nok]  est=120 rows=118 err=1.02x nodes=3456 time=0.31ms
  ///
  /// `include_time` off yields a fully deterministic rendering (tests
  /// compare these strings across runs).
  std::string ToString(bool include_time = true) const;

 private:
  PlanProfile() = default;

  ProfileNode root_;
  std::map<const algebra::LogicalExpr*, ProfileNode*> by_expr_;
};

/// Human-readable operator label used by the profile tree ("DocScan(x.xml)",
/// "Navigate(descendant::item)", ...). Mirrors LogicalExpr::ToString()'s
/// one-line head rendering.
std::string OperatorLabel(const algebra::LogicalExpr& expr);

}  // namespace xmlq::exec

#endif  // XMLQ_EXEC_OP_STATS_H_
