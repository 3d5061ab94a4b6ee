#ifndef XMLQ_OPT_COST_MODEL_H_
#define XMLQ_OPT_COST_MODEL_H_

#include <span>

#include "xmlq/algebra/pattern_graph.h"
#include "xmlq/exec/executor.h"
#include "xmlq/opt/cardinality.h"
#include "xmlq/opt/synopsis.h"
#include "xmlq/xml/name_pool.h"

namespace xmlq::opt {

/// The work one τ engine does on one pattern, counted in the units
/// CostParams charges for. Every count is derived at plan time from the
/// synopsis, the value index and the tag-stream sizes.
struct CostFeatures {
  double stream = 0;     // region-stream entries copied into vertex streams
  double anchor = 0;     // NoK: candidate subtree windows opened
  double scan = 0;       // NoK: nodes opened by the candidate-anchored scan
  double navigate = 0;   // naive: DOM nodes visited by axis steps
  double call = 0;       // naive: axis steps taken (one per context node)
  double predicate = 0;  // value predicates evaluated (string-values built)
  double merge = 0;      // sequential steps over node or region lists
  double twig_step = 0;  // holistic joins: vertices inspected per merge step
  double pair = 0;       // join pairs recorded and filtered (FilterEdgePairs)
  double hash = 0;       // NoK: hash-set inserts and probes at part seams
};

/// Nanoseconds charged per unit of each CostFeatures count, fitted by
/// least squares against measured per-engine wall time (EXPERIMENTS.md E4,
/// `bench_costmodel`).
struct CostParams {
  double stream = 8.8;
  double anchor = 220;
  double scan = 28;
  double navigate = 11.5;
  double call = 57;
  double predicate = 4.1;
  double merge = 6.0;
  double twig_step = 9.6;
  double pair = 180;
  double hash = 14;
};

/// Estimated nanoseconds for `work`.
double Charge(const CostFeatures& work, const CostParams& params = {});

/// The work `strategy` does on `pattern` (PathStack on a branching pattern
/// runs TwigStack and is costed as such).
CostFeatures EstimateWork(exec::PatternStrategy strategy,
                          const Synopsis& synopsis, const xml::NamePool& pool,
                          const algebra::PatternGraph& pattern,
                          const CardinalityEstimate& est);

/// Cost of a binary structural-join plan for a given edge order (entries are
/// edge target vertices; empty = ascending order). Models semi-join
/// reduction: after an edge joins, both sides shrink to their path
/// cardinalities.
double CostBinaryJoin(const algebra::PatternGraph& pattern,
                      const CardinalityEstimate& est,
                      std::span<const algebra::VertexId> order = {},
                      const CostParams& params = {});

}  // namespace xmlq::opt

#endif  // XMLQ_OPT_COST_MODEL_H_
