#ifndef XMLQ_OPT_PLAN_ANNOTATOR_H_
#define XMLQ_OPT_PLAN_ANNOTATOR_H_

#include "xmlq/algebra/logical_plan.h"
#include "xmlq/exec/executor.h"
#include "xmlq/exec/op_stats.h"
#include "xmlq/opt/synopsis.h"
#include "xmlq/xml/name_pool.h"

namespace xmlq::opt {

/// Fills the optimizer's pre-execution estimates into `profile` (one
/// PlanEstimate per operator the synopsis can say something about), so
/// EXPLAIN ANALYZE can report estimated-vs-actual cardinality error.
///
/// Annotated operators and their estimates:
///  - DocScan: exactly 1 row (the document node).
///  - TreePattern: EstimatePattern() output cardinality — exact for
///    predicate-free patterns (the synopsis is a lossless structural
///    summary) — plus the node's own strategy.
///  - Navigate(label): CountByName(label), the synopsis upper bound for the
///    step's result before context restriction.
///  - SelectTag / StructuralJoin / DocOrderDedup / SelectValue / Sequence:
///    derived from child estimates (min with the tag count, semi-join upper
///    bound, pass-through, kUnindexedSelectivity, sum respectively).
///
/// Operators outside the synopsis' reach (value joins, FLWOR, construction,
/// functions) are left without a row estimate; their profile lines omit the
/// est/err columns. Must run after PlanProfile::Create and before
/// PlanProfile::Finalize (it resolves nodes via NodeFor).
void AnnotateProfile(const Synopsis& synopsis, const xml::NamePool& pool,
                     const algebra::LogicalExpr& plan,
                     exec::PlanProfile* profile);

/// Rewrites the strategy annotation on each τ profile node the executor
/// degraded (engine fault or circuit-breaker quarantine), so EXPLAIN
/// ANALYZE shows what actually ran:
///
///   TreePattern [twigstack->naive (fault)] est=120 rows=118 ...
///   TreePattern [nok->naive (quarantined)] ...
///
/// Must run after execution and before PlanProfile::Finalize.
void ReannotateFallback(const algebra::LogicalExpr& plan,
                        const exec::FallbackInfo& fallback,
                        exec::PlanProfile* profile);

}  // namespace xmlq::opt

#endif  // XMLQ_OPT_PLAN_ANNOTATOR_H_
