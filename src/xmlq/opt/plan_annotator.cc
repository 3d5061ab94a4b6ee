#include "xmlq/opt/plan_annotator.h"

#include <algorithm>

#include "xmlq/opt/cardinality.h"

namespace xmlq::opt {

namespace {

using algebra::LogicalExpr;
using algebra::LogicalOp;
using exec::PlanEstimate;

/// Recursively annotates `expr` and returns its row estimate (-1 = none).
double Annotate(const Synopsis& synopsis, const xml::NamePool& pool,
                const LogicalExpr& expr, exec::PlanProfile* profile) {
  std::vector<double> child_rows;
  child_rows.reserve(expr.children.size());
  for (const auto& child : expr.children) {
    child_rows.push_back(Annotate(synopsis, pool, *child, profile));
  }

  PlanEstimate estimate;
  switch (expr.op) {
    case LogicalOp::kDocScan:
      estimate.rows = 1;
      break;
    case LogicalOp::kLiteral:
      estimate.rows = 1;
      break;
    case LogicalOp::kTreePattern:
      if (expr.pattern != nullptr) {
        const CardinalityEstimate card =
            EstimatePattern(synopsis, pool, *expr.pattern);
        estimate.rows = card.output_cardinality;
        estimate.strategy = exec::PatternStrategyName(expr.strategy);
      }
      break;
    case LogicalOp::kNavigate:
      if (!expr.str.empty() && expr.str != "*") {
        const xml::NameId name = pool.Find(expr.str);
        estimate.rows = static_cast<double>(
            expr.is_attribute ? synopsis.CountAttributesByName(name)
                              : synopsis.CountByName(name));
      } else if (!expr.is_attribute) {
        estimate.rows = static_cast<double>(synopsis.TotalElements());
      }
      break;
    case LogicalOp::kSelectTag: {
      const xml::NameId name = pool.Find(expr.str);
      double rows = static_cast<double>(synopsis.CountByName(name));
      if (!child_rows.empty() && child_rows[0] >= 0) {
        rows = std::min(rows, child_rows[0]);
      }
      estimate.rows = rows;
      break;
    }
    case LogicalOp::kSelectValue:
      if (!child_rows.empty() && child_rows[0] >= 0) {
        estimate.rows = child_rows[0] * kUnindexedSelectivity;
      }
      break;
    case LogicalOp::kStructuralJoin: {
      // Semi-join: the output is a subset of the returned side.
      const size_t side = expr.return_ancestor ? 0 : 1;
      if (side < child_rows.size() && child_rows[side] >= 0) {
        estimate.rows = child_rows[side];
      }
      break;
    }
    case LogicalOp::kDocOrderDedup:
      if (!child_rows.empty() && child_rows[0] >= 0) {
        estimate.rows = child_rows[0];
      }
      break;
    case LogicalOp::kSequence: {
      double total = 0;
      bool known = !child_rows.empty();
      for (const double rows : child_rows) {
        if (rows < 0) {
          known = false;
          break;
        }
        total += rows;
      }
      if (known) estimate.rows = total;
      break;
    }
    default:
      break;  // no synopsis-backed estimate
  }

  if (exec::ProfileNode* node = profile->NodeFor(&expr); node != nullptr) {
    node->estimate = estimate;
  }
  return estimate.rows;
}

}  // namespace

void AnnotateProfile(const Synopsis& synopsis, const xml::NamePool& pool,
                     const LogicalExpr& plan, exec::PlanProfile* profile) {
  if (profile == nullptr) return;
  Annotate(synopsis, pool, plan, profile);
}

void ReannotateFallback(const LogicalExpr& plan,
                        const exec::FallbackInfo& fallback,
                        exec::PlanProfile* profile) {
  if (profile == nullptr || !fallback.Degraded()) return;
  if (plan.op == algebra::LogicalOp::kTreePattern) {
    exec::ProfileNode* node = profile->NodeFor(&plan);
    for (const exec::FallbackInfo::Reroute& reroute : fallback.reroutes) {
      if (node == nullptr || reroute.pattern != plan.pattern.get()) continue;
      node->estimate.strategy =
          std::string(exec::PatternStrategyName(reroute.from)) +
          (reroute.quarantined ? "->naive (quarantined)" : "->naive (fault)");
    }
  }
  for (const auto& child : plan.children) {
    ReannotateFallback(*child, fallback, profile);
  }
}

}  // namespace xmlq::opt
