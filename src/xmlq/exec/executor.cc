#include "xmlq/exec/executor.h"

#include <algorithm>
#include <chrono>

#include "xmlq/exec/admission.h"
#include "xmlq/exec/hybrid.h"
#include "xmlq/exec/op_stats.h"
#include "xmlq/exec/naive_nav.h"
#include "xmlq/exec/path_stack.h"
#include "xmlq/exec/structural_join.h"
#include "xmlq/exec/twig_stack.h"

namespace xmlq::exec {

using algebra::Item;
using algebra::LogicalExpr;
using algebra::LogicalOp;
using algebra::NodeRef;
using algebra::Sequence;

namespace {

/// Records `pattern` as rerouted to the naive engine (once per pattern: a τ
/// inside a loop runs many times).
void NoteReroute(FallbackInfo* info, const algebra::PatternGraph& pattern,
                 PatternStrategy from, bool quarantined, std::string reason) {
  if (info == nullptr) return;
  for (const FallbackInfo::Reroute& seen : info->reroutes) {
    if (seen.pattern == &pattern) return;
  }
  info->reroutes.push_back({&pattern, from, quarantined, std::move(reason)});
}

}  // namespace

Result<QueryResult> Executor::Evaluate(const LogicalExpr& plan) {
  QueryResult out;
  XMLQ_ASSIGN_OR_RETURN(out.value, Eval(plan, nullptr, &out));
  return out;
}

Result<Sequence> Executor::EvaluateWithVars(
    const LogicalExpr& expr, const std::map<std::string, Sequence>& vars,
    QueryResult* out) {
  std::vector<Scope> scopes;
  scopes.reserve(vars.size());
  const Scope* parent = nullptr;
  for (const auto& [name, value] : vars) {
    scopes.push_back(Scope{parent, name, &value});
    parent = &scopes.back();
  }
  return Eval(expr, parent, out);
}

Result<const IndexedDocument*> Executor::LookupDocument(
    std::string_view name) const {
  const auto it = context_->documents.find(name);
  if (it == context_->documents.end()) {
    return Status::NotFound("document \"" + std::string(name) +
                            "\" is not loaded");
  }
  return &it->second;
}

Result<const IndexedDocument*> Executor::DocumentOf(
    const xml::Document* dom) const {
  for (const auto& [name, doc] : context_->documents) {
    if (doc.dom == dom) return &doc;
  }
  return Status::Internal("node belongs to an unregistered document");
}

const Sequence* Executor::LookupVar(const Scope* scope,
                                    std::string_view name) const {
  for (const Scope* s = scope; s != nullptr; s = s->parent) {
    if (s->name == name) return s->value;
  }
  return nullptr;
}

Result<NodeList> Executor::MatchPattern(const IndexedDocument& doc,
                                        const algebra::PatternGraph& pattern,
                                        PatternStrategy chosen,
                                        OpStats* stats) const {
  const ResourceGuard* guard = context_->guard;
  auto run = [&](PatternStrategy strategy) -> Result<NodeList> {
    switch (strategy) {
      case PatternStrategy::kNok:
        return HybridMatch(doc, pattern, guard, stats);
      case PatternStrategy::kTwigStack:
        return TwigStackMatch(doc, pattern, guard, stats);
      case PatternStrategy::kPathStack: {
        // Branching patterns are outside PathStack's chain subset.
        for (algebra::VertexId v = 0; v < pattern.VertexCount(); ++v) {
          if (pattern.vertex(v).children.size() > 1) {
            return TwigStackMatch(doc, pattern, guard, stats);
          }
        }
        return PathStackMatch(doc, pattern, guard, stats);
      }
      case PatternStrategy::kBinaryJoin:
        return BinaryJoinPlanMatch(doc, pattern, {}, nullptr, guard, stats);
      case PatternStrategy::kNaive:
        return NaiveMatchPattern(*doc.dom, pattern, guard, stats);
    }
    return Status::Internal("unknown pattern strategy");
  };
  // Quarantine check: a breaker-opened engine is not even attempted; the
  // pattern runs on the always-trusted naive engine outright.
  if (chosen != PatternStrategy::kNaive && context_->breaker != nullptr &&
      !context_->breaker->Allow(chosen, context_->admitted_seq)) {
    NoteReroute(context_->fallback, pattern, chosen, /*quarantined=*/true,
                "circuit breaker open");
    return run(PatternStrategy::kNaive);
  }
  auto result = run(chosen);
  if (result.ok()) {
    if (chosen != PatternStrategy::kNaive && context_->breaker != nullptr) {
      context_->breaker->RecordSuccess(chosen);
    }
    return result;
  }
  if (chosen == PatternStrategy::kNaive) return result;
  const StatusCode code = result.status().code();
  if (code == StatusCode::kUnsupported) {
    // Patterns outside a specialized engine's subset (e.g. following-sibling
    // arcs) always have the navigational evaluator as a safety net. This is
    // a capability gap, not a fault: the breaker does not count it.
    return NaiveMatchPattern(*doc.dom, pattern, guard, stats);
  }
  if (code == StatusCode::kInternal) {
    // Retryable fault (an invariant trip or an injected XMLQ_FAULT): count
    // it against the engine and retry the pattern once on the naive engine.
    if (context_->breaker != nullptr) {
      context_->breaker->RecordFault(chosen, context_->admitted_seq);
    }
    auto retry = NaiveMatchPattern(*doc.dom, pattern, guard, stats);
    if (retry.ok()) {
      NoteReroute(context_->fallback, pattern, chosen, /*quarantined=*/false,
                  result.status().message());
    }
    return retry;
  }
  // Resource exhaustion, cancellation, bad input: not the engine's fault —
  // surface unchanged.
  return result;
}

OpStats* Executor::StatsFor(const LogicalExpr& expr) const {
  if (context_->profile == nullptr) return nullptr;
  ProfileNode* node = context_->profile->NodeFor(&expr);
  return node == nullptr ? nullptr : &node->stats;
}

Result<Sequence> Executor::Eval(const LogicalExpr& expr, const Scope* scope,
                                QueryResult* out) {
  // The hot path: no profile attached means not a single extra branch
  // beyond this nullptr check per operator evaluation.
  if (context_->profile == nullptr) return EvalDispatch(expr, scope, out);
  ProfileNode* node = context_->profile->NodeFor(&expr);
  if (node == nullptr) return EvalDispatch(expr, scope, out);
  const auto begin = std::chrono::steady_clock::now();
  auto result = EvalDispatch(expr, scope, out);
  node->stats.wall_nanos += static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - begin)
          .count());
  ++node->stats.invocations;
  if (result.ok()) node->stats.output_rows += result->size();
  return result;
}

Result<Sequence> Executor::EvalDispatch(const LogicalExpr& expr,
                                        const Scope* scope,
                                        QueryResult* out) {
  // One step per operator evaluation; per-item costs are charged inside the
  // operator bodies. Also the unwind point once the guard has tripped.
  XMLQ_GUARD_TICK(context_->guard, 1);
  switch (expr.op) {
    case LogicalOp::kDocScan: {
      XMLQ_ASSIGN_OR_RETURN(const IndexedDocument* doc,
                            LookupDocument(expr.str));
      return Sequence{Item(NodeRef{doc->dom, doc->dom->root()})};
    }
    case LogicalOp::kLiteral:
      return Sequence{expr.literal};
    case LogicalOp::kVarRef: {
      const Sequence* value = LookupVar(scope, expr.str);
      if (value == nullptr) {
        return Status::NotFound("unbound variable $" + expr.str);
      }
      return *value;
    }
    case LogicalOp::kSelectTag: {
      XMLQ_ASSIGN_OR_RETURN(Sequence input,
                            Eval(*expr.children[0], scope, out));
      XMLQ_GUARD_TICK(context_->guard, input.size());
      Sequence result;
      for (const Item& item : input) {
        if (item.IsNode() &&
            item.node().doc->IsElement(item.node().id) &&
            item.node().doc->NameStr(item.node().id) == expr.str) {
          result.push_back(item);
        }
      }
      return result;
    }
    case LogicalOp::kSelectValue: {
      XMLQ_ASSIGN_OR_RETURN(Sequence input,
                            Eval(*expr.children[0], scope, out));
      XMLQ_GUARD_TICK(context_->guard, input.size());
      OpStats* stats = StatsFor(expr);
      Sequence result;
      for (const Item& item : input) {
        const std::string value = item.StringValue();
        if (stats != nullptr) stats->bytes_touched += value.size();
        if (expr.predicate.Eval(value)) result.push_back(item);
      }
      return result;
    }
    case LogicalOp::kNavigate:
      return EvalNavigate(expr, scope, out);
    case LogicalOp::kStructuralJoin:
      return EvalStructuralJoin(expr, scope, out);
    case LogicalOp::kValueJoin:
      return EvalValueJoin(expr, scope, out);
    case LogicalOp::kTreePattern:
      return EvalTreePattern(expr, scope, out);
    case LogicalOp::kPatternFilter: {
      if (expr.pattern == nullptr) {
        return Status::Internal("PatternFilter node without a filter graph");
      }
      XMLQ_ASSIGN_OR_RETURN(Sequence input,
                            Eval(*expr.children[0], scope, out));
      OpStats* stats = StatsFor(expr);
      Sequence result;
      for (const Item& item : input) {
        XMLQ_GUARD_TICK(context_->guard, 1);
        if (!item.IsNode()) continue;
        if (MatchesFilter(*item.node().doc, item.node().id, *expr.pattern,
                          stats)) {
          result.push_back(item);
        }
      }
      return result;
    }
    case LogicalOp::kConstruct:
      return EvalConstruct(expr, scope, out);
    case LogicalOp::kFlwor:
      return EvalFlwor(expr, scope, out);
    case LogicalOp::kSequence: {
      Sequence result;
      for (const auto& child : expr.children) {
        XMLQ_ASSIGN_OR_RETURN(Sequence part, Eval(*child, scope, out));
        XMLQ_GUARD_TICK(context_->guard, part.size());
        for (Item& item : part) result.push_back(std::move(item));
      }
      return result;
    }
    case LogicalOp::kBinary:
      return EvalBinary(expr, scope, out);
    case LogicalOp::kFunction:
      return EvalFunction(expr, scope, out);
    case LogicalOp::kDocOrderDedup: {
      XMLQ_ASSIGN_OR_RETURN(Sequence input,
                            Eval(*expr.children[0], scope, out));
      algebra::SortDocOrderDedup(&input);
      return input;
    }
  }
  return Status::Internal("unknown logical operator");
}

Result<Sequence> Executor::EvalNavigate(const LogicalExpr& expr,
                                        const Scope* scope,
                                        QueryResult* out) {
  XMLQ_ASSIGN_OR_RETURN(Sequence input, Eval(*expr.children[0], scope, out));
  // Build a transient vertex describing the step.
  algebra::PatternVertex vertex;
  vertex.label = expr.str.empty() ? "*" : expr.str;
  vertex.is_attribute = expr.is_attribute;
  vertex.incoming_axis = expr.axis;
  const ResourceGuard* guard = context_->guard;
  OpStats* stats = StatsFor(expr);
  Sequence result;
  for (const Item& item : input) {
    XMLQ_GUARD_TICK(guard, 1);
    if (!item.IsNode()) continue;
    const xml::Document* doc = item.node().doc;
    for (xml::NodeId id :
         AxisStep(*doc, item.node().id, vertex, guard, stats)) {
      result.push_back(Item(NodeRef{doc, id}));
    }
    // AxisStep stops early on a trip; surface the sticky error here.
    XMLQ_GUARD_TICK(guard, 0);
  }
  XMLQ_GUARD_CHARGE(guard, result.size() * sizeof(Item));
  algebra::SortDocOrderDedup(&result);
  return result;
}

Result<Sequence> Executor::EvalStructuralJoin(const LogicalExpr& expr,
                                              const Scope* scope,
                                              QueryResult* out) {
  XMLQ_ASSIGN_OR_RETURN(Sequence left, Eval(*expr.children[0], scope, out));
  XMLQ_ASSIGN_OR_RETURN(Sequence right, Eval(*expr.children[1], scope, out));
  // Locate the (single) document both sides live in.
  const xml::Document* dom = nullptr;
  for (const Item& item : left) {
    if (item.IsNode()) {
      dom = item.node().doc;
      break;
    }
  }
  if (dom == nullptr) return Sequence{};
  XMLQ_ASSIGN_OR_RETURN(const IndexedDocument* doc, DocumentOf(dom));
  const ResourceGuard* guard = context_->guard;
  OpStats* stats = StatsFor(expr);
  XMLQ_GUARD_TICK(guard, left.size() + right.size());
  const NodeList anc = ToNodeList(*dom, left);
  const NodeList desc = ToNodeList(*dom, right);
  const bool parent_child = expr.axis == algebra::Axis::kChild ||
                            expr.axis == algebra::Axis::kAttribute;
  const NodeList joined =
      expr.return_ancestor
          ? StructuralSemiJoinAnc(ToRegions(*doc->regions, anc, stats),
                                  ToRegions(*doc->regions, desc, stats),
                                  parent_child, guard, stats)
          : StructuralSemiJoinDesc(ToRegions(*doc->regions, anc, stats),
                                   ToRegions(*doc->regions, desc, stats),
                                   parent_child, guard, stats);
  // The semi-joins stop early on a trip; surface the sticky error here.
  XMLQ_GUARD_TICK(guard, 0);
  return ToSequence(*dom, joined);
}

Result<Sequence> Executor::EvalValueJoin(const LogicalExpr& expr,
                                         const Scope* scope,
                                         QueryResult* out) {
  XMLQ_ASSIGN_OR_RETURN(Sequence left, Eval(*expr.children[0], scope, out));
  XMLQ_ASSIGN_OR_RETURN(Sequence right, Eval(*expr.children[1], scope, out));
  // ⋈v semi-join semantics: keep left items whose string-value compares
  // true against at least one right item.
  const ResourceGuard* guard = context_->guard;
  OpStats* stats = StatsFor(expr);
  XMLQ_GUARD_TICK(guard, right.size());
  // One predicate per right item, each literal parsed once.
  std::vector<algebra::ValuePredicate> right_preds;
  right_preds.reserve(right.size());
  for (const Item& item : right) {
    right_preds.emplace_back(expr.predicate.op, item.StringValue(),
                             expr.predicate.typing);
    if (stats != nullptr) {
      stats->bytes_touched += right_preds.back().literal().size();
    }
  }
  Sequence result;
  for (const Item& item : left) {
    // The nested-loop comparison is the engine's only quadratic operator;
    // charge its true per-row cost so small step budgets bite here.
    XMLQ_GUARD_TICK(guard, right_preds.size() + 1);
    const std::string value = item.StringValue();
    if (stats != nullptr) stats->bytes_touched += value.size();
    const bool matched = std::any_of(
        right_preds.begin(), right_preds.end(),
        [&](const algebra::ValuePredicate& pred) { return pred.Eval(value); });
    if (matched) result.push_back(item);
  }
  return result;
}

Result<Sequence> Executor::EvalTreePattern(const LogicalExpr& expr,
                                           const Scope* scope,
                                           QueryResult* out) {
  if (expr.pattern == nullptr) {
    return Status::Internal("TreePattern node without a pattern graph");
  }
  XMLQ_ASSIGN_OR_RETURN(Sequence input, Eval(*expr.children[0], scope, out));
  // The input must be a document node (the Tree argument of τ).
  const xml::Document* dom = nullptr;
  for (const Item& item : input) {
    if (item.IsNode() && item.node().id == item.node().doc->root()) {
      dom = item.node().doc;
      break;
    }
  }
  if (dom == nullptr) {
    return Status::InvalidArgument(
        "τ expects a document node as its Tree input");
  }
  XMLQ_ASSIGN_OR_RETURN(const IndexedDocument* doc, DocumentOf(dom));
  XMLQ_ASSIGN_OR_RETURN(
      NodeList matches,
      MatchPattern(*doc, *expr.pattern, expr.strategy, StatsFor(expr)));
  XMLQ_GUARD_CHARGE(context_->guard, matches.size() * sizeof(xml::NodeId));
  return ToSequence(*dom, matches);
}

}  // namespace xmlq::exec
