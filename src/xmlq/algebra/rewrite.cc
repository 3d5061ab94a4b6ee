#include "xmlq/algebra/rewrite.h"

#include <algorithm>
#include <charconv>
#include <utility>

namespace xmlq::algebra {

namespace {

/// Applies `fn` (a local rewrite returning 0/1) bottom-up over the tree.
template <typename Fn>
int WalkRewrite(LogicalExprPtr* expr, Fn&& fn) {
  int count = 0;
  for (auto& child : (*expr)->children) {
    count += WalkRewrite(&child, fn);
  }
  count += fn(expr);
  return count;
}

bool IsFoldableNavigate(const LogicalExpr& e) {
  if (e.op != LogicalOp::kNavigate) return false;
  switch (e.axis) {
    case Axis::kChild:
    case Axis::kDescendant:
    case Axis::kAttribute:
    case Axis::kFollowingSibling:
      return true;
    case Axis::kSelf:
      return false;
  }
  return false;
}

/// A TreePattern whose results are distinct nodes in document order: true
/// when it has a sole output vertex (multi-output patterns emit nested
/// combinations).
bool PatternIsOrderedDistinct(const LogicalExpr& e) {
  return e.op == LogicalOp::kTreePattern && e.pattern != nullptr &&
         e.pattern->SoleOutput() != kNoVertex;
}

int TryNormalizeDoc(LogicalExprPtr* expr) {
  LogicalExpr& e = **expr;
  if (e.op != LogicalOp::kFunction ||
      (e.str != "doc" && e.str != "document") || e.children.size() != 1) {
    return 0;
  }
  const LogicalExpr& arg = *e.children[0];
  if (arg.op != LogicalOp::kLiteral || !arg.literal.IsString()) return 0;
  *expr = MakeDocScan(arg.literal.str());
  return 1;
}

int TryFoldNavigate(LogicalExprPtr* expr) {
  LogicalExpr& nav = **expr;
  if (!IsFoldableNavigate(nav)) return 0;
  LogicalExpr& input = *nav.children[0];

  if (input.op == LogicalOp::kDocScan) {
    PatternGraph graph;
    const VertexId v = graph.AddVertex(graph.root(), nav.axis, nav.str,
                                       nav.is_attribute);
    graph.SetOutput(v);
    LogicalExprPtr replacement =
        MakeTreePattern(std::move(nav.children[0]), std::move(graph));
    *expr = std::move(replacement);
    return 1;
  }

  if (input.op == LogicalOp::kTreePattern && input.pattern != nullptr) {
    const VertexId out_vertex = input.pattern->SoleOutput();
    if (out_vertex == kNoVertex) return 0;
    // Attribute vertices have no element children to extend into.
    if (input.pattern->vertex(out_vertex).is_attribute) return 0;
    PatternGraph graph = *input.pattern;
    graph.mutable_vertex(out_vertex).output = false;
    const VertexId v =
        graph.AddVertex(out_vertex, nav.axis, nav.str, nav.is_attribute);
    graph.SetOutput(v);
    LogicalExprPtr replacement =
        MakeTreePattern(std::move(input.children[0]), std::move(graph));
    *expr = std::move(replacement);
    return 1;
  }
  return 0;
}

int TryPushSelectValue(LogicalExprPtr* expr) {
  LogicalExpr& sel = **expr;
  if (sel.op != LogicalOp::kSelectValue) return 0;
  LogicalExpr& input = *sel.children[0];
  if (input.op != LogicalOp::kTreePattern || input.pattern == nullptr) {
    return 0;
  }
  const VertexId out_vertex = input.pattern->SoleOutput();
  if (out_vertex == kNoVertex) return 0;
  input.pattern->AddPredicate(out_vertex, sel.predicate);
  *expr = std::move(sel.children[0]);
  return 1;
}

int TryRemoveDedup(LogicalExprPtr* expr) {
  LogicalExpr& dedup = **expr;
  if (dedup.op != LogicalOp::kDocOrderDedup) return 0;
  LogicalExpr& input = *dedup.children[0];
  const bool ordered_distinct = PatternIsOrderedDistinct(input) ||
                                input.op == LogicalOp::kDocScan ||
                                input.op == LogicalOp::kDocOrderDedup;
  if (!ordered_distinct) return 0;
  *expr = std::move(dedup.children[0]);
  return 1;
}

int TryFuseSelectTag(LogicalExprPtr* expr) {
  LogicalExpr& sel = **expr;
  if (sel.op != LogicalOp::kSelectTag) return 0;
  LogicalExpr& input = *sel.children[0];
  if (input.op != LogicalOp::kNavigate || input.is_attribute) return 0;
  if (!input.str.empty() && input.str != "*") return 0;
  input.str = sel.str;
  *expr = std::move(sel.children[0]);
  return 1;
}

/// Deep-copies the filter subtree rooted at `src_v` (of `src`) under
/// `dst_parent` in `dst`.
void CopyFilterBranch(const PatternGraph& src, VertexId src_v,
                      PatternGraph* dst, VertexId dst_parent) {
  const PatternVertex& vertex = src.vertex(src_v);
  const VertexId copy = dst->AddVertex(dst_parent, vertex.incoming_axis,
                                       vertex.label, vertex.is_attribute);
  for (const ValuePredicate& pred : vertex.predicates) {
    dst->AddPredicate(copy, pred);
  }
  for (const VertexId c : vertex.children) {
    CopyFilterBranch(src, c, dst, copy);
  }
}

int TryGraftFilter(LogicalExprPtr* expr) {
  LogicalExpr& filter = **expr;
  if (filter.op != LogicalOp::kPatternFilter || filter.pattern == nullptr) {
    return 0;
  }
  LogicalExpr& input = *filter.children[0];
  if (input.op != LogicalOp::kTreePattern || input.pattern == nullptr) {
    return 0;
  }
  const VertexId out_vertex = input.pattern->SoleOutput();
  if (out_vertex == kNoVertex) return 0;
  const PatternGraph& f = *filter.pattern;
  for (const ValuePredicate& pred : f.vertex(f.root()).predicates) {
    input.pattern->AddPredicate(out_vertex, pred);
  }
  for (const VertexId c : f.vertex(f.root()).children) {
    CopyFilterBranch(f, c, input.pattern.get(), out_vertex);
  }
  *expr = std::move(filter.children[0]);
  return 1;
}

/// A `where` conjunct R6 folds: the steps from `$var` (none for `$var`
/// itself) and, unless it is an existence test, a comparison with a literal.
struct FoldableConjunct {
  std::string var;
  std::vector<const LogicalExpr*> steps;  // innermost first
  const Item* literal = nullptr;          // null for an existence test
  CompareOp op = CompareOp::kEq;
};

/// Matches `$var/step/...` over child, descendant and attribute Navigate
/// steps, an attribute step only last.
bool MatchVarPath(const LogicalExpr& e, FoldableConjunct* out) {
  out->steps.clear();
  const LogicalExpr* cur = &e;
  while (cur->op == LogicalOp::kNavigate) {
    const bool attribute_step = cur->axis == Axis::kAttribute;
    if (cur->is_attribute != attribute_step) return false;
    if (cur->axis != Axis::kChild && cur->axis != Axis::kDescendant &&
        !attribute_step) {
      return false;
    }
    // The walk starts at the last step, so only it may be an attribute.
    if (attribute_step && !out->steps.empty()) return false;
    out->steps.push_back(cur);
    cur = cur->children[0].get();
  }
  if (cur->op != LogicalOp::kVarRef) return false;
  out->var = cur->str;
  std::reverse(out->steps.begin(), out->steps.end());
  return true;
}

bool MatchConjunct(const LogicalExpr& e, FoldableConjunct* out) {
  if (e.op != LogicalOp::kBinary) {
    return MatchVarPath(e, out) && !out->steps.empty();
  }
  const std::optional<CompareOp> op = ComparisonOf(e.binary);
  const LogicalExpr& literal = *e.children[1];
  if (!op.has_value() || literal.op != LogicalOp::kLiteral) return false;
  const Item& value = literal.literal;
  if (!value.IsString() && !value.IsNumber()) return false;
  if (!MatchVarPath(*e.children[0], out)) return false;
  out->literal = &value;
  out->op = *op;
  return true;
}

/// The TreePattern the `for` clause binding `var` before clause
/// `where_clause` iterates, when it has a sole output vertex; null when the
/// name is bound by a `let`, outside this FLWOR, more than once in it, or
/// to anything else.
LogicalExpr* ForPatternOf(LogicalExpr& flwor, size_t where_clause,
                          const std::string& var) {
  const FlworClause* binder = nullptr;
  for (size_t c = 0; c < where_clause; ++c) {
    if (flwor.clauses[c].var != var) continue;
    if (binder != nullptr) return nullptr;  // shadowed
    binder = &flwor.clauses[c];
  }
  if (binder == nullptr || binder->kind != FlworClause::Kind::kFor) {
    return nullptr;
  }
  LogicalExpr& binding = *flwor.children[binder->expr_child];
  if (binding.op != LogicalOp::kTreePattern || binding.pattern == nullptr) {
    return nullptr;
  }
  const VertexId out = binding.pattern->SoleOutput();
  if (out == kNoVertex || binding.pattern->vertex(out).is_root) return nullptr;
  return &binding;
}

/// The predicate a folded comparison becomes. A number literal is spelled
/// in its shortest round-trip form, so it parses back to the same double.
ValuePredicate GeneralPredicate(CompareOp op, const Item& literal) {
  if (literal.IsString()) {
    return ValuePredicate(op, literal.str(), ValueTyping::kGeneral);
  }
  char buf[64];
  const auto end = std::to_chars(buf, buf + sizeof(buf), literal.number()).ptr;
  return ValuePredicate(op, std::string(buf, end), ValueTyping::kGeneralNumber);
}

/// The TreePattern `conjunct` folds into (and `fold` filled in), or null.
LogicalExpr* FoldTarget(LogicalExpr& flwor, size_t where_clause,
                        const LogicalExpr& conjunct, FoldableConjunct* fold) {
  if (!MatchConjunct(conjunct, fold)) return nullptr;
  LogicalExpr* target = ForPatternOf(flwor, where_clause, fold->var);
  if (target == nullptr) return nullptr;
  const PatternGraph& pattern = *target->pattern;
  // Attribute vertices have no children to hang a branch from.
  if (pattern.vertex(pattern.SoleOutput()).is_attribute &&
      !fold->steps.empty()) {
    return nullptr;
  }
  return target;
}

bool IsAnd(const LogicalExpr& e) {
  return e.op == LogicalOp::kBinary && e.binary == BinaryOp::kAnd;
}

void ListConjuncts(const LogicalExpr& e, std::vector<const LogicalExpr*>* out) {
  if (!IsAnd(e)) {
    out->push_back(&e);
    return;
  }
  ListConjuncts(*e.children[0], out);
  ListConjuncts(*e.children[1], out);
}

/// Moves the conjunct subtrees of an `and` tree into `out`, in order.
void TakeConjuncts(LogicalExprPtr e, std::vector<LogicalExprPtr>* out) {
  if (!IsAnd(*e)) {
    out->push_back(std::move(e));
    return;
  }
  TakeConjuncts(std::move(e->children[0]), out);
  TakeConjuncts(std::move(e->children[1]), out);
}

int TryUnnestWhere(LogicalExprPtr* expr) {
  LogicalExpr& flwor = **expr;
  if (flwor.op != LogicalOp::kFlwor) return 0;
  const auto where = std::find_if(
      flwor.clauses.begin(), flwor.clauses.end(), [](const FlworClause& c) {
        return c.kind == FlworClause::Kind::kWhere;
      });
  if (where == flwor.clauses.end()) return 0;
  const size_t where_clause =
      static_cast<size_t>(where - flwor.clauses.begin());
  const size_t where_child = where->expr_child;

  // Leave the clause untouched unless some conjunct folds.
  std::vector<const LogicalExpr*> listed;
  ListConjuncts(*flwor.children[where_child], &listed);
  FoldableConjunct fold;
  if (std::none_of(listed.begin(), listed.end(), [&](const LogicalExpr* c) {
        return FoldTarget(flwor, where_clause, *c, &fold) != nullptr;
      })) {
    return 0;
  }

  std::vector<LogicalExprPtr> conjuncts;
  TakeConjuncts(std::move(flwor.children[where_child]), &conjuncts);
  std::vector<LogicalExprPtr> kept;
  for (LogicalExprPtr& conjunct : conjuncts) {
    LogicalExpr* target = FoldTarget(flwor, where_clause, *conjunct, &fold);
    if (target == nullptr) {
      kept.push_back(std::move(conjunct));
      continue;
    }
    PatternGraph& pattern = *target->pattern;
    VertexId at = pattern.SoleOutput();
    for (const LogicalExpr* step : fold.steps) {
      at = pattern.AddVertex(at, step->axis,
                             step->str.empty() ? "*" : step->str,
                             step->is_attribute);
    }
    if (fold.literal != nullptr) {
      pattern.AddPredicate(at, GeneralPredicate(fold.op, *fold.literal));
    }
  }
  const int folded = static_cast<int>(conjuncts.size() - kept.size());
  if (!kept.empty()) {
    LogicalExprPtr rest = std::move(kept[0]);
    for (size_t i = 1; i < kept.size(); ++i) {
      rest = MakeBinary(BinaryOp::kAnd, std::move(rest), std::move(kept[i]));
    }
    flwor.children[where_child] = std::move(rest);
    return folded;
  }
  flwor.clauses.erase(where);
  flwor.children.erase(flwor.children.begin() +
                       static_cast<std::ptrdiff_t>(where_child));
  for (FlworClause& clause : flwor.clauses) {
    if (clause.expr_child > where_child) --clause.expr_child;
  }
  return folded;
}

}  // namespace

int UnnestWhereConjuncts(LogicalExprPtr* expr) {
  return WalkRewrite(expr, TryUnnestWhere);
}

int GraftPatternFilters(LogicalExprPtr* expr) {
  return WalkRewrite(expr, TryGraftFilter);
}

int NormalizeDocCalls(LogicalExprPtr* expr) {
  return WalkRewrite(expr, TryNormalizeDoc);
}

int FoldNavigationChains(LogicalExprPtr* expr) {
  return WalkRewrite(expr, TryFoldNavigate);
}

int PushSelectValueIntoPattern(LogicalExprPtr* expr) {
  return WalkRewrite(expr, TryPushSelectValue);
}

int RemoveRedundantDocOrderDedup(LogicalExprPtr* expr) {
  return WalkRewrite(expr, TryRemoveDedup);
}

int FuseSelectTagIntoNavigate(LogicalExprPtr* expr) {
  return WalkRewrite(expr, TryFuseSelectTag);
}

int ApplyAllRewrites(LogicalExprPtr* expr) {
  int total = 0;
  while (true) {
    int round = 0;
    round += NormalizeDocCalls(expr);
    round += FuseSelectTagIntoNavigate(expr);
    round += FoldNavigationChains(expr);
    round += PushSelectValueIntoPattern(expr);
    round += GraftPatternFilters(expr);
    round += RemoveRedundantDocOrderDedup(expr);
    round += UnnestWhereConjuncts(expr);
    if (round == 0) break;
    total += round;
  }
  return total;
}

}  // namespace xmlq::algebra
