#ifndef XMLQ_ALGEBRA_REWRITE_H_
#define XMLQ_ALGEBRA_REWRITE_H_

#include "xmlq/algebra/logical_plan.h"

namespace xmlq::algebra {

/// Logical rewrite rules (paper §3 / §6: "develop logical optimization
/// techniques ... defining rewrite rules"). Each rule returns the number of
/// sites it transformed; `ApplyAllRewrites` iterates the full set to a
/// fixpoint. All rules preserve the value of the expression.

/// R0 — source normalization: a doc("name") function call with a literal
/// argument is the same source as DocScan(name); normalizing first lets the
/// navigation-folding rule fire on doc()-rooted paths too.
int NormalizeDocCalls(LogicalExprPtr* expr);

/// R1 — navigation folding: a chain of πs (Navigate) steps over a DocScan or
/// an existing τ (TreePattern) collapses into a single TreePattern, turning
/// k pipelined steps (or k-1 structural joins) into one pattern match. This
/// is the rewrite that makes the NoK single-scan evaluation applicable.
int FoldNavigationChains(LogicalExprPtr* expr);

/// R2 — predicate pushdown: σv (SelectValue) directly above a TreePattern
/// with a sole output vertex becomes a value constraint on that vertex, so
/// the physical matcher filters during the scan instead of afterwards.
int PushSelectValueIntoPattern(LogicalExprPtr* expr);

/// R3 — sort/dedup elision: DocOrderDedup over an operator that already
/// produces distinct nodes in document order (TreePattern with a sole
/// output, DocScan, or another DocOrderDedup) is removed.
int RemoveRedundantDocOrderDedup(LogicalExprPtr* expr);

/// R4 — σs fusion: SelectTag over a wildcard Navigate step becomes a named
/// Navigate step.
int FuseSelectTagIntoNavigate(LogicalExprPtr* expr);

/// R5 — filter grafting: a PatternFilter directly above a TreePattern with
/// a sole output vertex merges into the pattern (the filter root's value
/// predicates and branches attach to the output vertex), so the physical
/// matcher checks them during the scan.
int GraftPatternFilters(LogicalExprPtr* expr);

/// R6 — `where` unnesting: a `where` conjunct that names one `for`
/// variable `$x`, bound to a TreePattern with a sole output vertex, moves
/// into that pattern as a filter branch on the output vertex. Foldable
/// conjuncts are `$x/path ⊙ literal`, `$x ⊙ literal` and the existence
/// test `$x/path`, where `path` is child,
/// descendant and attribute steps (an attribute step only last). The
/// comparison becomes a general-typed ValuePredicate, which evaluates
/// exactly like the per-tuple comparison it replaces. `and` splits into
/// conjuncts; every other conjunct stays in the clause, and a clause left
/// empty is deleted.
int UnnestWhereConjuncts(LogicalExprPtr* expr);

/// Applies all rules to a fixpoint; returns total rule applications.
int ApplyAllRewrites(LogicalExprPtr* expr);

}  // namespace xmlq::algebra

#endif  // XMLQ_ALGEBRA_REWRITE_H_
