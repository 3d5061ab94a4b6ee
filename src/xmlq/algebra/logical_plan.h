#ifndef XMLQ_ALGEBRA_LOGICAL_PLAN_H_
#define XMLQ_ALGEBRA_LOGICAL_PLAN_H_

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "xmlq/algebra/pattern_graph.h"
#include "xmlq/algebra/schema_tree.h"
#include "xmlq/algebra/value.h"

namespace xmlq::algebra {

/// Logical operators. The structure/value/hybrid block is exactly Table 1 of
/// the paper; the remainder is the FLWOR and expression scaffolding needed
/// to translate the supported XQuery subset.
enum class LogicalOp : uint8_t {
  // Sources.
  kDocScan,     // named document -> Tree (as a 1-item List of its doc node)
  kLiteral,     // constant item
  kVarRef,      // FLWOR variable reference

  // Table 1 — structure-based.
  kSelectTag,       // σs : List -> List, keep elements with a given tag
  kStructuralJoin,  // ⋈s : List × List -> List, join on a structural axis
  kNavigate,        // πs : List -> List/NestedList, one axis step

  // Table 1 — value-based.
  kSelectValue,  // σv : List -> List, keep items whose value satisfies ⊙ l
  kValueJoin,    // ⋈v : List × List -> List, join on value comparison

  // Table 1 — hybrid.
  kTreePattern,    // τ : Tree × PatternGraph -> NestedList
  kConstruct,      // γ : NestedList × SchemaTree -> Tree
  kPatternFilter,  // keep nodes where a self-anchored twig embeds

  // FLWOR / expression scaffolding.
  kFlwor,         // clauses + return expression
  kSequence,      // concatenation of children
  kBinary,        // arithmetic / comparison / logic over two children
  kFunction,      // built-in function call
  kDocOrderDedup, // sort by document order + duplicate elimination
};

std::string_view LogicalOpName(LogicalOp op);

/// Physical strategy for the τ (tree pattern matching) operator — the choice
/// the paper's evaluation compares (§4.2 / experiment E1). Each kTreePattern
/// node carries its own.
enum class PatternStrategy : uint8_t {
  kNok,        // NoK partition + single-scan matching + seam joins (hybrid)
  kTwigStack,  // holistic twig join over region streams [13]
  kPathStack,  // chained-stack path join [13]; twigs fall back to TwigStack
  kBinaryJoin, // one stack-tree structural join per edge [12]
  kNaive,      // recursive DOM navigation [10]
};

std::string_view PatternStrategyName(PatternStrategy strategy);

/// Binary operators for kBinary.
enum class BinaryOp : uint8_t {
  kAdd, kSub, kMul, kDiv, kMod,
  kEq, kNe, kLt, kLe, kGt, kGe,
  kAnd, kOr,
};

std::string_view BinaryOpName(BinaryOp op);

/// The comparison a BinaryOp makes; nullopt for arithmetic and logic.
std::optional<CompareOp> ComparisonOf(BinaryOp op);

/// One clause of a FLWOR expression. `expr_child` indexes into the kFlwor
/// node's children; the return expression is always the last child.
struct FlworClause {
  enum class Kind : uint8_t { kFor, kLet, kWhere, kOrderBy };
  Kind kind = Kind::kFor;
  std::string var;  // empty for where / order by
  size_t expr_child = 0;
  bool descending = false;  // order by modifier
};

/// A node of the logical algebra expression tree. Owned exclusively by its
/// parent; rewrites mutate plans in place.
struct LogicalExpr {
  explicit LogicalExpr(LogicalOp op) : op(op) {}

  LogicalOp op;
  std::vector<std::unique_ptr<LogicalExpr>> children;

  // Payloads (validity depends on `op`).
  std::string str;       // doc name / tag / variable / function name
  Axis axis = Axis::kChild;       // kNavigate, kStructuralJoin
  bool is_attribute = false;      // kNavigate attribute test
  bool return_ancestor = false;   // kStructuralJoin: emit left side instead
  ValuePredicate predicate;       // kSelectValue
  BinaryOp binary = BinaryOp::kEq;          // kBinary
  std::unique_ptr<PatternGraph> pattern;    // kTreePattern
  PatternStrategy strategy = PatternStrategy::kNok;  // kTreePattern engine
  std::unique_ptr<SchemaTree> schema;       // kConstruct
  std::vector<FlworClause> clauses;         // kFlwor
  Item literal;                             // kLiteral

  /// Deep copy.
  std::unique_ptr<LogicalExpr> Clone() const;

  /// Indented multi-line plan rendering.
  std::string ToString() const;
};

using LogicalExprPtr = std::unique_ptr<LogicalExpr>;

/// Sets the engine of every τ node in `plan` to `strategy`.
void SetPatternStrategy(LogicalExpr* plan, PatternStrategy strategy);

// Convenience factories (used by the parsers/translators and tests).
LogicalExprPtr MakeDocScan(std::string doc_name);
LogicalExprPtr MakeLiteral(Item item);
LogicalExprPtr MakeVarRef(std::string var);
LogicalExprPtr MakeNavigate(LogicalExprPtr input, Axis axis,
                            std::string name_test, bool is_attribute);
LogicalExprPtr MakeSelectTag(LogicalExprPtr input, std::string tag);
LogicalExprPtr MakeSelectValue(LogicalExprPtr input, ValuePredicate pred);
LogicalExprPtr MakeTreePattern(LogicalExprPtr input, PatternGraph pattern);
/// Filter: keeps input nodes at which `filter` embeds. The filter graph's
/// root vertex stands for the context node itself (its label is ignored;
/// its value predicates and child branches are checked at the node).
LogicalExprPtr MakePatternFilter(LogicalExprPtr input, PatternGraph filter);
LogicalExprPtr MakeStructuralJoin(LogicalExprPtr left, LogicalExprPtr right,
                                  Axis axis, bool return_ancestor);
LogicalExprPtr MakeBinary(BinaryOp op, LogicalExprPtr lhs, LogicalExprPtr rhs);
LogicalExprPtr MakeFunction(std::string name,
                            std::vector<LogicalExprPtr> args);
LogicalExprPtr MakeDocOrderDedup(LogicalExprPtr input);

}  // namespace xmlq::algebra

#endif  // XMLQ_ALGEBRA_LOGICAL_PLAN_H_
