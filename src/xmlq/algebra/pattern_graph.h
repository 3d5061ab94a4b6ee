#ifndef XMLQ_ALGEBRA_PATTERN_GRAPH_H_
#define XMLQ_ALGEBRA_PATTERN_GRAPH_H_

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "xmlq/base/status.h"

namespace xmlq::algebra {

/// Structural relations R between pattern vertices (paper Definition 1).
/// kChild/kAttribute/kFollowingSibling are the *next-of-kin* (NoK) local
/// relations of §4.2; kDescendant is the non-local '//' relation that the
/// NoK partitioner cuts at; kSelf joins partition seams.
enum class Axis : uint8_t {
  kChild,
  kDescendant,
  kAttribute,
  kFollowingSibling,
  kSelf,
};

std::string_view AxisName(Axis axis);

/// True for the local relations a single pre-order scan can verify.
inline bool IsNokAxis(Axis axis) {
  return axis == Axis::kChild || axis == Axis::kAttribute ||
         axis == Axis::kFollowingSibling;
}

/// Comparison operator of a vertex value constraint (the `⊙` of Def. 1).
enum class CompareOp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };

std::string_view CompareOpName(CompareOp op);

/// One operand of a general comparison: its string-value, its number value
/// (NaN when it has none), whether its text parses as a number, and whether
/// it is a number item (which makes the comparison numeric whatever the
/// other side is).
struct Comparand {
  std::string_view text;
  double number = std::numeric_limits<double>::quiet_NaN();
  bool parses = false;
  bool is_number = false;

  /// An operand given by its string-value (a node, or a string item).
  static Comparand OfText(std::string_view text);
};

/// The engine's one general-comparison rule (XQuery `=`, `<`, ... over one
/// pair of items). Numeric when either side is a number item or both texts
/// parse as numbers; then a NaN on either side satisfies only `!=`.
/// Otherwise the string-values compare bytewise.
bool CompareGeneral(CompareOp op, const Comparand& a, const Comparand& b);

/// How a ValuePredicate compares a node's string-value with its literal.
enum class ValueTyping : uint8_t {
  kString,  // XPath predicate, string literal: bytewise comparison
  kNumber,  // XPath predicate, number literal: numeric; a value that does
            // not parse as a number matches no operator, `!=` included
  kGeneral,        // `where` over a string literal: CompareGeneral
  kGeneralNumber,  // `where` over a number literal: CompareGeneral
};

/// One `⟨⊙, l⟩` constraint attached to a vertex: the matched node's
/// string-value must compare against the literal under the predicate's
/// typing. The literal is parsed once, when it is set.
class ValuePredicate {
 public:
  ValuePredicate() = default;
  ValuePredicate(CompareOp op, std::string literal,
                 ValueTyping typing = ValueTyping::kString);

  CompareOp op = CompareOp::kEq;
  ValueTyping typing = ValueTyping::kString;

  const std::string& literal() const { return literal_; }
  void set_literal(std::string literal);
  /// The literal's number value; nullopt when it does not parse.
  std::optional<double> number() const;
  bool IsNumberTyped() const {
    return typing == ValueTyping::kNumber ||
           typing == ValueTyping::kGeneralNumber;
  }

  /// Evaluates the predicate against a node's string-value.
  bool Eval(std::string_view value) const;

  std::string ToString() const;

 private:
  std::string literal_;
  double number_ = std::numeric_limits<double>::quiet_NaN();
  bool parses_ = false;
};

/// How the value index answers one predicate exactly, if it can. kText:
/// the matching nodes are the run entries whose text equals the literal.
/// kNumeric: they are the numeric-run entries inside the bounds (a NaN
/// bound selects nothing, and neither does a literal that does not parse
/// under number typing). kNone: the index cannot answer it (`!=`, ordered
/// string comparisons, and ordered general comparisons against numeric
/// text, which compare bytewise with values that do not parse).
struct IndexSeek {
  enum class Kind : uint8_t { kNone, kText, kNumeric };
  Kind kind = Kind::kNone;
  double lo = 0;
  double hi = 0;
  bool lo_inclusive = true;
  bool hi_inclusive = true;
};

/// The one seeding rule, shared by the join engines' stream builder and
/// the cost model (DESIGN.md §4, "Value-index seeding").
IndexSeek IndexSeekFor(const ValuePredicate& pred);

/// Vertex id inside a PatternGraph.
using VertexId = uint32_t;
inline constexpr VertexId kNoVertex = UINT32_MAX;

/// A vertex of the pattern graph: label over Σ ∪ {*}, optional value
/// constraints, and an output marker (the `O` set of Def. 1).
struct PatternVertex {
  std::string label;         // element/attribute name; "*" matches any
  bool is_attribute = false; // matches attribute nodes instead of elements
  bool is_root = false;      // matches the document node (the path's '/')
  bool output = false;
  std::vector<ValuePredicate> predicates;

  // Tree shape bookkeeping (general path expressions compile to twigs).
  VertexId parent = kNoVertex;
  Axis incoming_axis = Axis::kChild;  // axis on the arc from `parent`
  std::vector<VertexId> children;
};

/// Labeled, directed pattern graph P = (Σ, V, A, R, O) of Definition 1,
/// restricted to the tree-shaped ("twig") patterns that path expressions
/// produce. Vertex 0 is always the root vertex.
class PatternGraph {
 public:
  PatternGraph();

  /// Adds a vertex labeled `label` under `parent` via `axis`; returns its id.
  VertexId AddVertex(VertexId parent, Axis axis, std::string label,
                     bool is_attribute = false);

  /// Attaches a value constraint to `v`.
  void AddPredicate(VertexId v, ValuePredicate predicate);

  /// Marks `v` as an output vertex (member of O).
  void SetOutput(VertexId v);

  VertexId root() const { return 0; }
  size_t VertexCount() const { return vertices_.size(); }
  const PatternVertex& vertex(VertexId v) const { return vertices_[v]; }
  PatternVertex& mutable_vertex(VertexId v) { return vertices_[v]; }

  /// The output vertices in id order.
  std::vector<VertexId> OutputVertices() const;
  /// The single output vertex; kNoVertex when zero or several are marked.
  VertexId SoleOutput() const;

  /// Checks the twig invariants: vertex 0 is the only root, parent/child
  /// links are consistent, every non-root vertex is reachable from the root,
  /// and at least one vertex is an output.
  Status Validate() const;

  /// Multi-line rendering, one vertex per line with axis prefixes, e.g.
  ///   root
  ///     /bib
  ///       //book [output]
  ///         /title
  std::string ToString() const;

 private:
  std::vector<PatternVertex> vertices_;
};

}  // namespace xmlq::algebra

#endif  // XMLQ_ALGEBRA_PATTERN_GRAPH_H_
