#include "xmlq/algebra/pattern_graph.h"

#include <cassert>
#include <cmath>

#include "xmlq/base/strings.h"

namespace xmlq::algebra {

std::string_view AxisName(Axis axis) {
  switch (axis) {
    case Axis::kChild:
      return "child";
    case Axis::kDescendant:
      return "descendant";
    case Axis::kAttribute:
      return "attribute";
    case Axis::kFollowingSibling:
      return "following-sibling";
    case Axis::kSelf:
      return "self";
  }
  return "unknown";
}

std::string_view CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

namespace {

template <typename T>
bool Ordered(CompareOp op, const T& x, const T& y) {
  switch (op) {
    case CompareOp::kEq:
      return x == y;
    case CompareOp::kNe:
      return x != y;
    case CompareOp::kLt:
      return x < y;
    case CompareOp::kLe:
      return x <= y;
    case CompareOp::kGt:
      return x > y;
    case CompareOp::kGe:
      return x >= y;
  }
  return false;
}

}  // namespace

Comparand Comparand::OfText(std::string_view text) {
  Comparand c;
  c.text = text;
  if (const std::optional<double> parsed = ParseDouble(text)) {
    c.number = *parsed;
    c.parses = true;
  }
  return c;
}

bool CompareGeneral(CompareOp op, const Comparand& a, const Comparand& b) {
  if (a.is_number || b.is_number || (a.parses && b.parses)) {
    if (std::isnan(a.number) || std::isnan(b.number)) {
      return op == CompareOp::kNe;
    }
    return Ordered(op, a.number, b.number);
  }
  return Ordered(op, a.text, b.text);
}

ValuePredicate::ValuePredicate(CompareOp op, std::string literal,
                               ValueTyping typing)
    : op(op), typing(typing) {
  set_literal(std::move(literal));
}

void ValuePredicate::set_literal(std::string literal) {
  literal_ = std::move(literal);
  const std::optional<double> parsed = ParseDouble(literal_);
  parses_ = parsed.has_value();
  number_ = parsed.value_or(std::numeric_limits<double>::quiet_NaN());
}

std::optional<double> ValuePredicate::number() const {
  if (!parses_) return std::nullopt;
  return number_;
}

bool ValuePredicate::Eval(std::string_view value) const {
  switch (typing) {
    case ValueTyping::kString:
      return Ordered(op, value, std::string_view(literal_));
    case ValueTyping::kNumber: {
      // Non-numeric node value never satisfies a numeric comparison.
      const std::optional<double> lhs = ParseDouble(value);
      if (!lhs.has_value() || !parses_) return false;
      return Ordered(op, *lhs, number_);
    }
    case ValueTyping::kGeneral:
    case ValueTyping::kGeneralNumber: {
      Comparand literal;
      literal.text = literal_;
      literal.number = number_;
      literal.parses = parses_;
      literal.is_number = typing == ValueTyping::kGeneralNumber;
      // Against a literal that is neither a number nor numeric text the
      // comparison is bytewise whatever the value is: skip parsing it.
      Comparand node;
      if (literal.is_number || literal.parses) {
        node = Comparand::OfText(value);
      } else {
        node.text = value;
      }
      return CompareGeneral(op, node, literal);
    }
  }
  return false;
}

IndexSeek IndexSeekFor(const ValuePredicate& pred) {
  IndexSeek seek;
  if (pred.op == CompareOp::kNe) return seek;
  const bool numeric =
      pred.IsNumberTyped() || (pred.typing == ValueTyping::kGeneral &&
                               pred.number().has_value());
  if (!numeric) {  // bytewise: only `=` has a run
    if (pred.op == CompareOp::kEq) seek.kind = IndexSeek::Kind::kText;
    return seek;
  }
  // Against numeric text, a `where` comparison is bytewise for values that
  // do not parse. Such a value can only differ from the literal, so `=`
  // alone is answered by the numeric run.
  if (!pred.IsNumberTyped() && pred.op != CompareOp::kEq) return seek;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double v =
      pred.number().value_or(std::numeric_limits<double>::quiet_NaN());
  seek.kind = IndexSeek::Kind::kNumeric;
  seek.lo = pred.op == CompareOp::kLt || pred.op == CompareOp::kLe ? -kInf : v;
  seek.hi = pred.op == CompareOp::kGt || pred.op == CompareOp::kGe ? kInf : v;
  seek.lo_inclusive = pred.op != CompareOp::kGt;
  seek.hi_inclusive = pred.op != CompareOp::kLt;
  return seek;
}

std::string ValuePredicate::ToString() const {
  std::string out(CompareOpName(op));
  out += IsNumberTyped() ? " " + literal_ : " \"" + literal_ + "\"";
  if (typing == ValueTyping::kGeneral ||
      typing == ValueTyping::kGeneralNumber) {
    out += " general";
  }
  return out;
}

PatternGraph::PatternGraph() {
  PatternVertex root;
  root.is_root = true;
  root.label = "";
  vertices_.push_back(std::move(root));
}

VertexId PatternGraph::AddVertex(VertexId parent, Axis axis,
                                 std::string label, bool is_attribute) {
  assert(parent < vertices_.size());
  PatternVertex v;
  v.label = std::move(label);
  v.is_attribute = is_attribute;
  v.parent = parent;
  v.incoming_axis = axis;
  const VertexId id = static_cast<VertexId>(vertices_.size());
  vertices_.push_back(std::move(v));
  vertices_[parent].children.push_back(id);
  return id;
}

void PatternGraph::AddPredicate(VertexId v, ValuePredicate predicate) {
  assert(v < vertices_.size());
  vertices_[v].predicates.push_back(std::move(predicate));
}

void PatternGraph::SetOutput(VertexId v) {
  assert(v < vertices_.size());
  vertices_[v].output = true;
}

std::vector<VertexId> PatternGraph::OutputVertices() const {
  std::vector<VertexId> out;
  for (VertexId v = 0; v < vertices_.size(); ++v) {
    if (vertices_[v].output) out.push_back(v);
  }
  return out;
}

VertexId PatternGraph::SoleOutput() const {
  const std::vector<VertexId> outs = OutputVertices();
  return outs.size() == 1 ? outs[0] : kNoVertex;
}

Status PatternGraph::Validate() const {
  if (vertices_.empty() || !vertices_[0].is_root) {
    return Status::Internal("pattern graph has no root vertex");
  }
  size_t output_count = 0;
  for (VertexId v = 0; v < vertices_.size(); ++v) {
    const PatternVertex& vertex = vertices_[v];
    if (vertex.output) ++output_count;
    if (v == 0) {
      if (vertex.parent != kNoVertex) {
        return Status::Internal("root vertex must not have a parent");
      }
      continue;
    }
    if (vertex.parent == kNoVertex || vertex.parent >= vertices_.size()) {
      return Status::Internal("vertex " + std::to_string(v) +
                              " has an invalid parent");
    }
    if (vertex.parent >= v) {
      return Status::Internal("vertices must be topologically ordered");
    }
    bool linked = false;
    for (VertexId c : vertices_[vertex.parent].children) {
      if (c == v) linked = true;
    }
    if (!linked) {
      return Status::Internal("parent/child links are inconsistent");
    }
    if (vertex.label.empty()) {
      return Status::Internal("non-root vertex with empty label");
    }
    if (vertex.is_attribute && vertex.incoming_axis != Axis::kAttribute) {
      return Status::Internal("attribute vertex reached via non-@ axis");
    }
  }
  if (output_count == 0) {
    return Status::Internal("pattern graph has no output vertex");
  }
  return Status::Ok();
}

namespace {

void Render(const PatternGraph& graph, VertexId v, int depth,
            std::string* out) {
  const PatternVertex& vertex = graph.vertex(v);
  out->append(static_cast<size_t>(depth) * 2, ' ');
  if (vertex.is_root) {
    out->append("root");
  } else {
    switch (vertex.incoming_axis) {
      case Axis::kChild:
        out->append("/");
        break;
      case Axis::kDescendant:
        out->append("//");
        break;
      case Axis::kAttribute:
        out->append("@");
        break;
      case Axis::kFollowingSibling:
        out->append("~");
        break;
      case Axis::kSelf:
        out->append(".");
        break;
    }
    out->append(vertex.label);
  }
  for (const ValuePredicate& p : vertex.predicates) {
    out->append(" [" + p.ToString() + "]");
  }
  if (vertex.output) out->append(" [output]");
  out->push_back('\n');
  for (VertexId c : vertex.children) Render(graph, c, depth + 1, out);
}

}  // namespace

std::string PatternGraph::ToString() const {
  std::string out;
  Render(*this, 0, 0, &out);
  return out;
}

}  // namespace xmlq::algebra
