#include <algorithm>
#include <cmath>
#include <limits>

#include "xmlq/base/strings.h"
#include "xmlq/exec/executor.h"

// GCC 12 emits spurious -Wmaybe-uninitialized reports from inside
// libstdc++'s std::variant move-assignment when Item sequences are built in
// the large EvalFunction body (gcc bug 105593 family); the diagnostics point
// at <variant> internals, not user code.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

namespace xmlq::exec {

using algebra::BinaryOp;
using algebra::Item;
using algebra::LogicalExpr;
using algebra::Sequence;

namespace {

/// The comparand of one item; `text` keeps a node's or string's
/// string-value alive while the comparand points at it.
algebra::Comparand ComparandOf(const Item& item, std::string* text) {
  if (item.IsNumber()) {
    algebra::Comparand c;
    c.number = item.number();
    c.is_number = true;
    return c;
  }
  if (item.IsBool()) {
    algebra::Comparand c;
    c.text = item.boolean() ? "true" : "false";
    c.number = item.boolean() ? 1.0 : 0.0;
    return c;
  }
  *text = item.StringValue();
  return algebra::Comparand::OfText(*text);
}

/// General comparison of two items (algebra::CompareGeneral, the rule the
/// pattern predicates of unnested `where` conjuncts share).
bool CompareItems(algebra::CompareOp op, const Item& a, const Item& b) {
  std::string a_text;
  std::string b_text;
  return algebra::CompareGeneral(op, ComparandOf(a, &a_text),
                                 ComparandOf(b, &b_text));
}

/// Effective boolean value of a sequence.
bool Ebv(const Sequence& seq) {
  if (seq.empty()) return false;
  if (seq.size() == 1) return seq[0].BooleanValue();
  // Node sequences are true; mixed sequences use the first item.
  return true;
}

double NumberOf(const Sequence& seq) {
  if (seq.empty()) return std::numeric_limits<double>::quiet_NaN();
  return seq[0].NumberValue();
}

std::string StringOf(const Sequence& seq) {
  return seq.empty() ? std::string() : seq[0].StringValue();
}

}  // namespace

Result<Sequence> Executor::EvalBinary(const LogicalExpr& expr,
                                      const Scope* scope, QueryResult* out) {
  // Short-circuit logic operators.
  if (expr.binary == BinaryOp::kAnd || expr.binary == BinaryOp::kOr) {
    XMLQ_ASSIGN_OR_RETURN(Sequence left,
                          Eval(*expr.children[0], scope, out));
    const bool l = Ebv(left);
    if (expr.binary == BinaryOp::kAnd && !l) return Sequence{Item(false)};
    if (expr.binary == BinaryOp::kOr && l) return Sequence{Item(true)};
    XMLQ_ASSIGN_OR_RETURN(Sequence right,
                          Eval(*expr.children[1], scope, out));
    return Sequence{Item(Ebv(right))};
  }

  XMLQ_ASSIGN_OR_RETURN(Sequence left, Eval(*expr.children[0], scope, out));
  XMLQ_ASSIGN_OR_RETURN(Sequence right, Eval(*expr.children[1], scope, out));

  if (const std::optional<algebra::CompareOp> op =
          algebra::ComparisonOf(expr.binary)) {
    // General comparison: existential over both sequences (quadratic, so
    // charge one step per pair probed).
    for (const Item& a : left) {
      XMLQ_GUARD_TICK(context_->guard, right.size() + 1);
      for (const Item& b : right) {
        if (CompareItems(*op, a, b)) return Sequence{Item(true)};
      }
    }
    return Sequence{Item(false)};
  }

  // Arithmetic: empty operand propagates the empty sequence (XQuery rules).
  if (left.empty() || right.empty()) return Sequence{};
  const double x = NumberOf(left);
  const double y = NumberOf(right);
  double value = 0;
  switch (expr.binary) {
    case BinaryOp::kAdd:
      value = x + y;
      break;
    case BinaryOp::kSub:
      value = x - y;
      break;
    case BinaryOp::kMul:
      value = x * y;
      break;
    case BinaryOp::kDiv:
      value = x / y;
      break;
    case BinaryOp::kMod:
      value = std::fmod(x, y);
      break;
    default:
      return Status::Internal("unexpected binary operator");
  }
  return Sequence{Item(value)};
}

Result<Sequence> Executor::EvalFunction(const LogicalExpr& expr,
                                        const Scope* scope,
                                        QueryResult* out) {
  const std::string& name = expr.str;
  auto arity = [&](size_t n) -> Status {
    if (expr.children.size() != n) {
      return Status::InvalidArgument("function " + name + "() expects " +
                                     std::to_string(n) + " argument(s)");
    }
    return Status::Ok();
  };
  // if(cond, then, else): lazy — only the taken branch is evaluated.
  if (name == "if") {
    XMLQ_RETURN_IF_ERROR(arity(3));
    XMLQ_ASSIGN_OR_RETURN(Sequence cond, Eval(*expr.children[0], scope, out));
    return Eval(*expr.children[Ebv(cond) ? 1 : 2], scope, out);
  }
  // doc("name") resolves a named document like DocScan.
  if (name == "doc" || name == "document") {
    XMLQ_RETURN_IF_ERROR(arity(1));
    XMLQ_ASSIGN_OR_RETURN(Sequence arg, Eval(*expr.children[0], scope, out));
    XMLQ_ASSIGN_OR_RETURN(const IndexedDocument* doc,
                          LookupDocument(StringOf(arg)));
    return Sequence{Item(algebra::NodeRef{doc->dom, doc->dom->root()})};
  }

  // Evaluate all arguments once.
  std::vector<Sequence> args;
  args.reserve(expr.children.size());
  for (const auto& child : expr.children) {
    XMLQ_ASSIGN_OR_RETURN(Sequence arg, Eval(*child, scope, out));
    args.push_back(std::move(arg));
  }

  if (name == "count") {
    XMLQ_RETURN_IF_ERROR(arity(1));
    return Sequence{Item(static_cast<double>(args[0].size()))};
  }
  if (name == "exists") {
    XMLQ_RETURN_IF_ERROR(arity(1));
    return Sequence{Item(!args[0].empty())};
  }
  if (name == "empty") {
    XMLQ_RETURN_IF_ERROR(arity(1));
    return Sequence{Item(args[0].empty())};
  }
  if (name == "not") {
    XMLQ_RETURN_IF_ERROR(arity(1));
    return Sequence{Item(!Ebv(args[0]))};
  }
  if (name == "string") {
    XMLQ_RETURN_IF_ERROR(arity(1));
    return Sequence{Item(StringOf(args[0]))};
  }
  if (name == "number") {
    XMLQ_RETURN_IF_ERROR(arity(1));
    return Sequence{Item(NumberOf(args[0]))};
  }
  if (name == "data") {
    XMLQ_RETURN_IF_ERROR(arity(1));
    Sequence result;
    for (const Item& item : args[0]) {
      result.push_back(Item(item.StringValue()));
    }
    return result;
  }
  if (name == "name") {
    XMLQ_RETURN_IF_ERROR(arity(1));
    if (args[0].empty() || !args[0][0].IsNode()) {
      return Sequence{Item(std::string())};
    }
    const algebra::NodeRef& node = args[0][0].node();
    return Sequence{Item(std::string(node.doc->NameStr(node.id)))};
  }
  if (name == "concat") {
    std::string value;
    for (const Sequence& arg : args) value += StringOf(arg);
    return Sequence{Item(std::move(value))};
  }
  if (name == "contains") {
    XMLQ_RETURN_IF_ERROR(arity(2));
    return Sequence{Item(StringOf(args[0]).find(StringOf(args[1])) !=
                         std::string::npos)};
  }
  if (name == "starts-with") {
    XMLQ_RETURN_IF_ERROR(arity(2));
    const std::string s = StringOf(args[0]);
    const std::string p = StringOf(args[1]);
    return Sequence{Item(s.size() >= p.size() && s.compare(0, p.size(), p) == 0)};
  }
  if (name == "string-length") {
    XMLQ_RETURN_IF_ERROR(arity(1));
    return Sequence{Item(static_cast<double>(StringOf(args[0]).size()))};
  }
  if (name == "sum" || name == "avg" || name == "min" || name == "max") {
    XMLQ_RETURN_IF_ERROR(arity(1));
    if (args[0].empty()) {
      return name == "sum" ? Sequence{Item(0.0)} : Sequence{};
    }
    double sum = 0;
    double mn = std::numeric_limits<double>::infinity();
    double mx = -std::numeric_limits<double>::infinity();
    for (const Item& item : args[0]) {
      const double v = item.NumberValue();
      sum += v;
      mn = std::min(mn, v);
      mx = std::max(mx, v);
    }
    if (name == "sum") return Sequence{Item(sum)};
    if (name == "avg") {
      return Sequence{Item(sum / static_cast<double>(args[0].size()))};
    }
    return Sequence{Item(name == "min" ? mn : mx)};
  }
  if (name == "round") {
    XMLQ_RETURN_IF_ERROR(arity(1));
    return Sequence{Item(std::round(NumberOf(args[0])))};
  }
  if (name == "floor") {
    XMLQ_RETURN_IF_ERROR(arity(1));
    return Sequence{Item(std::floor(NumberOf(args[0])))};
  }
  if (name == "ceiling") {
    XMLQ_RETURN_IF_ERROR(arity(1));
    return Sequence{Item(std::ceil(NumberOf(args[0])))};
  }
  if (name == "distinct-values") {
    XMLQ_RETURN_IF_ERROR(arity(1));
    std::vector<std::string> seen;
    Sequence result;
    for (const Item& item : args[0]) {
      std::string v = item.StringValue();
      if (std::find(seen.begin(), seen.end(), v) == seen.end()) {
        result.push_back(Item(v));
        seen.push_back(std::move(v));
      }
    }
    return result;
  }
  return Status::Unsupported("unknown function " + name + "()");
}

}  // namespace xmlq::exec
