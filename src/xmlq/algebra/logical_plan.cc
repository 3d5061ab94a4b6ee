#include "xmlq/algebra/logical_plan.h"

namespace xmlq::algebra {

std::string_view LogicalOpName(LogicalOp op) {
  switch (op) {
    case LogicalOp::kDocScan:
      return "DocScan";
    case LogicalOp::kLiteral:
      return "Literal";
    case LogicalOp::kVarRef:
      return "VarRef";
    case LogicalOp::kSelectTag:
      return "SelectTag";
    case LogicalOp::kStructuralJoin:
      return "StructuralJoin";
    case LogicalOp::kNavigate:
      return "Navigate";
    case LogicalOp::kSelectValue:
      return "SelectValue";
    case LogicalOp::kValueJoin:
      return "ValueJoin";
    case LogicalOp::kTreePattern:
      return "TreePattern";
    case LogicalOp::kConstruct:
      return "Construct";
    case LogicalOp::kPatternFilter:
      return "PatternFilter";
    case LogicalOp::kFlwor:
      return "Flwor";
    case LogicalOp::kSequence:
      return "Sequence";
    case LogicalOp::kBinary:
      return "Binary";
    case LogicalOp::kFunction:
      return "Function";
    case LogicalOp::kDocOrderDedup:
      return "DocOrderDedup";
  }
  return "Unknown";
}

std::optional<CompareOp> ComparisonOf(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
      return CompareOp::kEq;
    case BinaryOp::kNe:
      return CompareOp::kNe;
    case BinaryOp::kLt:
      return CompareOp::kLt;
    case BinaryOp::kLe:
      return CompareOp::kLe;
    case BinaryOp::kGt:
      return CompareOp::kGt;
    case BinaryOp::kGe:
      return CompareOp::kGe;
    default:
      return std::nullopt;
  }
}

std::string_view BinaryOpName(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd:
      return "+";
    case BinaryOp::kSub:
      return "-";
    case BinaryOp::kMul:
      return "*";
    case BinaryOp::kDiv:
      return "div";
    case BinaryOp::kMod:
      return "mod";
    case BinaryOp::kEq:
      return "=";
    case BinaryOp::kNe:
      return "!=";
    case BinaryOp::kLt:
      return "<";
    case BinaryOp::kLe:
      return "<=";
    case BinaryOp::kGt:
      return ">";
    case BinaryOp::kGe:
      return ">=";
    case BinaryOp::kAnd:
      return "and";
    case BinaryOp::kOr:
      return "or";
  }
  return "?";
}

std::string_view PatternStrategyName(PatternStrategy strategy) {
  switch (strategy) {
    case PatternStrategy::kNok:
      return "nok";
    case PatternStrategy::kTwigStack:
      return "twigstack";
    case PatternStrategy::kPathStack:
      return "pathstack";
    case PatternStrategy::kBinaryJoin:
      return "binaryjoin";
    case PatternStrategy::kNaive:
      return "naive";
  }
  return "unknown";
}

void SetPatternStrategy(LogicalExpr* plan, PatternStrategy strategy) {
  if (plan->op == LogicalOp::kTreePattern) plan->strategy = strategy;
  for (const auto& child : plan->children) {
    SetPatternStrategy(child.get(), strategy);
  }
}

std::unique_ptr<LogicalExpr> LogicalExpr::Clone() const {
  auto copy = std::make_unique<LogicalExpr>(op);
  copy->str = str;
  copy->axis = axis;
  copy->is_attribute = is_attribute;
  copy->return_ancestor = return_ancestor;
  copy->predicate = predicate;
  copy->binary = binary;
  copy->clauses = clauses;
  copy->literal = literal;
  copy->strategy = strategy;
  if (pattern != nullptr) {
    copy->pattern = std::make_unique<PatternGraph>(*pattern);
  }
  if (schema != nullptr) {
    copy->schema = std::make_unique<SchemaTree>(*schema);
  }
  copy->children.reserve(children.size());
  for (const auto& c : children) copy->children.push_back(c->Clone());
  return copy;
}

namespace {

void Render(const LogicalExpr& expr, int depth, std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  out->append(LogicalOpName(expr.op));
  switch (expr.op) {
    case LogicalOp::kDocScan:
    case LogicalOp::kVarRef:
    case LogicalOp::kFunction:
      out->append("(" + expr.str + ")");
      break;
    case LogicalOp::kSelectTag:
      out->append("(tag=" + expr.str + ")");
      break;
    case LogicalOp::kNavigate:
      out->append("(");
      out->append(AxisName(expr.axis));
      out->append("::" + (expr.str.empty() ? "*" : expr.str) + ")");
      break;
    case LogicalOp::kStructuralJoin:
      out->append("(");
      out->append(AxisName(expr.axis));
      out->append(expr.return_ancestor ? ", return=ancestor)"
                                       : ", return=descendant)");
      break;
    case LogicalOp::kSelectValue:
      out->append("(" + expr.predicate.ToString() + ")");
      break;
    case LogicalOp::kBinary:
      out->append("(");
      out->append(BinaryOpName(expr.binary));
      out->append(")");
      break;
    case LogicalOp::kLiteral:
      out->append("(" + expr.literal.ToString() + ")");
      break;
    case LogicalOp::kFlwor: {
      out->append("(");
      bool first = true;
      for (const FlworClause& c : expr.clauses) {
        if (!first) out->append(", ");
        first = false;
        switch (c.kind) {
          case FlworClause::Kind::kFor:
            out->append("for $" + c.var);
            break;
          case FlworClause::Kind::kLet:
            out->append("let $" + c.var);
            break;
          case FlworClause::Kind::kWhere:
            out->append("where");
            break;
          case FlworClause::Kind::kOrderBy:
            out->append(c.descending ? "order-by desc" : "order-by");
            break;
        }
      }
      out->append(")");
      break;
    }
    default:
      break;
  }
  out->push_back('\n');
  if ((expr.op == LogicalOp::kTreePattern ||
       expr.op == LogicalOp::kPatternFilter) &&
      expr.pattern != nullptr) {
    // Inline the pattern graph, further indented.
    std::string pattern = expr.pattern->ToString();
    size_t start = 0;
    while (start < pattern.size()) {
      size_t end = pattern.find('\n', start);
      if (end == std::string::npos) end = pattern.size();
      out->append(static_cast<size_t>(depth + 1) * 2, ' ');
      out->append(pattern, start, end - start);
      out->push_back('\n');
      start = end + 1;
    }
  }
  for (const auto& c : expr.children) Render(*c, depth + 1, out);
}

}  // namespace

std::string LogicalExpr::ToString() const {
  std::string out;
  Render(*this, 0, &out);
  return out;
}

LogicalExprPtr MakeDocScan(std::string doc_name) {
  auto e = std::make_unique<LogicalExpr>(LogicalOp::kDocScan);
  e->str = std::move(doc_name);
  return e;
}

LogicalExprPtr MakeLiteral(Item item) {
  auto e = std::make_unique<LogicalExpr>(LogicalOp::kLiteral);
  e->literal = std::move(item);
  return e;
}

LogicalExprPtr MakeVarRef(std::string var) {
  auto e = std::make_unique<LogicalExpr>(LogicalOp::kVarRef);
  e->str = std::move(var);
  return e;
}

LogicalExprPtr MakeNavigate(LogicalExprPtr input, Axis axis,
                            std::string name_test, bool is_attribute) {
  auto e = std::make_unique<LogicalExpr>(LogicalOp::kNavigate);
  e->axis = axis;
  e->str = std::move(name_test);
  e->is_attribute = is_attribute;
  e->children.push_back(std::move(input));
  return e;
}

LogicalExprPtr MakeSelectTag(LogicalExprPtr input, std::string tag) {
  auto e = std::make_unique<LogicalExpr>(LogicalOp::kSelectTag);
  e->str = std::move(tag);
  e->children.push_back(std::move(input));
  return e;
}

LogicalExprPtr MakeSelectValue(LogicalExprPtr input, ValuePredicate pred) {
  auto e = std::make_unique<LogicalExpr>(LogicalOp::kSelectValue);
  e->predicate = std::move(pred);
  e->children.push_back(std::move(input));
  return e;
}

LogicalExprPtr MakeTreePattern(LogicalExprPtr input, PatternGraph pattern) {
  auto e = std::make_unique<LogicalExpr>(LogicalOp::kTreePattern);
  e->pattern = std::make_unique<PatternGraph>(std::move(pattern));
  e->children.push_back(std::move(input));
  return e;
}

LogicalExprPtr MakePatternFilter(LogicalExprPtr input, PatternGraph filter) {
  auto e = std::make_unique<LogicalExpr>(LogicalOp::kPatternFilter);
  e->pattern = std::make_unique<PatternGraph>(std::move(filter));
  e->children.push_back(std::move(input));
  return e;
}

LogicalExprPtr MakeStructuralJoin(LogicalExprPtr left, LogicalExprPtr right,
                                  Axis axis, bool return_ancestor) {
  auto e = std::make_unique<LogicalExpr>(LogicalOp::kStructuralJoin);
  e->axis = axis;
  e->return_ancestor = return_ancestor;
  e->children.push_back(std::move(left));
  e->children.push_back(std::move(right));
  return e;
}

LogicalExprPtr MakeBinary(BinaryOp op, LogicalExprPtr lhs,
                          LogicalExprPtr rhs) {
  auto e = std::make_unique<LogicalExpr>(LogicalOp::kBinary);
  e->binary = op;
  e->children.push_back(std::move(lhs));
  e->children.push_back(std::move(rhs));
  return e;
}

LogicalExprPtr MakeFunction(std::string name,
                            std::vector<LogicalExprPtr> args) {
  auto e = std::make_unique<LogicalExpr>(LogicalOp::kFunction);
  e->str = std::move(name);
  e->children = std::move(args);
  return e;
}

LogicalExprPtr MakeDocOrderDedup(LogicalExprPtr input) {
  auto e = std::make_unique<LogicalExpr>(LogicalOp::kDocOrderDedup);
  e->children.push_back(std::move(input));
  return e;
}

}  // namespace xmlq::algebra
