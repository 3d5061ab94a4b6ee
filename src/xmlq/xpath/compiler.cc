#include "xmlq/xpath/compiler.h"

#include "xmlq/xpath/parser.h"

namespace xmlq::xpath {

namespace {

using algebra::Axis;
using algebra::PatternGraph;
using algebra::ValuePredicate;
using algebra::VertexId;

/// The XPath predicate a `⊙ literal` comparison compiles to.
ValuePredicate PredicateOf(const PredAst& pred) {
  return ValuePredicate(pred.op, pred.literal,
                        pred.numeric ? algebra::ValueTyping::kNumber
                                     : algebra::ValueTyping::kString);
}

/// Adds the vertices for one step (and its predicates) under `parent`;
/// returns the new step vertex.
Result<VertexId> AddStep(PatternGraph* graph, VertexId parent,
                         const StepAst& step);

Status AddPredicates(PatternGraph* graph, VertexId vertex,
                     const std::vector<PredAst>& predicates) {
  for (const PredAst& pred : predicates) {
    if (pred.path.empty()) {
      // `. ⊙ literal` — constraint on the step vertex itself.
      graph->AddPredicate(vertex, PredicateOf(pred));
      continue;
    }
    VertexId cur = vertex;
    for (const StepAst& step : pred.path) {
      XMLQ_ASSIGN_OR_RETURN(cur, AddStep(graph, cur, step));
    }
    if (pred.has_comparison) {
      graph->AddPredicate(cur, PredicateOf(pred));
    }
  }
  return Status::Ok();
}

Result<VertexId> AddStep(PatternGraph* graph, VertexId parent,
                         const StepAst& step) {
  const VertexId v =
      graph->AddVertex(parent, step.axis, step.name, step.is_attribute);
  XMLQ_RETURN_IF_ERROR(AddPredicates(graph, v, step.predicates));
  return v;
}

}  // namespace

Result<VertexId> AppendSteps(PatternGraph* graph, VertexId from,
                             std::span<const StepAst> steps) {
  VertexId cur = from;
  for (const StepAst& step : steps) {
    XMLQ_ASSIGN_OR_RETURN(cur, AddStep(graph, cur, step));
  }
  return cur;
}

Status AppendPredicates(PatternGraph* graph, VertexId at,
                        const std::vector<PredAst>& predicates) {
  return AddPredicates(graph, at, predicates);
}

Result<algebra::PatternGraph> CompileToPattern(const PathAst& path) {
  PatternGraph graph;
  XMLQ_ASSIGN_OR_RETURN(VertexId cur,
                        AppendSteps(&graph, graph.root(), path.steps));
  graph.SetOutput(cur);
  XMLQ_RETURN_IF_ERROR(graph.Validate());
  return graph;
}

Result<algebra::LogicalExprPtr> CompileToNavigationChain(
    const PathAst& path, std::string doc_name) {
  algebra::LogicalExprPtr plan = algebra::MakeDocScan(std::move(doc_name));
  for (const StepAst& step : path.steps) {
    plan = algebra::MakeNavigate(std::move(plan), step.axis, step.name,
                                 step.is_attribute);
    for (const PredAst& pred : step.predicates) {
      if (!pred.path.empty() || !pred.has_comparison) {
        return Status::Unsupported(
            "navigation-chain form cannot express structural predicates; "
            "use CompileToPattern");
      }
      plan = algebra::MakeSelectValue(std::move(plan), PredicateOf(pred));
    }
    if (step.axis == Axis::kDescendant) {
      // `//` can reach the same node along several paths; the naive chain
      // needs an explicit sort/dedup to stay set-valued.
      plan = algebra::MakeDocOrderDedup(std::move(plan));
    }
  }
  return plan;
}

Result<algebra::LogicalExprPtr> CompilePath(std::string_view path,
                                            std::string doc_name) {
  XMLQ_ASSIGN_OR_RETURN(PathAst ast, ParsePath(path));
  XMLQ_ASSIGN_OR_RETURN(algebra::PatternGraph graph, CompileToPattern(ast));
  return algebra::MakeTreePattern(algebra::MakeDocScan(std::move(doc_name)),
                                  std::move(graph));
}

}  // namespace xmlq::xpath
