#include "xmlq/opt/cardinality.h"

#include <algorithm>
#include <limits>

namespace xmlq::opt {

namespace {

using algebra::Axis;
using algebra::CompareOp;
using algebra::PatternGraph;
using algebra::PatternVertex;
using algebra::VertexId;

bool SynNodeMatches(const Synopsis::Node& node, const PatternVertex& vertex,
                    xml::NameId want) {
  if (node.is_attribute != vertex.is_attribute) return false;
  if (vertex.label == "*") return true;
  return want != xml::kInvalidName && node.name == want;
}

void CollectDescendants(const Synopsis& synopsis, uint32_t from,
                        const PatternVertex& vertex, xml::NameId want,
                        std::vector<uint32_t>* out) {
  // Iterative: the synopsis is as deep as the document, which can be a
  // degenerate 100k-level chain.
  std::vector<uint32_t> stack{from};
  while (!stack.empty()) {
    const uint32_t node = stack.back();
    stack.pop_back();
    for (uint32_t c : synopsis.nodes()[node].children) {
      if (SynNodeMatches(synopsis.nodes()[c], vertex, want)) {
        out->push_back(c);
      }
      stack.push_back(c);
    }
  }
}

/// Nodes of the vertex's name (and family) satisfying one predicate.
double CountMatches(const storage::ValueIndex& values, xml::NameId name,
                    bool attribute, const algebra::ValuePredicate& pred,
                    double population) {
  // A general-typed predicate compares numerically against a number or
  // numeric text and bytewise otherwise; count it the same way.
  const std::optional<double> v = pred.number();
  const bool by_number =
      pred.IsNumberTyped() ||
      (pred.typing == algebra::ValueTyping::kGeneral && v.has_value());
  if (!by_number) {
    const auto equal = values.CountEqual(name, pred.literal(), attribute);
    if (pred.op == CompareOp::kEq) return static_cast<double>(equal);
    return pred.op == CompareOp::kNe ? population - static_cast<double>(equal)
                                     : population * kUnindexedSelectivity;
  }
  if (!v.has_value()) return 0;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const auto range = [&](double lo, bool lo_in, double hi, bool hi_in) {
    return static_cast<double>(
        values.CountNumericRange(name, lo, lo_in, hi, hi_in, attribute));
  };
  switch (pred.op) {
    case CompareOp::kEq:
      return range(*v, true, *v, true);
    case CompareOp::kNe:
      // Under CompareGeneral every value but the equal ones differs: NaN
      // and text that does not parse included. Under kNumber such text
      // matches no operator.
      return (pred.typing == algebra::ValueTyping::kNumber
                  ? range(-kInf, true, kInf, true)
                  : population) -
             range(*v, true, *v, true);
    case CompareOp::kLt:
    case CompareOp::kLe:
      return range(-kInf, true, *v, pred.op == CompareOp::kLe);
    case CompareOp::kGt:
    case CompareOp::kGe:
      return range(*v, pred.op == CompareOp::kGe, kInf, true);
  }
  return 0;
}

/// Fraction of `vertex`'s tag population that satisfies all its value
/// predicates, counted in the synopsis' value index.
double PredicateSelectivity(const Synopsis& synopsis,
                            const xml::NamePool& pool,
                            const PatternVertex& vertex) {
  if (vertex.predicates.empty()) return 1;
  const xml::NameId name =
      vertex.label == "*" ? xml::kInvalidName : pool.Find(vertex.label);
  double selectivity = 1;
  for (const algebra::ValuePredicate& pred : vertex.predicates) {
    if (synopsis.values() == nullptr || name == xml::kInvalidName) {
      selectivity *= kUnindexedSelectivity;
      continue;
    }
    const double population = static_cast<double>(
        vertex.is_attribute ? synopsis.CountAttributesByName(name)
                            : synopsis.CountByName(name));
    if (population <= 0) return 0;
    selectivity *= std::clamp(
        CountMatches(*synopsis.values(), name, vertex.is_attribute, pred,
                     population) /
            population,
        0.0, 1.0);
  }
  return selectivity;
}

}  // namespace

std::vector<uint32_t> EmbedStep(const Synopsis& synopsis,
                                const xml::NamePool& pool,
                                std::span<const uint32_t> from,
                                const PatternVertex& vertex) {
  const xml::NameId want =
      vertex.label == "*" ? xml::kInvalidName : pool.Find(vertex.label);
  const auto& nodes = synopsis.nodes();
  std::vector<uint32_t> matched;
  for (const uint32_t s : from) {
    switch (vertex.incoming_axis) {
      case Axis::kChild:
      case Axis::kAttribute:
        for (uint32_t c : nodes[s].children) {
          if (SynNodeMatches(nodes[c], vertex, want)) matched.push_back(c);
        }
        break;
      case Axis::kDescendant:
        CollectDescendants(synopsis, s, vertex, want, &matched);
        break;
      case Axis::kFollowingSibling:
        // Siblings share the synopsis parent; approximate with children.
        if (nodes[s].parent != UINT32_MAX) {
          for (uint32_t c : nodes[nodes[s].parent].children) {
            if (SynNodeMatches(nodes[c], vertex, want)) matched.push_back(c);
          }
        }
        break;
      case Axis::kSelf:
        if (SynNodeMatches(nodes[s], vertex, want)) matched.push_back(s);
        break;
    }
  }
  std::sort(matched.begin(), matched.end());
  matched.erase(std::unique(matched.begin(), matched.end()), matched.end());
  return matched;
}

CardinalityEstimate EstimatePattern(const Synopsis& synopsis,
                                    const xml::NamePool& pool,
                                    const PatternGraph& pattern) {
  const size_t k = pattern.VertexCount();
  CardinalityEstimate out;
  out.vertex_cardinality.assign(k, 0);
  out.path_cardinality.assign(k, 1);
  out.stream_size.assign(k, 1);
  out.selectivity.assign(k, 1);
  out.paths.assign(k, {});
  out.paths[pattern.root()] = {0};
  std::vector<double>& base = out.root_path_size;
  base.assign(k, 1);
  for (VertexId v = 1; v < k; ++v) {
    const PatternVertex& vertex = pattern.vertex(v);
    const xml::NameId want =
        vertex.label == "*" ? xml::kInvalidName : pool.Find(vertex.label);
    const bool any = vertex.label == "*";
    const size_t attributes =
        any ? synopsis.TotalNodes() : synopsis.CountAttributesByName(want);
    const size_t elements =
        any ? synopsis.TotalElements() : synopsis.CountByName(want);
    out.stream_size[v] =
        static_cast<double>(vertex.is_attribute ? attributes : elements);
    out.paths[v] = EmbedStep(synopsis, pool, out.paths[vertex.parent], vertex);
    base[v] = 0;
    for (uint32_t s : out.paths[v]) base[v] += synopsis.nodes()[s].count;
    out.selectivity[v] = PredicateSelectivity(synopsis, pool, vertex);
    out.path_cardinality[v] = base[v] * out.selectivity[v] *
                              (base[vertex.parent] > 0
                                   ? out.path_cardinality[vertex.parent] /
                                         base[vertex.parent]
                                   : 0.0);
  }
  // Bottom-up: the fraction of v's nodes whose own predicates and branches
  // embed. A branch to c embeds under a v node with chance min(1, the
  // expected number of surviving c nodes per v node). Children have larger
  // ids than their parents.
  std::vector<double> survive(k, 1);
  const auto branch = [&](VertexId c) {
    const VertexId p = pattern.vertex(c).parent;
    return base[p] > 0 ? std::min(1.0, base[c] * survive[c] / base[p]) : 0.0;
  };
  for (VertexId v = static_cast<VertexId>(k); v-- > 0;) {
    survive[v] = out.selectivity[v];
    for (VertexId c : pattern.vertex(v).children) survive[v] *= branch(c);
  }
  // Top-down: the chance that a v node's ancestors embed through their
  // other branches.
  std::vector<double> up(k, 1);
  for (VertexId v = 0; v < k; ++v) {
    out.vertex_cardinality[v] = base[v] * survive[v] * up[v];
    for (VertexId c : pattern.vertex(v).children) {
      up[c] = up[v] * out.selectivity[v];
      for (VertexId other : pattern.vertex(v).children) {
        if (other != c) up[c] *= branch(other);
      }
    }
  }

  const VertexId output = pattern.SoleOutput();
  out.output_cardinality =
      output == algebra::kNoVertex ? 0 : out.vertex_cardinality[output];
  return out;
}

}  // namespace xmlq::opt
