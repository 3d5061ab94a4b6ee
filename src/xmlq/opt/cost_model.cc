#include "xmlq/opt/cost_model.h"

#include <algorithm>
#include <vector>

#include "xmlq/exec/structural_join.h"
#include "xmlq/xpath/nok_partition.h"

namespace xmlq::opt {

namespace {

using algebra::Axis;
using algebra::PatternGraph;
using algebra::VertexId;
using exec::PatternStrategy;

/// The region streams a join engine builds, per vertex: `read` entries
/// fetched (and predicate-checked when the vertex has predicates), `kept`
/// entries left after the checks.
struct JoinStreams {
  std::vector<double> read;
  std::vector<double> kept;
};

/// Unseeded, every vertex reads its whole tag stream.
JoinStreams UnseededStreams(const CardinalityEstimate& est) {
  JoinStreams out{est.stream_size, {}};
  for (size_t v = 0; v < est.stream_size.size(); ++v) {
    out.kept.push_back(est.stream_size[v] * est.selectivity[v]);
  }
  return out;
}

/// Seeded (the rule of exec::ChooseSeed), the seed reads its index hits,
/// the vertices above it at most one candidate per kept entry below, and
/// every other vertex the entries of its root path under its parent's kept
/// entries.
JoinStreams BuildJoinStreams(const Synopsis& synopsis,
                             const xml::NamePool& pool,
                             const PatternGraph& pattern,
                             const CardinalityEstimate& est) {
  JoinStreams out = UnseededStreams(est);
  if (synopsis.values() == nullptr) return out;
  const size_t k = pattern.VertexCount();
  const exec::StreamSeed seed = exec::ChooseSeed(
      pattern, *synopsis.values(), pool,
      [&synopsis](xml::NameId name) { return synopsis.CountByName(name); });
  if (seed.vertex == algebra::kNoVertex) return out;
  const std::vector<double>& base = est.root_path_size;
  std::vector<char> done(k, 0);
  const auto set = [&](VertexId v, double read) {
    out.read[v] = read;
    out.kept[v] = std::min(read, est.stream_size[v] * est.selectivity[v]);
    done[v] = 1;
  };
  set(seed.vertex, static_cast<double>(seed.hits));
  for (VertexId v = seed.vertex; pattern.vertex(v).parent != pattern.root();
       v = pattern.vertex(v).parent) {
    const VertexId p = pattern.vertex(v).parent;
    set(p, std::min(est.stream_size[p], out.kept[v]));
  }
  set(pattern.root(), 1);
  for (VertexId v = 1; v < k; ++v) {
    if (done[v]) continue;
    const VertexId p = pattern.vertex(v).parent;
    set(v, base[p] > 0 ? out.kept[p] * base[v] / base[p] : 0.0);
  }
  return out;
}

/// Reads of the stream of every vertex, and predicate checks on the streams
/// of vertices that carry predicates.
void StreamWork(const PatternGraph& pattern, const JoinStreams& streams,
                CostFeatures* work) {
  for (VertexId v = 0; v < pattern.VertexCount(); ++v) {
    work->stream += streams.read[v];
    if (!pattern.vertex(v).predicates.empty()) {
      work->predicate += streams.read[v];
    }
  }
}

CostFeatures HolisticWork(const PatternGraph& pattern,
                          const CardinalityEstimate& est,
                          const JoinStreams& streams, bool path_stack) {
  // PathStack runs branching patterns on TwigStack.
  for (VertexId v = 0; v < pattern.VertexCount(); ++v) {
    if (pattern.vertex(v).children.size() > 1) path_stack = false;
  }
  CostFeatures work;
  StreamWork(pattern, streams, &work);
  const double k = static_cast<double>(pattern.VertexCount());
  for (VertexId v = 1; v < pattern.VertexCount(); ++v) {
    const double filtered = streams.kept[v];
    double processed = filtered;
    if (!path_stack && !pattern.vertex(v).children.empty()) {
      // getNext skips (one cursor step each) the entries of an inner
      // vertex that cannot extend to every child; the rest are processed.
      const double extend =
          est.path_cardinality[v] > 0
              ? std::min(1.0, est.vertex_cardinality[v] /
                                  est.path_cardinality[v])
              : 0.0;
      processed = filtered * extend;
    }
    // A processed entry inspects all k vertices: getNext recurses over the
    // twig, PathStack compares every stream head. TwigStack records a pair
    // only for nodes whose extension getNext has verified; PathStack
    // records every streamed node under a stacked parent.
    (path_stack ? work.merge : work.twig_step) += k * processed;
    work.merge += filtered - processed;
    work.pair += path_stack ? std::min(est.path_cardinality[v], filtered)
                            : est.vertex_cardinality[v];
  }
  return work;
}

CostFeatures BinaryJoinWork(const PatternGraph& pattern,
                            const CardinalityEstimate& est,
                            const JoinStreams& streams,
                            std::span<const VertexId> order) {
  CostFeatures work;
  StreamWork(pattern, streams, &work);
  std::vector<VertexId> edges(order.begin(), order.end());
  if (edges.empty()) {
    for (VertexId v = 1; v < pattern.VertexCount(); ++v) edges.push_back(v);
  }
  // current[v]: the estimated size of v's candidate list as joins proceed.
  std::vector<double> current = streams.kept;
  for (VertexId v : edges) {
    const VertexId parent = pattern.vertex(v).parent;
    // Each surviving descendant contributes about one pair (ancestors of
    // the same tag rarely nest).
    const double pairs = std::min(current[v], est.path_cardinality[v]);
    // The merge join, then sorting both sides' survivors and mapping them
    // back to regions.
    work.merge += current[parent] + current[v] + 4 * pairs;
    work.pair += pairs;
    // Semi-join reduction: both sides shrink to (at most) the survivors.
    current[v] = std::min(current[v], pairs);
    current[parent] =
        std::min({current[parent], est.path_cardinality[parent], pairs});
  }
  return work;
}

CostFeatures NokWork(const Synopsis& synopsis, const xml::NamePool& pool,
                     const PatternGraph& pattern,
                     const CardinalityEstimate& est) {
  const xpath::NokPartition partition = xpath::PartitionNok(pattern);
  const auto& nodes = synopsis.nodes();
  CostFeatures work;
  // local[v]: the synopsis nodes v binds to when its part's head anchors at
  // every candidate of its tag stream (the scan is not path-restricted).
  std::vector<std::vector<uint32_t>> local(pattern.VertexCount());
  // bound[v]: nodes bound to v by its part's scan (predicates applied).
  std::vector<double> bound(pattern.VertexCount(), 0);
  const std::vector<uint32_t> document = {0};
  for (const xpath::NokPart& part : partition.parts) {
    const algebra::PatternVertex& head = pattern.vertex(part.head);
    const bool single = part.vertices.size() == 1;
    if (head.is_root && single) {  // trivial: the document node
      bound[part.head] = 1;
      continue;
    }
    if (!head.is_root && head.label == "*") {
      work.scan += static_cast<double>(synopsis.TotalNodes());
    } else if (!head.is_root) {
      // Candidates come from the head's tag stream; larger parts open one
      // subtree window per candidate.
      work.stream += est.stream_size[part.head];
      if (!single) work.anchor += est.stream_size[part.head];
    }
    for (const VertexId v : part.vertices) {
      const algebra::PatternVertex& vertex = pattern.vertex(v);
      if (v == part.head) {
        algebra::PatternVertex anywhere = vertex;
        anywhere.incoming_axis = Axis::kDescendant;
        local[v] = vertex.is_root
                       ? document
                       : EmbedStep(synopsis, pool, document, anywhere);
      } else {
        local[v] = EmbedStep(synopsis, pool, local[vertex.parent], vertex);
      }
      double count = 0;
      for (const uint32_t s : local[v]) count += nodes[s].count;
      if (!vertex.predicates.empty()) work.predicate += count;
      bound[v] = count * est.selectivity[v];
      if (single) {
        work.merge += count;  // the candidates are the matches
      } else {
        for (const uint32_t s : local[v]) work.scan += nodes[s].child_nodes;
      }
    }
  }
  // Seam joins: the parent part's attach bindings and the child part's
  // heads are mapped to regions and semi-joined twice (bottom-up validity,
  // top-down reachability); the (head, binding) pairs are resolved through
  // hash sets.
  for (size_t q = 1; q < partition.parts.size(); ++q) {
    const xpath::NokPart& part = partition.parts[q];
    const double attach = bound[part.attach_vertex];
    const double parent_heads =
        bound[partition.parts[static_cast<size_t>(part.parent_part)].head];
    work.merge += 4 * (attach + bound[part.head]);
    work.hash += 5 * attach + 3 * parent_heads;
  }
  const VertexId output = pattern.SoleOutput();
  if (output != algebra::kNoVertex) {
    const xpath::NokPart& part =
        partition.parts[static_cast<size_t>(partition.part_of[output])];
    if (output != part.head) {
      work.hash += bound[part.head] + 2 * bound[output];
      work.merge += bound[output];
    }
  }
  return work;
}

CostFeatures NaiveWork(const Synopsis& synopsis, const PatternGraph& pattern,
                       const CardinalityEstimate& est) {
  const auto& nodes = synopsis.nodes();
  CostFeatures work;
  // live[v]: the fraction of v's path nodes whose ancestors-or-self passed
  // their value predicates — the nodes the navigator steps out of.
  std::vector<double> live(pattern.VertexCount(), 1);
  for (VertexId v = 1; v < pattern.VertexCount(); ++v) {
    const algebra::PatternVertex& vertex = pattern.vertex(v);
    const std::vector<uint32_t>& from = est.paths[vertex.parent];
    const double share = live[vertex.parent];
    const bool descendant = vertex.incoming_axis == Axis::kDescendant;
    double contexts = 0, explored = 0;
    for (const uint32_t s : from) {
      contexts += nodes[s].count;
      explored += static_cast<double>(descendant ? nodes[s].subtree_nodes
                                                 : nodes[s].child_nodes);
    }
    // One axis step (and its result list) per context node.
    work.call += contexts * share;
    work.navigate += explored * share;
    // A descendant step finds a node once per context above it; the
    // duplicates are sorted away. above[s]: contexts on s's root path.
    std::vector<uint32_t> above;
    if (descendant) {
      std::vector<char> is_context(nodes.size(), 0);
      for (const uint32_t s : from) is_context[s] = 1;
      above.assign(nodes.size(), 0);
      for (uint32_t s = 1; s < nodes.size(); ++s) {  // parents come first
        above[s] = above[nodes[s].parent] + is_context[nodes[s].parent];
      }
    }
    double reached = 0;
    for (const uint32_t s : est.paths[v]) {
      reached += nodes[s].count * (descendant ? above[s] : 1.0);
    }
    work.merge += reached * share;
    if (!vertex.predicates.empty()) work.predicate += reached * share;
    live[v] = share * est.selectivity[v];
  }
  return work;
}

}  // namespace

double Charge(const CostFeatures& work, const CostParams& params) {
  return params.stream * work.stream + params.anchor * work.anchor +
         params.scan * work.scan + params.navigate * work.navigate +
         params.predicate * work.predicate + params.merge * work.merge +
         params.twig_step * work.twig_step + params.pair * work.pair +
         params.hash * work.hash + params.call * work.call;
}

CostFeatures EstimateWork(PatternStrategy strategy, const Synopsis& synopsis,
                          const xml::NamePool& pool,
                          const PatternGraph& pattern,
                          const CardinalityEstimate& est) {
  switch (strategy) {
    case PatternStrategy::kNok:
      return NokWork(synopsis, pool, pattern, est);
    case PatternStrategy::kTwigStack:
    case PatternStrategy::kPathStack:
      return HolisticWork(pattern, est,
                          BuildJoinStreams(synopsis, pool, pattern, est),
                          strategy == PatternStrategy::kPathStack);
    case PatternStrategy::kBinaryJoin:
      return BinaryJoinWork(pattern, est,
                            BuildJoinStreams(synopsis, pool, pattern, est), {});
    case PatternStrategy::kNaive:
      return NaiveWork(synopsis, pattern, est);
  }
  return {};
}

double CostBinaryJoin(const PatternGraph& pattern,
                      const CardinalityEstimate& est,
                      std::span<const VertexId> order,
                      const CostParams& params) {
  return Charge(BinaryJoinWork(pattern, est, UnseededStreams(est), order),
                params);
}

}  // namespace xmlq::opt
