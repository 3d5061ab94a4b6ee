#include "xmlq/exec/structural_join.h"

#include <unordered_set>

#include "xmlq/base/fault_injector.h"

namespace xmlq::exec {

using storage::Region;

namespace {

/// Shared Stack-Tree merge skeleton. Calls `emit(ancestor, descendant)` for
/// every qualifying pair (or, for semi-joins, the callers early-out). When
/// `guard` trips, the merge stops early (partial output); callers are
/// responsible for surfacing the guard's sticky status.
///
/// Every run ends with a counted stack drain, so stack_pops == stack_pushes
/// per run.
///
/// Observability counters accumulate in registers and commit to `stats`
/// once at the end, so a null `stats` costs only the increments themselves.
template <typename Emit>
void StackTreeMerge(std::span<const Region> ancestors,
                    std::span<const Region> descendants, bool parent_child,
                    const ResourceGuard* guard, OpStats* stats, Emit&& emit) {
  std::vector<Region> stack;
  size_t a = 0;
  uint64_t pushes = 0;
  uint64_t pops = 0;
  for (const Region& d : descendants) {
    // One step per descendant plus one per stack entry examined below (the
    // output-sensitive part of the merge).
    if (guard != nullptr && guard->Tick(1 + stack.size())) break;
    // Push every ancestor starting before d (it may enclose d); keep the
    // stack a nesting chain by first popping closed regions.
    while (a < ancestors.size() && ancestors[a].start < d.start) {
      while (!stack.empty() && stack.back().end < ancestors[a].start) {
        stack.pop_back();
        ++pops;
      }
      stack.push_back(ancestors[a]);
      ++pushes;
      ++a;
    }
    while (!stack.empty() && stack.back().end < d.start) {
      stack.pop_back();
      ++pops;
    }
    // Every remaining stack entry has start < d.start <= end: an ancestor.
    for (const Region& anc : stack) {
      if (!parent_child || anc.level + 1 == d.level) {
        emit(anc, d);
      }
    }
  }
  // Counted drain of everything this run pushed.
  pops += stack.size();
  if (stats != nullptr) {
    // Each side's elements are consumed at most once across the merge.
    stats->nodes_visited += descendants.size() + a;
    stats->stack_pushes += pushes;
    stats->stack_pops += pops;
  }
}

}  // namespace

std::vector<JoinPair> StructuralJoinPairs(std::span<const Region> ancestors,
                                          std::span<const Region> descendants,
                                          bool parent_child,
                                          const ResourceGuard* guard,
                                          OpStats* stats) {
  std::vector<JoinPair> out;
  StackTreeMerge(ancestors, descendants, parent_child, guard, stats,
                 [&out](const Region& a, const Region& d) {
                   out.push_back(JoinPair{a.start, d.start});
                 });
  return out;
}

NodeList StructuralSemiJoinDesc(std::span<const Region> ancestors,
                                std::span<const Region> descendants,
                                bool parent_child,
                                const ResourceGuard* guard, OpStats* stats) {
  NodeList out;
  xml::NodeId last = xml::kNullNode;
  StackTreeMerge(ancestors, descendants, parent_child, guard, stats,
                 [&out, &last](const Region&, const Region& d) {
                   if (d.start != last) {
                     out.push_back(d.start);
                     last = d.start;
                   }
                 });
  // Descendants arrive in document order, so `out` is already sorted.
  return out;
}

NodeList StructuralSemiJoinAnc(std::span<const Region> ancestors,
                               std::span<const Region> descendants,
                               bool parent_child,
                               const ResourceGuard* guard, OpStats* stats) {
  NodeList out;
  StackTreeMerge(ancestors, descendants, parent_child, guard, stats,
                 [&out](const Region& a, const Region&) {
                   out.push_back(a.start);
                 });
  Normalize(&out);
  return out;
}

Result<std::vector<Region>> BuildVertexStream(
    const IndexedDocument& doc, const algebra::PatternVertex& vertex,
    OpStats* stats) {
  std::vector<Region> stream;
  const storage::RegionIndex& idx = *doc.regions;
  if (vertex.is_root) {
    stream.push_back(idx.DocumentRegion());
    if (stats != nullptr) ++stats->index_probes;
    return stream;
  }
  std::span<const Region> source;
  if (vertex.is_attribute) {
    source = vertex.label == "*"
                 ? std::span<const Region>(idx.attributes())
                 : idx.AttributeStream(doc.dom->pool().Find(vertex.label));
  } else {
    source = vertex.label == "*"
                 ? std::span<const Region>(idx.elements())
                 : idx.ElementStream(doc.dom->pool().Find(vertex.label));
  }
  if (stats != nullptr) stats->index_probes += source.size();
  if (vertex.predicates.empty()) {
    stream.assign(source.begin(), source.end());
    return stream;
  }
  for (const Region& r : source) {
    if (EvalVertexPredicates(vertex, *doc.dom, r.start, stats)) {
      stream.push_back(r);
    }
  }
  return stream;
}

Result<NodeList> BinaryJoinPlanMatch(
    const IndexedDocument& doc, const algebra::PatternGraph& pattern,
    std::span<const algebra::VertexId> edge_order, JoinPlanStats* stats,
    const ResourceGuard* guard, OpStats* op_stats) {
  using algebra::Axis;
  using algebra::VertexId;
  if (XMLQ_FAULT("exec.binaryjoin.match")) {
    return Status::Internal("injected fault: exec.binaryjoin.match");
  }
  XMLQ_RETURN_IF_ERROR(pattern.Validate());
  const VertexId output = pattern.SoleOutput();
  if (output == algebra::kNoVertex) {
    return Status::InvalidArgument(
        "binary join plan requires a sole output vertex");
  }
  const size_t k = pattern.VertexCount();
  std::vector<VertexId> order(edge_order.begin(), edge_order.end());
  if (order.empty()) {
    for (VertexId v = 1; v < k; ++v) order.push_back(v);
  }
  if (order.size() != k - 1) {
    return Status::InvalidArgument("edge order must cover every edge once");
  }
  for (VertexId v : order) {
    if (v == pattern.root() || v >= k) {
      return Status::InvalidArgument("invalid edge target in join order");
    }
    if (pattern.vertex(v).incoming_axis == Axis::kFollowingSibling ||
        pattern.vertex(v).incoming_axis == Axis::kSelf) {
      return Status::Unsupported(
          "binary join plans support child/descendant/attribute arcs only");
    }
  }

  std::vector<std::vector<Region>> candidates(k);
  for (VertexId v = 0; v < k; ++v) {
    XMLQ_ASSIGN_OR_RETURN(candidates[v],
                          BuildVertexStream(doc, pattern.vertex(v), op_stats));
  }
  std::vector<std::vector<JoinPair>> pairs(k);
  for (VertexId v : order) {
    const VertexId parent = pattern.vertex(v).parent;
    const bool parent_child =
        pattern.vertex(v).incoming_axis == Axis::kChild ||
        pattern.vertex(v).incoming_axis == Axis::kAttribute;
    pairs[v] = StructuralJoinPairs(candidates[parent], candidates[v],
                                   parent_child, guard, op_stats);
    XMLQ_GUARD_TICK(guard, 0);  // the merge stops early on a trip
    if (stats != nullptr) stats->pairs_produced += pairs[v].size();
    // Semi-join reduction of both sides for the joins still to come.
    NodeList anc_ids, desc_ids;
    for (const JoinPair& p : pairs[v]) {
      anc_ids.push_back(p.ancestor);
      desc_ids.push_back(p.descendant);
    }
    Normalize(&anc_ids);
    Normalize(&desc_ids);
    candidates[parent] = ToRegions(*doc.regions, anc_ids, op_stats);
    candidates[v] = ToRegions(*doc.regions, desc_ids, op_stats);
  }
  return FilterEdgePairs(pattern, output, pairs,
                         doc.regions->DocumentRegion().start);
}

NodeList FilterEdgePairs(const algebra::PatternGraph& pattern,
                         algebra::VertexId output,
                         const std::vector<std::vector<JoinPair>>& edge_pairs,
                         uint32_t root_binding) {
  using algebra::VertexId;
  const size_t k = pattern.VertexCount();
  // Bottom-up validity (vertex ids are topologically ordered).
  std::vector<std::unordered_set<uint32_t>> valid(k);
  for (size_t vi = k; vi-- > 0;) {
    const VertexId v = static_cast<VertexId>(vi);
    std::unordered_set<uint32_t> candidates;
    if (v == pattern.root()) {
      candidates.insert(root_binding);
    } else {
      for (const JoinPair& p : edge_pairs[v]) candidates.insert(p.descendant);
    }
    for (const VertexId c : pattern.vertex(v).children) {
      std::unordered_set<uint32_t> supported;
      for (const JoinPair& p : edge_pairs[c]) {
        if (valid[c].count(p.descendant) > 0) supported.insert(p.ancestor);
      }
      for (auto it = candidates.begin(); it != candidates.end();) {
        if (supported.count(*it) == 0) {
          it = candidates.erase(it);
        } else {
          ++it;
        }
      }
      if (candidates.empty()) break;
    }
    valid[v] = std::move(candidates);
  }
  // Top-down reachability.
  std::vector<std::unordered_set<uint32_t>> reach(k);
  reach[pattern.root()] = valid[pattern.root()];
  for (VertexId v = 1; v < k; ++v) {
    const VertexId parent = pattern.vertex(v).parent;
    for (const JoinPair& p : edge_pairs[v]) {
      if (reach[parent].count(p.ancestor) > 0 &&
          valid[v].count(p.descendant) > 0) {
        reach[v].insert(p.descendant);
      }
    }
  }
  NodeList result(reach[output].begin(), reach[output].end());
  Normalize(&result);
  return result;
}

std::vector<Region> ToRegions(const storage::RegionIndex& index,
                              const NodeList& nodes, OpStats* stats) {
  std::vector<Region> out;
  out.reserve(nodes.size());
  for (xml::NodeId id : nodes) {
    out.push_back(index.RegionOf(id));
  }
  if (stats != nullptr) stats->index_probes += nodes.size();
  return out;
}

}  // namespace xmlq::exec
