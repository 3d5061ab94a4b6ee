#include "xmlq/exec/structural_join.h"

#include <algorithm>
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

/// The NodeIds of a non-root vertex's tag in document order: its posting
/// list, or for `*` every element (attribute) of the document, found by
/// scanning the node kinds into `all`.
std::span<const xml::NodeId> TagPostings(const IndexedDocument& doc,
                                         const algebra::PatternVertex& vertex,
                                         std::vector<xml::NodeId>* all) {
  if (vertex.label != "*") {
    return doc.regions->Postings(doc.dom->pool().Find(vertex.label),
                                 vertex.is_attribute);
  }
  const xml::NodeKind want = vertex.is_attribute ? xml::NodeKind::kAttribute
                                                 : xml::NodeKind::kElement;
  const std::span<const xml::NodeKind> kinds = doc.dom->KindSpan();
  for (size_t i = 0; i < kinds.size(); ++i) {
    if (kinds[i] == want) all->push_back(static_cast<xml::NodeId>(i));
  }
  return *all;
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
  std::vector<xml::NodeId> all;
  const std::span<const xml::NodeId> source = TagPostings(doc, vertex, &all);
  if (stats != nullptr) stats->index_probes += source.size();
  if (vertex.predicates.empty()) {
    stream.resize(source.size());
    std::transform(source.begin(), source.end(), stream.begin(),
                   [&idx](xml::NodeId id) { return idx.RegionOf(id); });
    return stream;
  }
  for (const xml::NodeId id : source) {
    if (EvalVertexPredicates(vertex, *doc.dom, id, stats)) {
      stream.push_back(idx.RegionOf(id));
    }
  }
  return stream;
}

namespace {

using algebra::Axis;
using algebra::IndexSeek;
using algebra::PatternGraph;
using algebra::PatternVertex;
using algebra::VertexId;

/// Builds seeded streams. Counters and guard ticks follow
/// BuildPatternStreams' contract.
class SeededStreams {
 public:
  SeededStreams(const IndexedDocument& doc, const PatternGraph& pattern,
                const ResourceGuard* guard, OpStats* stats)
      : doc_(doc), pattern_(pattern), guard_(guard), stats_(stats) {}

  Result<std::vector<std::vector<Region>>> Build(const StreamSeed& seed) {
    auto streams = Streams(seed);
    // Committed on a guard trip too, like every engine's counters.
    if (stats_ != nullptr) stats_->index_probes += probes_;
    return streams;
  }

 private:
  Result<std::vector<std::vector<Region>>> Streams(const StreamSeed& seed) {
    const size_t k = pattern_.VertexCount();
    std::vector<std::vector<Region>> streams(k);
    std::vector<char> built(k, 0);
    // The seed: its index hits, each checked against the vertex again.
    const PatternVertex& vertex = pattern_.vertex(seed.vertex);
    const std::vector<xml::NodeId> hits =
        seed.seek.kind == IndexSeek::Kind::kText
            ? doc_.values->Lookup(seed.name,
                                  vertex.predicates[seed.predicate].literal(),
                                  vertex.is_attribute)
            : doc_.values->LookupNumericRange(
                  seed.name, seed.seek.lo, seed.seek.lo_inclusive,
                  seed.seek.hi, seed.seek.hi_inclusive, vertex.is_attribute);
    for (const xml::NodeId hit : hits) {
      XMLQ_GUARD_TICK(guard_, 1);
      Keep(vertex, hit, &streams[seed.vertex]);
    }
    built[seed.vertex] = 1;
    // Upward: the seed's ancestors in the pattern, below the root.
    for (VertexId v = seed.vertex; pattern_.vertex(v).parent != pattern_.root();
         v = pattern_.vertex(v).parent) {
      const VertexId p = pattern_.vertex(v).parent;
      XMLQ_ASSIGN_OR_RETURN(
          streams[p],
          Above(streams[v],
                pattern_.vertex(v).incoming_axis == Axis::kDescendant,
                pattern_.vertex(p)));
      built[p] = 1;
    }
    streams[pattern_.root()].push_back(doc_.regions->DocumentRegion());
    ++probes_;
    built[pattern_.root()] = 1;
    // Downward: every other vertex, parents first.
    for (VertexId v = 0; v < k; ++v) {
      if (built[v]) continue;
      XMLQ_ASSIGN_OR_RETURN(
          streams[v], Inside(streams[pattern_.vertex(v).parent], v));
    }
    return streams;
  }

  /// Appends `node`'s region to `out` when it passes the vertex's node test
  /// and predicates.
  void Keep(const PatternVertex& vertex, xml::NodeId node,
            std::vector<Region>* out) {
    const xml::Document& dom = *doc_.dom;
    if (!MatchesNodeTest(vertex, dom, node)) return;
    ++probes_;
    if (EvalVertexPredicates(vertex, dom, node, stats_)) {
      out->push_back(doc_.regions->RegionOf(node));
    }
  }

  /// Candidates of `vertex` from the stream of the pattern vertex below it:
  /// their parents, or every ancestor across a descendant arc.
  Result<std::vector<Region>> Above(const std::vector<Region>& below,
                                    bool descendant,
                                    const PatternVertex& vertex) {
    const xml::Document& dom = *doc_.dom;
    std::vector<xml::NodeId> candidates;
    if (!descendant) {
      for (const Region& r : below) candidates.push_back(dom.Parent(r.start));
      Normalize(&candidates);
    } else {
      // The ancestors `below[i]` shares with `below[i - 1]` are exactly
      // those containing `below[i - 1]`, and all were collected already;
      // the new ones start after every collected one, so each segment,
      // reversed, extends a sorted list.
      for (size_t i = 0; i < below.size(); ++i) {
        const size_t from = candidates.size();
        for (xml::NodeId a = dom.Parent(below[i].start);
             a != xml::kNullNode && a != dom.root(); a = dom.Parent(a)) {
          if (i > 0 && doc_.regions->RegionOf(a).Contains(below[i - 1])) {
            break;
          }
          candidates.push_back(a);
        }
        std::reverse(candidates.begin() + from, candidates.end());
      }
    }
    std::vector<Region> out;
    for (const xml::NodeId c : candidates) {
      XMLQ_GUARD_TICK(guard_, 1);
      Keep(vertex, c, &out);
    }
    return out;
  }

  /// The entries of `v`'s posting list inside the regions of `parents` (at
  /// the child level for child/attribute arcs), found by binary search.
  /// Parents may nest: a stack of the open ones decides each entry, since
  /// an entry too deep for an outer parent may be a child of an inner one.
  Result<std::vector<Region>> Inside(const std::vector<Region>& parents,
                                     VertexId v) {
    const PatternVertex& vertex = pattern_.vertex(v);
    const storage::RegionIndex& idx = *doc_.regions;
    std::vector<xml::NodeId> all;
    const std::span<const xml::NodeId> tags = TagPostings(doc_, vertex, &all);
    const bool child_level = vertex.incoming_axis != Axis::kDescendant;
    std::vector<Region> out;
    std::vector<Region> open;  // nesting chain of parents around the cursor
    size_t p = 0;
    auto t = tags.begin();
    while (t != tags.end()) {
      if (open.empty()) {
        if (p == parents.size()) break;
        // Jump to the first entry after the next parent starts.
        t = std::upper_bound(t, tags.end(), parents[p].start);
        open.push_back(parents[p++]);
        continue;
      }
      while (p < parents.size() && parents[p].start < *t) {
        while (!open.empty() && open.back().end < parents[p].start) {
          open.pop_back();
        }
        open.push_back(parents[p++]);
      }
      while (!open.empty() && open.back().end < *t) open.pop_back();
      if (open.empty()) continue;
      XMLQ_GUARD_TICK(guard_, 1);
      ++probes_;
      // The innermost open parent is the only one that can be t's parent.
      if ((!child_level || open.back().level + 1 == idx.LevelOf(*t)) &&
          EvalVertexPredicates(vertex, *doc_.dom, *t, stats_)) {
        out.push_back(idx.RegionOf(*t));
      }
      ++t;
    }
    return out;
  }

  const IndexedDocument& doc_;
  const PatternGraph& pattern_;
  const ResourceGuard* guard_;
  OpStats* stats_;
  uint64_t probes_ = 0;
};

}  // namespace

StreamSeed ChooseSeed(
    const algebra::PatternGraph& pattern, const storage::ValueIndex& values,
    const xml::NamePool& pool,
    const std::function<size_t(xml::NameId)>& element_count) {
  for (VertexId v = 1; v < pattern.VertexCount(); ++v) {
    const Axis axis = pattern.vertex(v).incoming_axis;
    if (axis != Axis::kChild && axis != Axis::kDescendant &&
        axis != Axis::kAttribute) {
      return {};
    }
  }
  StreamSeed best;
  for (VertexId v = 1; v < pattern.VertexCount(); ++v) {
    const PatternVertex& vertex = pattern.vertex(v);
    if (vertex.predicates.empty() || vertex.label == "*") continue;
    const xml::NameId name = pool.Find(vertex.label);
    if (name == xml::kInvalidName) continue;
    // Only data elements are indexed: an element vertex seeds when every
    // element of its name is one.
    if (!vertex.is_attribute &&
        values.RunSize(name, /*attribute=*/false) != element_count(name)) {
      continue;
    }
    for (size_t i = 0; i < vertex.predicates.size(); ++i) {
      const IndexSeek seek = algebra::IndexSeekFor(vertex.predicates[i]);
      if (seek.kind == IndexSeek::Kind::kNone) continue;
      const size_t hits =
          seek.kind == IndexSeek::Kind::kText
              ? values.CountEqual(name, vertex.predicates[i].literal(),
                                  vertex.is_attribute)
              : values.CountNumericRange(name, seek.lo, seek.lo_inclusive,
                                         seek.hi, seek.hi_inclusive,
                                         vertex.is_attribute);
      if (best.vertex == algebra::kNoVertex || hits < best.hits) {
        best = StreamSeed{v, i, seek, name, hits};
      }
    }
  }
  return best;
}

Result<std::vector<std::vector<Region>>> BuildPatternStreams(
    const IndexedDocument& doc, const algebra::PatternGraph& pattern,
    const ResourceGuard* guard, OpStats* stats) {
  const storage::RegionIndex& idx = *doc.regions;
  const StreamSeed seed =
      doc.values == nullptr
          ? StreamSeed{}
          : ChooseSeed(pattern, *doc.values, doc.dom->pool(),
                       [&idx](xml::NameId name) {
                         return idx.Postings(name, /*attribute=*/false).size();
                       });
  if (seed.vertex != algebra::kNoVertex) {
    return SeededStreams(doc, pattern, guard, stats).Build(seed);
  }
  std::vector<std::vector<Region>> streams(pattern.VertexCount());
  for (VertexId v = 0; v < pattern.VertexCount(); ++v) {
    XMLQ_ASSIGN_OR_RETURN(streams[v],
                          BuildVertexStream(doc, pattern.vertex(v), stats));
  }
  return streams;
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

  XMLQ_ASSIGN_OR_RETURN(std::vector<std::vector<Region>> candidates,
                        BuildPatternStreams(doc, pattern, guard, op_stats));
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
