#ifndef XMLQ_EXEC_STRUCTURAL_JOIN_H_
#define XMLQ_EXEC_STRUCTURAL_JOIN_H_

#include <functional>
#include <span>
#include <vector>

#include "xmlq/base/limits.h"
#include "xmlq/exec/node_stream.h"
#include "xmlq/exec/op_stats.h"
#include "xmlq/storage/region_index.h"

namespace xmlq::exec {

/// One (ancestor, descendant) witness produced by a structural join.
struct JoinPair {
  xml::NodeId ancestor = xml::kNullNode;
  xml::NodeId descendant = xml::kNullNode;
};

/// Stack-Tree structural join (Al-Khalifa et al. [12]): merges two
/// region-sorted streams in O(|A| + |D| + |output|), maintaining the chain
/// of currently-open ancestors on a stack. `parent_child` restricts to
/// level-adjacent pairs. Inputs must be sorted by `start`.
///
/// These merges return plain containers, so on a guard trip they *stop
/// early* (possibly with partial output) and leave the error in the guard's
/// sticky status; callers holding the guard must check it after the call
/// (the executor's XMLQ_GUARD_TICK(guard, 0) idiom).
///
/// `stats` (optional, here and on every matcher below) receives the
/// operator-level observability counters: one `nodes_visited` per stream
/// element consumed, `stack_pushes`/`stack_pops` for the merge stack,
/// `index_probes` per region fetched from the index. Collection costs a few
/// local integer adds committed once per call; a null `stats` costs nothing.
std::vector<JoinPair> StructuralJoinPairs(
    std::span<const storage::Region> ancestors,
    std::span<const storage::Region> descendants, bool parent_child,
    const ResourceGuard* guard = nullptr, OpStats* stats = nullptr);

/// Semi-join: distinct descendants having at least one ancestor in
/// `ancestors`, in document order.
NodeList StructuralSemiJoinDesc(std::span<const storage::Region> ancestors,
                                std::span<const storage::Region> descendants,
                                bool parent_child,
                                const ResourceGuard* guard = nullptr,
                                OpStats* stats = nullptr);

/// Semi-join: distinct ancestors having at least one descendant in
/// `descendants`, in document order.
NodeList StructuralSemiJoinAnc(std::span<const storage::Region> ancestors,
                               std::span<const storage::Region> descendants,
                               bool parent_child,
                               const ResourceGuard* guard = nullptr,
                               OpStats* stats = nullptr);

/// Builds a region stream (document-ordered) from a normalized node list.
/// Charges one `index_probes` per RegionOf lookup when `stats` is given.
std::vector<storage::Region> ToRegions(const storage::RegionIndex& index,
                                       const NodeList& nodes,
                                       OpStats* stats = nullptr);

/// Builds the region stream for one pattern vertex: the regions of its
/// name's posting list in the region index (every element or attribute of
/// the document for `*`), with the vertex's value predicates applied. The
/// root vertex yields the document region. Shared by all join-based
/// matchers. Charges one `index_probes` per posting entry fetched and the
/// predicate-evaluation bytes to `bytes_touched`.
Result<std::vector<storage::Region>> BuildVertexStream(
    const IndexedDocument& doc, const algebra::PatternVertex& vertex,
    OpStats* stats = nullptr);

/// The vertex whose stream the value index answers with the fewest hits:
/// a labelled vertex with a predicate that algebra::IndexSeekFor answers
/// exactly. An element vertex qualifies only when every element of its name
/// is a data element, i.e. `element_count(name)` equals the index's run for
/// that name. `hits` is the seek's index count. `vertex` is kNoVertex when
/// no vertex qualifies, or when an arc is neither child, descendant nor
/// attribute.
struct StreamSeed {
  algebra::VertexId vertex = algebra::kNoVertex;
  size_t predicate = 0;  // index into the vertex's predicates
  algebra::IndexSeek seek;
  xml::NameId name = xml::kInvalidName;
  size_t hits = 0;
};
StreamSeed ChooseSeed(const algebra::PatternGraph& pattern,
                      const storage::ValueIndex& values,
                      const xml::NamePool& pool,
                      const std::function<size_t(xml::NameId)>& element_count);

/// The per-vertex region streams every join engine consumes (TwigStack,
/// PathStack, the binary join plan), in vertex order. Without a seed (see
/// ChooseSeed; `doc.values` absent or no vertex qualifies) each stream is
/// BuildVertexStream's. With one, the seed vertex's stream is its index
/// hits, and every other stream is cut to the nodes that can still embed:
/// the seed's ancestors in the pattern take the parents (child/attribute
/// arcs) or ancestors (descendant arcs) of the vertex below, and every
/// other vertex keeps the posting entries inside its parent's regions
/// (at the child level for child/attribute arcs). Every entry is checked
/// against its vertex's node test and predicates, so the index can prune
/// a result but never add one; the join kernels' results are unchanged.
/// A seeded build ticks `guard` once per hit and once per probed entry and
/// charges one `index_probes` per region it fetches: each hit, each
/// ancestor candidate that passes its node test, and each posting entry
/// read inside the parent regions (plus the document region).
Result<std::vector<std::vector<storage::Region>>> BuildPatternStreams(
    const IndexedDocument& doc, const algebra::PatternGraph& pattern,
    const ResourceGuard* guard = nullptr, OpStats* stats = nullptr);

/// The classic binary structural-join plan (baseline [11]/[12]): one
/// stack-tree join per query edge, in `edge_order` (each entry is the edge's
/// *target* vertex; empty = ascending vertex order), with semi-join
/// reduction of both sides after each join, followed by the shared
/// merge/filter phase. `stats` (optional) receives the total number of
/// intermediate pairs produced — the quantity structural-join-order
/// selection [5] minimizes (experiment E4).
struct JoinPlanStats {
  size_t pairs_produced = 0;
};
Result<NodeList> BinaryJoinPlanMatch(
    const IndexedDocument& doc, const algebra::PatternGraph& pattern,
    std::span<const algebra::VertexId> edge_order = {},
    JoinPlanStats* stats = nullptr, const ResourceGuard* guard = nullptr,
    OpStats* op_stats = nullptr);

/// Merge phase shared by the holistic matchers: given, per non-root pattern
/// vertex, the set of structurally-verified (parent binding, vertex binding)
/// pairs for its incoming edge, computes the bindings of `output` that
/// participate in at least one full embedding. Runs a bottom-up validity
/// pass (a binding is valid if every child edge has a pair to a valid child
/// binding) followed by a top-down reachability pass from `root_binding`.
/// Returns the surviving output bindings in document order.
NodeList FilterEdgePairs(const algebra::PatternGraph& pattern,
                         algebra::VertexId output,
                         const std::vector<std::vector<JoinPair>>& edge_pairs,
                         uint32_t root_binding);

}  // namespace xmlq::exec

#endif  // XMLQ_EXEC_STRUCTURAL_JOIN_H_
