#ifndef XMLQ_EXEC_NOK_MATCHER_H_
#define XMLQ_EXEC_NOK_MATCHER_H_

#include <optional>
#include <span>
#include <vector>

#include "xmlq/algebra/pattern_graph.h"
#include "xmlq/base/limits.h"
#include "xmlq/base/status.h"
#include "xmlq/exec/node_stream.h"
#include "xmlq/exec/structural_join.h"
#include "xmlq/storage/succinct_doc.h"
#include "xmlq/xpath/nok_partition.h"

namespace xmlq::exec {

/// Result of matching one NoK part against a document.
struct NokMatchResult {
  /// Distinct head bindings (nodes where the whole part embeds, rooted at
  /// the head vertex), in document order.
  NodeList head_matches;
  /// For each requested vertex (parallel to the `requested` argument):
  /// (head binding, vertex binding) pairs, sorted, distinct. The head
  /// binding is the unique part anchor the vertex binding belongs to.
  std::vector<std::vector<JoinPair>> pairs;
  /// For each requested vertex: distinct vertex bindings in document order.
  std::vector<NodeList> bindings;
};

/// Matches a NoK part — a fragment of `graph` whose internal arcs are all
/// child/attribute relations — in a *single pre-order scan* of the balanced-
/// parentheses structure, with no structural joins (paper §4.2).
///
/// The scan maintains, per open node, the set of pattern vertices whose
/// root-to-node path condition holds ("active"), accumulates which pattern
/// children were satisfied as the subtree closes, and buffers tentative
/// bindings that are confirmed or discarded when their controlling ancestor
/// vertex resolves. Because all part arcs are local, a vertex at pattern
/// depth k below the head can only match at tree depth k below a head
/// match, which makes the confirmation chain unambiguous.
///
/// Cost: O(document nodes × part size); the scan order equals streaming XML
/// arrival order, so the same matcher powers the streaming evaluation
/// experiment (E3).
///
/// Returns kUnsupported if the part contains a following-sibling arc (not
/// produced by the XPath compiler) or more than 64 vertices.
///
/// When `head_candidates` is given, the scan is *localized*: instead of
/// one pass over the whole document, each candidate's subtree is scanned
/// with the head anchored at the subtree root (the paper's navigational
/// evaluation — jump to a candidate via its posting list, then verify the NoK
/// pattern by local navigation). Candidates must be pre-order ranks in
/// document order, and must include every node the head could match (the
/// name's posting list in the region index is exactly that).
/// `guard` (optional) is ticked once per scanned node; on a trip the scan
/// aborts and the guard's sticky status is returned.
///
/// `stats` (optional) receives observability counters: `nodes_visited` is
/// one per node the scan opens — a whole-document scan opens each node at
/// most once (the subtree-skip optimization can only lower it below the
/// node count, never raise it), `stack_pushes`/`stack_pops` track the scan's
/// frame stack, and `bytes_touched` the string-values materialized for
/// value predicates.
Result<NokMatchResult> MatchNokPart(
    const storage::SuccinctDocument& doc, const algebra::PatternGraph& graph,
    const xpath::NokPart& part, std::span<const algebra::VertexId> requested,
    std::optional<std::span<const uint32_t>> head_candidates = std::nullopt,
    const ResourceGuard* guard = nullptr, OpStats* stats = nullptr);

/// Convenience wrapper: matches a pattern that is a single NoK part (no
/// descendant arcs except the head's incoming arc) and returns the sole
/// output vertex's bindings. Used by σs-style scans and tests.
Result<NodeList> MatchNokPattern(const storage::SuccinctDocument& doc,
                                 const algebra::PatternGraph& graph,
                                 const ResourceGuard* guard = nullptr,
                                 OpStats* stats = nullptr);

}  // namespace xmlq::exec

#endif  // XMLQ_EXEC_NOK_MATCHER_H_
