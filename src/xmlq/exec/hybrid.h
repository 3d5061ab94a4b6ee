#ifndef XMLQ_EXEC_HYBRID_H_
#define XMLQ_EXEC_HYBRID_H_

#include "xmlq/algebra/pattern_graph.h"
#include "xmlq/base/limits.h"
#include "xmlq/base/status.h"
#include "xmlq/exec/node_stream.h"

namespace xmlq::exec {

/// The paper's hybrid evaluation strategy (§4.2): partition the pattern
/// graph into next-of-kin fragments, match every fragment with the
/// single-scan NoK matcher over the succinct store, then stitch the
/// fragments together with stack-tree structural joins on the cut
/// descendant arcs — "just as in the join-based approach", but with far
/// fewer joins (one per `//` seam instead of one per query edge).
///
/// Validity flows both ways across a seam: a fragment head must have a
/// matching attach ancestor (top-down), and an attach binding must have at
/// least one valid fragment-head descendant per attached fragment
/// (bottom-up, because cut arcs are existence constraints on the parent
/// side too).
///
/// Rare patterns where two non-head seam/output vertices of the same
/// fragment are nested (requiring correlated bindings the per-fragment pair
/// lists cannot express) fall back to TwigStack transparently.
///
/// `stats` (optional) aggregates the observability counters of every
/// constituent: the NoK scans' `nodes_visited`/`stack_*`/`bytes_touched`,
/// the seam joins' merge counters, and `index_probes` for the candidate
/// seeds and region lookups.
Result<NodeList> HybridMatch(const IndexedDocument& doc,
                             const algebra::PatternGraph& pattern,
                             const ResourceGuard* guard = nullptr,
                             OpStats* stats = nullptr);

}  // namespace xmlq::exec

#endif  // XMLQ_EXEC_HYBRID_H_
