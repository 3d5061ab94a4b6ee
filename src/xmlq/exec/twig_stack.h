#ifndef XMLQ_EXEC_TWIG_STACK_H_
#define XMLQ_EXEC_TWIG_STACK_H_

#include "xmlq/algebra/pattern_graph.h"
#include "xmlq/base/limits.h"
#include "xmlq/base/status.h"
#include "xmlq/exec/node_stream.h"

namespace xmlq::exec {

/// Holistic twig join (TwigStack, Bruno et al. [13]) over the region-encoded
/// tag streams. Phase 1 runs the classic getNext-driven chained-stack merge,
/// recording the structurally-verified (parent binding, child binding) pair
/// set per query edge; phase 2 performs the merge equivalent — a bottom-up
/// validity pass and a top-down reachability pass over the edge pair sets —
/// and returns the sole output vertex's bindings in document order.
///
/// Value predicates on vertices are applied while building the streams (the
/// standard "predicate pushdown into the scan" for join-based plans).
///
/// `stats` (optional) receives observability counters: `nodes_visited` is
/// the total cursor movement over the tag streams (each streamed element is
/// consumed exactly once, so for a successful run it equals the sum of the
/// stream sizes), `stack_pushes`/`stack_pops` track the chained stacks, and
/// `index_probes` the stream elements fetched from the region index.
Result<NodeList> TwigStackMatch(const IndexedDocument& doc,
                                const algebra::PatternGraph& pattern,
                                const ResourceGuard* guard = nullptr,
                                OpStats* stats = nullptr);

}  // namespace xmlq::exec

#endif  // XMLQ_EXEC_TWIG_STACK_H_
