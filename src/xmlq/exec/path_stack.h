#ifndef XMLQ_EXEC_PATH_STACK_H_
#define XMLQ_EXEC_PATH_STACK_H_

#include "xmlq/algebra/pattern_graph.h"
#include "xmlq/base/limits.h"
#include "xmlq/base/status.h"
#include "xmlq/exec/node_stream.h"

namespace xmlq::exec {

/// PathStack (Bruno et al. [13]) for *linear* patterns: a chained-stack
/// merge over the per-step region streams, processing all streams in global
/// document order. Unlike TwigStack there is no getNext skipping — every
/// stream element whose parent stack is non-empty is pushed — which makes
/// PathStack the natural structural-join-order-free baseline for pure path
/// queries. Returns the sole output vertex bindings in document order.
///
/// The pattern must be a chain (every vertex has at most one child);
/// patterns with branches yield kInvalidArgument.
///
/// `stats` (optional) receives observability counters: every stream element
/// is consumed exactly once (`nodes_visited` = Σ stream sizes on a full
/// run), `stack_pushes`/`stack_pops` track the chained stacks, and
/// `index_probes` the stream elements fetched from the region index.
Result<NodeList> PathStackMatch(const IndexedDocument& doc,
                                const algebra::PatternGraph& pattern,
                                const ResourceGuard* guard = nullptr,
                                OpStats* stats = nullptr);

}  // namespace xmlq::exec

#endif  // XMLQ_EXEC_PATH_STACK_H_
