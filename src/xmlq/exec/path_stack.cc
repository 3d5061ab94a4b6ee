#include "xmlq/exec/path_stack.h"

#include <limits>

#include "xmlq/base/fault_injector.h"
#include "xmlq/exec/structural_join.h"

namespace xmlq::exec {

namespace {

using algebra::Axis;
using algebra::PatternGraph;
using algebra::PatternVertex;
using algebra::VertexId;
using storage::Region;

constexpr uint32_t kInfinity = std::numeric_limits<uint32_t>::max();

/// Validates the pattern, requires a sole output, a chain shape, and
/// join-able axes; returns the output vertex.
Result<VertexId> ValidatePathPattern(const PatternGraph& pattern) {
  XMLQ_RETURN_IF_ERROR(pattern.Validate());
  const VertexId output = pattern.SoleOutput();
  if (output == algebra::kNoVertex) {
    return Status::InvalidArgument("PathStack requires a sole output vertex");
  }
  for (VertexId v = 0; v < pattern.VertexCount(); ++v) {
    if (pattern.vertex(v).children.size() > 1) {
      return Status::InvalidArgument(
          "PathStack requires a linear (chain) pattern");
    }
    if (v != pattern.root() &&
        (pattern.vertex(v).incoming_axis == Axis::kFollowingSibling ||
         pattern.vertex(v).incoming_axis == Axis::kSelf)) {
      return Status::Unsupported(
          "PathStack supports child/descendant/attribute arcs only");
    }
  }
  return output;
}

}  // namespace

Result<NodeList> PathStackMatch(const IndexedDocument& doc,
                                const PatternGraph& pattern,
                                const ResourceGuard* guard, OpStats* stats) {
  if (XMLQ_FAULT("exec.pathstack.match")) {
    return Status::Internal("injected fault: exec.pathstack.match");
  }
  XMLQ_ASSIGN_OR_RETURN(const VertexId output, ValidatePathPattern(pattern));
  XMLQ_ASSIGN_OR_RETURN(const std::vector<std::vector<Region>> streams,
                        BuildPatternStreams(doc, pattern, guard, stats));
  const size_t k = pattern.VertexCount();
  std::vector<size_t> cursors(k, 0);
  std::vector<std::vector<Region>> stacks(k);
  std::vector<std::vector<JoinPair>> pairs(k);

  auto cur_start = [&](VertexId v) {
    return cursors[v] < streams[v].size() ? streams[v][cursors[v]].start
                                          : kInfinity;
  };

  uint64_t visited = 0;
  uint64_t pushes = 0;
  uint64_t pops = 0;
  while (true) {
    // One step per merge iteration (k is a small constant per iteration).
    XMLQ_GUARD_TICK(guard, 1);
    // Pick the globally smallest start across all step streams.
    VertexId q = 0;
    uint32_t best = kInfinity;
    for (VertexId v = 0; v < k; ++v) {
      const uint32_t s = cur_start(v);
      if (s < best) {
        best = s;
        q = v;
      }
    }
    if (best == kInfinity) break;
    const Region cur = streams[q][cursors[q]];
    // Clean every stack: entries closed before `cur` can never pair again
    // because all remaining stream elements start at or after `cur.start`.
    for (VertexId v = 0; v < k; ++v) {
      while (!stacks[v].empty() && stacks[v].back().end < cur.start) {
        stacks[v].pop_back();
        ++pops;
      }
    }
    const bool anchored =
        q == pattern.root() || !stacks[pattern.vertex(q).parent].empty();
    if (anchored) {
      if (q != pattern.root()) {
        const VertexId parent = pattern.vertex(q).parent;
        const bool parent_child =
            pattern.vertex(q).incoming_axis == Axis::kChild ||
            pattern.vertex(q).incoming_axis == Axis::kAttribute;
        XMLQ_GUARD_TICK(guard, stacks[parent].size());
        for (const Region& anc : stacks[parent]) {
          if (anc.start >= cur.start) continue;  // proper ancestors only
          if (parent_child && anc.level + 1 != cur.level) continue;
          pairs[q].push_back(JoinPair{anc.start, cur.start});
        }
      }
      if (!pattern.vertex(q).children.empty()) {
        stacks[q].push_back(cur);
        ++pushes;
      }
    }
    ++cursors[q];
    ++visited;
  }

  // Counted drain: pops == pushes for every run.
  for (VertexId v = 0; v < k; ++v) pops += stacks[v].size();

  if (stats != nullptr) {
    stats->nodes_visited += visited;
    stats->stack_pushes += pushes;
    stats->stack_pops += pops;
  }
  return FilterEdgePairs(pattern, output, pairs,
                         doc.regions->DocumentRegion().start);
}

}  // namespace xmlq::exec
