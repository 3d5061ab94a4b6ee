#include "xmlq/exec/twig_stack.h"

#include <algorithm>
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

struct StackEntry {
  Region region;
  // Number of entries on the parent vertex's stack at push time: the first
  // `parent_count` parent entries are this entry's stacked ancestors.
  size_t parent_count = 0;
};

/// Phase-1/2 core over the built per-vertex streams.
class TwigStackRunner {
 public:
  TwigStackRunner(const IndexedDocument& doc, const PatternGraph& pattern,
                  const std::vector<std::vector<Region>>& streams,
                  const ResourceGuard* guard, OpStats* stats)
      : doc_(doc),
        pattern_(pattern),
        streams_(streams),
        guard_(guard),
        stats_(stats) {}

  Result<NodeList> Run(VertexId output) {
    const size_t k = pattern_.VertexCount();
    cursors_.assign(k, 0);
    stacks_.resize(k);
    pairs_.resize(k);

    // Phase 1: chained-stack merge.
    while (true) {
      const VertexId q = GetNext(pattern_.root());
      if (CurStart(q) == kInfinity) break;
      const Region cur = streams_[q][cursors_[q]];
      // Clean stacks that have moved past `cur`.
      CleanStack(q, cur.start);
      if (q != pattern_.root()) CleanStack(pattern_.vertex(q).parent, cur.start);
      const VertexId parent = pattern_.vertex(q).parent;
      size_t recorded = 0;
      if (q == pattern_.root() || !stacks_[parent].empty()) {
        recorded = Push(q, cur);
      }
      // One step per merge iteration plus one per edge pair recorded (the
      // output-sensitive part of the join's cost).
      XMLQ_GUARD_TICK(guard_, 1 + recorded);
      ++cursors_[q];
      ++visited_;
    }

    // Counted drain of the chained stacks, so pops == pushes for every run.
    for (size_t v = 0; v < k; ++v) pops_ += stacks_[v].size();

    if (stats_ != nullptr) {
      stats_->nodes_visited += visited_;
      stats_->stack_pushes += pushes_;
      stats_->stack_pops += pops_;
    }
    // Phase 2: merge-equivalent filtering over the edge pair sets.
    return Filter(output);
  }

 private:
  uint32_t CurStart(VertexId v) const {
    return cursors_[v] < streams_[v].size()
               ? streams_[v][cursors_[v]].start
               : kInfinity;
  }
  uint32_t CurEnd(VertexId v) const {
    return cursors_[v] < streams_[v].size() ? streams_[v][cursors_[v]].end
                                            : kInfinity;
  }

  /// Classic TwigStack getNext: returns a vertex whose current stream head
  /// is guaranteed to have a full descendant extension (treating all edges
  /// as ancestor-descendant). Exhausted streams act as +infinity.
  VertexId GetNext(VertexId q) {
    const PatternVertex& vertex = pattern_.vertex(q);
    if (vertex.children.empty()) return q;
    uint32_t min_start = kInfinity;
    uint32_t max_start = 0;
    VertexId min_child = algebra::kNoVertex;
    for (VertexId c : vertex.children) {
      const VertexId n = GetNext(c);
      const bool branch_done = CurStart(n) == kInfinity;
      if (n != c && !branch_done) return n;
      if (branch_done) {
        // A required leaf under `c` is exhausted: no *new* q match can
        // complete, so q may drain (max := +inf); stacked entries keep
        // pairing with the still-live sibling branches below.
        max_start = kInfinity;
        continue;
      }
      const uint32_t s = CurStart(c);
      if (s < min_start) {
        min_start = s;
        min_child = c;
      }
      if (s > max_start) max_start = s;
    }
    while (CurEnd(q) < max_start) {
      ++cursors_[q];
      ++visited_;
    }
    if (min_child == algebra::kNoVertex) {
      // Every branch below q is done; q's remaining elements are useless.
      visited_ += streams_[q].size() - cursors_[q];
      cursors_[q] = streams_[q].size();
      return q;
    }
    if (CurStart(q) < min_start) return q;
    return min_child;
  }

  void CleanStack(VertexId v, uint32_t start) {
    while (!stacks_[v].empty() && stacks_[v].back().region.end < start) {
      stacks_[v].pop_back();
      ++pops_;
    }
  }

  size_t Push(VertexId q, const Region& cur) {
    size_t recorded = 0;
    size_t parent_count = 0;
    if (q != pattern_.root()) {
      const VertexId parent = pattern_.vertex(q).parent;
      parent_count = stacks_[parent].size();
      // Record the structurally-verified pairs for the incoming edge.
      const bool parent_child =
          pattern_.vertex(q).incoming_axis == Axis::kChild ||
          pattern_.vertex(q).incoming_axis == Axis::kAttribute;
      for (size_t i = 0; i < parent_count; ++i) {
        const Region& anc = stacks_[parent][i].region;
        if (anc.start >= cur.start) continue;  // proper ancestors only
        if (parent_child && anc.level + 1 != cur.level) continue;
        pairs_[q].push_back(JoinPair{anc.start, cur.start});
        ++recorded;
      }
    }
    // Leaves never need to stay on the stack (nothing hangs below them).
    if (!pattern_.vertex(q).children.empty()) {
      stacks_[q].push_back(StackEntry{cur, parent_count});
      ++pushes_;
    }
    return recorded;
  }

  Result<NodeList> Filter(VertexId output) {
    return FilterEdgePairs(pattern_, output, pairs_,
                           doc_.regions->DocumentRegion().start);
  }

  const IndexedDocument& doc_;
  const PatternGraph& pattern_;
  const std::vector<std::vector<Region>>& streams_;
  const ResourceGuard* guard_ = nullptr;
  OpStats* stats_ = nullptr;
  uint64_t visited_ = 0;
  uint64_t pushes_ = 0;
  uint64_t pops_ = 0;
  std::vector<size_t> cursors_;
  std::vector<std::vector<StackEntry>> stacks_;
  std::vector<std::vector<JoinPair>> pairs_;  // indexed by target vertex
};

/// Validates the pattern, requires a sole output vertex and join-able axes,
/// and returns the output vertex.
Result<VertexId> ValidateTwigPattern(const PatternGraph& pattern) {
  XMLQ_RETURN_IF_ERROR(pattern.Validate());
  const VertexId output = pattern.SoleOutput();
  if (output == algebra::kNoVertex) {
    return Status::InvalidArgument("TwigStack requires a sole output vertex");
  }
  for (VertexId v = 0; v < pattern.VertexCount(); ++v) {
    if (v != pattern.root() &&
        (pattern.vertex(v).incoming_axis == Axis::kFollowingSibling ||
         pattern.vertex(v).incoming_axis == Axis::kSelf)) {
      return Status::Unsupported(
          "TwigStack supports child/descendant/attribute arcs only");
    }
  }
  return output;
}

}  // namespace

Result<NodeList> TwigStackMatch(const IndexedDocument& doc,
                                const PatternGraph& pattern,
                                const ResourceGuard* guard, OpStats* stats) {
  if (XMLQ_FAULT("exec.twigstack.match")) {
    return Status::Internal("injected fault: exec.twigstack.match");
  }
  XMLQ_ASSIGN_OR_RETURN(const VertexId output, ValidateTwigPattern(pattern));
  XMLQ_ASSIGN_OR_RETURN(const std::vector<std::vector<Region>> streams,
                        BuildPatternStreams(doc, pattern, guard, stats));
  TwigStackRunner runner(doc, pattern, streams, guard, stats);
  return runner.Run(output);
}

}  // namespace xmlq::exec
