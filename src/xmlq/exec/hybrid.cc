#include "xmlq/exec/hybrid.h"

#include <algorithm>
#include <map>
#include <unordered_set>

#include "xmlq/base/fault_injector.h"
#include "xmlq/exec/nok_matcher.h"
#include "xmlq/exec/structural_join.h"
#include "xmlq/exec/twig_stack.h"
#include "xmlq/xpath/nok_partition.h"

namespace xmlq::exec {

namespace {

using algebra::PatternGraph;
using algebra::VertexId;
using xpath::NokPartition;

bool IsPatternAncestor(const PatternGraph& graph, VertexId anc, VertexId v) {
  for (VertexId p = graph.vertex(v).parent; p != algebra::kNoVertex;
       p = graph.vertex(p).parent) {
    if (p == anc) return true;
  }
  return false;
}

/// True when two non-head seam/output vertices of one part are nested, which
/// the per-part (head, vertex) pair lists cannot correlate exactly.
bool NeedsFallback(const PatternGraph& graph, const NokPartition& partition,
                   VertexId output) {
  std::vector<std::vector<VertexId>> special(partition.parts.size());
  for (size_t q = 0; q < partition.parts.size(); ++q) {
    const xpath::NokPart& part = partition.parts[q];
    if (part.parent_part >= 0) {
      special[part.parent_part].push_back(part.attach_vertex);
    }
  }
  special[partition.part_of[output]].push_back(output);
  for (size_t p = 0; p < special.size(); ++p) {
    const VertexId head = partition.parts[p].head;
    std::vector<VertexId>& s = special[p];
    std::sort(s.begin(), s.end());
    s.erase(std::unique(s.begin(), s.end()), s.end());
    for (VertexId a : s) {
      if (a == head) continue;
      for (VertexId b : s) {
        if (b == head || a == b) continue;
        if (IsPatternAncestor(graph, a, b)) return true;
      }
    }
  }
  return false;
}

}  // namespace

Result<NodeList> HybridMatch(const IndexedDocument& doc,
                             const PatternGraph& pattern,
                             const ResourceGuard* guard, OpStats* stats) {
  if (XMLQ_FAULT("exec.nok.match")) {
    return Status::Internal("injected fault: exec.nok.match");
  }
  XMLQ_RETURN_IF_ERROR(pattern.Validate());
  const VertexId output = pattern.SoleOutput();
  if (output == algebra::kNoVertex) {
    return Status::InvalidArgument(
        "hybrid matcher requires a sole output vertex");
  }
  const NokPartition partition = xpath::PartitionNok(pattern);
  if (NeedsFallback(pattern, partition, output)) {
    return TwigStackMatch(doc, pattern, guard, stats);
  }

  const size_t num_parts = partition.parts.size();
  const int output_part = partition.part_of[output];

  // Requested vertices per part: seam attach points + the output vertex.
  std::vector<std::vector<VertexId>> requested(num_parts);
  // Per part: attach vertex -> list of child parts hanging there.
  std::vector<std::map<VertexId, std::vector<int>>> attach_children(
      num_parts);
  for (size_t q = 1; q < num_parts; ++q) {
    const xpath::NokPart& part = partition.parts[q];
    requested[part.parent_part].push_back(part.attach_vertex);
    attach_children[part.parent_part][part.attach_vertex].push_back(
        static_cast<int>(q));
  }
  requested[output_part].push_back(output);
  for (auto& r : requested) {
    std::sort(r.begin(), r.end());
    r.erase(std::unique(r.begin(), r.end()), r.end());
  }

  // Match every part. Labeled heads use the localized navigational scan
  // seeded from the head's posting list (the paper's "jump then navigate");
  // wildcard or root heads fall back to the single whole-document pass.
  std::vector<NokMatchResult> matched(num_parts);
  for (size_t p = 0; p < num_parts; ++p) {
    const algebra::PatternVertex& head =
        pattern.vertex(partition.parts[p].head);
    if (head.is_root && partition.parts[p].vertices.size() == 1) {
      // Trivial part: just the pattern root, matched by the document node.
      NokMatchResult trivial;
      trivial.head_matches = {0};
      trivial.pairs.resize(requested[p].size(), {JoinPair{0, 0}});
      trivial.bindings.resize(requested[p].size(), {0});
      matched[p] = std::move(trivial);
      continue;
    }
    std::optional<std::span<const uint32_t>> candidates;
    if (!head.is_root && head.label != "*") {
      candidates = doc.regions->Postings(doc.dom->pool().Find(head.label),
                                         head.is_attribute);
      if (stats != nullptr) stats->index_probes += candidates->size();
    }
    auto result = MatchNokPart(*doc.succinct, pattern, partition.parts[p],
                               requested[p], candidates, guard, stats);
    if (!result.ok()) {
      if (result.status().code() == StatusCode::kUnsupported) {
        // e.g. following-sibling arcs
        return TwigStackMatch(doc, pattern, guard, stats);
      }
      return result.status();
    }
    matched[p] = std::move(*result);
  }

  auto slot_of = [&](size_t p, VertexId v) -> int {
    const auto& r = requested[p];
    const auto it = std::lower_bound(r.begin(), r.end(), v);
    return (it != r.end() && *it == v)
               ? static_cast<int>(it - r.begin())
               : -1;
  };

  // Bottom-up validity: children parts before parents (part indices are
  // topologically ordered by construction).
  std::vector<NodeList> valid_heads(num_parts);
  // Per part, per requested slot: the attach bindings that survive the
  // bottom-up pass (only filled for attach vertices).
  std::vector<std::vector<NodeList>> valid_attach(num_parts);
  for (size_t pi = num_parts; pi-- > 0;) {
    const size_t p = pi;
    valid_attach[p].resize(requested[p].size());
    NodeList heads = matched[p].head_matches;
    for (const auto& [w, child_parts] : attach_children[p]) {
      const int slot = slot_of(p, w);
      NodeList w_bindings = matched[p].bindings[slot];
      for (int q : child_parts) {
        // Keep attach bindings that have a valid child-part head below.
        w_bindings = StructuralSemiJoinAnc(
            ToRegions(*doc.regions, w_bindings, stats),
            ToRegions(*doc.regions, valid_heads[q], stats),
            /*parent_child=*/false, guard, stats);
        XMLQ_GUARD_TICK(guard, 0);  // semi-joins stop early on a trip
        if (w_bindings.empty()) break;
      }
      valid_attach[p][slot] = w_bindings;
      // Keep heads that own at least one surviving attach binding.
      std::unordered_set<uint32_t> ok_w(w_bindings.begin(), w_bindings.end());
      std::unordered_set<uint32_t> ok_heads;
      XMLQ_GUARD_TICK(guard, matched[p].pairs[slot].size());
      for (const JoinPair& pair : matched[p].pairs[slot]) {
        if (ok_w.count(pair.descendant) > 0) ok_heads.insert(pair.ancestor);
      }
      NodeList filtered;
      for (xml::NodeId h : heads) {
        if (ok_heads.count(h) > 0) filtered.push_back(h);
      }
      heads = std::move(filtered);
      if (heads.empty()) break;
    }
    valid_heads[p] = std::move(heads);
  }

  // Top-down reachability from the root part.
  std::vector<NodeList> reach_heads(num_parts);
  reach_heads[0] = valid_heads[0];
  for (size_t q = 1; q < num_parts; ++q) {
    const xpath::NokPart& part = partition.parts[q];
    const size_t p = static_cast<size_t>(part.parent_part);
    const int slot = slot_of(p, part.attach_vertex);
    // Attach bindings owned by a reachable head of the parent part.
    std::unordered_set<uint32_t> reach_p(reach_heads[p].begin(),
                                         reach_heads[p].end());
    NodeList reach_w;
    std::unordered_set<uint32_t> valid_w(valid_attach[p][slot].begin(),
                                         valid_attach[p][slot].end());
    XMLQ_GUARD_TICK(guard, matched[p].pairs[slot].size());
    for (const JoinPair& pair : matched[p].pairs[slot]) {
      if (reach_p.count(pair.ancestor) > 0 &&
          valid_w.count(pair.descendant) > 0) {
        reach_w.push_back(pair.descendant);
      }
    }
    Normalize(&reach_w);
    reach_heads[q] = StructuralSemiJoinDesc(
        ToRegions(*doc.regions, reach_w, stats),
        ToRegions(*doc.regions, valid_heads[q], stats),
        /*parent_child=*/false, guard, stats);
    XMLQ_GUARD_TICK(guard, 0);  // semi-joins stop early on a trip
  }

  // Extract the output bindings.
  const size_t po = static_cast<size_t>(output_part);
  if (output == partition.parts[po].head) {
    return reach_heads[po];
  }
  const int slot = slot_of(po, output);
  std::unordered_set<uint32_t> reach_po(reach_heads[po].begin(),
                                        reach_heads[po].end());
  const bool output_is_attach =
      attach_children[po].count(output) > 0;
  std::unordered_set<uint32_t> allowed;
  if (output_is_attach) {
    allowed.insert(valid_attach[po][slot].begin(),
                   valid_attach[po][slot].end());
  }
  NodeList result;
  for (const JoinPair& pair : matched[po].pairs[slot]) {
    if (reach_po.count(pair.ancestor) == 0) continue;
    if (output_is_attach && allowed.count(pair.descendant) == 0) continue;
    result.push_back(pair.descendant);
  }
  Normalize(&result);
  return result;
}

}  // namespace xmlq::exec
