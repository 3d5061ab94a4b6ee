#include "xmlq/exec/nok_matcher.h"

#include <algorithm>
#include <bit>
#include <cassert>


namespace xmlq::exec {

namespace {

using algebra::Axis;
using algebra::PatternGraph;
using algebra::PatternVertex;
using algebra::VertexId;
using storage::SuccinctDocument;
using xpath::NokPart;

constexpr uint8_t kNoLocal = 0xFF;

/// Per-part compiled matching tables. Locals index the part's vertices in
/// part.vertices order (head = local 0); activation and satisfaction are
/// tracked in 64-bit masks.
struct CompiledPart {
  std::vector<VertexId> originals;
  std::vector<uint8_t> parent_local;     // kNoLocal for the head
  std::vector<uint64_t> required_mask;   // children-in-part bits per local
  std::vector<uint8_t> has_predicates;
  std::vector<uint8_t> requested_slot;   // index into `requested`, or 0xFF
  // Activation lookup: candidate locals per node label/kind.
  std::vector<uint64_t> label_masks;     // indexed by NameId
  uint64_t wildcard_element_mask = 0;
  uint64_t wildcard_attribute_mask = 0;
  uint64_t root_mask = 0;
  uint64_t predicate_mask = 0;
  uint64_t attribute_bits = 0;  // locals that are attribute vertices
  bool never_matches = false;  // some label absent from the document
};

Result<CompiledPart> Compile(const SuccinctDocument& doc,
                             const PatternGraph& graph, const NokPart& part,
                             std::span<const VertexId> requested) {
  if (part.vertices.size() > 64) {
    return Status::Unsupported("NoK part exceeds 64 vertices");
  }
  CompiledPart out;
  out.originals = part.vertices;
  std::vector<uint8_t> local_of(graph.VertexCount(), kNoLocal);
  for (size_t i = 0; i < part.vertices.size(); ++i) {
    local_of[part.vertices[i]] = static_cast<uint8_t>(i);
  }
  const size_t k = part.vertices.size();
  out.parent_local.assign(k, kNoLocal);
  out.required_mask.assign(k, 0);
  out.has_predicates.assign(k, 0);
  out.requested_slot.assign(k, 0xFF);
  out.label_masks.assign(doc.pool().size(), 0);
  for (size_t i = 0; i < k; ++i) {
    const VertexId v = part.vertices[i];
    const PatternVertex& vertex = graph.vertex(v);
    const uint64_t bit = uint64_t{1} << i;
    if (v != part.head) {
      if (vertex.incoming_axis != Axis::kChild &&
          vertex.incoming_axis != Axis::kAttribute) {
        return Status::Unsupported(
            "NoK scan supports child/attribute arcs only");
      }
      const uint8_t p = local_of[vertex.parent];
      assert(p != kNoLocal);
      out.parent_local[i] = p;
      out.required_mask[p] |= bit;
    }
    if (!vertex.predicates.empty()) {
      out.has_predicates[i] = 1;
      out.predicate_mask |= bit;
    }
    if (vertex.is_attribute) out.attribute_bits |= bit;
    if (vertex.is_root) {
      out.root_mask |= bit;
    } else if (vertex.label == "*") {
      if (vertex.is_attribute) {
        out.wildcard_attribute_mask |= bit;
      } else {
        out.wildcard_element_mask |= bit;
      }
    } else {
      const xml::NameId id = doc.pool().Find(vertex.label);
      if (id == xml::kInvalidName) {
        out.never_matches = true;
      } else {
        out.label_masks[id] |= bit;
      }
    }
  }
  for (size_t r = 0; r < requested.size(); ++r) {
    const uint8_t local = local_of[requested[r]];
    if (local == kNoLocal) {
      return Status::InvalidArgument(
          "requested vertex is not a member of the part");
    }
    out.requested_slot[local] = static_cast<uint8_t>(r);
  }
  return out;
}

struct Entry {
  uint8_t vertex;   // local id of the bound vertex
  uint8_t control;  // local id of the pattern ancestor the current node
                    // is expected to match
  uint32_t rank;    // bound document node
};

/// One open node on the scan stack. Frames are pooled and reused across the
/// whole scan, so the steady-state hot path performs no allocations.
struct Frame {
  uint32_t rank = 0;
  uint64_t active = 0;
  uint64_t child_sat[64];  // per active local vertex (cleared lazily)
  std::vector<Entry> buffer;
};

class Scanner {
 public:
  Scanner(const SuccinctDocument& doc, const PatternGraph& graph,
          const CompiledPart& part, size_t requested_count,
          const ResourceGuard* guard, OpStats* stats)
      : doc_(doc), graph_(graph), part_(part), guard_(guard), stats_(stats) {
    result_.pairs.resize(requested_count);
    result_.bindings.resize(requested_count);
  }

  /// Whole-document scan: the head may anchor at any matching node (except
  /// a root-vertex head, which only matches the document node — enabling
  /// subtree skipping below inactive frames).
  NokMatchResult Run() {
    // A root-labeled head can never anchor below depth 0.
    const bool head_anchors_anywhere = (part_.root_mask & 1) == 0;
    ScanWindow(0, doc_.bp().size() - 1, 0, head_anchors_anywhere);
    Finish();
    return std::move(result_);
  }

  /// Localized scan: for each candidate, scan only its subtree with the
  /// head anchored at the subtree root. Nested candidates are scanned by
  /// their own (inner) windows, so each window rejects non-root heads.
  NokMatchResult RunOnCandidates(std::span<const uint32_t> candidates) {
    const storage::BalancedParens& bp = doc_.bp();
    anchor_depth_only_ = true;
    for (const uint32_t head_rank : candidates) {
      if (tripped_) break;
      const size_t begin = bp.Select1(head_rank);
      const size_t end = bp.FindClose(begin);
      ScanWindow(begin, end, head_rank, /*head_anchors_anywhere=*/false);
      assert(tripped_ || depth_ == 0);
    }
    Finish();
    return std::move(result_);
  }

 private:
  /// Scans BP positions [begin, end]. When the head cannot anchor below the
  /// current position, a frame that activates nothing is popped immediately
  /// and its whole subtree skipped via FindClose — the scan then touches
  /// only the "relevant" spine of the document.
  void ScanWindow(size_t begin, size_t end, uint32_t first_rank,
                  bool head_anchors_anywhere) {
    const storage::BalancedParens& bp = doc_.bp();
    uint32_t next_rank = first_rank;
    size_t pos = begin;
    while (pos <= end) {
      if (!bp.IsOpen(pos)) {
        Close();
        ++pos;
        continue;
      }
      // One guard step per scanned node — the NoK hot path. On a trip the
      // scan aborts with partial state; MatchNokPart surfaces the sticky
      // error before any result escapes.
      if (guard_ != nullptr && guard_->Tick(1)) {
        tripped_ = true;
        return;
      }
      Open(next_rank++);
      if (!head_anchors_anywhere && frames_[depth_ - 1].active == 0) {
        --depth_;  // nothing can match anywhere in this subtree
        ++pops_;
        if (!bp.IsOpen(pos + 1)) {  // leaf: "()"
          pos += 2;
          continue;
        }
        const size_t close = bp.FindClose(pos);
        next_rank += static_cast<uint32_t>((close - pos + 1) / 2) - 1;
        pos = close + 1;
        continue;
      }
      ++pos;
    }
  }

  void Open(uint32_t rank) {
    if (depth_ == frames_.size()) frames_.emplace_back();
    Frame& frame = frames_[depth_];
    frame.rank = rank;
    frame.buffer.clear();

    // Candidate vertices by node test (label + kind).
    uint64_t candidates = 0;
    switch (doc_.Kind(rank)) {
      case xml::NodeKind::kElement: {
        const xml::NameId label = doc_.Label(rank);
        candidates = part_.wildcard_element_mask |
                     (label < part_.label_masks.size()
                          ? part_.label_masks[label]
                          : 0);
        // Attribute vertices never match elements; labels are disjoint by
        // construction (attribute bits only live in attribute masks).
        candidates &= ~part_.attribute_bits;
        break;
      }
      case xml::NodeKind::kAttribute: {
        const xml::NameId label = doc_.Label(rank);
        candidates = part_.wildcard_attribute_mask |
                     (label < part_.label_masks.size()
                          ? part_.label_masks[label]
                          : 0);
        candidates &= part_.attribute_bits;
        break;
      }
      case xml::NodeKind::kDocument:
        candidates = part_.root_mask;
        break;
      default:
        break;
    }
    uint64_t active = 0;
    if (candidates != 0) {
      // Anchoring: the head (bit 0) matches anywhere (or, in a localized
      // window, only at the window root); other vertices need their pattern
      // parent active on the parent frame.
      uint64_t allowed =
          (!anchor_depth_only_ || depth_ == 0) ? uint64_t{1} : 0;
      if (depth_ > 0) {
        uint64_t parent_active = frames_[depth_ - 1].active;
        while (parent_active != 0) {
          const int p = std::countr_zero(parent_active);
          parent_active &= parent_active - 1;
          allowed |= part_.required_mask[p];
        }
      }
      active = candidates & allowed;
      // Lazily clear satisfaction slots for the vertices that activated.
      uint64_t m = active;
      while (m != 0) {
        const int v = std::countr_zero(m);
        m &= m - 1;
        frame.child_sat[v] = 0;
      }
    }
    frame.active = active;
    ++depth_;
    ++visited_;
    ++pushes_;
  }

  bool PredicatesHold(size_t local, uint32_t rank, bool* value_cached,
                      std::string* value) {
    if (!part_.has_predicates[local]) return true;
    if (!*value_cached) {
      *value = doc_.StringValue(rank);
      *value_cached = true;
      bytes_ += value->size();
    }
    for (const algebra::ValuePredicate& pred :
         graph_.vertex(part_.originals[local]).predicates) {
      if (!pred.Eval(*value)) return false;
    }
    return true;
  }

  void Close() {
    ++pops_;
    Frame& frame = frames_[--depth_];
    Frame* parent = depth_ > 0 ? &frames_[depth_ - 1] : nullptr;
    if (frame.active == 0 && frame.buffer.empty()) return;

    // Which active vertices are fully satisfied at this node?
    uint64_t fully = 0;
    bool value_cached = false;
    std::string value;
    for (uint64_t m = frame.active; m != 0; m &= m - 1) {
      const size_t v = static_cast<size_t>(std::countr_zero(m));
      if ((frame.child_sat[v] & part_.required_mask[v]) !=
          part_.required_mask[v]) {
        continue;
      }
      if (!PredicatesHold(v, frame.rank, &value_cached, &value)) continue;
      fully |= uint64_t{1} << v;
    }

    // Resolve buffered tentative bindings.
    for (const Entry& e : frame.buffer) {
      if (((fully >> e.control) & 1) == 0) continue;  // embedding failed
      if (e.control == 0) {
        Emit(e.vertex, frame.rank, e.rank);
      } else if (parent != nullptr) {
        parent->buffer.push_back(
            Entry{e.vertex, part_.parent_local[e.control], e.rank});
      }
    }

    // Propagate full satisfaction upward and record new bindings.
    for (uint64_t m = fully; m != 0; m &= m - 1) {
      const size_t v = static_cast<size_t>(std::countr_zero(m));
      if (v == 0) {
        result_.head_matches.push_back(frame.rank);
        if (part_.requested_slot[0] != 0xFF) {
          Emit(0, frame.rank, frame.rank);
        }
        continue;
      }
      if (parent != nullptr) {
        const uint8_t p = part_.parent_local[v];
        if ((parent->active >> p) & 1) {
          parent->child_sat[p] |= uint64_t{1} << v;
        }
        if (part_.requested_slot[v] != 0xFF) {
          parent->buffer.push_back(
              Entry{static_cast<uint8_t>(v), p, frame.rank});
        }
      }
    }
  }

  void Emit(uint8_t vertex, uint32_t head_rank, uint32_t rank) {
    const uint8_t slot = part_.requested_slot[vertex];
    assert(slot != 0xFF);
    result_.pairs[slot].push_back(JoinPair{head_rank, rank});
    result_.bindings[slot].push_back(rank);
  }

  void Finish() {
    std::sort(result_.head_matches.begin(), result_.head_matches.end());
    result_.head_matches.erase(std::unique(result_.head_matches.begin(),
                                           result_.head_matches.end()),
                               result_.head_matches.end());
    for (auto& pairs : result_.pairs) {
      std::sort(pairs.begin(), pairs.end(),
                [](const JoinPair& a, const JoinPair& b) {
                  if (a.ancestor != b.ancestor) return a.ancestor < b.ancestor;
                  return a.descendant < b.descendant;
                });
      pairs.erase(std::unique(pairs.begin(), pairs.end(),
                              [](const JoinPair& a, const JoinPair& b) {
                                return a.ancestor == b.ancestor &&
                                       a.descendant == b.descendant;
                              }),
                  pairs.end());
    }
    for (NodeList& list : result_.bindings) Normalize(&list);
    if (stats_ != nullptr) {
      stats_->nodes_visited += visited_;
      stats_->stack_pushes += pushes_;
      stats_->stack_pops += pops_;
      stats_->bytes_touched += bytes_;
    }
  }

  const SuccinctDocument& doc_;
  const PatternGraph& graph_;
  const CompiledPart& part_;
  const ResourceGuard* guard_ = nullptr;
  OpStats* stats_ = nullptr;
  uint64_t visited_ = 0;
  uint64_t pushes_ = 0;
  uint64_t pops_ = 0;
  uint64_t bytes_ = 0;
  std::vector<Frame> frames_;
  size_t depth_ = 0;
  bool anchor_depth_only_ = false;
  bool tripped_ = false;
  NokMatchResult result_;
};

/// The degenerate single-vertex localized path: the candidates *are* the
/// matches (the tag stream is exact); only value predicates need checking.
Status MatchSingleVertexCandidates(const SuccinctDocument& doc,
                                   const PatternVertex& head,
                                   std::span<const uint32_t> candidates,
                                   size_t requested_count,
                                   const ResourceGuard* guard, OpStats* stats,
                                   NokMatchResult* out) {
  out->pairs.resize(requested_count);
  out->bindings.resize(requested_count);
  for (const uint32_t rank : candidates) {
    XMLQ_GUARD_TICK(guard, 1);
    if (stats != nullptr) ++stats->nodes_visited;
    if (!head.predicates.empty()) {
      const std::string value = doc.StringValue(rank);
      if (stats != nullptr) stats->bytes_touched += value.size();
      bool ok = true;
      for (const algebra::ValuePredicate& pred : head.predicates) {
        if (!pred.Eval(value)) {
          ok = false;
          break;
        }
      }
      if (!ok) continue;
    }
    out->head_matches.push_back(rank);
    for (size_t r = 0; r < requested_count; ++r) {
      out->pairs[r].push_back(JoinPair{rank, rank});
      out->bindings[r].push_back(rank);
    }
  }
  return Status::Ok();
}

}  // namespace

Result<NokMatchResult> MatchNokPart(
    const SuccinctDocument& doc, const PatternGraph& graph,
    const NokPart& part, std::span<const VertexId> requested,
    std::optional<std::span<const uint32_t>> head_candidates,
    const ResourceGuard* guard, OpStats* stats) {
  XMLQ_ASSIGN_OR_RETURN(CompiledPart compiled,
                        Compile(doc, graph, part, requested));
  if (compiled.never_matches) {
    NokMatchResult empty;
    empty.pairs.resize(requested.size());
    empty.bindings.resize(requested.size());
    return empty;
  }
  Scanner scanner(doc, graph, compiled, requested.size(), guard, stats);
  if (head_candidates.has_value()) {
    if (part.vertices.size() == 1) {
      NokMatchResult out;
      XMLQ_RETURN_IF_ERROR(MatchSingleVertexCandidates(
          doc, graph.vertex(part.head), *head_candidates, requested.size(),
          guard, stats, &out));
      return out;
    }
    NokMatchResult result = scanner.RunOnCandidates(*head_candidates);
    XMLQ_GUARD_TICK(guard, 0);  // surface a mid-scan trip
    return result;
  }
  NokMatchResult result = scanner.Run();
  XMLQ_GUARD_TICK(guard, 0);  // surface a mid-scan trip
  return result;
}

Result<NodeList> MatchNokPattern(const SuccinctDocument& doc,
                                 const PatternGraph& graph,
                                 const ResourceGuard* guard, OpStats* stats) {
  const VertexId output = graph.SoleOutput();
  if (output == algebra::kNoVertex) {
    return Status::InvalidArgument("pattern must have a sole output vertex");
  }
  const xpath::NokPartition partition = xpath::PartitionNok(graph);
  if (partition.parts.size() != 1) {
    return Status::InvalidArgument(
        "MatchNokPattern requires a pattern that is a single NoK part");
  }
  const VertexId requested[] = {output};
  XMLQ_ASSIGN_OR_RETURN(NokMatchResult result,
                        MatchNokPart(doc, graph, partition.parts[0], requested,
                                     std::nullopt, guard, stats));
  return std::move(result.bindings[0]);
}

}  // namespace xmlq::exec
