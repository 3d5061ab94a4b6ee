#ifndef XMLQ_STORAGE_SUCCINCT_DOC_H_
#define XMLQ_STORAGE_SUCCINCT_DOC_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "xmlq/base/array_ref.h"
#include "xmlq/base/status.h"
#include "xmlq/storage/bp.h"
#include "xmlq/storage/content_store.h"
#include "xmlq/xml/document.h"

namespace xmlq::storage {

/// The succinct physical storage scheme of paper §4.2: the tree structure is
/// a pre-order balanced-parentheses sequence (2 bits/node) with per-node kind
/// and label streams, while element contents live in a separate ContentStore.
///
/// Node identity: the *pre-order rank* of a node, which by construction
/// equals its NodeId in the source `Document` (attributes ranked immediately
/// after their owner element). All query results over the succinct engine are
/// therefore directly comparable to DOM-based engines.
class SuccinctDocument {
 public:
  /// Builds from a DOM tree. `doc.IsPreorder()` must hold (true for all
  /// parser-/generator-built documents).
  static SuccinctDocument Build(const xml::Document& doc);

  /// Build with a fault-injection hook ("storage.succinct.build") so tests
  /// can force the build-failure path; identical to Build otherwise.
  static Result<SuccinctDocument> TryBuild(const xml::Document& doc);

  /// Assembles a document from restored/mapped parts — the snapshot open
  /// path. `kinds`/`labels` may point into a mapped section (they are
  /// byte-identical to the DOM kind/name arrays, so snapshots store them
  /// once); ownership of the backing memory stays with the caller. The
  /// has-content bitmap is derived from `kinds`, as Build derives it.
  static SuccinctDocument FromParts(BalancedParens bp,
                                    std::span<const uint8_t> kinds,
                                    std::span<const xml::NameId> labels,
                                    ContentStore content,
                                    std::shared_ptr<xml::NamePool> pool);

  // -- Identity / streams ---------------------------------------------------

  /// Number of tree nodes (document node + elements + attributes + text +
  /// comments + PIs).
  size_t NodeCount() const { return kinds_.size(); }

  xml::NodeKind Kind(uint32_t rank) const {
    return static_cast<xml::NodeKind>(kinds_[rank]);
  }
  bool IsElement(uint32_t rank) const {
    return Kind(rank) == xml::NodeKind::kElement;
  }
  /// NameId of an element/attribute/PI; kInvalidName otherwise.
  xml::NameId Label(uint32_t rank) const { return labels_[rank]; }
  std::string_view LabelStr(uint32_t rank) const;

  /// Own text of a text/comment/PI/attribute node; empty for others.
  std::string_view Text(uint32_t rank) const;

  /// XPath string-value: concatenated text of the subtree. O(subtree size).
  std::string StringValue(uint32_t rank) const;

  // -- Navigation (pre-order ranks) ----------------------------------------

  static constexpr uint32_t kNoNode = UINT32_MAX;

  /// BP open-paren position of the node with pre-order rank `rank`.
  size_t PosOf(uint32_t rank) const { return bp_.Select1(rank); }
  /// Pre-order rank of the node whose open paren sits at `pos`.
  uint32_t RankOf(size_t pos) const {
    return static_cast<uint32_t>(bp_.Rank1(pos));
  }

  /// First child in document order, *skipping attribute nodes*.
  uint32_t FirstChild(uint32_t rank) const;
  /// First attribute (attributes precede element children in rank order).
  uint32_t FirstAttr(uint32_t rank) const;
  /// Next sibling (for attributes: next attribute of the same element, then
  /// kNoNode at the end of the attribute run).
  uint32_t NextSibling(uint32_t rank) const;
  uint32_t Parent(uint32_t rank) const;

  /// Number of nodes in the subtree of `rank` (including itself; attributes
  /// count as subtree members).
  uint32_t SubtreeSize(uint32_t rank) const {
    return static_cast<uint32_t>(bp_.SubtreeSize(PosOf(rank)));
  }
  /// Depth (document node = 0).
  uint32_t Depth(uint32_t rank) const {
    return static_cast<uint32_t>(bp_.DepthAt(PosOf(rank)));
  }
  /// True iff `anc` is a proper ancestor of `desc`. O(1) amortized: subtree
  /// ranks are contiguous, so this is an interval test.
  bool IsAncestor(uint32_t anc, uint32_t desc) const {
    return anc < desc && desc < anc + SubtreeSize(anc);
  }

  const BalancedParens& bp() const { return bp_; }
  const ContentStore& content() const { return content_; }
  const xml::NamePool& pool() const { return *pool_; }
  std::shared_ptr<xml::NamePool> shared_pool() const { return pool_; }

  /// Content id of a content-bearing node (text/attr/comment/PI), i.e. its
  /// rank among content-bearing nodes. Requires `HasContent(rank)`.
  ContentId ContentIdOf(uint32_t rank) const {
    return static_cast<ContentId>(has_content_.Rank1(rank));
  }
  bool HasContent(uint32_t rank) const { return has_content_.Get(rank); }

  /// Bytes of structure (BP + directories + kind/label streams) — the
  /// "schema information" half of the paper's separation.
  size_t StructureBytes() const;
  /// Bytes of content (text store + content-rank directory).
  size_t ContentBytes() const;
  size_t MemoryUsage() const { return StructureBytes() + ContentBytes(); }
  /// Heap bytes actually owned (for snapshot opens: the directories and
  /// the has-content bitmap, which the open path builds; see snapshot_reader).
  size_t HeapBytes() const;

  /// The content-bearing-node bitmap (snapshot tests compare it).
  const BitVector& has_content() const { return has_content_; }

 private:
  SuccinctDocument() = default;

  /// One bit per node, set for the content-bearing kinds; frozen.
  static BitVector ContentBits(std::span<const uint8_t> kinds);

  BalancedParens bp_;
  ArrayRef<uint8_t> kinds_;       // NodeKind per pre-order rank
  ArrayRef<xml::NameId> labels_;  // NameId per pre-order rank
  BitVector has_content_;         // 1 iff node owns a content string
  ContentStore content_;
  std::shared_ptr<xml::NamePool> pool_;
};

}  // namespace xmlq::storage

#endif  // XMLQ_STORAGE_SUCCINCT_DOC_H_
