#ifndef XMLQ_XML_DOCUMENT_H_
#define XMLQ_XML_DOCUMENT_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "xmlq/xml/name_pool.h"

namespace xmlq::xml {

/// Index of a node inside its Document's arena. The document node itself is
/// always node 0.
using NodeId = uint32_t;

/// Sentinel for "no node" (end of sibling chains, missing parents, ...).
inline constexpr NodeId kNullNode = UINT32_MAX;

/// Node kinds of the XQuery data model subset the paper uses: documents are
/// labeled, ordered, rooted trees (sort `Tree` in the algebra).
enum class NodeKind : uint8_t {
  kDocument = 0,
  kElement,
  kAttribute,
  kText,
  kComment,
  kProcessingInstruction,
};

std::string_view NodeKindName(NodeKind kind);

/// True for the kinds that own a text slice (text, attribute, comment, PI):
/// the nodes Document::Text and the succinct content store cover.
inline bool IsContentKind(NodeKind kind) {
  return kind == NodeKind::kText || kind == NodeKind::kAttribute ||
         kind == NodeKind::kComment ||
         kind == NodeKind::kProcessingInstruction;
}

/// In-memory XML tree stored as a struct-of-arrays arena.
///
/// This is the `Tree` sort of the logical algebra and the substrate every
/// physical representation (succinct store, region index) is built from.
/// Nodes are identified by dense `NodeId`s in *document order* of creation;
/// builders that construct trees top-down therefore produce pre-order ids,
/// which the storage layer relies on (and `IsPreorder()` verifies).
///
/// Attributes hang off a separate per-element chain (`FirstAttr` /
/// `NextSibling`), matching the XPath data model where attributes are not
/// children.
class Document {
 public:
  /// Creates an empty document owning a fresh NamePool.
  Document();
  /// Creates an empty document sharing `pool` (so queries compiled against
  /// one pool work across a corpus of documents).
  explicit Document(std::shared_ptr<NamePool> pool);

  Document(const Document&) = delete;
  Document& operator=(const Document&) = delete;
  Document(Document&&) = default;
  Document& operator=(Document&&) = default;

  /// Rebuilds a document from its primary arrays (snapshot open path): the
  /// kind, name and parent of every node, plus one text slice per
  /// content-bearing node in id order — `text_offsets[k]` starts the k-th
  /// slice of `text_buffer`, which ends where the next one starts. The
  /// child, sibling and attribute links are filled in here. Callers
  /// validate beforehand (snapshot_reader) that parents precede their
  /// children, attributes precede their owner's other children, and the
  /// offsets are monotone within the buffer.
  static Document FromParts(std::shared_ptr<NamePool> pool,
                            std::span<const uint8_t> kinds,
                            std::span<const NameId> names,
                            std::span<const NodeId> parents,
                            std::span<const uint64_t> text_offsets,
                            std::string_view text_buffer);

  // -- Construction ---------------------------------------------------------

  /// Appends a new element named `name` as the last child of `parent`.
  NodeId AddElement(NodeId parent, std::string_view name);
  /// Appends a new text node with content `text` as the last child of
  /// `parent`. Adjacent text children are not merged.
  NodeId AddText(NodeId parent, std::string_view text);
  /// Appends a comment node.
  NodeId AddComment(NodeId parent, std::string_view text);
  /// Appends a processing instruction with target `target` and body `text`.
  NodeId AddProcessingInstruction(NodeId parent, std::string_view target,
                                  std::string_view text);
  /// Adds attribute `name`=`value` to element `element`. Does not check for
  /// duplicates (the parser rejects them before calling this).
  NodeId AddAttribute(NodeId element, std::string_view name,
                      std::string_view value);

  // -- Structure accessors --------------------------------------------------

  NodeId root() const { return 0; }
  /// First element child of the document node (the root element), or
  /// kNullNode for an empty document.
  NodeId RootElement() const;

  size_t NodeCount() const { return kinds_.size(); }

  NodeKind Kind(NodeId n) const { return kinds_[n]; }
  bool IsElement(NodeId n) const { return kinds_[n] == NodeKind::kElement; }

  /// Name id of an element/attribute/PI node; kInvalidName otherwise.
  NameId Name(NodeId n) const { return names_[n]; }
  /// Name string; empty for unnamed kinds.
  std::string_view NameStr(NodeId n) const;

  NodeId Parent(NodeId n) const { return parents_[n]; }
  NodeId FirstChild(NodeId n) const { return first_children_[n]; }
  NodeId NextSibling(NodeId n) const { return next_siblings_[n]; }
  /// Head of the attribute chain of an element (kNullNode if none). Walk
  /// with NextSibling.
  NodeId FirstAttr(NodeId n) const { return first_attrs_[n]; }

  /// Text content of a text/comment/PI/attribute node (not the XPath
  /// string-value; see StringValue).
  std::string_view Text(NodeId n) const;

  /// Value of attribute `name` on `element`, or empty view + found=false.
  std::string_view AttributeValue(NodeId element, std::string_view name,
                                  bool* found = nullptr) const;

  /// XPath string-value: concatenation of all descendant text nodes (for
  /// attributes/text/comments, their own content).
  std::string StringValue(NodeId n) const;

  /// Depth of `n` (document node = 0).
  uint32_t Depth(NodeId n) const;

  /// Next node in pre-order (document order), skipping attribute chains;
  /// kNullNode after the last node.
  NodeId PreorderNext(NodeId n) const;
  /// Pre-order successor that does not descend into `n`'s subtree.
  NodeId PreorderSkipSubtree(NodeId n) const;

  /// True iff node ids coincide with pre-order ranks (attributes counted
  /// right after their owner element, before its children). Holds for all
  /// documents built by the parser and the generators.
  bool IsPreorder() const;

  /// Number of element nodes.
  size_t ElementCount() const { return element_count_; }

  const NamePool& pool() const { return *pool_; }
  NamePool& mutable_pool() { return *pool_; }
  std::shared_ptr<NamePool> shared_pool() const { return pool_; }

  /// Approximate heap footprint in bytes (arena arrays + text buffer);
  /// used by the storage-size experiment (E2).
  size_t MemoryUsage() const;

  // -- Snapshot serialization hooks ----------------------------------------

  /// Raw kind and name arrays, of length NodeCount(). They double as the
  /// succinct document's streams (ranks == NodeIds), so snapshots store them
  /// once.
  std::span<const NodeKind> KindSpan() const { return kinds_; }
  std::span<const NameId> NameSpan() const { return names_; }
  /// Every node's text, concatenated in id order; byte-identical to the
  /// succinct content buffer, which is the copy snapshots store.
  std::string_view TextBufferView() const { return text_buffer_; }

 private:
  NodeId NewNode(NodeKind kind, NameId name, NodeId parent);
  void AppendChild(NodeId parent, NodeId child);
  void AppendAttr(NodeId element, NodeId attr);
  void SetText(NodeId n, std::string_view text);

  std::shared_ptr<NamePool> pool_;

  // Struct-of-arrays node storage; all indexed by NodeId.
  std::vector<NodeKind> kinds_;
  std::vector<NameId> names_;
  std::vector<NodeId> parents_;
  std::vector<NodeId> first_children_;
  std::vector<NodeId> last_children_;   // building-time tail pointers
  std::vector<NodeId> next_siblings_;
  std::vector<NodeId> first_attrs_;
  std::vector<NodeId> last_attrs_;
  std::vector<uint32_t> text_offsets_;  // into text_buffer_
  std::vector<uint32_t> text_lengths_;

  std::string text_buffer_;
  size_t element_count_ = 0;
};

}  // namespace xmlq::xml

#endif  // XMLQ_XML_DOCUMENT_H_
