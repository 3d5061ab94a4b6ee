#include "xmlq/xml/document.h"

#include <cassert>

namespace xmlq::xml {

std::string_view NodeKindName(NodeKind kind) {
  switch (kind) {
    case NodeKind::kDocument:
      return "document";
    case NodeKind::kElement:
      return "element";
    case NodeKind::kAttribute:
      return "attribute";
    case NodeKind::kText:
      return "text";
    case NodeKind::kComment:
      return "comment";
    case NodeKind::kProcessingInstruction:
      return "processing-instruction";
  }
  return "unknown";
}

Document::Document() : Document(std::make_shared<NamePool>()) {}

Document::Document(std::shared_ptr<NamePool> pool) : pool_(std::move(pool)) {
  assert(pool_ != nullptr);
  NewNode(NodeKind::kDocument, kInvalidName, kNullNode);
}

Document Document::FromParts(std::shared_ptr<NamePool> pool,
                             std::span<const uint8_t> kinds,
                             std::span<const NameId> names,
                             std::span<const NodeId> parents,
                             std::span<const uint64_t> text_offsets,
                             std::string_view text_buffer) {
  const size_t n = kinds.size();
  assert(names.size() == n && parents.size() == n);
  Document out(std::move(pool));
  out.kinds_.assign(reinterpret_cast<const NodeKind*>(kinds.data()),
                    reinterpret_cast<const NodeKind*>(kinds.data()) + n);
  out.names_.assign(names.begin(), names.end());
  out.parents_.assign(parents.begin(), parents.end());
  for (std::vector<NodeId>* links :
       {&out.first_children_, &out.last_children_, &out.next_siblings_,
        &out.first_attrs_, &out.last_attrs_}) {
    links->assign(n, kNullNode);
  }
  out.text_offsets_.assign(n, 0);
  out.text_lengths_.assign(n, 0);
  out.text_buffer_.assign(text_buffer.data(), text_buffer.size());
  // Nodes are linked in id order, as the builders append them, so every
  // link comes out the same.
  size_t slice = 0;
  for (NodeId i = 1; i < n; ++i) {
    const NodeKind kind = out.kinds_[i];
    if (kind == NodeKind::kAttribute) {
      out.AppendAttr(parents[i], i);
    } else {
      out.AppendChild(parents[i], i);
    }
    if (kind == NodeKind::kElement) ++out.element_count_;
    if (IsContentKind(kind)) {
      const uint64_t end = slice + 1 < text_offsets.size()
                               ? text_offsets[slice + 1]
                               : text_buffer.size();
      out.text_offsets_[i] = static_cast<uint32_t>(text_offsets[slice]);
      out.text_lengths_[i] =
          static_cast<uint32_t>(end - text_offsets[slice]);
      ++slice;
    }
  }
  assert(slice == text_offsets.size());
  return out;
}

NodeId Document::NewNode(NodeKind kind, NameId name, NodeId parent) {
  NodeId id = static_cast<NodeId>(kinds_.size());
  kinds_.push_back(kind);
  names_.push_back(name);
  parents_.push_back(parent);
  first_children_.push_back(kNullNode);
  last_children_.push_back(kNullNode);
  next_siblings_.push_back(kNullNode);
  first_attrs_.push_back(kNullNode);
  last_attrs_.push_back(kNullNode);
  text_offsets_.push_back(0);
  text_lengths_.push_back(0);
  return id;
}

void Document::AppendChild(NodeId parent, NodeId child) {
  if (first_children_[parent] == kNullNode) {
    first_children_[parent] = child;
  } else {
    next_siblings_[last_children_[parent]] = child;
  }
  last_children_[parent] = child;
}

void Document::AppendAttr(NodeId element, NodeId attr) {
  if (first_attrs_[element] == kNullNode) {
    first_attrs_[element] = attr;
  } else {
    next_siblings_[last_attrs_[element]] = attr;
  }
  last_attrs_[element] = attr;
}

void Document::SetText(NodeId n, std::string_view text) {
  text_offsets_[n] = static_cast<uint32_t>(text_buffer_.size());
  text_lengths_[n] = static_cast<uint32_t>(text.size());
  text_buffer_.append(text);
}

NodeId Document::AddElement(NodeId parent, std::string_view name) {
  NodeId id = NewNode(NodeKind::kElement, pool_->Intern(name), parent);
  AppendChild(parent, id);
  ++element_count_;
  return id;
}

NodeId Document::AddText(NodeId parent, std::string_view text) {
  NodeId id = NewNode(NodeKind::kText, kInvalidName, parent);
  AppendChild(parent, id);
  SetText(id, text);
  return id;
}

NodeId Document::AddComment(NodeId parent, std::string_view text) {
  NodeId id = NewNode(NodeKind::kComment, kInvalidName, parent);
  AppendChild(parent, id);
  SetText(id, text);
  return id;
}

NodeId Document::AddProcessingInstruction(NodeId parent,
                                          std::string_view target,
                                          std::string_view text) {
  NodeId id = NewNode(NodeKind::kProcessingInstruction,
                      pool_->Intern(target), parent);
  AppendChild(parent, id);
  SetText(id, text);
  return id;
}

NodeId Document::AddAttribute(NodeId element, std::string_view name,
                              std::string_view value) {
  assert(IsElement(element));
  NodeId id = NewNode(NodeKind::kAttribute, pool_->Intern(name), element);
  AppendAttr(element, id);
  SetText(id, value);
  return id;
}

NodeId Document::RootElement() const {
  for (NodeId c = FirstChild(root()); c != kNullNode; c = NextSibling(c)) {
    if (IsElement(c)) return c;
  }
  return kNullNode;
}

std::string_view Document::NameStr(NodeId n) const {
  NameId id = names_[n];
  return id == kInvalidName ? std::string_view() : pool_->NameOf(id);
}

std::string_view Document::Text(NodeId n) const {
  return std::string_view(text_buffer_).substr(text_offsets_[n],
                                               text_lengths_[n]);
}

std::string_view Document::AttributeValue(NodeId element,
                                          std::string_view name,
                                          bool* found) const {
  NameId want = pool_->Find(name);
  if (want != kInvalidName) {
    for (NodeId a = FirstAttr(element); a != kNullNode; a = NextSibling(a)) {
      if (names_[a] == want) {
        if (found != nullptr) *found = true;
        return Text(a);
      }
    }
  }
  if (found != nullptr) *found = false;
  return {};
}

std::string Document::StringValue(NodeId n) const {
  switch (Kind(n)) {
    case NodeKind::kText:
    case NodeKind::kComment:
    case NodeKind::kProcessingInstruction:
    case NodeKind::kAttribute:
      return std::string(Text(n));
    case NodeKind::kDocument:
    case NodeKind::kElement:
      break;
  }
  std::string out;
  // Iterative pre-order walk of the subtree rooted at n.
  NodeId cur = FirstChild(n);
  while (cur != kNullNode) {
    if (Kind(cur) == NodeKind::kText) out.append(Text(cur));
    // Descend, else advance, else climb until a next sibling inside n.
    if (FirstChild(cur) != kNullNode) {
      cur = FirstChild(cur);
    } else {
      while (cur != kNullNode && cur != n && NextSibling(cur) == kNullNode) {
        cur = Parent(cur);
      }
      cur = (cur == kNullNode || cur == n) ? kNullNode : NextSibling(cur);
    }
  }
  return out;
}

uint32_t Document::Depth(NodeId n) const {
  uint32_t d = 0;
  for (NodeId p = Parent(n); p != kNullNode; p = Parent(p)) ++d;
  return d;
}

NodeId Document::PreorderNext(NodeId n) const {
  if (FirstChild(n) != kNullNode) return FirstChild(n);
  return PreorderSkipSubtree(n);
}

NodeId Document::PreorderSkipSubtree(NodeId n) const {
  while (n != kNullNode) {
    if (NextSibling(n) != kNullNode) return NextSibling(n);
    n = Parent(n);
  }
  return kNullNode;
}

bool Document::IsPreorder() const {
  // Pre-order with attributes visited immediately after their element.
  NodeId expected = 0;
  NodeId cur = root();
  while (cur != kNullNode) {
    if (cur != expected) return false;
    ++expected;
    for (NodeId a = FirstAttr(cur); a != kNullNode; a = NextSibling(a)) {
      if (a != expected) return false;
      ++expected;
    }
    cur = PreorderNext(cur);
  }
  return expected == kinds_.size();
}

size_t Document::MemoryUsage() const {
  size_t per_node = sizeof(NodeKind) + sizeof(NameId) + 6 * sizeof(NodeId) +
                    2 * sizeof(uint32_t);
  return kinds_.size() * per_node + text_buffer_.size();
}

}  // namespace xmlq::xml
