#include "xmlq/storage/succinct_doc.h"

#include <cassert>
#include <utility>

#include "xmlq/base/fault_injector.h"

namespace xmlq::storage {

Result<SuccinctDocument> SuccinctDocument::TryBuild(const xml::Document& doc) {
  if (XMLQ_FAULT("storage.succinct.build")) {
    return Status::ResourceExhausted(
        "injected allocation failure building succinct document");
  }
  return Build(doc);
}

BitVector SuccinctDocument::ContentBits(std::span<const uint8_t> kinds) {
  BitVector bits;
  for (const uint8_t kind : kinds) {
    bits.PushBack(xml::IsContentKind(static_cast<xml::NodeKind>(kind)));
  }
  bits.Freeze();
  return bits;
}

SuccinctDocument SuccinctDocument::FromParts(
    BalancedParens bp, std::span<const uint8_t> kinds,
    std::span<const xml::NameId> labels, ContentStore content,
    std::shared_ptr<xml::NamePool> pool) {
  assert(kinds.size() == labels.size());
  assert(bp.NodeCount() == kinds.size());
  SuccinctDocument out;
  out.bp_ = std::move(bp);
  out.kinds_ = ArrayRef<uint8_t>::View(kinds);
  out.labels_ = ArrayRef<xml::NameId>::View(labels);
  out.has_content_ = ContentBits(kinds);
  out.content_ = std::move(content);
  out.pool_ = std::move(pool);
  return out;
}

SuccinctDocument SuccinctDocument::Build(const xml::Document& doc) {
  assert(doc.IsPreorder() &&
         "SuccinctDocument requires pre-order node ids (parser/generator "
         "built documents satisfy this)");
  SuccinctDocument out;
  out.pool_ = doc.shared_pool();
  const size_t n = doc.NodeCount();
  out.kinds_.Reserve(n);
  out.labels_.Reserve(n);

  // Iterative pre-order emit: (node, is_close) work stack. Attributes are
  // visited before element children so ranks equal NodeIds.
  std::vector<std::pair<xml::NodeId, bool>> work;
  work.emplace_back(doc.root(), false);
  std::vector<xml::NodeId> reverse_buf;
  while (!work.empty()) {
    auto [node, closing] = work.back();
    work.pop_back();
    if (closing) {
      out.bp_.PushBack(false);
      continue;
    }
    out.bp_.PushBack(true);
    const xml::NodeKind kind = doc.Kind(node);
    out.kinds_.PushBack(static_cast<uint8_t>(kind));
    out.labels_.PushBack(doc.Name(node));
    if (xml::IsContentKind(kind)) out.content_.Add(doc.Text(node));

    work.emplace_back(node, true);
    // Children pushed in reverse so they pop in document order; attributes
    // pushed last so they pop first.
    reverse_buf.clear();
    for (xml::NodeId c = doc.FirstChild(node); c != xml::kNullNode;
         c = doc.NextSibling(c)) {
      reverse_buf.push_back(c);
    }
    for (size_t i = reverse_buf.size(); i-- > 0;) {
      work.emplace_back(reverse_buf[i], false);
    }
    reverse_buf.clear();
    for (xml::NodeId a = doc.FirstAttr(node); a != xml::kNullNode;
         a = doc.NextSibling(a)) {
      reverse_buf.push_back(a);
    }
    for (size_t i = reverse_buf.size(); i-- > 0;) {
      work.emplace_back(reverse_buf[i], false);
    }
  }
  out.bp_.Freeze();
  out.has_content_ = ContentBits(out.kinds_.span());
  assert(out.kinds_.size() == n);
  return out;
}

std::string_view SuccinctDocument::LabelStr(uint32_t rank) const {
  const xml::NameId id = labels_[rank];
  return id == xml::kInvalidName ? std::string_view() : pool_->NameOf(id);
}

std::string_view SuccinctDocument::Text(uint32_t rank) const {
  if (!HasContent(rank)) return {};
  return content_.Get(ContentIdOf(rank));
}

std::string SuccinctDocument::StringValue(uint32_t rank) const {
  if (Kind(rank) != xml::NodeKind::kElement &&
      Kind(rank) != xml::NodeKind::kDocument) {
    return std::string(Text(rank));
  }
  std::string out;
  const uint32_t end = rank + SubtreeSize(rank);
  for (uint32_t r = rank + 1; r < end; ++r) {
    if (Kind(r) == xml::NodeKind::kText) {
      out.append(content_.Get(ContentIdOf(r)));
    }
  }
  return out;
}

uint32_t SuccinctDocument::FirstChild(uint32_t rank) const {
  size_t pos = PosOf(rank) + 1;
  uint32_t child = rank + 1;
  // Skip the attribute run (attributes are single-node "()" leaves).
  while (pos < bp_.size() && bp_.IsOpen(pos) &&
         Kind(child) == xml::NodeKind::kAttribute) {
    pos += 2;
    ++child;
  }
  if (pos >= bp_.size() || !bp_.IsOpen(pos)) return kNoNode;
  return child;
}

uint32_t SuccinctDocument::FirstAttr(uint32_t rank) const {
  const size_t pos = PosOf(rank) + 1;
  if (pos >= bp_.size() || !bp_.IsOpen(pos)) return kNoNode;
  const uint32_t child = rank + 1;
  return Kind(child) == xml::NodeKind::kAttribute ? child : kNoNode;
}

uint32_t SuccinctDocument::NextSibling(uint32_t rank) const {
  if (Kind(rank) == xml::NodeKind::kAttribute) {
    const uint32_t next = rank + 1;
    if (next < kinds_.size() && Kind(next) == xml::NodeKind::kAttribute) {
      return next;
    }
    return kNoNode;
  }
  const size_t pos = PosOf(rank);
  const size_t close = bp_.FindClose(pos);
  const size_t next = close + 1;
  if (next >= bp_.size() || !bp_.IsOpen(next)) return kNoNode;
  return rank + static_cast<uint32_t>((close - pos + 1) / 2);
}

uint32_t SuccinctDocument::Parent(uint32_t rank) const {
  if (rank == 0) return kNoNode;
  const size_t pos = bp_.Enclose(PosOf(rank));
  if (pos == kNoPos) return kNoNode;
  return RankOf(pos);
}

size_t SuccinctDocument::StructureBytes() const {
  return bp_.MemoryUsage() + kinds_.size() * sizeof(uint8_t) +
         labels_.size() * sizeof(xml::NameId) + has_content_.MemoryUsage();
}

size_t SuccinctDocument::ContentBytes() const { return content_.MemoryUsage(); }

size_t SuccinctDocument::HeapBytes() const {
  return bp_.HeapBytes() + kinds_.OwnedBytes() + labels_.OwnedBytes() +
         has_content_.HeapBytes() + content_.HeapBytes();
}

}  // namespace xmlq::storage
