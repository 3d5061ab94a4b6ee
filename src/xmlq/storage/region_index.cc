#include "xmlq/storage/region_index.h"

#include <cassert>
#include <utility>

#include "xmlq/base/fault_injector.h"

namespace xmlq::storage {

Result<RegionIndex> RegionIndex::TryBuild(const xml::Document& doc) {
  if (XMLQ_FAULT("storage.region.build")) {
    return Status::ResourceExhausted(
        "injected allocation failure building region index");
  }
  return RegionIndex(doc);
}

RegionIndex RegionIndex::FromExternal(
    std::span<const uint32_t> end, std::span<const uint32_t> level,
    std::span<const xml::NodeId> element_postings,
    std::span<const uint32_t> element_offsets,
    std::span<const xml::NodeId> attribute_postings,
    std::span<const uint32_t> attribute_offsets) {
  RegionIndex out;
  out.end_ = ArrayRef<uint32_t>::View(end);
  out.level_ = ArrayRef<uint32_t>::View(level);
  out.elements_.ids = ArrayRef<xml::NodeId>::View(element_postings);
  out.elements_.offsets = ArrayRef<uint32_t>::View(element_offsets);
  out.attributes_.ids = ArrayRef<xml::NodeId>::View(attribute_postings);
  out.attributes_.offsets = ArrayRef<uint32_t>::View(attribute_offsets);
  return out;
}

namespace {

/// Groups the named nodes of `kind` by name: a counting sort by NameId,
/// which keeps document order inside each posting list.
void BuildPostings(const xml::Document& doc, xml::NodeKind kind,
                   std::vector<xml::NodeId>* ids,
                   std::vector<uint32_t>* offsets) {
  const size_t n = doc.NodeCount();
  const auto listed = [&](xml::NodeId i) {
    return doc.Kind(i) == kind && doc.Name(i) != xml::kInvalidName;
  };
  offsets->assign(doc.pool().size() + 1, 0);
  for (xml::NodeId i = 0; i < n; ++i) {
    if (listed(i)) ++(*offsets)[doc.Name(i) + 1];
  }
  for (size_t i = 1; i < offsets->size(); ++i) {
    (*offsets)[i] += (*offsets)[i - 1];
  }
  ids->resize(offsets->back());
  std::vector<uint32_t> cursor(offsets->begin(), offsets->end() - 1);
  for (xml::NodeId i = 0; i < n; ++i) {
    if (listed(i)) (*ids)[cursor[doc.Name(i)]++] = i;
  }
}

}  // namespace

RegionIndex::RegionIndex(const xml::Document& doc) {
  assert(doc.IsPreorder());
  const size_t n = doc.NodeCount();
  // end[] = largest NodeId in the subtree. With pre-order ids, a node's
  // subtree is the id range [id, end]; computed in one reverse pass using
  // parent pointers (a node's end propagates to all its ancestors).
  std::vector<uint32_t> end(n);
  for (size_t i = 0; i < n; ++i) end[i] = static_cast<uint32_t>(i);
  for (size_t i = n; i-- > 1;) {
    const xml::NodeId parent = doc.Parent(static_cast<xml::NodeId>(i));
    if (parent != xml::kNullNode && end[i] > end[parent]) {
      end[parent] = end[i];
    }
  }
  std::vector<uint32_t> level(n, 0);
  for (xml::NodeId i = 1; i < n; ++i) {
    level[i] = level[doc.Parent(i)] + 1;
  }
  end_.Assign(std::move(end));
  level_.Assign(std::move(level));
  for (const bool attribute : {false, true}) {
    std::vector<xml::NodeId> ids;
    std::vector<uint32_t> offsets;
    BuildPostings(doc,
                  attribute ? xml::NodeKind::kAttribute
                            : xml::NodeKind::kElement,
                  &ids, &offsets);
    Family& family = attribute ? attributes_ : elements_;
    family.ids.Assign(std::move(ids));
    family.offsets.Assign(std::move(offsets));
  }
}

std::span<const xml::NodeId> RegionIndex::Postings(xml::NameId name,
                                                   bool attribute) const {
  const Family& family = FamilyFor(attribute);
  if (name == xml::kInvalidName || name + 1 >= family.offsets.size()) {
    return {};
  }
  return family.ids.span().subspan(
      family.offsets[name], family.offsets[name + 1] - family.offsets[name]);
}

size_t RegionIndex::MemoryUsage() const {
  return (end_.size() + level_.size() + elements_.ids.size() +
          elements_.offsets.size() + attributes_.ids.size() +
          attributes_.offsets.size()) *
         sizeof(uint32_t);
}

size_t RegionIndex::HeapBytes() const {
  return end_.OwnedBytes() + level_.OwnedBytes() +
         elements_.ids.OwnedBytes() + elements_.offsets.OwnedBytes() +
         attributes_.ids.OwnedBytes() + attributes_.offsets.OwnedBytes();
}

}  // namespace xmlq::storage
