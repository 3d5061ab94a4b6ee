#include "xmlq/storage/region_index.h"

#include <algorithm>
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

RegionIndex::RegionIndex(const xml::Document& doc) {
  assert(doc.IsPreorder());
  const size_t n = doc.NodeCount();
  // end[] = largest NodeId in the subtree. With pre-order ids, a node's
  // subtree is the id range [id, end]; computed in one reverse pass using
  // parent pointers (a node's end propagates to all its ancestors).
  end_.resize(n);
  for (size_t i = 0; i < n; ++i) end_[i] = static_cast<uint32_t>(i);
  for (size_t i = n; i-- > 1;) {
    const xml::NodeId parent = doc.Parent(static_cast<xml::NodeId>(i));
    if (parent != xml::kNullNode) {
      end_[parent] = std::max(end_[parent], end_[i]);
    }
  }
  level_.assign(n, 0);
  for (xml::NodeId i = 1; i < n; ++i) {
    level_[i] = level_[doc.Parent(i)] + 1;
  }

  // Postings: a counting sort of the named elements (family 0) and
  // attributes (family 1) by NameId, which keeps document order inside each
  // list.
  Family* const families[2] = {&elements_, &attributes_};
  const auto family_of = [&](xml::NodeId i) {
    if (doc.Name(i) == xml::kInvalidName) return -1;
    if (doc.Kind(i) == xml::NodeKind::kElement) return 0;
    return doc.Kind(i) == xml::NodeKind::kAttribute ? 1 : -1;
  };
  for (Family* family : families) {
    family->offsets.assign(doc.pool().size() + 1, 0);
  }
  for (xml::NodeId i = 0; i < n; ++i) {
    const int f = family_of(i);
    if (f >= 0) ++families[f]->offsets[doc.Name(i) + 1];
  }
  std::vector<uint32_t> cursors[2];
  for (int f = 0; f < 2; ++f) {
    std::vector<uint32_t>& offsets = families[f]->offsets;
    for (size_t k = 1; k < offsets.size(); ++k) offsets[k] += offsets[k - 1];
    families[f]->ids.resize(offsets.back());
    cursors[f].assign(offsets.begin(), offsets.end() - 1);
  }
  for (xml::NodeId i = 0; i < n; ++i) {
    const int f = family_of(i);
    if (f >= 0) families[f]->ids[cursors[f][doc.Name(i)]++] = i;
  }
}

std::span<const xml::NodeId> RegionIndex::Postings(xml::NameId name,
                                                   bool attribute) const {
  const Family& family = FamilyFor(attribute);
  if (name == xml::kInvalidName || name + 1 >= family.offsets.size()) {
    return {};
  }
  return std::span<const xml::NodeId>(family.ids).subspan(
      family.offsets[name], family.offsets[name + 1] - family.offsets[name]);
}

size_t RegionIndex::MemoryUsage() const {
  return (end_.size() + level_.size() + elements_.ids.size() +
          elements_.offsets.size() + attributes_.ids.size() +
          attributes_.offsets.size()) *
         sizeof(uint32_t);
}

}  // namespace xmlq::storage
