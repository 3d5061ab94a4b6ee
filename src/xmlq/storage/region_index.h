#ifndef XMLQ_STORAGE_REGION_INDEX_H_
#define XMLQ_STORAGE_REGION_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "xmlq/base/status.h"
#include "xmlq/xml/document.h"

namespace xmlq::storage {

/// One node under interval (region) encoding: `start` is the pre-order
/// number (== NodeId), `end` is the largest pre-order number in the subtree,
/// `level` the depth. Containment test:
///   u ancestor-of v   <=>  u.start < v.start && v.start <= u.end
///   u parent-of v     <=>  ancestor && u.level + 1 == v.level
/// A computed value (RegionIndex::RegionOf); the index stores no Regions.
struct Region {
  uint32_t start = 0;
  uint32_t end = 0;
  uint32_t level = 0;

  bool Contains(const Region& v) const {
    return start < v.start && v.start <= end;
  }
  bool IsParentOf(const Region& v) const {
    return Contains(v) && level + 1 == v.level;
  }
};

/// The extended-relational representation of an XML document (paper §1,
/// baseline [1]): per-node subtree-end and depth arrays, so any node's
/// region is two array reads, plus one posting list per element or
/// attribute name — the NodeIds carrying that name in document order, which
/// structural joins [12] and holistic twig joins [13] turn into region
/// streams.
///
/// The index is always built from a DOM tree, also when a snapshot is
/// opened: one linear pass gives it, so snapshots do not store it.
class RegionIndex {
 public:
  RegionIndex() = default;

  /// Builds from a pre-order DOM tree.
  explicit RegionIndex(const xml::Document& doc);

  /// Build with a fault-injection hook ("storage.region.build") so tests
  /// can force the build-failure path; identical to the constructor
  /// otherwise.
  static Result<RegionIndex> TryBuild(const xml::Document& doc);

  /// The elements (or attributes) named `name` in document order; empty for
  /// unknown names.
  std::span<const xml::NodeId> Postings(xml::NameId name,
                                        bool attribute) const;

  /// The region of the document node (start 0, spanning everything).
  Region DocumentRegion() const { return RegionOf(0); }

  /// Largest NodeId in the subtree of `id` (any node kind).
  uint32_t EndOf(xml::NodeId id) const { return end_[id]; }
  /// Depth of `id` (document node = 0).
  uint32_t LevelOf(xml::NodeId id) const { return level_[id]; }
  /// The region of an arbitrary node (an attribute's is [id, id]).
  Region RegionOf(xml::NodeId id) const {
    return Region{id, end_[id], level_[id]};
  }

  /// Bytes of the arrays.
  size_t MemoryUsage() const;
  /// Heap bytes owned (the index is always built, so this equals
  /// MemoryUsage; present for the uniform per-component accounting API).
  size_t HeapBytes() const { return MemoryUsage(); }

  /// The raw arrays (benchmarks and tests).
  std::span<const uint32_t> EndSpan() const { return end_; }
  std::span<const uint32_t> LevelSpan() const { return level_; }
  std::span<const xml::NodeId> PostingSpan(bool attribute) const {
    return FamilyFor(attribute).ids;
  }

 private:
  /// The posting lists of one node kind, grouped per name.
  struct Family {
    std::vector<xml::NodeId> ids;  // per name, document order
    std::vector<uint32_t> offsets;  // indexed by NameId, size+1 fence
  };
  const Family& FamilyFor(bool attribute) const {
    return attribute ? attributes_ : elements_;
  }

  std::vector<uint32_t> end_;    // per NodeId
  std::vector<uint32_t> level_;  // per NodeId
  Family elements_;
  Family attributes_;
};

}  // namespace xmlq::storage

#endif  // XMLQ_STORAGE_REGION_INDEX_H_
