#ifndef XMLQ_STORAGE_VALUE_INDEX_H_
#define XMLQ_STORAGE_VALUE_INDEX_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "xmlq/base/status.h"
#include "xmlq/xml/document.h"

namespace xmlq::storage {

/// Content-based index over the separated content store (paper §4.2: "
/// content-based indexes (such as B+ trees ...) can be created only on the
/// content information"). Two keyed families are indexed:
///
///   * data elements — elements whose children are a single text node; key
///     is (element name, text), payload is the element's NodeId;
///   * attributes — key is (attribute name, value), payload is the
///     *attribute node's* NodeId (callers take Parent() for the owner).
///
/// Each family is a per-name sorted run over (value, node), supporting exact
/// lookups and, for values that parse as numbers other than NaN, numeric
/// range scans (a NaN bound selects nothing).
///
/// The index is always materialized in heap memory (entries are string_views
/// into the document's text buffer). Snapshot files store each run as the
/// NodeIds of its entries in (value, node) order: the values are the nodes'
/// own text, so the load path reads them from the restored DOM and never
/// re-sorts.
class ValueIndex {
 public:
  struct Entry {
    std::string_view value;
    xml::NodeId node;
  };
  /// Explicit `pad` keeps the struct free of uninitialized padding bytes so
  /// runs can be serialized with memcpy deterministically.
  struct NumericEntry {
    double value;
    xml::NodeId node;
    uint32_t pad = 0;
  };
  static_assert(sizeof(NumericEntry) == 16, "serialized layout");
  /// One family as the snapshot open path restores it: the entries with
  /// their values resolved against the restored DOM, and borrowed views of
  /// the fence and numeric sections.
  struct FamilyParts {
    std::vector<Entry> entries;         // per name, (value, node) order
    std::span<const uint32_t> offsets;  // per NameId, size+1 fence
    std::span<const NumericEntry> numeric;
    std::span<const uint32_t> numeric_offsets;
  };

  ValueIndex() = default;

  /// Builds from a DOM tree; the index holds string_views into `doc`'s text
  /// buffer, so `doc` must outlive the index.
  explicit ValueIndex(const xml::Document& doc);

  /// Build with a fault-injection hook ("storage.value.build") so tests can
  /// force the build-failure path; identical to the constructor otherwise.
  static Result<ValueIndex> TryBuild(const xml::Document& doc);

  /// The indexed value of `node` when it belongs to the attribute family
  /// (with `attribute`: its value) or the element family (a data element,
  /// whose only child is a text node: that text); nullopt otherwise.
  static std::optional<std::string_view> IndexedValue(
      const xml::Document& doc, xml::NodeId node, bool attribute) {
    if (attribute) {
      if (doc.Kind(node) != xml::NodeKind::kAttribute) return std::nullopt;
      return doc.Text(node);
    }
    if (doc.Kind(node) != xml::NodeKind::kElement) return std::nullopt;
    const xml::NodeId child = doc.FirstChild(node);
    if (child == xml::kNullNode || doc.Kind(child) != xml::NodeKind::kText ||
        doc.NextSibling(child) != xml::kNullNode) {
      return std::nullopt;
    }
    return doc.Text(child);
  }

  /// Materializes from validated snapshot parts (see snapshot_reader); the
  /// DOM the entry values point into must outlive the index.
  static ValueIndex FromParts(FamilyParts elements, FamilyParts attributes);

  /// Nodes whose indexed value equals `value`, in document order.
  std::vector<xml::NodeId> Lookup(xml::NameId name, std::string_view value,
                                  bool attribute) const;

  /// Nodes whose indexed value parses as a double in [lo, hi] (inclusive
  /// bounds chosen by flags), in document order.
  std::vector<xml::NodeId> LookupNumericRange(xml::NameId name, double lo,
                                              bool lo_inclusive, double hi,
                                              bool hi_inclusive,
                                              bool attribute) const;

  /// How many nodes Lookup(name, value, attribute) would return, found by
  /// binary search over the sorted run without building the node list.
  size_t CountEqual(xml::NameId name, std::string_view value,
                    bool attribute) const {
    return EqualRun(name, value, attribute).size();
  }

  /// How many nodes LookupNumericRange(...) would return, by binary search.
  size_t CountNumericRange(xml::NameId name, double lo, bool lo_inclusive,
                           double hi, bool hi_inclusive,
                           bool attribute) const {
    return NumericRun(name, lo, lo_inclusive, hi, hi_inclusive, attribute)
        .size();
  }

  /// Number of indexed entries for `name` in one family. For elements,
  /// equal to the name's element count exactly when every element of that
  /// name is a data element (the check that lets a value predicate on an
  /// element vertex be answered from the index).
  size_t RunSize(xml::NameId name, bool attribute) const;

  /// Number of indexed entries (both families).
  size_t size() const;

  size_t MemoryUsage() const;
  /// Heap bytes owned (the index is always materialized, so this equals
  /// MemoryUsage; present for the uniform per-component accounting API).
  size_t HeapBytes() const { return MemoryUsage(); }

  // -- Snapshot serialization hooks ----------------------------------------

  /// The NodeIds of one family's entries, in run order.
  std::vector<xml::NodeId> EntryNodes(bool attribute) const;
  std::span<const uint32_t> OffsetSpan(bool attribute) const {
    return FamilyFor(attribute).offsets;
  }
  std::span<const NumericEntry> NumericSpan(bool attribute) const {
    return FamilyFor(attribute).numeric;
  }
  std::span<const uint32_t> NumericOffsetSpan(bool attribute) const {
    return FamilyFor(attribute).numeric_offsets;
  }

 private:
  struct Family {
    // Entries grouped by NameId, each group sorted by (value, node).
    std::vector<Entry> entries;
    std::vector<uint32_t> offsets;  // per NameId, size+1 fence
    std::vector<NumericEntry> numeric;
    std::vector<uint32_t> numeric_offsets;
  };

  /// The entries of `name`'s run equal to `value` / inside the bounds.
  std::span<const Entry> EqualRun(xml::NameId name, std::string_view value,
                                  bool attribute) const;
  std::span<const NumericEntry> NumericRun(xml::NameId name, double lo,
                                           bool lo_inclusive, double hi,
                                           bool hi_inclusive,
                                           bool attribute) const;

  static void BuildFamily(std::vector<std::pair<xml::NameId, Entry>>* raw,
                          size_t name_count, Family* family);
  static Family UnpackFamily(FamilyParts parts);

  const Family& FamilyFor(bool attribute) const {
    return attribute ? attributes_ : elements_;
  }

  Family elements_;
  Family attributes_;
};

}  // namespace xmlq::storage

#endif  // XMLQ_STORAGE_VALUE_INDEX_H_
