#include "xmlq/storage/value_index.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "xmlq/base/fault_injector.h"
#include "xmlq/base/strings.h"

namespace xmlq::storage {
namespace {

bool NumericLess(const ValueIndex::NumericEntry& a,
                 const ValueIndex::NumericEntry& b) {
  if (a.value != b.value) return a.value < b.value;
  return a.node < b.node;
}

}  // namespace

Result<ValueIndex> ValueIndex::TryBuild(const xml::Document& doc) {
  if (XMLQ_FAULT("storage.value.build")) {
    return Status::ResourceExhausted(
        "injected allocation failure building value index");
  }
  return ValueIndex(doc);
}

ValueIndex::Family ValueIndex::UnpackFamily(FamilyParts parts) {
  Family out;
  out.entries = std::move(parts.entries);
  out.offsets.assign(parts.offsets.begin(), parts.offsets.end());
  out.numeric.assign(parts.numeric.begin(), parts.numeric.end());
  out.numeric_offsets.assign(parts.numeric_offsets.begin(),
                             parts.numeric_offsets.end());
  return out;
}

ValueIndex ValueIndex::FromParts(FamilyParts elements,
                                 FamilyParts attributes) {
  ValueIndex out;
  out.elements_ = UnpackFamily(std::move(elements));
  out.attributes_ = UnpackFamily(std::move(attributes));
  return out;
}

std::vector<xml::NodeId> ValueIndex::EntryNodes(bool attribute) const {
  const Family& family = FamilyFor(attribute);
  std::vector<xml::NodeId> out;
  out.reserve(family.entries.size());
  for (const Entry& e : family.entries) out.push_back(e.node);
  return out;
}

void ValueIndex::BuildFamily(std::vector<std::pair<xml::NameId, Entry>>* raw,
                             size_t name_count, Family* family) {
  std::stable_sort(raw->begin(), raw->end(),
                   [](const auto& a, const auto& b) {
                     if (a.first != b.first) return a.first < b.first;
                     if (a.second.value != b.second.value) {
                       return a.second.value < b.second.value;
                     }
                     return a.second.node < b.second.node;
                   });
  // NaN ("nan" parses) stays out of the numeric runs: no `=` or ordered
  // comparison matches it, and it would break the runs' sort order.
  const auto numeric_value = [](std::string_view text) {
    const std::optional<double> num = ParseDouble(text);
    return num.has_value() && !std::isnan(*num) ? num : std::nullopt;
  };
  family->offsets.assign(name_count + 1, 0);
  family->numeric_offsets.assign(name_count + 1, 0);
  for (const auto& [name, entry] : *raw) {
    ++family->offsets[name + 1];
    if (numeric_value(entry.value).has_value()) {
      ++family->numeric_offsets[name + 1];
    }
  }
  for (size_t i = 1; i <= name_count; ++i) {
    family->offsets[i] += family->offsets[i - 1];
    family->numeric_offsets[i] += family->numeric_offsets[i - 1];
  }
  family->entries.reserve(raw->size());
  for (const auto& [name, entry] : *raw) {
    family->entries.push_back(entry);
    if (auto num = numeric_value(entry.value)) {
      family->numeric.push_back(NumericEntry{*num, entry.node});
    }
  }
  // Sort each per-name numeric run by value (string order != numeric order).
  for (size_t name = 0; name < name_count; ++name) {
    auto begin = family->numeric.begin() + family->numeric_offsets[name];
    auto end = family->numeric.begin() + family->numeric_offsets[name + 1];
    std::sort(begin, end, NumericLess);
  }
}

ValueIndex::ValueIndex(const xml::Document& doc) {
  std::vector<std::pair<xml::NameId, Entry>> element_raw;
  std::vector<std::pair<xml::NameId, Entry>> attribute_raw;
  const size_t n = doc.NodeCount();
  for (xml::NodeId i = 0; i < n; ++i) {
    const bool attribute = doc.Kind(i) == xml::NodeKind::kAttribute;
    if (const auto value = IndexedValue(doc, i, attribute)) {
      (attribute ? attribute_raw : element_raw)
          .push_back({doc.Name(i), Entry{*value, i}});
    }
  }
  BuildFamily(&element_raw, doc.pool().size(), &elements_);
  BuildFamily(&attribute_raw, doc.pool().size(), &attributes_);
}

std::span<const ValueIndex::Entry> ValueIndex::EqualRun(
    xml::NameId name, std::string_view value, bool attribute) const {
  const Family& family = FamilyFor(attribute);
  if (name == xml::kInvalidName || name + 1 >= family.offsets.size()) {
    return {};
  }
  struct ByValue {
    bool operator()(const Entry& e, std::string_view v) const {
      return e.value < v;
    }
    bool operator()(std::string_view v, const Entry& e) const {
      return v < e.value;
    }
  };
  const auto [lo, hi] = std::equal_range(
      family.entries.begin() + family.offsets[name],
      family.entries.begin() + family.offsets[name + 1], value, ByValue{});
  return {lo, hi};
}

std::span<const ValueIndex::NumericEntry> ValueIndex::NumericRun(
    xml::NameId name, double lo, bool lo_inclusive, double hi,
    bool hi_inclusive, bool attribute) const {
  const Family& family = FamilyFor(attribute);
  if (name == xml::kInvalidName ||
      name + 1 >= family.numeric_offsets.size() || std::isnan(lo) ||
      std::isnan(hi)) {
    return {};
  }
  const auto begin = family.numeric.begin() + family.numeric_offsets[name];
  const auto end = family.numeric.begin() + family.numeric_offsets[name + 1];
  // Runs are sorted by value: the first entry inside the lower bound, then
  // the first past the upper bound.
  const auto first =
      std::partition_point(begin, end, [&](const NumericEntry& e) {
        return lo_inclusive ? e.value < lo : e.value <= lo;
      });
  const auto last =
      std::partition_point(first, end, [&](const NumericEntry& e) {
        return hi_inclusive ? e.value <= hi : e.value < hi;
      });
  return {first, last};
}

std::vector<xml::NodeId> ValueIndex::Lookup(xml::NameId name,
                                            std::string_view value,
                                            bool attribute) const {
  std::vector<xml::NodeId> out;
  for (const Entry& e : EqualRun(name, value, attribute)) {
    out.push_back(e.node);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<xml::NodeId> ValueIndex::LookupNumericRange(
    xml::NameId name, double lo, bool lo_inclusive, double hi,
    bool hi_inclusive, bool attribute) const {
  std::vector<xml::NodeId> out;
  for (const NumericEntry& e :
       NumericRun(name, lo, lo_inclusive, hi, hi_inclusive, attribute)) {
    out.push_back(e.node);
  }
  std::sort(out.begin(), out.end());
  return out;
}

size_t ValueIndex::RunSize(xml::NameId name, bool attribute) const {
  const Family& family = FamilyFor(attribute);
  if (name == xml::kInvalidName || name + 1 >= family.offsets.size()) {
    return 0;
  }
  return family.offsets[name + 1] - family.offsets[name];
}

size_t ValueIndex::size() const {
  return elements_.entries.size() + attributes_.entries.size();
}

size_t ValueIndex::MemoryUsage() const {
  auto family_bytes = [](const Family& f) {
    return f.entries.capacity() * sizeof(Entry) +
           f.numeric.capacity() * sizeof(NumericEntry) +
           (f.offsets.capacity() + f.numeric_offsets.capacity()) *
               sizeof(uint32_t);
  };
  return family_bytes(elements_) + family_bytes(attributes_);
}

}  // namespace xmlq::storage
