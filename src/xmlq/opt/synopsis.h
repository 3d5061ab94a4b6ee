#ifndef XMLQ_OPT_SYNOPSIS_H_
#define XMLQ_OPT_SYNOPSIS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "xmlq/storage/value_index.h"
#include "xmlq/xml/document.h"

namespace xmlq::opt {

/// Path synopsis (structural summary): the quotient of the document tree by
/// root-to-node label paths — every distinct element path is one synopsis
/// node carrying occurrence counts. Exact for structural (predicate-free)
/// path counts; the cardinality estimator takes value-predicate counts from
/// the document's value index, which the synopsis borrows.
class Synopsis {
 public:
  Synopsis() = default;

  /// Builds the summary in one pre-order pass over `doc`. `values` (not
  /// owned, may be null) is the document's value index; it must outlive the
  /// synopsis.
  explicit Synopsis(const xml::Document& doc,
                    const storage::ValueIndex* values = nullptr);

  struct Node {
    xml::NameId name = xml::kInvalidName;
    bool is_attribute = false;
    uint32_t parent = UINT32_MAX;  // synopsis parent
    uint32_t count = 0;            // occurrences of this path
    std::vector<uint32_t> children;
    /// Document children (any kind) of this path's nodes, summed.
    uint64_t child_nodes = 0;
    /// Proper descendants (any kind) of this path's nodes, summed.
    uint64_t subtree_nodes = 0;
  };

  /// Synopsis node 0 summarizes the document node.
  const std::vector<Node>& nodes() const { return nodes_; }

  /// Total elements with NameId `name` (any path).
  size_t CountByName(xml::NameId name) const {
    return name < by_name_.size() ? by_name_[name] : 0;
  }
  size_t CountAttributesByName(xml::NameId name) const {
    return name < attr_by_name_.size() ? attr_by_name_[name] : 0;
  }

  size_t TotalElements() const { return total_elements_; }
  size_t TotalNodes() const { return total_nodes_; }
  uint32_t MaxDepth() const { return max_depth_; }

  /// The document's value index, or null when none was supplied.
  const storage::ValueIndex* values() const { return values_; }

  /// Indented rendering with counts.
  std::string ToString(const xml::NamePool& pool) const;

 private:
  std::vector<Node> nodes_;
  std::vector<size_t> by_name_;       // per NameId element counts
  std::vector<size_t> attr_by_name_;  // per NameId attribute counts
  size_t total_elements_ = 0;
  size_t total_nodes_ = 0;
  uint32_t max_depth_ = 0;
  const storage::ValueIndex* values_ = nullptr;
};

}  // namespace xmlq::opt

#endif  // XMLQ_OPT_SYNOPSIS_H_
