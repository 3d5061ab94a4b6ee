#include "xmlq/opt/synopsis.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace xmlq::opt {

Synopsis::Synopsis(const xml::Document& doc,
                   const storage::ValueIndex* values)
    : values_(values) {
  nodes_.push_back(Node{});  // document node summary
  nodes_[0].count = 1;
  // Per document node: its synopsis node (document order pass).
  std::vector<uint32_t> syn_of(doc.NodeCount(), 0);
  const size_t n = doc.NodeCount();
  total_nodes_ = n;
  // Per (label, is_attribute): the synopsis node it last mapped to.
  std::vector<uint32_t> last_of(2 * doc.pool().size(), UINT32_MAX);
  for (xml::NodeId id = 1; id < n; ++id) {
    const uint32_t parent_syn = syn_of[doc.Parent(id)];
    ++nodes_[parent_syn].child_nodes;
    const xml::NodeKind kind = doc.Kind(id);
    if (kind != xml::NodeKind::kElement &&
        kind != xml::NodeKind::kAttribute) {
      continue;
    }
    const bool attr = kind == xml::NodeKind::kAttribute;
    const xml::NameId name = doc.Name(id);
    // A path has few distinct child labels: scanning them beats a keyed
    // lookup over every path. The last node of the same label usually is
    // the one (siblings repeat), and a label never seen before needs no
    // scan, which keeps a wide fan-out of distinct labels linear.
    uint32_t& last = last_of[2 * static_cast<size_t>(name) + attr];
    uint32_t syn = last;
    if (syn != UINT32_MAX && nodes_[syn].parent != parent_syn) {
      syn = UINT32_MAX;
      for (const uint32_t c : nodes_[parent_syn].children) {
        if (nodes_[c].name == name && nodes_[c].is_attribute == attr) {
          syn = c;
          break;
        }
      }
    }
    if (syn == UINT32_MAX) {
      syn = static_cast<uint32_t>(nodes_.size());
      Node node;
      node.name = name;
      node.is_attribute = attr;
      node.parent = parent_syn;
      nodes_.push_back(std::move(node));
      nodes_[parent_syn].children.push_back(syn);
    }
    last = syn;
    ++nodes_[syn].count;
    syn_of[id] = syn;
    auto& by = attr ? attr_by_name_ : by_name_;
    if (name >= by.size()) by.resize(name + 1, 0);
    ++by[name];
    if (!attr) ++total_elements_;
  }
  // An element's depth is its path's length, so the deepest element path
  // gives the document depth (parents are created before children).
  std::vector<uint32_t> depth(nodes_.size(), 0);
  for (size_t s = 1; s < nodes_.size(); ++s) {
    depth[s] = depth[nodes_[s].parent] + 1;
    if (!nodes_[s].is_attribute) max_depth_ = std::max(max_depth_, depth[s]);
  }
  // Children are created after their parents, so one reverse sweep folds
  // every subtree into its parent.
  for (size_t s = nodes_.size(); s-- > 1;) {
    nodes_[s].subtree_nodes += nodes_[s].child_nodes;
    nodes_[nodes_[s].parent].subtree_nodes += nodes_[s].subtree_nodes;
  }
  nodes_[0].subtree_nodes += nodes_[0].child_nodes;
}

namespace {

void Render(const Synopsis& syn, const xml::NamePool& pool, uint32_t root,
            int root_depth, std::string* out) {
  // Iterative preorder: the synopsis mirrors document depth, which can be
  // arbitrarily large for degenerate (linear-chain) documents.
  std::vector<std::pair<uint32_t, int>> stack{{root, root_depth}};
  while (!stack.empty()) {
    const auto [node, depth] = stack.back();
    stack.pop_back();
    const Synopsis::Node& n = syn.nodes()[node];
    out->append(static_cast<size_t>(depth) * 2, ' ');
    if (node == 0) {
      out->append("(document)");
    } else {
      if (n.is_attribute) out->push_back('@');
      out->append(pool.NameOf(n.name));
    }
    out->append(" x" + std::to_string(n.count) + "\n");
    for (size_t i = n.children.size(); i-- > 0;) {
      stack.emplace_back(n.children[i], depth + 1);
    }
  }
}

}  // namespace

std::string Synopsis::ToString(const xml::NamePool& pool) const {
  std::string out;
  Render(*this, pool, 0, 0, &out);
  return out;
}

}  // namespace xmlq::opt
