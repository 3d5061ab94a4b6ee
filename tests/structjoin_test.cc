#include <gtest/gtest.h>

#include "xmlq/base/random.h"
#include "xmlq/datagen/random_tree.h"
#include "xmlq/exec/structural_join.h"
#include "xmlq/xml/parser.h"

namespace xmlq::exec {
namespace {

using storage::Region;
using storage::RegionIndex;

std::vector<Region> Stream(const RegionIndex& index, const xml::Document& doc,
                           std::string_view tag) {
  const auto ids = index.Postings(doc.pool().Find(tag), /*attribute=*/false);
  return ToRegions(index, NodeList(ids.begin(), ids.end()));
}

TEST(StructuralJoinTest, SmallAncestorDescendant) {
  auto doc = xml::ParseDocument(
      "<r><a><b/><a><b/></a></a><b/><a/></r>");
  ASSERT_TRUE(doc.ok());
  RegionIndex index(*doc);
  // Nodes: r=1, a=2, b=3, a=4, b=5, b=6, a=7.
  const auto a_stream = Stream(index, *doc, "a");
  const auto b_stream = Stream(index, *doc, "b");
  const auto pairs = StructuralJoinPairs(a_stream, b_stream, false);
  // (2,3), (2,5), (4,5) — b=6 and a=7 unmatched.
  ASSERT_EQ(pairs.size(), 3u);
  EXPECT_EQ(pairs[0].ancestor, 2u);
  EXPECT_EQ(pairs[0].descendant, 3u);
  const auto desc = StructuralSemiJoinDesc(a_stream, b_stream, false);
  EXPECT_EQ(desc, (NodeList{3, 5}));
  const auto anc = StructuralSemiJoinAnc(a_stream, b_stream, false);
  EXPECT_EQ(anc, (NodeList{2, 4}));
}

TEST(StructuralJoinTest, ParentChildFiltersByLevel) {
  auto doc = xml::ParseDocument("<r><a><x><b/></x><b/></a></r>");
  ASSERT_TRUE(doc.ok());
  RegionIndex index(*doc);
  const auto a_stream = Stream(index, *doc, "a");
  const auto b_stream = Stream(index, *doc, "b");
  const auto pc = StructuralJoinPairs(a_stream, b_stream, true);
  ASSERT_EQ(pc.size(), 1u);  // only the direct b child
  const auto ad = StructuralJoinPairs(a_stream, b_stream, false);
  EXPECT_EQ(ad.size(), 2u);
}

TEST(StructuralJoinTest, EmptyInputs) {
  auto doc = xml::ParseDocument("<r><a/></r>");
  ASSERT_TRUE(doc.ok());
  RegionIndex index(*doc);
  const std::vector<Region> empty;
  const auto a_stream = Stream(index, *doc, "a");
  EXPECT_TRUE(StructuralJoinPairs(empty, a_stream, false).empty());
  EXPECT_TRUE(StructuralJoinPairs(a_stream, empty, false).empty());
  EXPECT_TRUE(StructuralSemiJoinAnc(empty, empty, false).empty());
}

/// Property: the merge join equals the quadratic nested-loop join.
class StructuralJoinPropertyTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(StructuralJoinPropertyTest, MatchesNestedLoopReference) {
  datagen::RandomTreeOptions options;
  options.seed = GetParam();
  options.num_elements = 250;
  options.tag_vocabulary = 3;  // dense tag collisions → many pairs
  auto doc = datagen::GenerateRandomTree(options);
  RegionIndex index(*doc);
  for (const char* anc_tag : {"t0", "t1"}) {
    for (const char* desc_tag : {"t0", "t2"}) {
      for (const bool parent_child : {false, true}) {
        const auto anc = Stream(index, *doc, anc_tag);
        const auto desc = Stream(index, *doc, desc_tag);
        auto got = StructuralJoinPairs(anc, desc, parent_child);
        std::vector<JoinPair> expected;
        for (const Region& a : anc) {
          for (const Region& d : desc) {
            if (!a.Contains(d)) continue;
            if (parent_child && a.level + 1 != d.level) continue;
            expected.push_back(JoinPair{a.start, d.start});
          }
        }
        const auto key = [](const JoinPair& p) {
          return (uint64_t{p.ancestor} << 32) | p.descendant;
        };
        std::sort(got.begin(), got.end(),
                  [&](auto x, auto y) { return key(x) < key(y); });
        std::sort(expected.begin(), expected.end(),
                  [&](auto x, auto y) { return key(x) < key(y); });
        ASSERT_EQ(got.size(), expected.size())
            << anc_tag << "//" << desc_tag << " pc=" << parent_child;
        for (size_t i = 0; i < got.size(); ++i) {
          ASSERT_EQ(key(got[i]), key(expected[i]));
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StructuralJoinPropertyTest,
                         ::testing::Values(1ull, 2ull, 3ull, 5ull, 8ull,
                                           13ull, 21ull, 42ull));

TEST(FilterEdgePairsTest, BottomUpAndTopDownFiltering) {
  // Pattern root -> a -> b with a side branch a -> c.
  algebra::PatternGraph graph;
  const auto a = graph.AddVertex(graph.root(), algebra::Axis::kChild, "a");
  const auto b = graph.AddVertex(a, algebra::Axis::kChild, "b");
  const auto c = graph.AddVertex(a, algebra::Axis::kChild, "c");
  graph.SetOutput(b);
  // Two a-candidates (10, 20); only 10 has both b and c support; b=11
  // hangs off 10, b=21 hangs off 20 (which lacks c).
  std::vector<std::vector<JoinPair>> pairs(graph.VertexCount());
  pairs[a] = {{0, 10}, {0, 20}};
  pairs[b] = {{10, 11}, {20, 21}};
  pairs[c] = {{10, 12}};
  const NodeList result = FilterEdgePairs(graph, b, pairs, 0);
  EXPECT_EQ(result, (NodeList{11}));
  // With output = a, only 10 survives.
  EXPECT_EQ(FilterEdgePairs(graph, a, pairs, 0), (NodeList{10}));
}

TEST(BinaryJoinPlanTest, JoinOrderAffectsIntermediateSizeNotResult) {
  auto dom = xml::ParseDocument(
      "<r><a><b><c/></b><b/></a><a><b><c/><c/></b></a><b/></r>");
  ASSERT_TRUE(dom.ok());
  storage::RegionIndex regions(*dom);
  storage::SuccinctDocument succinct = storage::SuccinctDocument::Build(*dom);
  IndexedDocument doc{&*dom, &succinct, &regions, nullptr};
  algebra::PatternGraph graph;
  const auto a = graph.AddVertex(graph.root(), algebra::Axis::kDescendant, "a");
  const auto b = graph.AddVertex(a, algebra::Axis::kChild, "b");
  const auto c = graph.AddVertex(b, algebra::Axis::kChild, "c");
  graph.SetOutput(c);
  JoinPlanStats stats_top_down;
  JoinPlanStats stats_bottom_up;
  const algebra::VertexId top_down[] = {a, b, c};
  const algebra::VertexId bottom_up[] = {c, b, a};
  auto r1 = BinaryJoinPlanMatch(doc, graph, top_down, &stats_top_down);
  auto r2 = BinaryJoinPlanMatch(doc, graph, bottom_up, &stats_bottom_up);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(*r1, *r2);
  EXPECT_EQ(r1->size(), 3u);
  EXPECT_GT(stats_top_down.pairs_produced, 0u);
  EXPECT_GT(stats_bottom_up.pairs_produced, 0u);
}

TEST(BinaryJoinPlanTest, RejectsBadOrders) {
  auto dom = xml::ParseDocument("<r><a/></r>");
  ASSERT_TRUE(dom.ok());
  storage::RegionIndex regions(*dom);
  IndexedDocument doc{&*dom, nullptr, &regions, nullptr};
  algebra::PatternGraph graph;
  const auto a = graph.AddVertex(graph.root(), algebra::Axis::kChild, "a");
  graph.SetOutput(a);
  const algebra::VertexId dup[] = {a, a};
  EXPECT_FALSE(BinaryJoinPlanMatch(doc, graph, dup, nullptr).ok());
}

}  // namespace
}  // namespace xmlq::exec
