// Metric-based complexity regressions over the OpStats counters: instead of
// timing (noisy), these tests pin the *algorithmic* behavior of each engine —
// TwigStack and PathStack consume each stream element exactly once (visits
// linear in stream size), NoK's single scan never revisits a subtree, and
// structural-join probe counts match the region index exactly. A final group
// checks the executor-level profile: determinism across runs, stack-push/pop
// balance, and the zero-cost disabled path.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "xmlq/api/database.h"
#include "xmlq/base/fault_injector.h"
#include "xmlq/datagen/auction_gen.h"
#include "xmlq/datagen/random_tree.h"
#include "xmlq/exec/nok_matcher.h"
#include "xmlq/exec/path_stack.h"
#include "xmlq/exec/structural_join.h"
#include "xmlq/exec/twig_stack.h"
#include "xmlq/storage/value_index.h"
#include "xmlq/xpath/compiler.h"
#include "xmlq/xpath/parser.h"

namespace xmlq::exec {
namespace {

using algebra::PatternGraph;
using algebra::VertexId;

struct TestDoc {
  std::unique_ptr<xml::Document> dom;
  std::unique_ptr<storage::SuccinctDocument> succinct;
  std::unique_ptr<storage::RegionIndex> regions;
  IndexedDocument view;

  explicit TestDoc(std::unique_ptr<xml::Document> d) : dom(std::move(d)) {
    succinct = std::make_unique<storage::SuccinctDocument>(
        storage::SuccinctDocument::Build(*dom));
    regions = std::make_unique<storage::RegionIndex>(*dom);
    view = IndexedDocument{dom.get(), succinct.get(), regions.get(), nullptr};
  }
};

TestDoc AuctionDoc(double scale) {
  datagen::AuctionOptions options;
  options.scale = scale;
  options.seed = 19;
  return TestDoc(datagen::GenerateAuctionSite(options));
}

TestDoc RandomDoc(size_t num_elements, uint64_t seed) {
  datagen::RandomTreeOptions options;
  options.num_elements = num_elements;
  options.seed = seed;
  options.tag_vocabulary = 4;
  return TestDoc(datagen::GenerateRandomTree(options));
}

PatternGraph FromXPath(std::string_view path) {
  auto ast = xpath::ParsePath(path);
  EXPECT_TRUE(ast.ok()) << ast.status().ToString();
  auto graph = xpath::CompileToPattern(*ast);
  EXPECT_TRUE(graph.ok()) << graph.status().ToString();
  return std::move(*graph);
}

/// Total input size for a stream-based engine: one region per pattern vertex
/// stream element. Only valid for predicate-free, non-wildcard patterns,
/// where BuildVertexStream returns the raw region-index tag stream (plus the
/// single document region for the pattern root).
uint64_t TotalStreamSize(const TestDoc& doc, const PatternGraph& graph) {
  uint64_t total = 0;
  for (VertexId v = 0; v < graph.VertexCount(); ++v) {
    const auto& vertex = graph.vertex(v);
    if (vertex.is_root) {
      total += 1;  // the document region
    } else {
      total += doc.regions
                   ->Postings(doc.dom->pool().Find(vertex.label),
                              vertex.is_attribute)
                   .size();
    }
  }
  return total;
}

// --- TwigStack: visits each stream element exactly once -------------------

TEST(TwigStackComplexityTest, VisitsEqualTotalStreamSize) {
  const TestDoc doc = AuctionDoc(0.05);
  for (const char* query : {
           "//person",
           "//person/name",
           "//person[address][phone]/name",
           "//item[mailbox/mail]/name",
           "//open_auction[bidder]/current",
       }) {
    const PatternGraph graph = FromXPath(query);
    OpStats stats;
    auto result = TwigStackMatch(doc.view, graph, nullptr, &stats);
    ASSERT_TRUE(result.ok()) << query << ": " << result.status().ToString();
    // Holistic twig join: every stream element is consumed exactly once, so
    // node visits are *linear* in the input streams — the paper's O(input +
    // output) claim, pinned as an exact counter identity.
    EXPECT_EQ(stats.nodes_visited, TotalStreamSize(doc, graph)) << query;
    // Streams come straight from the region index.
    EXPECT_EQ(stats.index_probes, TotalStreamSize(doc, graph)) << query;
    // Every push is eventually popped or accounted by the final stacks.
    EXPECT_LE(stats.stack_pops, stats.stack_pushes) << query;
  }
}

TEST(TwigStackComplexityTest, SeededStreamsReadOnlyIndexHits) {
  TestDoc doc = AuctionDoc(0.05);
  const storage::ValueIndex values(*doc.dom);
  doc.view.values = &values;
  const PatternGraph graph = FromXPath("//person[@id = 'person7']/name");
  const xml::NamePool& pool = doc.dom->pool();
  // The seed: the `@id` attributes equal to 'person7'.
  const std::vector<xml::NodeId> hits =
      values.Lookup(pool.Find("id"), "person7", /*attribute=*/true);
  ASSERT_EQ(hits.size(), 1u);
  // The pruned streams: the document region, the persons owning a hit, and
  // the `name` children of those persons.
  uint64_t pruned = 1;
  std::vector<storage::Region> persons;
  for (const xml::NodeId hit : hits) {
    persons.push_back(doc.regions->RegionOf(doc.dom->Parent(hit)));
  }
  pruned += persons.size();
  for (const xml::NodeId name :
       doc.regions->Postings(pool.Find("name"), /*attribute=*/false)) {
    for (const storage::Region& person : persons) {
      if (person.IsParentOf(doc.regions->RegionOf(name))) ++pruned;
    }
  }
  OpStats stats;
  auto result = TwigStackMatch(doc.view, graph, nullptr, &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->size(), 1u);
  // Each stream entry is still consumed once, but the streams hold only the
  // index hits and the entries inside their regions.
  EXPECT_EQ(stats.nodes_visited, hits.size() + pruned);
  EXPECT_EQ(stats.index_probes, hits.size() + pruned);
  EXPECT_LT(stats.index_probes, TotalStreamSize(doc, graph));
}

TEST(TwigStackComplexityTest, VisitsScaleLinearlyWithDocumentSize) {
  const TestDoc small = AuctionDoc(0.04);
  const TestDoc large = AuctionDoc(0.16);  // 4x the entity counts
  const PatternGraph graph = FromXPath("//person[address]/name");
  OpStats small_stats, large_stats;
  ASSERT_TRUE(TwigStackMatch(small.view, graph, nullptr, &small_stats).ok());
  ASSERT_TRUE(TwigStackMatch(large.view, graph, nullptr, &large_stats).ok());
  ASSERT_GT(small_stats.nodes_visited, 0u);
  const double ratio = static_cast<double>(large_stats.nodes_visited) /
                       static_cast<double>(small_stats.nodes_visited);
  // 4x input => ~4x visits (exactly proportional to stream growth; the
  // generous band only absorbs rounding in entity counts).
  EXPECT_GT(ratio, 2.5);
  EXPECT_LT(ratio, 6.0);
}

// --- PathStack: linear merge over the step streams ------------------------

TEST(PathStackComplexityTest, MergeConsumesEachStreamElementOnce) {
  const TestDoc doc = AuctionDoc(0.05);
  for (const char* query : {
           "//person/name",
           "//item/mailbox/mail/text",
           "/site/people/person",
           "//closed_auction/price",
       }) {
    const PatternGraph graph = FromXPath(query);
    OpStats stats;
    auto result = PathStackMatch(doc.view, graph, nullptr, &stats);
    ASSERT_TRUE(result.ok()) << query << ": " << result.status().ToString();
    EXPECT_EQ(stats.nodes_visited, TotalStreamSize(doc, graph)) << query;
    EXPECT_EQ(stats.index_probes, TotalStreamSize(doc, graph)) << query;
    EXPECT_LE(stats.stack_pops, stats.stack_pushes) << query;
  }
}

// --- NoK: the single scan never revisits a subtree ------------------------

TEST(NokComplexityTest, SingleScanNeverRevisitsNodes) {
  for (const uint64_t seed : {5ull, 6ull, 7ull}) {
    const TestDoc doc = RandomDoc(400, seed);
    for (const char* query : {
             "//t0[t1]",
             "//t0[t1][t2]/t3",
             "/t0/*",
             "//t2[t3]",
         }) {
      const PatternGraph graph = FromXPath(query);
      OpStats stats;
      auto result = MatchNokPattern(*doc.succinct, graph, nullptr, &stats);
      if (!result.ok()) continue;  // multi-part patterns go through hybrid
      // One Open() per reached node, never more: visits are bounded by the
      // document size regardless of pattern shape or match count.
      EXPECT_LE(stats.nodes_visited, doc.succinct->NodeCount())
          << query << " seed=" << seed;
      EXPECT_GT(stats.nodes_visited, 0u) << query << " seed=" << seed;
      // The scan's frame stack is balanced: every push has its pop (Close or
      // subtree skip).
      EXPECT_EQ(stats.stack_pushes, stats.stack_pops)
          << query << " seed=" << seed;
      EXPECT_EQ(stats.stack_pushes, stats.nodes_visited)
          << query << " seed=" << seed;
    }
  }
}

// --- Structural join: probes match the region index -----------------------

TEST(StructuralJoinComplexityTest, VertexStreamProbesMatchRegionIndex) {
  const TestDoc doc = AuctionDoc(0.05);
  const PatternGraph graph = FromXPath("//person/name");
  for (VertexId v = 0; v < graph.VertexCount(); ++v) {
    const auto& vertex = graph.vertex(v);
    if (vertex.is_root) continue;
    OpStats stats;
    auto stream = BuildVertexStream(doc.view, vertex, &stats);
    ASSERT_TRUE(stream.ok());
    const xml::NameId name = doc.dom->pool().Find(vertex.label);
    // One probe per entry fetched from the posting list — no hidden index
    // traffic.
    EXPECT_EQ(stats.index_probes,
              doc.regions->Postings(name, /*attribute=*/false).size());
    EXPECT_EQ(stats.index_probes, stream->size());
  }
}

TEST(StructuralJoinComplexityTest, MergeVisitsBothInputsOnce) {
  const TestDoc doc = AuctionDoc(0.05);
  const xml::NameId person = doc.dom->pool().Find("person");
  const xml::NameId name = doc.dom->pool().Find("name");
  const auto regions_of = [&](xml::NameId tag) {
    const auto ids = doc.regions->Postings(tag, /*attribute=*/false);
    return ToRegions(*doc.regions, NodeList(ids.begin(), ids.end()));
  };
  const std::vector<storage::Region> ancestors = regions_of(person);
  const std::vector<storage::Region> descendants = regions_of(name);
  OpStats stats;
  const auto pairs = StructuralJoinPairs(ancestors, descendants,
                                         /*parent_child=*/true, nullptr,
                                         &stats);
  ASSERT_FALSE(pairs.empty());
  // Stack-tree merge: each input element enters the merge exactly once
  // (every person precedes its name child, so all ancestors are consumed).
  EXPECT_EQ(stats.nodes_visited, ancestors.size() + descendants.size());
  // Every consumed ancestor is pushed exactly once; entries still open when
  // the merge ends are never popped.
  EXPECT_EQ(stats.stack_pushes, ancestors.size());
  EXPECT_LE(stats.stack_pops, stats.stack_pushes);
}

TEST(StructuralJoinComplexityTest, BinaryJoinPlanProbesCoverAllStreams) {
  const TestDoc doc = AuctionDoc(0.05);
  const PatternGraph graph = FromXPath("//person[address]/name");
  OpStats stats;
  auto result = BinaryJoinPlanMatch(doc.view, graph, {}, nullptr, nullptr,
                                    &stats);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Initial vertex streams all come from the region index; the semi-join
  // reduction re-fetches regions for surviving candidates on top of that.
  EXPECT_GE(stats.index_probes, TotalStreamSize(doc, graph));
}

// --- Executor-level profile ------------------------------------------------

TEST(ProfileDeterminismTest, CountersAndRenderingStableAcrossRuns) {
  api::Database db;
  datagen::AuctionOptions gen;
  gen.scale = 0.04;
  ASSERT_TRUE(
      db.RegisterDocument("auction.xml", datagen::GenerateAuctionSite(gen))
          .ok());
  api::QueryOptions options;
  options.collect_stats = true;
  for (const char* query : {
           "//person[address][phone]/name",
           "for $p in doc(\"auction.xml\")//person[profile] "
           "return $p/name",
           "count(doc(\"auction.xml\")//item)",
       }) {
    auto first = db.Query(query, options);
    auto second = db.Query(query, options);
    ASSERT_TRUE(first.ok()) << query;
    ASSERT_TRUE(second.ok()) << query;
    ASSERT_NE(first->profile, nullptr);
    ASSERT_NE(second->profile, nullptr);
    // Every counter except wall time is identical run to run; the timeless
    // rendering is therefore byte-stable.
    EXPECT_EQ(first->profile->ToString(/*include_time=*/false),
              second->profile->ToString(/*include_time=*/false))
        << query;
    EXPECT_TRUE(first->profile->root().stats.DeterministicEquals(
        second->profile->root().stats))
        << query;
  }
}

TEST(ProfileDeterminismTest, DisabledCollectionYieldsNoProfile) {
  api::Database db;
  datagen::AuctionOptions gen;
  gen.scale = 0.02;
  ASSERT_TRUE(
      db.RegisterDocument("auction.xml", datagen::GenerateAuctionSite(gen))
          .ok());
  auto result = db.Query("//person/name");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->profile, nullptr);
}

TEST(ProfileDeterminismTest, ProfileRecordsActualOutputRows) {
  api::Database db;
  datagen::AuctionOptions gen;
  gen.scale = 0.04;
  ASSERT_TRUE(
      db.RegisterDocument("auction.xml", datagen::GenerateAuctionSite(gen))
          .ok());
  api::QueryOptions options;
  options.collect_stats = true;
  auto result = db.Query("//person/name", options);
  ASSERT_TRUE(result.ok());
  ASSERT_NE(result->profile, nullptr);
  // The root operator's recorded output matches the query result itself.
  EXPECT_EQ(result->profile->root().stats.output_rows, result->value.size());
  EXPECT_GE(result->profile->root().stats.invocations, 1u);
}

TEST(ProfileDeterminismTest, ExplainAnalyzeRendersEstimatesAndCounters) {
  api::Database db;
  datagen::AuctionOptions gen;
  gen.scale = 0.04;
  ASSERT_TRUE(
      db.RegisterDocument("auction.xml", datagen::GenerateAuctionSite(gen))
          .ok());
  auto text = db.ExplainAnalyze("//person[address]/name");
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("TreePattern"), std::string::npos) << *text;
  EXPECT_NE(text->find("est="), std::string::npos) << *text;
  EXPECT_NE(text->find("rows="), std::string::npos) << *text;
  EXPECT_NE(text->find("err="), std::string::npos) << *text;
  EXPECT_NE(text->find("item(s)"), std::string::npos) << *text;
}

/// The bracketed engine of every TreePattern line of a rendered profile.
std::vector<std::string> TreePatternEngines(const std::string& rendered) {
  std::vector<std::string> out;
  for (size_t at = rendered.find("TreePattern"); at != std::string::npos;
       at = rendered.find("TreePattern", at + 1)) {
    const size_t open = rendered.find('[', at);
    const size_t close = rendered.find(']', open);
    out.push_back(rendered.substr(open + 1, close - open - 1));
  }
  return out;
}

constexpr const char* kTwoPatternJoin =
    "for $p in doc(\"auction.xml\")//person[@id = 'person3'], "
    "$c in doc(\"auction.xml\")//closed_auction "
    "where $c/buyer/@person = $p/@id return $c/price";

TEST(ProfileDeterminismTest, EachTreePatternShowsItsOwnEngine) {
  api::Database db;
  datagen::AuctionOptions gen;
  gen.scale = 0.04;
  ASSERT_TRUE(
      db.RegisterDocument("auction.xml", datagen::GenerateAuctionSite(gen))
          .ok());
  // The selective id lookup and the bare closed_auction scan get different
  // engines; each profile line shows its own, and the cached plan's
  // provenance lists the same picks in plan order.
  auto fresh = db.ExplainAnalyze(kTwoPatternJoin);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  const std::vector<std::string> engines = TreePatternEngines(*fresh);
  EXPECT_EQ(engines, (std::vector<std::string>{"twigstack", "nok"}))
      << *fresh;
  auto cached = db.ExplainAnalyze(kTwoPatternJoin);
  ASSERT_TRUE(cached.ok());
  EXPECT_EQ(TreePatternEngines(*cached), engines) << *cached;
  EXPECT_NE(cached->find("strategies twigstack, nok)"), std::string::npos)
      << *cached;
}

TEST(ProfileDeterminismTest, FallbackIsMarkedOnTheDegradedNodeOnly) {
  api::Database db;
  datagen::AuctionOptions gen;
  gen.scale = 0.04;
  ASSERT_TRUE(
      db.RegisterDocument("auction.xml", datagen::GenerateAuctionSite(gen))
          .ok());
  db.SetBreaker({.fault_threshold = 100, .cooldown_admissions = 100});
  FaultInjector::Instance().Arm("exec.twigstack.match", /*skip=*/0,
                                /*count=*/1);
  auto rendered = db.ExplainAnalyze(kTwoPatternJoin);
  FaultInjector::Instance().Reset();
  ASSERT_TRUE(rendered.ok()) << rendered.status().ToString();
  EXPECT_EQ(TreePatternEngines(*rendered),
            (std::vector<std::string>{"twigstack->naive (fault)", "nok"}))
      << *rendered;
  EXPECT_NE(rendered->find("degraded:"), std::string::npos) << *rendered;
}

}  // namespace
}  // namespace xmlq::exec
