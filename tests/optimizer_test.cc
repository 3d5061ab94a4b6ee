#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "xmlq/api/database.h"
#include "xmlq/datagen/bib_gen.h"

#include "xmlq/datagen/auction_gen.h"
#include "xmlq/opt/cardinality.h"
#include "xmlq/opt/optimizer.h"
#include "xmlq/opt/synopsis.h"
#include "xmlq/storage/value_index.h"
#include "xmlq/xml/parser.h"
#include "xmlq/xpath/compiler.h"
#include "xmlq/xpath/parser.h"

namespace xmlq::opt {
namespace {

algebra::PatternGraph Pattern(std::string_view path) {
  auto ast = xpath::ParsePath(path);
  EXPECT_TRUE(ast.ok()) << ast.status().ToString();
  auto graph = xpath::CompileToPattern(*ast);
  EXPECT_TRUE(graph.ok()) << graph.status().ToString();
  return std::move(*graph);
}

TEST(SynopsisTest, ExactStructuralCounts) {
  auto doc = xml::ParseDocument(
      "<r><a><b/><b/></a><a><b/><c/></a><c/></r>");
  ASSERT_TRUE(doc.ok());
  Synopsis synopsis(*doc);
  EXPECT_EQ(synopsis.TotalElements(), 8u);
  EXPECT_EQ(synopsis.CountByName(doc->pool().Find("a")), 2u);
  EXPECT_EQ(synopsis.CountByName(doc->pool().Find("b")), 3u);
  EXPECT_EQ(synopsis.CountByName(doc->pool().Find("c")), 2u);
  // Two distinct paths for c: /r/a/c and /r/c → separate synopsis nodes.
  size_t c_nodes = 0;
  for (const Synopsis::Node& n : synopsis.nodes()) {
    if (n.name == doc->pool().Find("c")) ++c_nodes;
  }
  EXPECT_EQ(c_nodes, 2u);
  EXPECT_EQ(synopsis.MaxDepth(), 3u);
  EXPECT_NE(synopsis.ToString(doc->pool()).find("x3"), std::string::npos);
}

TEST(SynopsisTest, CountsAttributes) {
  auto doc = xml::ParseDocument("<r><i id=\"1\"/><i id=\"2\"/></r>");
  ASSERT_TRUE(doc.ok());
  Synopsis synopsis(*doc);
  EXPECT_EQ(synopsis.CountAttributesByName(doc->pool().Find("id")), 2u);
}

TEST(CardinalityTest, ExactForPredicateFreePaths) {
  auto doc = xml::ParseDocument(
      "<r><a><b/><b/></a><a><b/></a><x><b/></x></r>");
  ASSERT_TRUE(doc.ok());
  Synopsis synopsis(*doc);
  {
    const auto est =
        EstimatePattern(synopsis, doc->pool(), Pattern("/r/a/b"));
    EXPECT_DOUBLE_EQ(est.output_cardinality, 3.0);
  }
  {
    const auto est = EstimatePattern(synopsis, doc->pool(), Pattern("//b"));
    EXPECT_DOUBLE_EQ(est.output_cardinality, 4.0);
  }
  {
    const auto est = EstimatePattern(synopsis, doc->pool(), Pattern("//a"));
    // stream size equals the per-tag population.
    const auto out = Pattern("//a").SoleOutput();
    EXPECT_DOUBLE_EQ(est.stream_size[out], 2.0);
  }
}

TEST(CardinalityTest, PredicateSelectivityApplied) {
  // Value predicates are counted in the value index: the estimate is the
  // exact number of matching data elements / attributes.
  auto doc = xml::ParseDocument(
      "<r><p>1</p><p>2</p><p>2</p><p>7</p><q k=\"a\"/><q k=\"b\"/>"
      "<q k=\"b\"/></r>");
  ASSERT_TRUE(doc.ok());
  const storage::ValueIndex values(*doc);
  const Synopsis synopsis(*doc, &values);
  const auto rows = [&](std::string_view path) {
    return EstimatePattern(synopsis, doc->pool(), Pattern(path))
        .output_cardinality;
  };
  EXPECT_DOUBLE_EQ(rows("//p"), 4.0);
  EXPECT_DOUBLE_EQ(rows("//p[. = '2']"), 2.0);
  EXPECT_DOUBLE_EQ(rows("//p[. = '3']"), 0.0);
  EXPECT_DOUBLE_EQ(rows("//p[. > 1]"), 3.0);
  EXPECT_DOUBLE_EQ(rows("//p[. <= 2]"), 3.0);
  EXPECT_DOUBLE_EQ(rows("//p[. != 2]"), 2.0);
  EXPECT_DOUBLE_EQ(rows("//q[@k = 'b']"), 2.0);
  EXPECT_DOUBLE_EQ(rows("//q/@k[. = 'a']"), 1.0);
  // Without a value index the estimator falls back to a fixed selectivity.
  const Synopsis bare(*doc);
  EXPECT_DOUBLE_EQ(
      EstimatePattern(bare, doc->pool(), Pattern("//p[. = '2']"))
          .output_cardinality,
      4.0 * kUnindexedSelectivity);
}

TEST(CostModelTest, NaiveIsExpensiveForDescendantChains) {
  datagen::AuctionOptions options;
  options.scale = 0.05;
  auto doc = datagen::GenerateAuctionSite(options);
  Synopsis synopsis(*doc);
  const auto pattern = Pattern("//item//text");
  const auto est = EstimatePattern(synopsis, doc->pool(), pattern);
  const auto cost = [&](exec::PatternStrategy strategy) {
    return Charge(
        EstimateWork(strategy, synopsis, doc->pool(), pattern, est));
  };
  EXPECT_GT(cost(exec::PatternStrategy::kNaive),
            cost(exec::PatternStrategy::kNok));
}

TEST(OptimizerTest, StrategyChoiceCoversAllAlternatives) {
  datagen::AuctionOptions options;
  options.scale = 0.02;
  auto doc = datagen::GenerateAuctionSite(options);
  Synopsis synopsis(*doc);
  const auto pattern = Pattern("//open_auction/bidder/increase");
  const StrategyChoice choice =
      ChooseStrategy(synopsis, doc->pool(), pattern);
  EXPECT_GE(choice.alternatives.size(), 4u);
  EXPECT_GT(choice.cost, 0.0);
  // The chosen strategy is the argmin.
  for (const auto& [strategy, cost] : choice.alternatives) {
    EXPECT_LE(choice.cost, cost)
        << exec::PatternStrategyName(strategy);
  }
  EXPECT_NE(choice.explanation.find("selected"), std::string::npos);
}

TEST(OptimizerTest, JoinOrderPrefersSelectiveEdges) {
  // b is rare, x is common: the (a,b) edge should join before (a,x).
  std::string text = "<r>";
  for (int i = 0; i < 50; ++i) {
    text += "<a><x/><x/><x/></a>";
  }
  text += "<a><b/><x/></a></r>";
  auto doc = xml::ParseDocument(text);
  ASSERT_TRUE(doc.ok());
  Synopsis synopsis(*doc);
  algebra::PatternGraph graph;
  const auto a =
      graph.AddVertex(graph.root(), algebra::Axis::kDescendant, "a");
  const auto x = graph.AddVertex(a, algebra::Axis::kChild, "x");
  const auto b = graph.AddVertex(a, algebra::Axis::kChild, "b");
  graph.SetOutput(a);
  const auto order = ChooseJoinOrder(synopsis, doc->pool(), graph);
  ASSERT_EQ(order.size(), 3u);  // edges (root,a), (a,x), (a,b)
  // The rare b edge must come before the common x edge.
  size_t pos_b = 0, pos_x = 0;
  for (size_t i = 0; i < order.size(); ++i) {
    if (order[i] == b) pos_b = i;
    if (order[i] == x) pos_x = i;
  }
  EXPECT_LT(pos_b, pos_x);
}

TEST(OptimizerTest, DifferentJoinOrdersHaveDifferentCosts) {
  datagen::AuctionOptions options;
  options.scale = 0.05;
  auto doc = datagen::GenerateAuctionSite(options);
  Synopsis synopsis(*doc);
  const auto pattern = Pattern("//person[profile/education]");
  const auto est = EstimatePattern(synopsis, doc->pool(), pattern);
  // profile=2, education=3 as edge targets (vertex ids from compilation).
  const algebra::VertexId person = 1, profile = 2, education = 3;
  const algebra::VertexId good[] = {education, profile, person};
  const algebra::VertexId bad[] = {person, profile, education};
  const double cost_good = CostBinaryJoin(pattern, est, good);
  const double cost_bad = CostBinaryJoin(pattern, est, bad);
  // Joining the selective (profile, education) edge first shrinks the big
  // person stream before it is scanned — the [5] effect.
  EXPECT_LT(cost_good, cost_bad);
}

// The per-τ-node picks for the benchmark's query shapes, pinned to the E4
// calibration (EXPERIMENTS.md): each listed engine measured within 1.2× of
// the fastest one on these shapes. The picks are a pure function of the
// seeded documents and the cost model, so any change to the estimator, the
// work counts or CostParams that moves one shows up here.
class OptimizerPickTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new api::Database;
    datagen::AuctionOptions auction;
    auction.scale = 0.2;
    auction.seed = 41;
    ASSERT_TRUE(db_->RegisterDocument("auction.xml",
                                      datagen::GenerateAuctionSite(auction))
                    .ok());
    datagen::BibOptions bib;
    bib.num_books = 1000;
    bib.seed = 42;
    ASSERT_TRUE(
        db_->RegisterDocument("bib.xml", datagen::GenerateBibliography(bib))
            .ok());
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }

  /// The engine of every τ node of `query`'s plan, in plan order.
  static std::vector<std::string> Picks(const std::string& query) {
    api::QueryOptions options;
    options.collect_stats = true;
    options.use_plan_cache = false;
    auto result = db_->Query(query, options);
    EXPECT_TRUE(result.ok()) << query << ": " << result.status().ToString();
    std::vector<std::string> out;
    if (!result.ok() || result->profile == nullptr) return out;
    std::vector<const exec::ProfileNode*> stack{&result->profile->root()};
    while (!stack.empty()) {
      const exec::ProfileNode* node = stack.back();
      stack.pop_back();
      if (node->label.starts_with("TreePattern")) {
        out.push_back(node->estimate.strategy);
      }
      for (auto it = node->children.rbegin(); it != node->children.rend();
           ++it) {
        stack.push_back(&*it);
      }
    }
    return out;
  }

  static api::Database* db_;
};

api::Database* OptimizerPickTest::db_ = nullptr;

TEST_F(OptimizerPickTest, BenchmarkShapesMatchCalibration) {
  const std::string a = "doc(\"auction.xml\")";
  const std::string b = "doc(\"bib.xml\")";
  const std::vector<std::pair<std::string, std::vector<std::string>>>
      table = {
          // analytic
          {a + "/site/open_auctions/open_auction/bidder/increase", {"naive"}},
          {a + "//mailbox//text", {"nok"}},
          {a + "//person[address][phone]/name", {"nok"}},
          {a + "//item[payment = 'Cash']/location", {"twigstack"}},
          {a + "//person[@id = 'person12']", {"twigstack"}},
          {a + "//open_auction[bidder/increase > 25]/current", {"twigstack"}},
          // Seeded from the value index, the chain's streams are the
          // `location` hits and their items: PathStack's merge is cheapest.
          {a + "//regions//item[location = 'Boston']", {"pathstack"}},
          {"<out>{for $p in " + a +
               "//person[profile] return <p>{$p/name}</p>}</out>",
           {"twigstack"}},
          {"for $p in " + a + "//person[@id = 'person12'], $c in " + a +
               "//closed_auction where $c/buyer/@person = $p/@id "
               "return $c/price",
           {"twigstack", "nok"}},
          {"count(" + a + "//item)", {"nok"}},
          {"avg(" + a + "//closed_auction/price)", {"pathstack"}},
          // point_mix
          {a + "//person[@id = 'person12']/name", {"twigstack"}},
          {b + "//book[@year = '1995']/title", {"twigstack"}},
          // R6 folds the where clause, so the FLWOR's τ is its predicate
          // twin //person[@id = ?] and takes the twin's pick.
          {"for $p in " + a +
               "//person where $p/@id = 'person33' return $p/emailaddress",
           {"twigstack"}},
          {a + "//open_auction[@id = 'open_auction7']/current", {"twigstack"}},
          {a + "//person[address/city = 'Boston']/name", {"twigstack"}},
          // store_rw
          {b + "//book[@id = 'b7']/title", {"twigstack"}},
          {b + "//book[@year = '1995']/price", {"twigstack"}},
          {"for $b in " + b + "//book where $b/@id = 'b42' return $b/author",
           {"twigstack"}},
      };
  for (const auto& [query, picks] : table) {
    EXPECT_EQ(Picks(query), picks) << query;
  }
}

TEST_F(OptimizerPickTest, UnnestedWhereTakesItsTwinsPick) {
  // A general-typed predicate is counted like the string or numeric
  // predicate it compares as, so R6's τ picks what its hand-written
  // predicate twin picks.
  const std::string a = "doc(\"auction.xml\")";
  const std::string b = "doc(\"bib.xml\")";
  const std::pair<std::string, std::string> pairs[] = {
      {"for $p in " + a + "//person where $p/@id = 'person33' return $p",
       a + "//person[@id = 'person33']"},
      {"for $b in " + b + "//book where $b/@id = 'b42' return $b",
       b + "//book[@id = 'b42']"},
      {"for $b in " + b + "//book where $b/@year = '1995' return $b",
       b + "//book[@year = '1995']"},
      {"for $b in " + b + "//book where $b/price > 150 return $b",
       b + "//book[price > 150]"},
      {"for $i in " + a + "//item where $i/payment = 'Cash' return $i",
       a + "//item[payment = 'Cash']"},
  };
  for (const auto& [flwor, twin] : pairs) {
    EXPECT_EQ(Picks(flwor), Picks(twin)) << flwor;
  }
}

TEST_F(OptimizerPickTest, ChooseStrategyReturnsTheServedPick) {
  // The synopsis a catalog entry hands out borrows the entry's value index,
  // so the three-argument ChooseStrategy sees the same value counts as the
  // serving path.
  const Synopsis* synopsis = db_->GetSynopsis("auction.xml");
  ASSERT_NE(synopsis, nullptr);
  ASSERT_NE(synopsis->values(), nullptr);
  const xml::NamePool& pool = db_->Get("auction.xml")->dom->pool();
  for (const char* path : {"//person[@id = 'person12']",
                           "//item[payment = 'Cash']/location",
                           "//person[address][phone]/name",
                           "/site/open_auctions/open_auction/bidder/increase",
                           "//regions//item[location = 'Boston']"}) {
    const StrategyChoice choice =
        ChooseStrategy(*synopsis, pool, Pattern(path));
    EXPECT_EQ(Picks(std::string("doc(\"auction.xml\")") + path),
              std::vector<std::string>{
                  std::string(exec::PatternStrategyName(choice.strategy))})
        << path;
  }
}

TEST(SynopsisTest, OpenedSnapshotBorrowsTheValueIndex) {
  api::Database loaded;
  ASSERT_TRUE(loaded
                  .LoadDocument("v.xml",
                                "<r><p>1</p><p>2</p><p>2</p><q k=\"a\"/></r>")
                  .ok());
  const std::string path = "optimizer_test_values.xqpack";
  ASSERT_TRUE(loaded.Save("v.xml", path).ok());
  api::Database opened;
  const Status open = opened.Open("v.xml", path);
  std::remove(path.c_str());
  ASSERT_TRUE(open.ok()) << open.ToString();
  for (const api::Database* db : {&loaded, &opened}) {
    const Synopsis* synopsis = db->GetSynopsis("v.xml");
    ASSERT_NE(synopsis, nullptr);
    ASSERT_NE(synopsis->values(), nullptr);
    EXPECT_DOUBLE_EQ(EstimatePattern(*synopsis, db->Get("v.xml")->dom->pool(),
                                     Pattern("//p[. = '2']"))
                         .output_cardinality,
                     2.0);
  }
}

}  // namespace
}  // namespace xmlq::opt
