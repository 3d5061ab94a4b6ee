// Closes the loop between the optimizer and the executor: the synopsis-based
// cardinality estimates annotated onto the profile tree (EXPLAIN ANALYZE's
// `est=`) are compared against the *actual* cardinalities the profiled run
// observed. Predicate-free single-tag patterns must be estimated exactly
// (q-error == 1: the path synopsis stores true tag counts); structural twigs
// and value predicates get a generous-but-bounded q-error budget, and the
// worst offenders are printed so estimate regressions are visible in the
// test log before they become plan regressions.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "xmlq/api/database.h"
#include "xmlq/datagen/auction_gen.h"
#include "xmlq/datagen/random_tree.h"
#include "xmlq/exec/op_stats.h"
#include "xmlq/opt/cardinality.h"
#include "xmlq/opt/synopsis.h"
#include "xmlq/storage/value_index.h"
#include "xmlq/xml/parser.h"

namespace xmlq {
namespace {

/// All profile nodes carrying an optimizer estimate, depth-first.
void CollectEstimated(const exec::ProfileNode& node,
                      std::vector<const exec::ProfileNode*>* out) {
  if (node.estimate.HasRows()) out->push_back(&node);
  for (const exec::ProfileNode& child : node.children) {
    CollectEstimated(child, out);
  }
}

struct Offender {
  std::string query;
  std::string label;
  double estimated;
  double actual;
  double q_error;
};

/// Runs `path` with stats and returns one offender entry per estimated
/// operator in its profile.
std::vector<Offender> QErrorsFor(api::Database& db, const std::string& path) {
  api::QueryOptions options;
  options.collect_stats = true;
  auto result = db.QueryPath(path, {}, options);
  EXPECT_TRUE(result.ok()) << path << ": " << result.status().ToString();
  if (!result.ok()) return {};
  EXPECT_NE(result->profile, nullptr) << path;
  if (result->profile == nullptr) return {};
  std::vector<const exec::ProfileNode*> nodes;
  CollectEstimated(result->profile->root(), &nodes);
  std::vector<Offender> offenders;
  for (const exec::ProfileNode* node : nodes) {
    offenders.push_back(Offender{path, node->label, node->estimate.rows,
                                 node->ActualRows(), node->QError()});
  }
  return offenders;
}

class CardinalityAccuracyTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new api::Database;
    datagen::AuctionOptions options;
    options.scale = 0.08;
    options.seed = 23;
    ASSERT_TRUE(
        db_->RegisterDocument("auction.xml",
                              datagen::GenerateAuctionSite(options))
            .ok());
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }
  static api::Database* db_;
};

api::Database* CardinalityAccuracyTest::db_ = nullptr;

TEST_F(CardinalityAccuracyTest, SingleTagPatternsAreEstimatedExactly) {
  // The synopsis records the true count of every tag, so a bare //tag scan
  // must carry a perfect estimate: q-error exactly 1.
  for (const char* tag : {"person", "item", "open_auction", "closed_auction",
                          "category", "bidder", "name"}) {
    const std::string path = std::string("//") + tag;
    for (const Offender& o : QErrorsFor(*db_, path)) {
      EXPECT_DOUBLE_EQ(o.q_error, 1.0)
          << path << " @ " << o.label << ": est=" << o.estimated
          << " actual=" << o.actual;
    }
  }
}

TEST_F(CardinalityAccuracyTest, TwigAndPredicateEstimatesStayBounded) {
  // Structural twigs and value predicates use independence and default
  // selectivities, so estimates drift — but the drift must stay inside a
  // fixed q-error budget on this workload, or plan choices degrade.
  constexpr double kQErrorBudget = 64.0;
  const char* paths[] = {
      "//person/name",
      "//person[address]/name",
      "//person[address][phone]",
      "//person/profile/education",
      "//item/mailbox/mail",
      "//item[payment = 'Cash']/location",
      "//item[quantity = '1']",
      "//open_auction[bidder]/current",
      "//closed_auction/price",
      "//regions//item",
      "//category/description/text",
      "//mail[date]/from",
  };
  std::vector<Offender> all;
  for (const char* path : paths) {
    std::vector<Offender> offenders = QErrorsFor(*db_, path);
    all.insert(all.end(), offenders.begin(), offenders.end());
  }
  ASSERT_FALSE(all.empty());
  std::sort(all.begin(), all.end(), [](const Offender& a, const Offender& b) {
    return a.q_error > b.q_error;
  });
  // Print the worst offenders so estimate drift shows up in the log even
  // while it is still within budget.
  const size_t worst_n = std::min<size_t>(5, all.size());
  for (size_t i = 0; i < worst_n; ++i) {
    const Offender& o = all[i];
    std::printf("  worst[%zu] q-error=%6.2f  est=%8.1f actual=%8.1f  %s @ %s\n",
                i, o.q_error, o.estimated, o.actual, o.query.c_str(),
                o.label.c_str());
  }
  for (const Offender& o : all) {
    EXPECT_LE(o.q_error, kQErrorBudget)
        << o.query << " @ " << o.label << ": est=" << o.estimated
        << " actual=" << o.actual;
  }
}

TEST(CardinalityAccuracyRandomTreeTest, ExactForSingleTagsAcrossSeeds) {
  for (const uint64_t seed : {31ull, 32ull, 33ull}) {
    datagen::RandomTreeOptions options;
    options.seed = seed;
    options.num_elements = 300;
    options.tag_vocabulary = 5;
    api::Database db;
    ASSERT_TRUE(
        db.RegisterDocument("r.xml", datagen::GenerateRandomTree(options))
            .ok());
    for (const char* tag : {"t0", "t1", "t2", "t3", "t4"}) {
      for (const Offender& o : QErrorsFor(db, std::string("//") + tag)) {
        EXPECT_DOUBLE_EQ(o.q_error, 1.0)
            << "seed=" << seed << " //" << tag << " @ " << o.label
            << ": est=" << o.estimated << " actual=" << o.actual;
      }
    }
  }
}

TEST(CardinalityNotEqualTest, GeneralNotEqualCountsEveryUnequalValue) {
  // `p` mixes numbers, text that does not parse, NaN and an empty value;
  // under CompareGeneral all but the equal values satisfy `!=`.
  std::string text = "<r>";
  const char* values[] = {"10", "abc", "20", "nan", "10.0", "", "x10",
                          "3",  "10",  "-1", "NaN", "ten"};
  for (int i = 0; i < 5; ++i) {
    for (const char* v : values) text += std::string("<p>") + v + "</p>";
  }
  text += "</r>";
  auto doc = xml::ParseDocument(text);
  ASSERT_TRUE(doc.ok());
  const storage::ValueIndex index(*doc);
  const opt::Synopsis synopsis(*doc, &index);
  const xml::NameId p = doc->pool().Find("p");
  for (const algebra::ValueTyping typing :
       {algebra::ValueTyping::kGeneral, algebra::ValueTyping::kGeneralNumber}) {
    for (const char* literal : {"10", "3", "7"}) {
      const algebra::ValuePredicate pred(algebra::CompareOp::kNe, literal,
                                         typing);
      size_t scan = 0;
      for (xml::NodeId i = 0; i < doc->NodeCount(); ++i) {
        if (doc->Kind(i) == xml::NodeKind::kElement && doc->Name(i) == p &&
            pred.Eval(doc->StringValue(i))) {
          ++scan;
        }
      }
      algebra::PatternGraph graph;
      const algebra::VertexId v =
          graph.AddVertex(graph.root(), algebra::Axis::kDescendant, "p");
      graph.AddPredicate(v, pred);
      graph.SetOutput(v);
      const opt::CardinalityEstimate estimate =
          opt::EstimatePattern(synopsis, doc->pool(), graph);
      EXPECT_DOUBLE_EQ(estimate.output_cardinality, static_cast<double>(scan))
          << "typing " << static_cast<int>(typing) << " != " << literal;
    }
  }
}

}  // namespace
}  // namespace xmlq
