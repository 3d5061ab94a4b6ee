// Cross-engine differential oracle: every τ engine (naive navigation, NoK,
// TwigStack, PathStack, binary structural joins) plus the cost-based "auto"
// pick must produce byte-identical, document-ordered results for the same
// query — on XMark-style auction documents and on seed-driven random trees.
// A seventh configuration runs with stats collection on, so the oracle also
// proves EXPLAIN ANALYZE instrumentation never perturbs results.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "oracle_queries.h"
#include "xmlq/api/database.h"
#include "xmlq/base/fault_injector.h"
#include "xmlq/datagen/auction_gen.h"
#include "xmlq/datagen/random_tree.h"

namespace xmlq {
namespace {

struct EngineConfig {
  const char* name;
  bool auto_optimize;
  exec::PatternStrategy strategy;
  bool collect_stats;
};

constexpr EngineConfig kEngines[] = {
    {"naive", false, exec::PatternStrategy::kNaive, false},
    {"nok", false, exec::PatternStrategy::kNok, false},
    {"twigstack", false, exec::PatternStrategy::kTwigStack, false},
    {"pathstack", false, exec::PatternStrategy::kPathStack, false},
    {"binaryjoin", false, exec::PatternStrategy::kBinaryJoin, false},
    {"auto", true, exec::PatternStrategy::kNok, false},
    {"auto+stats", true, exec::PatternStrategy::kNok, true},
};

api::QueryOptions OptionsFor(const EngineConfig& engine) {
  api::QueryOptions options;
  options.auto_optimize = engine.auto_optimize;
  options.strategy = engine.strategy;
  options.collect_stats = engine.collect_stats;
  return options;
}

/// Runs `query` under every engine configuration and asserts the serialized
/// (ordered) results are identical. `as_path` selects the XPath entry point.
void ExpectEnginesAgree(api::Database& db, const std::string& query,
                        bool as_path) {
  std::string reference;
  const char* reference_engine = nullptr;
  for (const EngineConfig& engine : kEngines) {
    const api::QueryOptions options = OptionsFor(engine);
    auto result = as_path ? db.QueryPath(query, {}, options)
                          : db.Query(query, options);
    ASSERT_TRUE(result.ok())
        << query << " [" << engine.name << "]: " << result.status().ToString();
    if (engine.collect_stats) {
      // The stats run must actually have produced a profile.
      ASSERT_NE(result->profile, nullptr) << query;
    }
    const std::string got = api::Database::ToXml(*result);
    if (reference_engine == nullptr) {
      reference = got;
      reference_engine = engine.name;
    } else {
      ASSERT_EQ(got, reference)
          << query << ": " << engine.name << " vs " << reference_engine;
    }
  }
}

class AuctionDifferentialTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new api::Database;
    datagen::AuctionOptions options;
    options.scale = 0.06;
    options.seed = 11;
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

api::Database* AuctionDifferentialTest::db_ = nullptr;

TEST_F(AuctionDifferentialTest, XPathSuite) {
  // Paths exercising every pattern shape: linear chains, twigs, wildcards,
  // attribute steps, value predicates, existence predicates, deep // —
  // shared with the replication oracle (tests/oracle_queries.h).
  for (const char* path : tests::kAuctionXPaths) {
    ExpectEnginesAgree(*db_, path, /*as_path=*/true);
  }
}

TEST_F(AuctionDifferentialTest, XQuerySuite) {
  for (const char* query : tests::kAuctionXQueries) {
    ExpectEnginesAgree(*db_, query, /*as_path=*/false);
  }
}

class RandomTreeDifferentialTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(RandomTreeDifferentialTest, FixedSuiteAgreesOnSeededTrees) {
  datagen::RandomTreeOptions options;
  options.seed = GetParam();
  options.num_elements = 260;
  options.tag_vocabulary = 5;
  options.text_probability = 0.6;
  options.attribute_probability = 0.4;
  api::Database db;
  ASSERT_TRUE(
      db.RegisterDocument("r.xml", datagen::GenerateRandomTree(options)).ok());
  // A fixed query list over the generator's t0..t4 / a0..a2 vocabulary; the
  // seed varies the document, not the workload (tests/oracle_queries.h).
  for (const char* path : tests::kRandomTreeXPaths) {
    ExpectEnginesAgree(db, path, /*as_path=*/true);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTreeDifferentialTest,
                         ::testing::Values(101ull, 202ull, 303ull, 404ull));

// Graceful degradation oracle: with a fault armed inside a τ engine, the
// fallback retry on naive navigation must still produce results
// byte-identical to a clean naive run, and the downgrade must be visible.
// Uses a private Database so the armed faults (and the breaker state they
// accumulate) cannot leak into the shared fixture above.
TEST(FaultFallbackDifferentialTest, FaultedEnginesMatchNaiveViaFallback) {
  api::Database db;
  datagen::AuctionOptions doc_options;
  doc_options.scale = 0.04;
  doc_options.seed = 11;
  ASSERT_TRUE(
      db.RegisterDocument("auction.xml",
                          datagen::GenerateAuctionSite(doc_options))
          .ok());
  const char* twig_paths[] = {
      "//person[address]/name",
      "//item[payment = 'Cash']/location",
      "//open_auction[bidder]/current",
      "/site/regions/*/item/name",
  };
  // PathStack only runs linear chains itself (twigs dispatch to TwigStack),
  // so its fault site needs predicate-free paths to be reached.
  const char* linear_paths[] = {
      "/site/people/person/name",
      "//person/profile/education",
      "/site/regions/*/item/name",
      "//category/description/text",
  };
  const struct {
    exec::PatternStrategy strategy;
    const char* site;
    const char* const* paths;
    size_t path_count;
  } kFaultedEngines[] = {
      {exec::PatternStrategy::kNok, "exec.nok.match", twig_paths,
       std::size(twig_paths)},
      {exec::PatternStrategy::kTwigStack, "exec.twigstack.match", twig_paths,
       std::size(twig_paths)},
      {exec::PatternStrategy::kPathStack, "exec.pathstack.match",
       linear_paths, std::size(linear_paths)},
      {exec::PatternStrategy::kBinaryJoin, "exec.binaryjoin.match",
       twig_paths, std::size(twig_paths)},
  };
  for (const auto& engine : kFaultedEngines) {
    // Wide breaker threshold: every query takes the fault + retry path
    // instead of tripping into quarantine (quarantine is tested elsewhere).
    db.SetBreaker({.fault_threshold = 1000, .cooldown_admissions = 1000});
    for (size_t p = 0; p < engine.path_count; ++p) {
      const char* path = engine.paths[p];
      api::QueryOptions naive_options;
      naive_options.auto_optimize = false;
      naive_options.strategy = exec::PatternStrategy::kNaive;
      auto expected = db.QueryPath(path, {}, naive_options);
      ASSERT_TRUE(expected.ok()) << path;

      FaultInjector::Instance().Arm(engine.site);
      api::QueryOptions options;
      options.auto_optimize = false;
      options.strategy = engine.strategy;
      auto got = db.QueryPath(path, {}, options);
      FaultInjector::Instance().Reset();

      ASSERT_TRUE(got.ok()) << path << " [" << engine.site
                            << "]: " << got.status().ToString();
      EXPECT_TRUE(got->degraded) << path << " [" << engine.site << "]";
      EXPECT_NE(got->degradation.find("naive"), std::string::npos)
          << got->degradation;
      EXPECT_EQ(api::Database::ToXml(*got), api::Database::ToXml(*expected))
          << path << " [" << engine.site << "]";
    }
  }
}

}  // namespace
}  // namespace xmlq
