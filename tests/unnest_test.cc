// Rewrite R6 (`where` unnesting) differential: every FLWOR of the shared
// oracle, the FLWOR/predicate pairs and a general-comparison probe document
// run with rewrites on against rewrites off, on every τ engine, in both
// FLWOR modes, with the plan cache off, cold and hit, and must give
// byte-identical results. The benchmark's answer check cannot catch an R6
// error (its reference runs with rewrites on too), so this suite is the
// gate. It also pins where the XPath predicate typing and the `where`
// clause's general comparison part ways.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "oracle_queries.h"
#include "xmlq/api/database.h"
#include "xmlq/datagen/auction_gen.h"
#include "xmlq/datagen/bib_gen.h"
#include "xmlq/xquery/translate.h"

namespace xmlq {
namespace {

using algebra::FlworClause;
using algebra::LogicalExpr;
using algebra::LogicalOp;

constexpr exec::PatternStrategy kEngines[] = {
    exec::PatternStrategy::kNaive,     exec::PatternStrategy::kNok,
    exec::PatternStrategy::kTwigStack, exec::PatternStrategy::kPathStack,
    exec::PatternStrategy::kBinaryJoin,
};
constexpr exec::FlworMode kModes[] = {exec::FlworMode::kEnv,
                                      exec::FlworMode::kPipelined};

api::QueryOptions Options(exec::PatternStrategy engine, exec::FlworMode mode,
                          bool rewrites, bool cache) {
  api::QueryOptions options;
  options.auto_optimize = false;
  options.strategy = engine;
  options.flwor_mode = mode;
  options.apply_rewrites = rewrites;
  options.use_plan_cache = cache;
  return options;
}

std::string Run(const api::Database& db, const std::string& query,
                const api::QueryOptions& options,
                std::string* provenance = nullptr) {
  auto result = db.Query(query, options);
  EXPECT_TRUE(result.ok()) << query << ": " << result.status().ToString();
  if (!result.ok()) return "<error>";
  if (provenance != nullptr) *provenance = result->plan_provenance;
  return api::Database::ToXml(*result);
}

/// Runs `query` with rewrites off (the reference) and on, on every engine
/// and FLWOR mode, with the plan cache off, cold and hit; every run must
/// give the reference's bytes. Returns the reference.
std::string ExpectRewritesAgree(const api::Database& db,
                                const std::string& query) {
  const std::string reference =
      Run(db, query,
          Options(exec::PatternStrategy::kNaive, exec::FlworMode::kEnv,
                  /*rewrites=*/false, /*cache=*/false));
  for (const exec::PatternStrategy engine : kEngines) {
    for (const exec::FlworMode mode : kModes) {
      const std::string where =
          query + " [" + std::string(exec::PatternStrategyName(engine)) +
          (mode == exec::FlworMode::kEnv ? ", env" : ", pipelined") + "]";
      EXPECT_EQ(Run(db, query, Options(engine, mode, false, false)), reference)
          << where << " rewrites off";
      EXPECT_EQ(Run(db, query, Options(engine, mode, true, false)), reference)
          << where << " cache off";
      // A fresh cache: the first run compiles and installs the template,
      // the second binds it.
      db.SetPlanCache(cache::CacheConfig{});
      std::string provenance;
      EXPECT_EQ(Run(db, query, Options(engine, mode, true, true), &provenance),
                reference)
          << where << " cache cold";
      EXPECT_EQ(provenance, "fresh") << where;
      EXPECT_EQ(Run(db, query, Options(engine, mode, true, true), &provenance),
                reference)
          << where << " cache hit";
      EXPECT_TRUE(provenance.starts_with("cached")) << where << provenance;
    }
  }
  return reference;
}

/// The clauses of the first FLWOR in `query`'s plan with rewrites on.
std::vector<FlworClause> RewrittenClauses(const std::string& query) {
  xquery::TranslateOptions options;
  auto plan = xquery::CompileQuery(query, options);
  EXPECT_TRUE(plan.ok()) << query;
  if (!plan.ok()) return {};
  std::vector<const LogicalExpr*> stack{plan->get()};
  while (!stack.empty()) {
    const LogicalExpr* e = stack.back();
    stack.pop_back();
    if (e->op == LogicalOp::kFlwor) return e->clauses;
    for (const auto& c : e->children) stack.push_back(c.get());
  }
  ADD_FAILURE() << "no FLWOR in " << query;
  return {};
}

bool HasWhere(const std::vector<FlworClause>& clauses) {
  for (const FlworClause& c : clauses) {
    if (c.kind == FlworClause::Kind::kWhere) return true;
  }
  return false;
}

class UnnestDifferentialTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new api::Database;
    datagen::AuctionOptions auction;
    auction.scale = 0.03;
    auction.seed = 11;
    ASSERT_TRUE(db_->RegisterDocument("auction.xml",
                                      datagen::GenerateAuctionSite(auction))
                    .ok());
    datagen::BibOptions bib;
    bib.num_books = 40;
    ASSERT_TRUE(
        db_->RegisterDocument("bib.xml", datagen::GenerateBibliography(bib))
            .ok());
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }
  static api::Database* db_;
};

api::Database* UnnestDifferentialTest::db_ = nullptr;

TEST_F(UnnestDifferentialTest, OracleFlworsAgreeWithRewritesOff) {
  for (const char* query : tests::kAuctionXQueries) {
    if (std::strstr(query, "for $") == nullptr) continue;
    ExpectRewritesAgree(*db_, query);
  }
}

TEST_F(UnnestDifferentialTest, PairsAgreeWithRewritesOffAndTheirTwins) {
  for (const tests::FlworPredicatePair& pair : tests::kFlworPredicatePairs) {
    // R6 fired: the where clause is gone unless a conjunct stays behind.
    EXPECT_EQ(HasWhere(RewrittenClauses(pair.flwor)), pair.keeps_where)
        << pair.flwor;
    const std::string flwor = ExpectRewritesAgree(*db_, pair.flwor);
    const std::string twin = ExpectRewritesAgree(*db_, pair.predicate);
    EXPECT_EQ(flwor, twin) << pair.flwor;
    EXPECT_NE(flwor, "") << pair.flwor << " selects nothing";
  }
}

// The probe where the two typings differ: three spellings of 1990 and a
// non-number.
constexpr const char* kProbeXml =
    "<r><b y=\"1990.0\"/><b y=\"1990\"/><b y=\" 1990\"/><b y=\"x\"/></r>";

class GeneralComparisonTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.LoadDocument("probe.xml", kProbeXml).ok());
  }
  api::Database db_;
};

TEST_F(GeneralComparisonTest, PredicatesKeepXPathTypingWhereKeepsGeneral) {
  struct Case {
    const char* query;
    const char* expected;
  };
  const Case cases[] = {
      // XPath string predicate: bytewise.
      {"//b[@y = '1990']", "<b y=\"1990\"/>"},
      // General comparison: numeric when both sides parse.
      {"for $b in //b where $b/@y = '1990' return $b",
       "<b y=\"1990.0\"/>\n<b y=\"1990\"/>\n<b y=\" 1990\"/>"},
      // XPath number predicate: a non-number matches no operator.
      {"//b[@y != 1990]", ""},
      // General comparison: NaN satisfies only !=.
      {"for $b in //b where $b/@y != 1990 return $b", "<b y=\"x\"/>"},
      // Ordering against a string literal that does not parse: bytewise,
      // and against a number literal: NaN matches nothing.
      {"for $b in //b where $b/@y > 'a' return $b", "<b y=\"x\"/>"},
      {"for $b in //b where $b/@y > 1000 return $b",
       "<b y=\"1990.0\"/>\n<b y=\"1990\"/>\n<b y=\" 1990\"/>"},
      {"for $b in //b where $b/@y = 1990.0 return $b",
       "<b y=\"1990.0\"/>\n<b y=\"1990\"/>\n<b y=\" 1990\"/>"},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(ExpectRewritesAgree(db_, c.query), c.expected) << c.query;
  }
  // Every where form above unnests.
  for (const Case& c : cases) {
    if (std::strstr(c.query, "where") == nullptr) continue;
    EXPECT_FALSE(HasWhere(RewrittenClauses(c.query))) << c.query;
  }
}

TEST_F(GeneralComparisonTest, IneligibleConjunctsStayPerTuple) {
  const char* queries[] = {
      // `or`, a function call, two variables, a literal on the left, a let
      // variable, a rebound name and a following-sibling step are not
      // folded.
      "for $b in //b where $b/@y = '1990' or $b/@y = 'x' return $b",
      "for $b in //b where '1990' = $b/@y return $b",
      "for $b in //b where string($b/@y) = 'x' return $b",
      "for $a in //b, $b in //b where $a/@y = $b/@y return $a",
      "for $b in //b let $y := $b/@y where $y = 'x' return $b",
      "for $b in //b, $b in //r where $b/@y = 'x' return $b",
      "for $b in //b where $b/following-sibling::b return $b",
  };
  for (const char* query : queries) {
    EXPECT_TRUE(HasWhere(RewrittenClauses(query))) << query;
    ExpectRewritesAgree(db_, query);
  }
}

}  // namespace
}  // namespace xmlq
