// Plan-cache subsystem suite (DESIGN.md §11): query normalization and
// fingerprinting, the transparent cache inside Database::Query, bind-slot
// round-trips against an uncached differential oracle, prepared statements,
// generation invalidation, memory-budget eviction, the per-τ-node engine
// picks a cached plan keeps, fault injection at the insert site, and a
// multi-thread hit/miss/invalidate stress (CI re-runs this file under ASan
// and TSan).

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "xmlq/api/database.h"
#include "xmlq/base/fault_injector.h"
#include "xmlq/cache/normalize.h"
#include "xmlq/cache/plan_cache.h"
#include "xmlq/datagen/auction_gen.h"
#include "xmlq/datagen/bib_gen.h"

namespace xmlq {
namespace {

constexpr std::string_view kBib =
    "<bib>"
    "<book year=\"1994\"><title>TCP/IP Illustrated</title>"
    "<author><last>Stevens</last><first>W.</first></author>"
    "<publisher>Addison-Wesley</publisher><price>65.95</price></book>"
    "<book year=\"2000\"><title>Data on the Web</title>"
    "<author><last>Abiteboul</last><first>Serge</first></author>"
    "<author><last>Buneman</last><first>Peter</first></author>"
    "<publisher>Morgan Kaufmann</publisher><price>39.95</price></book>"
    "</bib>";

// ---------------------------------------------------------------------------
// Normalization + fingerprinting
// ---------------------------------------------------------------------------

TEST(NormalizeTest, WhitespaceInsensitiveFingerprint) {
  const auto a = cache::NormalizeQuery("//book[ price < 50 ]/title");
  const auto b = cache::NormalizeQuery("//book[price<50]/title");
  const auto c = cache::NormalizeQuery("  //book  [price <  50] / title ");
  EXPECT_TRUE(a.parameterized);
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  EXPECT_EQ(a.fingerprint, c.fingerprint);
  EXPECT_EQ(a.compile_text, b.compile_text);
}

TEST(NormalizeTest, ComparisonLiteralsShareOneFingerprint) {
  const auto a = cache::NormalizeQuery("//book[price < 50]/title");
  const auto b = cache::NormalizeQuery("//book[price < 90]/title");
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  ASSERT_EQ(a.values.size(), 1u);
  ASSERT_EQ(b.values.size(), 1u);
  EXPECT_EQ(a.values[0], "50");
  EXPECT_EQ(b.values[0], "90");
  ASSERT_EQ(a.slots.size(), 1u);
  EXPECT_TRUE(a.slots[0].numeric);
}

TEST(NormalizeTest, StringAndNumberSlotsAreDistinct) {
  // '1' compares as a string, 1 as a number — different semantics, so the
  // fingerprints must not collide ("?s" vs "?n" placeholders).
  const auto str = cache::NormalizeQuery("//item[quantity = '1']");
  const auto num = cache::NormalizeQuery("//item[quantity = 1]");
  EXPECT_NE(str.fingerprint, num.fingerprint);
  ASSERT_EQ(str.slots.size(), 1u);
  ASSERT_EQ(num.slots.size(), 1u);
  EXPECT_FALSE(str.slots[0].numeric);
  EXPECT_TRUE(num.slots[0].numeric);
}

TEST(NormalizeTest, PredicateOrderCanonicalized) {
  const auto a = cache::NormalizeQuery("//person[address][phone]/name");
  const auto b = cache::NormalizeQuery("//person[phone][address]/name");
  EXPECT_EQ(a.fingerprint, b.fingerprint);
}

TEST(NormalizeTest, PredicateOrderKeepsValuesWithTheirPredicate) {
  // Sorting [..][..] groups must carry each group's lifted literal along:
  // both orderings bind "Cash" to the payment predicate.
  const auto a =
      cache::NormalizeQuery("//item[payment = 'Cash'][mailbox]/name");
  const auto b =
      cache::NormalizeQuery("//item[mailbox][payment = 'Cash']/name");
  EXPECT_EQ(a.fingerprint, b.fingerprint);
  ASSERT_EQ(a.values, b.values);
}

TEST(NormalizeTest, DocArgumentIsNotLifted) {
  // doc("...") names a catalog entry, not a comparison literal; lifting it
  // would make unrelated documents share a plan.
  const auto n = cache::NormalizeQuery(
      "for $b in doc(\"bib.xml\")/bib/book where $b/price > 50 "
      "return $b/title");
  ASSERT_EQ(n.values.size(), 1u);
  EXPECT_EQ(n.values[0], "50");
  EXPECT_NE(n.fingerprint.find("doc"), std::string::npos);
}

TEST(NormalizeTest, ConstructorsFallBackToRawMode) {
  // Element constructors (direct and enclosed) are beyond the normalizer's
  // token model — the query still caches, keyed on its exact text.
  const auto n = cache::NormalizeQuery(
      "<out>{for $p in doc(\"a.xml\")//person return <p>{$p/name}</p>}</out>");
  EXPECT_FALSE(n.parameterized);
  EXPECT_TRUE(n.slots.empty());
}

TEST(NormalizeTest, RawModeStillFingerprintsDistinctly) {
  const auto a = cache::NormalizeQuery("<a>{1}</a>");
  const auto b = cache::NormalizeQuery("<b>{1}</b>");
  EXPECT_NE(a.fingerprint, b.fingerprint);
}

TEST(NormalizeTest, RawFingerprintsDoNotCollideWithTemplates) {
  // A raw query whose *text* is literally a placeholder render ('?' always
  // forces raw mode) must live in its own key namespace: resolving it to
  // the cached template would bind a slotted plan with zero values.
  const auto param = cache::NormalizeQuery("//book[price < 50]/title");
  ASSERT_TRUE(param.parameterized);
  const auto raw = cache::NormalizeQuery(param.fingerprint);
  EXPECT_FALSE(raw.parameterized);
  EXPECT_NE(raw.fingerprint, param.fingerprint);
}

TEST(NormalizeTest, SentinelLookalikeLiteralsDegradeToRawMode) {
  // A literal inside the reserved sentinel space must not be parameterized:
  // BindPlan substitution could rewrite it as if it were a slot.
  const auto lifted =
      cache::NormalizeQuery("//book[price = 9007100000000001]");
  EXPECT_FALSE(lifted.parameterized);
  const auto unlifted = cache::NormalizeQuery(
      "//book[f(9007100000000001)][title = 'x']");
  EXPECT_FALSE(unlifted.parameterized);
  const auto ctrl =
      cache::NormalizeQuery("//book[title = \"a\x01z\"]");
  EXPECT_FALSE(ctrl.parameterized);
  // A plain large number outside the reserved range still parameterizes.
  const auto plain = cache::NormalizeQuery("//book[price < 9999999999]");
  EXPECT_TRUE(plain.parameterized);
}

TEST(NormalizeTest, MinusStaysSeparatedFromNames) {
  // "-" is a name character in XML; re-rendering must not fuse "$a - $b"
  // into a single token (or split "foo-bar" apart).
  const auto spaced = cache::NormalizeQuery("//t0[t1 - 1 < 5]");
  const auto fused = cache::NormalizeQuery("//t0[t1-1 < 5]");
  // "t1 - 1" (binary minus) and "t1-1" (one name token) are different
  // queries; their fingerprints must differ.
  EXPECT_NE(spaced.fingerprint, fused.fingerprint);
}

// ---------------------------------------------------------------------------
// Transparent caching in Database::Query / QueryPath
// ---------------------------------------------------------------------------

TEST(PlanCacheTest, RepeatQueryHitsCache) {
  api::Database db;
  ASSERT_TRUE(db.LoadDocument("bib.xml", kBib).ok());
  auto first = db.QueryPath("//book[price < 50]/title");
  ASSERT_TRUE(first.ok());
  auto second = db.QueryPath("//book[price < 50]/title");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(api::Database::ToXml(*first), api::Database::ToXml(*second));
  const cache::CacheStats stats = db.plan_cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_GE(stats.hits, 1u);
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.resident_bytes, 0u);
  // Provenance is surfaced on the result itself.
  EXPECT_EQ(first->plan_provenance.substr(0, 5), "fresh");
  EXPECT_EQ(second->plan_provenance.substr(0, 6), "cached");
}

TEST(PlanCacheTest, DifferentLiteralIsStillAHit) {
  // The whole point of bind-slot lifting: a repeat of the same shape with a
  // new constant skips parse + optimize entirely.
  api::Database db;
  ASSERT_TRUE(db.LoadDocument("bib.xml", kBib).ok());
  ASSERT_TRUE(db.QueryPath("//book[@year = '1994']/title").ok());
  auto hit = db.QueryPath("//book[@year = '2000']/title");
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(api::Database::ToXml(*hit), "<title>Data on the Web</title>");
  const cache::CacheStats stats = db.plan_cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  // The substituted bind is visible in the provenance line.
  EXPECT_NE(hit->plan_provenance.find("binds [2000]"), std::string::npos)
      << hit->plan_provenance;
}

TEST(PlanCacheTest, RawQueryMatchingTemplateFingerprintIsNotAHit) {
  // Regression: wire-supplied text equal to a cached template's fingerprint
  // must not resolve to the template (binding it with zero values read out
  // of bounds). It fails to compile like any other garbage, crash-free.
  api::Database db;
  ASSERT_TRUE(db.LoadDocument("bib.xml", kBib).ok());
  ASSERT_TRUE(db.QueryPath("//book[price < 50]/title").ok());
  const auto param = cache::NormalizeQuery("//book[price < 50]/title");
  ASSERT_TRUE(param.parameterized);
  auto imposter = db.QueryPath(param.fingerprint);
  EXPECT_FALSE(imposter.ok());  // "?n" is not valid XPath
  EXPECT_EQ(db.plan_cache_stats().hits, 0u);
}

TEST(PlanCacheTest, OptOutBypassesCache) {
  api::Database db;
  ASSERT_TRUE(db.LoadDocument("bib.xml", kBib).ok());
  api::QueryOptions no_cache;
  no_cache.use_plan_cache = false;
  ASSERT_TRUE(db.QueryPath("//book/title", {}, no_cache).ok());
  ASSERT_TRUE(db.QueryPath("//book/title", {}, no_cache).ok());
  const cache::CacheStats stats = db.plan_cache_stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.bypass, 2u);
  EXPECT_EQ(stats.entries, 0u);
}

TEST(PlanCacheTest, DisabledCacheViaConfig) {
  api::Database db;
  ASSERT_TRUE(db.LoadDocument("bib.xml", kBib).ok());
  cache::CacheConfig config;
  config.enabled = false;
  db.SetPlanCache(config);
  ASSERT_TRUE(db.QueryPath("//book/title").ok());
  ASSERT_TRUE(db.QueryPath("//book/title").ok());
  const cache::CacheStats stats = db.plan_cache_stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.bypass, 2u);
}

TEST(PlanCacheTest, ForcedStrategyKeyedSeparatelyFromAuto) {
  // An auto-optimized plan and a forced-naive plan are different compiled
  // artifacts; the options class in the key must keep them apart.
  api::Database db;
  ASSERT_TRUE(db.LoadDocument("bib.xml", kBib).ok());
  ASSERT_TRUE(db.QueryPath("//book[author]/title").ok());
  api::QueryOptions forced;
  forced.auto_optimize = false;
  forced.strategy = exec::PatternStrategy::kNaive;
  ASSERT_TRUE(db.QueryPath("//book[author]/title", {}, forced).ok());
  const cache::CacheStats stats = db.plan_cache_stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.entries, 2u);
}

TEST(PlanCacheTest, ExplainReportsProvenance) {
  api::Database db;
  ASSERT_TRUE(db.LoadDocument("bib.xml", kBib).ok());
  auto cold = db.Explain("//book[price < 50]/title");
  ASSERT_TRUE(cold.ok());
  EXPECT_NE(cold->find("-- plan: fresh (not cached)"), std::string::npos)
      << *cold;
  ASSERT_TRUE(db.Query("//book[price < 50]/title").ok());
  auto warm = db.Explain("//book[price < 90]/title");  // same fingerprint
  ASSERT_TRUE(warm.ok());
  EXPECT_NE(warm->find("-- plan: cached (gen "), std::string::npos) << *warm;
  EXPECT_NE(warm->find("binds [90]"), std::string::npos) << *warm;
  auto analyzed = db.ExplainAnalyze("//book[price < 70]/title");
  ASSERT_TRUE(analyzed.ok());
  EXPECT_NE(analyzed->find("-- plan: cached (gen "), std::string::npos)
      << *analyzed;
}

// ---------------------------------------------------------------------------
// Differential oracle: cached + bind-substituted == uncached literal runs
// ---------------------------------------------------------------------------

class CacheDifferentialTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new api::Database;
    datagen::AuctionOptions options;
    options.scale = 0.06;
    options.seed = 11;
    ASSERT_TRUE(db_->RegisterDocument("auction.xml",
                                      datagen::GenerateAuctionSite(options))
                    .ok());
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }
  static api::Database* db_;
};

api::Database* CacheDifferentialTest::db_ = nullptr;

/// Runs `query` uncached (fresh literal compile), then twice through the
/// cache (miss + bound hit), and requires byte-identical serialization.
void ExpectCacheTransparent(api::Database& db, const std::string& query,
                            bool as_path) {
  api::QueryOptions uncached;
  uncached.use_plan_cache = false;
  auto reference = as_path ? db.QueryPath(query, {}, uncached)
                           : db.Query(query, uncached);
  ASSERT_TRUE(reference.ok()) << query << ": "
                              << reference.status().ToString();
  const std::string expected = api::Database::ToXml(*reference);
  for (int round = 0; round < 2; ++round) {
    auto cached = as_path ? db.QueryPath(query) : db.Query(query);
    ASSERT_TRUE(cached.ok()) << query << ": " << cached.status().ToString();
    ASSERT_EQ(api::Database::ToXml(*cached), expected)
        << query << " round " << round;
  }
}

TEST_F(CacheDifferentialTest, XPathSuiteIsCacheTransparent) {
  // The differential_test.cc XPath workload: every pattern shape the τ
  // engines support, now asserting cache hits change nothing.
  const char* paths[] = {
      "/site/people/person",
      "/site/people/person/name",
      "//person",
      "//person/name",
      "//person[address]/name",
      "//person[address][phone]/name",
      "//person[phone]/emailaddress",
      "//person/profile/education",
      "//person[profile/education]/name",
      "//person/profile[@income]",
      "//person[@id = 'person3']/name",
      "//item",
      "//item/location",
      "//item[payment = 'Cash']/location",
      "//item[quantity = '1']/name",
      "//item/mailbox/mail",
      "//item/mailbox/mail/text",
      "//item[mailbox/mail]/name",
      "//open_auction/bidder",
      "//open_auction[bidder]/current",
      "//closed_auction/price",
      "//closed_auction[price]/itemref",
      "//category/name",
      "//category/description/text",
      "/site/regions/*/item/name",
      "//regions//item[location = 'Dallas']",
      "//*[@id]/name",
      "//person/address/city",
      "//mail[date]/from",
      "//profile[interest]/gender",
  };
  for (const char* path : paths) {
    ExpectCacheTransparent(*db_, path, /*as_path=*/true);
  }
}

TEST_F(CacheDifferentialTest, XQuerySuiteIsCacheTransparent) {
  const char* queries[] = {
      "for $p in doc(\"auction.xml\")//person[address] return $p/name",
      "for $p in doc(\"auction.xml\")//person "
      "where count($p/phone) > 0 return $p/emailaddress",
      "count(doc(\"auction.xml\")//item)",
      "for $i in doc(\"auction.xml\")//item "
      "where $i/payment = 'Cash' return $i/location",
      "for $a in doc(\"auction.xml\")//open_auction "
      "where count($a/bidder) > 1 return $a/current",
      "avg(doc(\"auction.xml\")//closed_auction/price)",
      "for $c in doc(\"auction.xml\")//category "
      "order by $c/name return $c/name",
      "<out>{for $p in doc(\"auction.xml\")//person[profile] "
      "return <p>{$p/name}</p>}</out>",
      "for $m in doc(\"auction.xml\")//mailbox/mail "
      "where $m/date return $m/from",
      "sum(doc(\"auction.xml\")//closed_auction/quantity)",
  };
  for (const char* query : queries) {
    ExpectCacheTransparent(*db_, query, /*as_path=*/false);
  }
}

TEST_F(CacheDifferentialTest, BindSubstitutionMatchesLiteralRecompile) {
  // Prime one template, then sweep sibling literals through it: each bound
  // execution must equal a from-scratch uncached compile of that literal.
  ASSERT_TRUE(db_->QueryPath("//item[payment = 'Cash']/location").ok());
  api::QueryOptions uncached;
  uncached.use_plan_cache = false;
  for (const char* payment :
       {"Cash", "Creditcard", "Personal Check", "Money order"}) {
    const std::string query =
        std::string("//item[payment = '") + payment + "']/location";
    auto bound = db_->QueryPath(query);
    ASSERT_TRUE(bound.ok()) << query;
    auto fresh = db_->QueryPath(query, {}, uncached);
    ASSERT_TRUE(fresh.ok()) << query;
    EXPECT_EQ(api::Database::ToXml(*bound), api::Database::ToXml(*fresh))
        << query;
  }
}

// ---------------------------------------------------------------------------
// Prepared statements
// ---------------------------------------------------------------------------

TEST(PreparedQueryTest, DefaultsAndRebinding) {
  api::Database db;
  ASSERT_TRUE(db.LoadDocument("bib.xml", kBib).ok());
  auto prepared = db.Prepare("//book[@year = '1994']/title");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  ASSERT_EQ(prepared->slot_count(), 1u);
  EXPECT_FALSE(prepared->slot_numeric(0));
  EXPECT_EQ(prepared->default_binds()[0], "1994");

  auto defaults = prepared->Execute();
  ASSERT_TRUE(defaults.ok());
  EXPECT_EQ(api::Database::ToXml(*defaults),
            "<title>TCP/IP Illustrated</title>");
  auto rebound = prepared->Execute({"2000"});
  ASSERT_TRUE(rebound.ok());
  EXPECT_EQ(api::Database::ToXml(*rebound), "<title>Data on the Web</title>");
  auto nobody = prepared->Execute({"1950"});
  ASSERT_TRUE(nobody.ok());
  EXPECT_TRUE(nobody->value.empty());

  // One Prepare + three Executes = one compile, two hits.
  const cache::CacheStats stats = db.plan_cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 2u);
}

TEST(PreparedQueryTest, NumericSlotValidation) {
  api::Database db;
  ASSERT_TRUE(db.LoadDocument("bib.xml", kBib).ok());
  auto prepared = db.Prepare("//book[price < 50]/title");
  ASSERT_TRUE(prepared.ok());
  ASSERT_EQ(prepared->slot_count(), 1u);
  EXPECT_TRUE(prepared->slot_numeric(0));
  auto ok = prepared->Execute({"90"});
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->value.size(), 2u);
  // Non-numeric text into a numeric slot would change the comparison's
  // semantics — rejected, not coerced.
  auto bad = prepared->Execute({"cheap"});
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  auto wrong_arity = prepared->Execute({"50", "90"});
  EXPECT_FALSE(wrong_arity.ok());
  EXPECT_EQ(wrong_arity.status().code(), StatusCode::kInvalidArgument);
}

TEST(PreparedQueryTest, MalformedNumericBindsRejected) {
  // The bound plan must be byte-for-byte what compiling the literal would
  // have produced; "1.2.3" would silently diverge into strtod's prefix
  // parse (1.2), so anything outside the strict number grammar is rejected.
  api::Database db;
  ASSERT_TRUE(db.LoadDocument("bib.xml", kBib).ok());
  auto prepared = db.Prepare("//book[price < 50]/title");
  ASSERT_TRUE(prepared.ok());
  for (const char* bad : {"1.2.3", "1.", ".5", "1..2", "."}) {
    auto result = prepared->Execute({bad});
    EXPECT_FALSE(result.ok()) << bad;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << bad;
  }
  auto ok = prepared->Execute({"39.95"});
  EXPECT_TRUE(ok.ok());
}

TEST(PreparedQueryTest, SentinelSpaceBindsRejected) {
  // A bind value inside the reserved sentinel encoding could be mistaken
  // for another slot's sentinel during substitution.
  api::Database db;
  ASSERT_TRUE(db.LoadDocument("bib.xml", kBib).ok());
  auto numeric = db.Prepare("//book[price < 50]/title");
  ASSERT_TRUE(numeric.ok());
  EXPECT_FALSE(numeric->Execute({"9007100000000001"}).ok());
  EXPECT_TRUE(numeric->Execute({"9999999999"}).ok());  // outside the range
  auto str = db.Prepare("//book[@year = '1994']/title");
  ASSERT_TRUE(str.ok());
  EXPECT_FALSE(str->Execute({std::string("\x01") + "0" + "\x01"}).ok());
}

TEST(PreparedQueryTest, ExplicitBindsHonoredWhenCacheBypassed) {
  // Regression: with the cache disabled, Execute(binds) used to fall back
  // to re-compiling the original text — silently running the literals the
  // query was *prepared* with instead of this call's binds.
  api::Database db;
  ASSERT_TRUE(db.LoadDocument("bib.xml", kBib).ok());
  cache::CacheConfig config;
  config.enabled = false;
  db.SetPlanCache(config);
  auto prepared = db.Prepare("//book[@year = '1994']/title");
  ASSERT_TRUE(prepared.ok());
  auto rebound = prepared->Execute({"2000"});
  ASSERT_TRUE(rebound.ok());
  EXPECT_EQ(api::Database::ToXml(*rebound), "<title>Data on the Web</title>");
  auto defaults = prepared->Execute();
  ASSERT_TRUE(defaults.ok());
  EXPECT_EQ(api::Database::ToXml(*defaults),
            "<title>TCP/IP Illustrated</title>");
}

TEST(PreparedQueryTest, InvalidQueryFailsAtPrepareTime) {
  api::Database db;
  ASSERT_TRUE(db.LoadDocument("bib.xml", kBib).ok());
  auto prepared = db.Prepare("//book[price <");
  EXPECT_FALSE(prepared.ok());
}

TEST(PreparedQueryTest, SurvivesCatalogSwap) {
  api::Database db;
  ASSERT_TRUE(db.LoadDocument("bib.xml", kBib).ok());
  auto prepared = db.Prepare("//book/title");
  ASSERT_TRUE(prepared.ok());
  ASSERT_TRUE(prepared->Execute().ok());
  // Swap the document out from under the statement: the cached plan is
  // generation-stale, so the next Execute re-compiles against the new
  // catalog instead of serving the old plan.
  ASSERT_TRUE(db.LoadDocument(
                    "bib.xml",
                    "<bib><book year=\"2024\"><title>New Edition</title>"
                    "<price>10</price></book></bib>")
                  .ok());
  auto after = prepared->Execute();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(api::Database::ToXml(*after), "<title>New Edition</title>");
}

// ---------------------------------------------------------------------------
// Invalidation + eviction
// ---------------------------------------------------------------------------

TEST(PlanCacheTest, CatalogSwapInvalidates) {
  api::Database db;
  ASSERT_TRUE(db.LoadDocument("bib.xml", kBib).ok());
  ASSERT_TRUE(db.QueryPath("//book/title").ok());
  EXPECT_EQ(db.plan_cache_stats().entries, 1u);
  ASSERT_TRUE(db.LoadDocument("bib.xml", kBib).ok());  // replace → new gen
  const cache::CacheStats swept = db.plan_cache_stats();
  EXPECT_EQ(swept.entries, 0u);
  EXPECT_EQ(swept.invalidations, 1u);
  EXPECT_EQ(swept.resident_bytes, 0u);
  // The next run re-compiles (miss), and correctness holds.
  auto again = db.QueryPath("//book/title");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(db.plan_cache_stats().misses, 2u);
}

TEST(PlanCacheTest, RemoveInvalidates) {
  api::Database db;
  ASSERT_TRUE(db.LoadDocument("a.xml", kBib).ok());
  ASSERT_TRUE(db.LoadDocument("b.xml", kBib).ok());
  ASSERT_TRUE(db.QueryPath("//book/title", "b.xml").ok());
  ASSERT_EQ(db.plan_cache_stats().entries, 1u);
  ASSERT_TRUE(db.Remove("b.xml").ok());
  const cache::CacheStats stats = db.plan_cache_stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_GE(stats.invalidations, 1u);
  // Querying the removed document now fails cleanly (no stale plan serves).
  EXPECT_FALSE(db.QueryPath("//book/title", "b.xml").ok());
}

TEST(PlanCacheTest, FailedRemoveDoesNotInvalidate) {
  // Removing a document that doesn't exist, locally or as a replicated
  // remove, must not bump the catalog generation: a drop changing nothing
  // must not wipe every cached plan.
  const std::string store = "plan_cache_failed_remove_store";
  std::filesystem::remove_all(store);
  api::Database db;
  ASSERT_TRUE(db.Attach(store).ok());
  ASSERT_TRUE(db.LoadDocument("a.xml", kBib).ok());
  ASSERT_TRUE(db.QueryPath("//book/title", "a.xml").ok());
  ASSERT_EQ(db.plan_cache_stats().entries, 1u);
  EXPECT_EQ(db.Remove("nope.xml").code(), StatusCode::kNotFound);
  EXPECT_TRUE(db.ApplyReplicatedRemove("nope.xml", 1).ok());
  // A replicated remove drops only what the store holds, and a.xml was
  // never persisted.
  EXPECT_TRUE(db.ApplyReplicatedRemove("a.xml", 1).ok());
  EXPECT_TRUE(db.Contains("a.xml"));
  const cache::CacheStats stats = db.plan_cache_stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.invalidations, 0u);
  auto again = db.QueryPath("//book/title", "a.xml");
  ASSERT_TRUE(again.ok());
  EXPECT_GE(db.plan_cache_stats().hits, 1u);
  std::filesystem::remove_all(store);
}

TEST(PlanCacheTest, EvictionUnderMemoryBudget) {
  api::Database db;
  ASSERT_TRUE(db.LoadDocument("bib.xml", kBib).ok());
  cache::CacheConfig config;
  config.shard_count = 1;          // one LRU so the budget math is exact
  config.memory_budget_bytes = 6 << 10;  // a few plans' worth
  db.SetPlanCache(config);
  // Distinct fingerprints (different tag names, not different literals), so
  // each one needs its own entry.
  const char* tags[] = {"title",  "author", "price", "publisher", "last",
                        "first",  "book",   "year",  "bib",       "editor",
                        "review", "isbn"};
  for (const char* tag : tags) {
    ASSERT_TRUE(db.QueryPath(std::string("//book/") + tag).ok());
  }
  const cache::CacheStats stats = db.plan_cache_stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.resident_bytes, config.memory_budget_bytes);
  EXPECT_LT(stats.entries, sizeof(tags) / sizeof(tags[0]));
  // Evicted or not, every shape still answers correctly.
  auto result = db.QueryPath("//book/title");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->value.size(), 2u);
}

TEST(PlanCacheTest, OversizedEntryIsNotAdmitted) {
  api::Database db;
  ASSERT_TRUE(db.LoadDocument("bib.xml", kBib).ok());
  cache::CacheConfig config;
  config.shard_count = 1;
  config.memory_budget_bytes = 64;  // smaller than any plan footprint
  db.SetPlanCache(config);
  ASSERT_TRUE(db.QueryPath("//book/title").ok());
  EXPECT_EQ(db.plan_cache_stats().entries, 0u);
}

// ---------------------------------------------------------------------------
// Per-τ-node engine picks
// ---------------------------------------------------------------------------

/// The engine each τ operator of a profiled run executed, in plan order.
std::vector<std::string> TauStrategies(const exec::QueryResult& result) {
  std::vector<std::string> out;
  if (result.profile == nullptr) return out;
  std::vector<const exec::ProfileNode*> stack{&result.profile->root()};
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

/// The engine list at the end of a "cached (...)" provenance line.
std::string ProvenancePicks(const std::string& provenance) {
  const size_t at = provenance.find(", strateg");
  return at == std::string::npos ? "" : provenance.substr(at);
}

TEST(PlanCacheTest, CacheHitRunsForcedEngine) {
  api::Database db;
  ASSERT_TRUE(db.LoadDocument("bib.xml", kBib).ok());
  for (const exec::PatternStrategy strategy :
       {exec::PatternStrategy::kNaive, exec::PatternStrategy::kTwigStack}) {
    api::QueryOptions forced;
    forced.auto_optimize = false;
    forced.strategy = strategy;
    forced.collect_stats = true;
    const std::string name(exec::PatternStrategyName(strategy));
    for (int i = 0; i < 3; ++i) {
      auto result = db.QueryPath("//book[author]/title", {}, forced);
      ASSERT_TRUE(result.ok()) << name;
      EXPECT_EQ(result->plan_provenance.substr(0, 6),
                i == 0 ? "fresh" : "cached")
          << result->plan_provenance;
      EXPECT_EQ(TauStrategies(*result), std::vector<std::string>{name});
      if (i > 0) {
        EXPECT_EQ(ProvenancePicks(result->plan_provenance),
                  ", strategy " + name + ")");
      }
    }
  }
}

TEST(PlanCacheTest, CachedPicksAreStable) {
  api::Database db;
  datagen::AuctionOptions doc_options;
  doc_options.scale = 0.05;
  doc_options.seed = 7;
  ASSERT_TRUE(db.RegisterDocument("auction.xml",
                                  datagen::GenerateAuctionSite(doc_options))
                  .ok());
  const std::vector<std::string> queries = {
      "//person[address][phone]/name",
      "//person[@id = 'person3']/name",
      "for $p in doc(\"auction.xml\")//person[@id = 'person5'], "
      "$c in doc(\"auction.xml\")//closed_auction "
      "where $c/buyer/@person = $p/@id return $c/price",
  };
  api::QueryOptions stats;
  stats.collect_stats = true;
  for (const std::string& query : queries) {
    auto fresh = db.Query(query, stats);
    ASSERT_TRUE(fresh.ok()) << query;
    const std::vector<std::string> picks = TauStrategies(*fresh);
    ASSERT_FALSE(picks.empty()) << query;
    auto first_hit = db.Query(query, stats);
    ASSERT_TRUE(first_hit.ok()) << query;
    const std::string provenance = ProvenancePicks(first_hit->plan_provenance);
    ASSERT_FALSE(provenance.empty()) << first_hit->plan_provenance;
    EXPECT_EQ(TauStrategies(*first_hit), picks) << query;
    for (int i = 0; i < 1000; ++i) ASSERT_TRUE(db.Query(query).ok()) << query;
    auto last = db.Query(query, stats);
    ASSERT_TRUE(last.ok()) << query;
    EXPECT_EQ(TauStrategies(*last), picks) << query;
    EXPECT_EQ(ProvenancePicks(last->plan_provenance), provenance) << query;
  }
  EXPECT_EQ(db.plan_cache_stats().misses, queries.size());
}

TEST(PlanCacheTest, UnnestedWhereShapesStayParameterized) {
  // R6 moves a where clause's literal out of a kLiteral into a τ pattern
  // predicate; the binder must still find it there, for string and number
  // slots, or the shape would silently fall back to uncached compiles.
  api::Database db;
  datagen::AuctionOptions auction;
  auction.scale = 0.02;
  ASSERT_TRUE(db.RegisterDocument("auction.xml",
                                  datagen::GenerateAuctionSite(auction))
                  .ok());
  datagen::BibOptions bib;
  bib.num_books = 500;
  ASSERT_TRUE(
      db.RegisterDocument("bib.xml", datagen::GenerateBibliography(bib)).ok());
  api::QueryOptions rewrites_off;
  rewrites_off.apply_rewrites = false;
  rewrites_off.use_plan_cache = false;
  const auto expect_cached_like_rewrites_off =
      [&](const std::vector<std::string>& variants) {
        for (size_t i = 0; i < variants.size(); ++i) {
          auto got = db.Query(variants[i]);
          ASSERT_TRUE(got.ok()) << variants[i];
          EXPECT_EQ(got->plan_provenance.substr(0, 6),
                    i == 0 ? "fresh" : "cached")
              << variants[i] << ": " << got->plan_provenance;
          EXPECT_EQ(got->plan_provenance.find("not cacheable"),
                    std::string::npos)
              << got->plan_provenance;
          auto want = db.Query(variants[i], rewrites_off);
          ASSERT_TRUE(want.ok()) << variants[i];
          EXPECT_EQ(api::Database::ToXml(*got), api::Database::ToXml(*want))
              << variants[i];
        }
      };
  // store_rw: 'b417' and then '1990' bind one template; the second parses
  // as a number, so the general comparison turns numeric for it.
  expect_cached_like_rewrites_off({
      "for $b in doc(\"bib.xml\")//book where $b/@id = 'b417' "
      "return $b/author",
      "for $b in doc(\"bib.xml\")//book where $b/@id = '1990' "
      "return $b/author",
      "for $b in doc(\"bib.xml\")//book where $b/@id = 'b3' "
      "return $b/author",
  });
  // The same template over a numeric attribute: '1990.0' matches year
  // 1990 numerically, and 'b417' matches nothing.
  expect_cached_like_rewrites_off({
      "for $b in doc(\"bib.xml\")//book where $b/@year = '1990' "
      "return $b/title",
      "for $b in doc(\"bib.xml\")//book where $b/@year = '1990.0' "
      "return $b/title",
      "for $b in doc(\"bib.xml\")//book where $b/@year = 'b417' "
      "return $b/title",
  });
  // point_mix.
  expect_cached_like_rewrites_off({
      "for $p in doc(\"auction.xml\")//person where $p/@id = 'person3' "
      "return $p/emailaddress",
      "for $p in doc(\"auction.xml\")//person where $p/@id = 'person17' "
      "return $p/emailaddress",
  });
  // A number slot.
  expect_cached_like_rewrites_off({
      "for $b in doc(\"bib.xml\")//book where $b/price > 140 "
      "return $b/title",
      "for $b in doc(\"bib.xml\")//book where $b/price > 20.5 "
      "return $b/title",
  });
  const cache::CacheStats stats = db.plan_cache_stats();
  EXPECT_EQ(stats.misses, 4u);
  EXPECT_EQ(stats.hits, 6u);
  EXPECT_EQ(stats.bypass, 10u);  // the rewrites-off references

  // Explicit binds through a prepared statement take the same template.
  auto prepared = db.Prepare(
      "for $b in doc(\"bib.xml\")//book where $b/price > 140 "
      "return $b/title");
  ASSERT_TRUE(prepared.ok()) << prepared.status().ToString();
  ASSERT_EQ(prepared->slot_count(), 1u);
  EXPECT_TRUE(prepared->slot_numeric(0));
  auto bound = prepared->Execute({"100"});
  ASSERT_TRUE(bound.ok());
  EXPECT_EQ(bound->plan_provenance.substr(0, 6), "cached");
  auto want = db.Query(
      "for $b in doc(\"bib.xml\")//book where $b/price > 100 "
      "return $b/title",
      rewrites_off);
  ASSERT_TRUE(want.ok());
  EXPECT_EQ(api::Database::ToXml(*bound), api::Database::ToXml(*want));
  EXPECT_FALSE(bound->value.empty());
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

TEST(PlanCacheTest, InsertFaultDegradesToUncached) {
  FaultInjector::Instance().Reset();
  api::Database db;
  ASSERT_TRUE(db.LoadDocument("bib.xml", kBib).ok());
  FaultInjector::Instance().Arm("cache.plan.insert");
  auto first = db.QueryPath("//book/title");
  ASSERT_TRUE(first.ok());  // the query itself must not fail
  EXPECT_EQ(first->value.size(), 2u);
  auto second = db.QueryPath("//book/title");
  ASSERT_TRUE(second.ok());
  FaultInjector::Instance().Reset();
  const cache::CacheStats faulted = db.plan_cache_stats();
  EXPECT_EQ(faulted.entries, 0u);
  EXPECT_EQ(faulted.insert_faults, 2u);
  EXPECT_EQ(faulted.misses, 2u);
  // With the fault cleared, caching resumes.
  ASSERT_TRUE(db.QueryPath("//book/title").ok());
  ASSERT_TRUE(db.QueryPath("//book/title").ok());
  const cache::CacheStats healed = db.plan_cache_stats();
  EXPECT_EQ(healed.entries, 1u);
  EXPECT_GE(healed.hits, 1u);
}

// ---------------------------------------------------------------------------
// Concurrency stress (CI runs this under TSan via `-L cache`)
// ---------------------------------------------------------------------------

TEST(PlanCacheStressTest, ConcurrentHitsMissesAndInvalidations) {
  api::Database db;
  ASSERT_TRUE(db.LoadDocument("bib.xml", kBib).ok());
  cache::CacheConfig config;
  config.shard_count = 4;
  config.memory_budget_bytes = 32 << 10;  // small: force evictions too
  db.SetPlanCache(config);

  constexpr int kThreads = 8;
  constexpr int kIters = 120;
  std::atomic<int> failures{0};
  std::atomic<uint64_t> queries{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&db, &failures, &queries, t] {
      const std::string year = "'" + std::to_string(1990 + t) + "'";
      for (int i = 0; i < kIters; ++i) {
        switch ((t + i) % 4) {
          case 0: {  // shared hot query: mostly hits
            ++queries;
            if (!db.QueryPath("//book[author]/title").ok()) ++failures;
            break;
          }
          case 1: {  // per-thread literal: bind-slot hits on one template
            ++queries;
            if (!db.QueryPath("//book[@year = " + year + "]/title").ok()) {
              ++failures;
            }
            break;
          }
          case 2: {  // per-thread+iteration shape: misses + evictions
            ++queries;
            if (!db.QueryPath("//book/author[last][first]").ok()) ++failures;
            break;
          }
          case 3: {
            if (t == 0 && i % 16 == 3) {
              // Catalog swap under load: every cached plan goes stale.
              if (!db.LoadDocument("bib.xml", std::string(kBib)).ok()) {
                ++failures;
              }
            } else {
              ++queries;
              if (!db.Query("count(//book)").ok()) ++failures;
            }
            break;
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  const cache::CacheStats stats = db.plan_cache_stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.misses, 0u);
  EXPECT_GT(stats.invalidations, 0u);
  // Counter sanity: every lookup was a hit, miss, or bypass.
  EXPECT_EQ(stats.hits + stats.misses + stats.bypass, queries.load());
}

}  // namespace
}  // namespace xmlq
