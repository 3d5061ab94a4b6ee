#include <gtest/gtest.h>

#include <functional>
#include <iterator>
#include <memory>

#include "xmlq/base/random.h"
#include "xmlq/datagen/auction_gen.h"
#include "xmlq/datagen/random_tree.h"
#include "xmlq/exec/hybrid.h"
#include "xmlq/exec/naive_nav.h"
#include "xmlq/exec/nok_matcher.h"
#include "xmlq/exec/path_stack.h"
#include "xmlq/exec/structural_join.h"
#include "xmlq/exec/twig_stack.h"
#include "xmlq/xpath/compiler.h"
#include "xmlq/xml/parser.h"
#include "xmlq/xpath/parser.h"

namespace xmlq::exec {
namespace {

using algebra::Axis;
using algebra::CompareOp;
using algebra::PatternGraph;
using algebra::ValuePredicate;
using algebra::ValueTyping;
using algebra::VertexId;

/// Bundles a document with all physical views for the matchers. `view`
/// carries the value index, so the join engines seed their streams from
/// it; `unindexed` is the same document without it.
struct TestDoc {
  std::unique_ptr<xml::Document> dom;
  std::unique_ptr<storage::SuccinctDocument> succinct;
  std::unique_ptr<storage::RegionIndex> regions;
  std::unique_ptr<storage::ValueIndex> values;
  IndexedDocument view;
  IndexedDocument unindexed;

  explicit TestDoc(std::unique_ptr<xml::Document> d) : dom(std::move(d)) {
    succinct = std::make_unique<storage::SuccinctDocument>(
        storage::SuccinctDocument::Build(*dom));
    regions = std::make_unique<storage::RegionIndex>(*dom);
    values = std::make_unique<storage::ValueIndex>(*dom);
    view = IndexedDocument{dom.get(), succinct.get(), regions.get(),
                           values.get()};
    unindexed = view;
    unindexed.values = nullptr;
  }
};

TestDoc FromXml(std::string_view text) {
  auto parsed = xml::ParseDocument(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return TestDoc(std::make_unique<xml::Document>(std::move(*parsed)));
}

PatternGraph FromXPath(std::string_view path) {
  auto ast = xpath::ParsePath(path);
  EXPECT_TRUE(ast.ok()) << ast.status().ToString();
  auto graph = xpath::CompileToPattern(*ast);
  EXPECT_TRUE(graph.ok()) << graph.status().ToString();
  return std::move(*graph);
}

/// Runs every engine and checks they agree with the naive reference.
void ExpectAllEnginesAgree(const TestDoc& doc, const PatternGraph& graph,
                           const std::string& label) {
  auto naive = NaiveMatchPattern(*doc.dom, graph);
  ASSERT_TRUE(naive.ok()) << label << ": " << naive.status().ToString();

  auto hybrid = HybridMatch(doc.view, graph);
  ASSERT_TRUE(hybrid.ok()) << label << ": " << hybrid.status().ToString();
  EXPECT_EQ(*hybrid, *naive) << label << " (hybrid/NoK)";

  bool linear = true;
  for (VertexId v = 0; v < graph.VertexCount(); ++v) {
    if (graph.vertex(v).children.size() > 1) linear = false;
  }
  // The join engines run with the value index (seeded streams) and
  // without it.
  for (const bool indexed : {true, false}) {
    const IndexedDocument& view = indexed ? doc.view : doc.unindexed;
    const std::string mode = indexed ? ", indexed" : ", unindexed";
    auto twig = TwigStackMatch(view, graph);
    ASSERT_TRUE(twig.ok()) << label << ": " << twig.status().ToString();
    EXPECT_EQ(*twig, *naive) << label << " (TwigStack" << mode << ")";

    auto binary = BinaryJoinPlanMatch(view, graph);
    ASSERT_TRUE(binary.ok()) << label << ": " << binary.status().ToString();
    EXPECT_EQ(*binary, *naive) << label << " (binary joins" << mode << ")";

    if (linear) {
      auto path = PathStackMatch(view, graph);
      ASSERT_TRUE(path.ok()) << label << ": " << path.status().ToString();
      EXPECT_EQ(*path, *naive) << label << " (PathStack" << mode << ")";
    }
  }
}

TEST(MatchersTest, SimpleChildPath) {
  TestDoc doc = FromXml("<bib><book><title>a</title></book><book/></bib>");
  ExpectAllEnginesAgree(doc, FromXPath("/bib/book/title"), "/bib/book/title");
  ExpectAllEnginesAgree(doc, FromXPath("/bib/book"), "/bib/book");
}

TEST(MatchersTest, DescendantAndWildcard) {
  TestDoc doc = FromXml(
      "<r><a><x><b>1</b></x></a><b>2</b><a><b>3</b></a></r>");
  ExpectAllEnginesAgree(doc, FromXPath("//b"), "//b");
  ExpectAllEnginesAgree(doc, FromXPath("/r//b"), "/r//b");
  ExpectAllEnginesAgree(doc, FromXPath("//a//b"), "//a//b");
  ExpectAllEnginesAgree(doc, FromXPath("//a/*"), "//a/*");
  ExpectAllEnginesAgree(doc, FromXPath("/*/*"), "/*/*");
}

TEST(MatchersTest, AttributesAndValuePredicates) {
  TestDoc doc = FromXml(
      "<shop><item price=\"5\"><name>pen</name></item>"
      "<item price=\"50\"><name>ink</name></item>"
      "<item><name>pad</name></item></shop>");
  ExpectAllEnginesAgree(doc, FromXPath("//item/@price"), "//item/@price");
  ExpectAllEnginesAgree(doc, FromXPath("//item[@price]"), "//item[@price]");
  ExpectAllEnginesAgree(doc, FromXPath("//item[@price = '50']"),
                        "//item[@price = '50']");
  ExpectAllEnginesAgree(doc, FromXPath("//item[@price < 10]/name"),
                        "//item[@price < 10]/name");
  ExpectAllEnginesAgree(doc, FromXPath("//item[name = 'pad']"),
                        "//item[name = 'pad']");
}

TEST(MatchersTest, ExistenceBranches) {
  TestDoc doc = FromXml(
      "<r><p><q/><s/></p><p><q/></p><p><s/></p></r>");
  ExpectAllEnginesAgree(doc, FromXPath("//p[q][s]"), "//p[q][s]");
  ExpectAllEnginesAgree(doc, FromXPath("//p[q]"), "//p[q]");
  ExpectAllEnginesAgree(doc, FromXPath("//p[q and s]"), "//p[q and s]");
}

TEST(MatchersTest, NestedDescendantPredicates) {
  // Triggers the hybrid's nested-seam fallback path.
  TestDoc doc = FromXml(
      "<r><a><b><c><d/></c></b></a><a><b/></a>"
      "<a><b><c/></b><x><d/></x></a></r>");
  ExpectAllEnginesAgree(doc, FromXPath("//a[b//c[.//d]]"),
                        "//a[b//c[.//d]] (nested seams)");
  ExpectAllEnginesAgree(doc, FromXPath("//a[.//d]//c"), "//a[.//d]//c");
}

TEST(MatchersTest, FilteredBranchStreamExhaustsBeforeSibling) {
  // Regression: the `i > 20` filter leaves a short stream that exhausts
  // while the sibling `c` stream still has pairable elements. TwigStack's
  // getNext must keep draining live branches instead of terminating.
  TestDoc doc = FromXml(
      "<r>"
      "<oa><b><i>5</i></b><c>c1</c></oa>"
      "<oa><b><i>30</i></b><c>c2</c></oa>"   // the only qualifying i
      "<oa><b><i>7</i></b><c>c3</c></oa>"
      "<oa><b><i>2</i></b><c>c4</c></oa>"
      "</r>");
  ExpectAllEnginesAgree(doc, FromXPath("//oa[b/i > 20]/c"),
                        "//oa[b/i > 20]/c (early stream exhaustion)");
  // Mirror case: the filtered branch comes second in document order.
  TestDoc doc2 = FromXml(
      "<r>"
      "<oa><c>c1</c><b><i>30</i></b></oa>"
      "<oa><c>c2</c><b><i>5</i></b></oa>"
      "</r>");
  ExpectAllEnginesAgree(doc2, FromXPath("//oa[b/i > 20]/c"),
                        "//oa[b/i > 20]/c (filtered branch second)");
}

TEST(MatchersTest, EmptyResults) {
  TestDoc doc = FromXml("<r><a/></r>");
  ExpectAllEnginesAgree(doc, FromXPath("//zzz"), "//zzz (unknown tag)");
  ExpectAllEnginesAgree(doc, FromXPath("/r/a/a"), "/r/a/a (no match)");
  ExpectAllEnginesAgree(doc, FromXPath("//a[@id]"), "//a[@id]");
}

TEST(MatchersTest, RecursiveNesting) {
  TestDoc doc = FromXml(
      "<a><a><a><b/></a></a><b/><a><a><b/><b/></a></a></a>");
  ExpectAllEnginesAgree(doc, FromXPath("//a//a"), "//a//a");
  ExpectAllEnginesAgree(doc, FromXPath("//a/a/b"), "//a/a/b");
  ExpectAllEnginesAgree(doc, FromXPath("//a[a]/b"), "//a[a]/b");
  ExpectAllEnginesAgree(doc, FromXPath("//a[b]//b"), "//a[b]//b");
}

TEST(NokMatcherTest, SingleScanPairs) {
  TestDoc doc = FromXml(
      "<r><a><b/><c/></a><a><b/></a></r>");
  // Single-part pattern: a[b][c] (all child arcs).
  PatternGraph graph;
  const VertexId a = graph.AddVertex(graph.root(), Axis::kDescendant, "a");
  const VertexId b = graph.AddVertex(a, Axis::kChild, "b");
  graph.AddVertex(a, Axis::kChild, "c");
  graph.SetOutput(b);
  const xpath::NokPartition partition = xpath::PartitionNok(graph);
  ASSERT_EQ(partition.parts.size(), 2u);  // {root} and {a,b,c}
  const VertexId requested[] = {b};
  auto result =
      MatchNokPart(*doc.succinct, graph, partition.parts[1], requested);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // Only the first <a> has both b and c.
  EXPECT_EQ(result->head_matches, (NodeList{2}));
  ASSERT_EQ(result->pairs[0].size(), 1u);
  EXPECT_EQ(result->pairs[0][0].ancestor, 2u);
  EXPECT_EQ(result->pairs[0][0].descendant, 3u);
}

TEST(NokMatcherTest, MatchNokPatternSinglePart) {
  TestDoc doc = FromXml("<bib><book><title/></book><book/></bib>");
  PatternGraph graph;
  const VertexId bib = graph.AddVertex(graph.root(), Axis::kChild, "bib");
  const VertexId book = graph.AddVertex(bib, Axis::kChild, "book");
  graph.AddVertex(book, Axis::kChild, "title");
  graph.SetOutput(book);
  auto result = MatchNokPattern(*doc.succinct, graph);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(*result, (NodeList{2}));
}

TEST(NokMatcherTest, RejectsUnsupportedAxes) {
  TestDoc doc = FromXml("<r><a/><b/></r>");
  PatternGraph graph;
  const VertexId a = graph.AddVertex(graph.root(), Axis::kChild, "a");
  graph.AddVertex(a, Axis::kFollowingSibling, "b");
  graph.SetOutput(a);
  const xpath::NokPartition partition = xpath::PartitionNok(graph);
  const VertexId requested[] = {a};
  auto result =
      MatchNokPart(*doc.succinct, graph, partition.parts[0], requested);
  EXPECT_EQ(result.status().code(), StatusCode::kUnsupported);
}

/// The indexed values of `doc`: every attribute value and the text of every
/// data element, so generated `=` predicates hit the index.
std::vector<std::string> IndexedLiterals(const xml::Document& doc) {
  std::vector<std::string> out;
  for (xml::NodeId n = 0; n < doc.NodeCount(); ++n) {
    if (doc.Kind(n) == xml::NodeKind::kAttribute) {
      out.emplace_back(doc.Text(n));
    } else if (doc.Kind(n) == xml::NodeKind::kText &&
               doc.FirstChild(doc.Parent(n)) == n &&
               doc.NextSibling(n) == xml::kNullNode) {
      out.emplace_back(doc.Text(n));
    }
  }
  if (out.empty()) out.emplace_back("0");
  return out;
}

/// An `=` predicate against a literal from the document, typed as an XPath
/// string comparison or a `where` general comparison.
ValuePredicate RandomEquality(Rng* rng,
                              const std::vector<std::string>& literals) {
  const ValueTyping typing =
      rng->Chance(0.5) ? ValueTyping::kString : ValueTyping::kGeneral;
  return ValuePredicate{CompareOp::kEq, literals[rng->Below(literals.size())],
                        typing};
}

/// What RandomPattern draws from: the document's element labels and its
/// indexed values.
struct PatternVocabulary {
  std::vector<std::string> labels;
  std::vector<std::string> literals;
};

/// Generates a random twig over a document's vocabulary.
PatternGraph RandomPattern(Rng* rng, const PatternVocabulary& vocabulary) {
  const std::vector<std::string>& literals = vocabulary.literals;
  PatternGraph graph;
  const auto random_label = [&]() -> std::string {
    if (rng->Chance(0.12)) return "*";
    return vocabulary.labels[rng->Below(vocabulary.labels.size())];
  };
  VertexId spine = graph.root();
  const int steps = static_cast<int>(rng->Range(1, 4));
  std::vector<VertexId> spine_vertices;
  for (int i = 0; i < steps; ++i) {
    const Axis axis = rng->Chance(0.5) ? Axis::kChild : Axis::kDescendant;
    spine = graph.AddVertex(spine, axis, random_label());
    spine_vertices.push_back(spine);
  }
  // Random side branches, possibly multi-step (predicate paths like
  // [x//y = '7'] or nested existence branches).
  const int branches = static_cast<int>(rng->Range(0, 3));
  for (int i = 0; i < branches; ++i) {
    const VertexId at =
        spine_vertices[rng->Below(spine_vertices.size())];
    if (rng->Chance(0.25)) {
      const VertexId attr = graph.AddVertex(at, Axis::kAttribute,
                                            "a" + std::to_string(rng->Below(3)),
                                            /*is_attribute=*/true);
      if (rng->Chance(0.5)) {
        graph.AddPredicate(attr,
                           ValuePredicate{CompareOp::kLt,
                                          std::to_string(rng->Below(50)),
                                          ValueTyping::kNumber});
      } else if (rng->Chance(0.5)) {
        graph.AddPredicate(attr, RandomEquality(rng, literals));
      }
      continue;
    }
    VertexId cur = at;
    const int depth = static_cast<int>(rng->Range(1, 2));
    for (int d = 0; d < depth; ++d) {
      const Axis axis = rng->Chance(0.6) ? Axis::kChild : Axis::kDescendant;
      cur = graph.AddVertex(cur, axis, random_label());
    }
    if (rng->Chance(0.35)) {
      const CompareOp op = rng->Chance(0.5) ? CompareOp::kEq : CompareOp::kGe;
      graph.AddPredicate(cur, ValuePredicate{op,
                                             std::to_string(rng->Below(100)),
                                             ValueTyping::kNumber});
    } else if (rng->Chance(0.3)) {
      graph.AddPredicate(cur, RandomEquality(rng, literals));
    }
  }
  graph.SetOutput(spine_vertices[rng->Below(spine_vertices.size())]);
  return graph;
}

/// A random tree of recursively nested t0..t3 elements in which every
/// element may carry an `a0`..`a2` attribute and `v` data-element children,
/// drawing both from a few values that parse (or not) in different ways.
/// Every `v` is a data element, so `v` vertices seed from the index.
std::unique_ptr<xml::Document> RandomDataTree(uint64_t seed) {
  static const char* const kValues[] = {"1990", "1990.0", " 1990", "x",
                                        "nan",  "inf",    "7",     "12"};
  Rng rng(seed);
  auto doc = std::make_unique<xml::Document>();
  const auto value = [&] { return kValues[rng.Below(std::size(kValues))]; };
  size_t created = 0;
  std::function<void(xml::NodeId, int)> grow = [&](xml::NodeId node,
                                                   int depth) {
    if (rng.Chance(0.4)) {
      doc->AddAttribute(node, "a" + std::to_string(rng.Below(3)), value());
    }
    double keep_going = depth <= 2 ? 0.8 : 0.5;
    while (created < 200 && depth < 8 && rng.Chance(keep_going)) {
      keep_going *= 0.85;
      ++created;
      if (rng.Chance(0.3)) {
        doc->AddText(doc->AddElement(node, "v"), value());
      } else {
        grow(doc->AddElement(node, "t" + std::to_string(rng.Below(4))),
             depth + 1);
      }
    }
  };
  grow(doc->AddElement(doc->root(), "t0"), 1);
  return doc;
}

class MatcherPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MatcherPropertyTest, AllEnginesAgreeOnRandomTreesAndPatterns) {
  datagen::RandomTreeOptions options;
  options.seed = GetParam();
  options.num_elements = 220;
  options.tag_vocabulary = 4;
  const TestDoc docs[] = {TestDoc(datagen::GenerateRandomTree(options)),
                          TestDoc(RandomDataTree(GetParam()))};
  const std::vector<std::string> labels[] = {{"t0", "t1", "t2", "t3"},
                                             {"t0", "t1", "t2", "t3", "v"}};
  Rng rng(GetParam() * 7919 + 13);
  for (size_t d = 0; d < std::size(docs); ++d) {
    const TestDoc& doc = docs[d];
    const PatternVocabulary vocabulary{labels[d], IndexedLiterals(*doc.dom)};
    for (int q = 0; q < 40; ++q) {
      const PatternGraph graph = RandomPattern(&rng, vocabulary);
      ASSERT_TRUE(graph.Validate().ok());
      ExpectAllEnginesAgree(doc, graph,
                            "seed=" + std::to_string(GetParam()) + " query#" +
                                std::to_string(q) + "\n" + graph.ToString());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatcherPropertyTest,
                         ::testing::Values(1ull, 2ull, 3ull, 4ull, 5ull,
                                           6ull, 7ull, 8ull, 9ull, 10ull));

TEST(MatchersTest, NestedListOutputOfTau) {
  // τ : Tree × PatternGraph → NestedList with two output vertices: each
  // book nests its titles (paper §3.2's motivation for the NestedList sort).
  TestDoc doc = FromXml(
      "<bib><book><title>T1</title></book>"
      "<book><title>T2</title><title>T2b</title></book>"
      "<book><extra/></book></bib>");
  PatternGraph graph;
  const VertexId bib = graph.AddVertex(graph.root(), Axis::kChild, "bib");
  const VertexId book = graph.AddVertex(bib, Axis::kChild, "book");
  const VertexId title = graph.AddVertex(book, Axis::kChild, "title");
  graph.SetOutput(book);
  graph.SetOutput(title);
  auto nested = MatchPatternNested(*doc.dom, graph);
  ASSERT_TRUE(nested.ok()) << nested.status().ToString();
  // Two books qualify (the third has no title); titles nest inside them.
  ASSERT_EQ(nested->size(), 2u);
  EXPECT_EQ((*nested)[0].children.size(), 1u);
  EXPECT_EQ((*nested)[1].children.size(), 2u);
  EXPECT_EQ(algebra::NestedSize(*nested), 5u);
  EXPECT_EQ((*nested)[1].children[0].item.StringValue(), "T2");
  // Flattening recovers the List sort in document order.
  const algebra::Sequence flat = algebra::Flatten(*nested);
  EXPECT_EQ(flat.size(), 5u);
}

TEST(MatchersTest, FollowingSiblingAxisViaNaive) {
  TestDoc doc = FromXml(
      "<r><a/><b>1</b><c/><b>2</b><x><a/><b>3</b></x></r>");
  // Only the naive engine evaluates following-sibling; the others report
  // kUnsupported (the executor's fallback covers them end to end).
  const PatternGraph graph = FromXPath("//a/following-sibling::b");
  auto naive = NaiveMatchPattern(*doc.dom, graph);
  ASSERT_TRUE(naive.ok()) << naive.status().ToString();
  ASSERT_EQ(naive->size(), 3u);  // b=1, b=2 (after first a), b=3
  EXPECT_EQ(TwigStackMatch(doc.view, graph).status().code(),
            StatusCode::kUnsupported);
  // `self::` restricts without moving.
  auto self_match =
      NaiveMatchPattern(*doc.dom, FromXPath("//b/self::b[. = '2']"));
  ASSERT_TRUE(self_match.ok());
  EXPECT_EQ(self_match->size(), 1u);
}

TEST(MatchersTest, AuctionWorkloadQueries) {
  datagen::AuctionOptions options;
  options.scale = 0.01;
  TestDoc doc(datagen::GenerateAuctionSite(options));
  for (const char* query : {
           "/site/regions/africa/item",
           "//item/name",
           "//person[profile/education]/name",
           "//open_auction[bidder]/current",
           "//item[payment = 'Cash']//mail",
           "//person[@id = 'person3']",
           "//open_auction[initial > 100]",
           "//closed_auction/price",
       }) {
    ExpectAllEnginesAgree(doc, FromXPath(query), query);
  }
}

// --- Value-index seeding -----------------------------------------------------

/// Every typing × operator × literal over values that parse, parse with
/// whitespace or as NaN/infinity, or do not parse: where the seeding rule
/// says the index answers a predicate, the seeded stream is the scanned
/// stream and the index count is exact; elsewhere nothing seeds.
TEST(SeededStreamTest, SeedEqualsScanForEveryTypingOpAndLiteral) {
  static const char* const kValues[] = {"1990", "1990.0", " 1990", "x",
                                        "",     "nan",    "inf"};
  auto dom = std::make_unique<xml::Document>();
  const xml::NodeId r = dom->AddElement(dom->root(), "r");
  for (const char* value : kValues) {
    const xml::NodeId e = dom->AddElement(r, "e");
    dom->AddAttribute(e, "v", value);
    // An empty element is not a data element; keep `p` fully indexed.
    if (*value != '\0') dom->AddText(dom->AddElement(e, "p"), value);
  }
  const TestDoc doc(std::move(dom));
  const auto element_count = [&](xml::NameId name) {
    return doc.regions->Postings(name, /*attribute=*/false).size();
  };
  for (const ValueTyping typing :
       {ValueTyping::kString, ValueTyping::kNumber, ValueTyping::kGeneral,
        ValueTyping::kGeneralNumber}) {
    for (const CompareOp op : {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                               CompareOp::kLe, CompareOp::kGt,
                               CompareOp::kGe}) {
      for (const char* literal : kValues) {
        for (const bool attribute : {true, false}) {
          PatternGraph graph;
          const VertexId e =
              graph.AddVertex(graph.root(), Axis::kDescendant, "e");
          const VertexId target =
              attribute ? graph.AddVertex(e, Axis::kAttribute, "v", true)
                        : graph.AddVertex(e, Axis::kChild, "p");
          const ValuePredicate pred{op, literal, typing};
          graph.AddPredicate(target, pred);
          graph.SetOutput(e);
          const std::string cell =
              std::string(attribute ? "@v " : "p ") + pred.ToString() +
              " typing=" + std::to_string(static_cast<int>(typing));
          auto scanned =
              BuildVertexStream(doc.view, graph.vertex(target), nullptr);
          ASSERT_TRUE(scanned.ok()) << cell;
          const StreamSeed seed = ChooseSeed(graph, *doc.values,
                                             doc.dom->pool(), element_count);
          const bool exact =
              algebra::IndexSeekFor(pred).kind != algebra::IndexSeek::Kind::kNone;
          ASSERT_EQ(seed.vertex == target, exact) << cell;
          auto streams = BuildPatternStreams(doc.view, graph);
          ASSERT_TRUE(streams.ok()) << cell;
          ASSERT_EQ((*streams)[target].size(), scanned->size()) << cell;
          for (size_t i = 0; i < scanned->size(); ++i) {
            EXPECT_EQ((*streams)[target][i].start, (*scanned)[i].start)
                << cell;
          }
          if (exact) {
            EXPECT_EQ(seed.hits, scanned->size()) << cell;
          }
          ExpectAllEnginesAgree(doc, graph, cell);
        }
      }
    }
  }
}

TEST(SeededStreamTest, MixedContentElementsDoNotSeed) {
  // Both `a`s have the string-value "foo", but only the second is a data
  // element, so the index misses the first: `a` must not seed.
  TestDoc doc = FromXml("<r><a>fo<b/>o</a><a>foo</a></r>");
  PatternGraph graph;
  const VertexId a = graph.AddVertex(graph.root(), Axis::kDescendant, "a");
  graph.AddPredicate(a, ValuePredicate{CompareOp::kEq, "foo"});
  graph.SetOutput(a);
  const StreamSeed seed = ChooseSeed(
      graph, *doc.values, doc.dom->pool(), [&](xml::NameId name) {
        return doc.regions->Postings(name, /*attribute=*/false).size();
      });
  EXPECT_EQ(seed.vertex, algebra::kNoVertex);
  auto twig = TwigStackMatch(doc.view, graph);
  ASSERT_TRUE(twig.ok()) << twig.status().ToString();
  EXPECT_EQ(twig->size(), 2u);
  ExpectAllEnginesAgree(doc, graph, "a = 'foo' over mixed content");
}

TEST(SeededStreamTest, NestedSameTagParentsKeepInnerChildren) {
  // The seeded `a` candidates nest. A `b` too deep for an outer `a` can be
  // a child of an inner one, and the middle `a` (no matching `x`) must not
  // contribute its `b` children.
  TestDoc doc = FromXml(
      "<r><a id=\"k\"><a id=\"k\"><b>1</b></a><b>2</b></a>"
      "<a><x id=\"k\"/><a><b>3</b><a><x id=\"k\"/><b>4</b></a><b>5</b>"
      "</a><b>6</b></a></r>");
  for (const char* query : {
           "//a[@id = 'k']/b",
           "//a[@id = 'k']//b",
           "//a[x/@id = 'k']/b",
           "//a[x/@id = 'k']//b",
           "//a[b = '4']//a/b",
           "//r//a[.//x/@id = 'k']/b",
       }) {
    ExpectAllEnginesAgree(doc, FromXPath(query), query);
  }
  auto nested = TwigStackMatch(doc.view, FromXPath("//a[@id = 'k']/b"));
  ASSERT_TRUE(nested.ok());
  EXPECT_EQ(nested->size(), 2u);
  // The `a` candidates are the outer `a` of the second group and its
  // innermost `a`. Of the four `b`s inside the outer one, only the two at
  // a candidate's child level stay in the stream: 4 and 6, not 3 and 5.
  const PatternGraph graph = FromXPath("//a[x/@id = 'k']/b");
  auto streams = BuildPatternStreams(doc.view, graph);
  ASSERT_TRUE(streams.ok());
  const VertexId b = graph.SoleOutput();
  ASSERT_EQ((*streams)[b].size(), 2u);
  EXPECT_EQ(doc.dom->StringValue((*streams)[b][0].start), "4");
  EXPECT_EQ(doc.dom->StringValue((*streams)[b][1].start), "6");
}

}  // namespace
}  // namespace xmlq::exec
