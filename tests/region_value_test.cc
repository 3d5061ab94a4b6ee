#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "xmlq/datagen/auction_gen.h"
#include "xmlq/datagen/bib_gen.h"
#include "xmlq/datagen/random_tree.h"
#include "xmlq/exec/structural_join.h"
#include "xmlq/storage/region_index.h"
#include "xmlq/storage/value_index.h"
#include "xmlq/xml/parser.h"

namespace xmlq::storage {
namespace {

TEST(RegionIndexTest, SmallDocumentRegions) {
  auto doc = xml::ParseDocument("<a><b><c/></b><b/></a>");
  ASSERT_TRUE(doc.ok());
  RegionIndex index(*doc);
  // Nodes: doc=0, a=1, b=2, c=3, b=4.
  ASSERT_EQ(index.PostingSpan(/*attribute=*/false).size(), 4u);
  EXPECT_EQ(index.EndOf(1), 4u);
  EXPECT_EQ(index.EndOf(2), 3u);
  EXPECT_EQ(index.EndOf(4), 4u);
  EXPECT_EQ(index.LevelOf(3), 3u);
  const auto b_postings = index.Postings(doc->pool().Find("b"), false);
  ASSERT_EQ(b_postings.size(), 2u);
  EXPECT_EQ(b_postings[0], 2u);
  EXPECT_EQ(b_postings[1], 4u);
  EXPECT_TRUE(index.RegionOf(1).Contains(index.RegionOf(3)));
  EXPECT_FALSE(index.RegionOf(2).Contains(index.RegionOf(4)));
  EXPECT_TRUE(index.RegionOf(2).IsParentOf(index.RegionOf(3)));
  EXPECT_FALSE(index.RegionOf(1).IsParentOf(index.RegionOf(3)));
}

TEST(RegionIndexTest, ContainmentMatchesAncestorRelationOnRandomTrees) {
  for (uint64_t seed : {3ull, 8ull, 21ull}) {
    datagen::RandomTreeOptions options;
    options.seed = seed;
    options.num_elements = 120;
    auto doc = datagen::GenerateRandomTree(options);
    RegionIndex index(*doc);
    // Reference ancestor check by chasing parents.
    const auto is_ancestor = [&](xml::NodeId a, xml::NodeId d) {
      for (xml::NodeId p = doc->Parent(d); p != xml::kNullNode;
           p = doc->Parent(p)) {
        if (p == a) return true;
      }
      return false;
    };
    for (xml::NodeId a = 0; a < doc->NodeCount(); a += 3) {
      for (xml::NodeId d = 0; d < doc->NodeCount(); d += 7) {
        const bool expected = is_ancestor(a, d);
        const bool interval = index.RegionOf(a).Contains(index.RegionOf(d));
        ASSERT_EQ(interval, expected)
            << "a=" << a << " d=" << d << " seed=" << seed;
      }
    }
  }
}

TEST(RegionIndexTest, AttributeStreams) {
  auto doc =
      xml::ParseDocument("<r><x id=\"1\"/><y id=\"2\" class=\"k\"/></r>");
  ASSERT_TRUE(doc.ok());
  RegionIndex index(*doc);
  const auto ids = index.Postings(doc->pool().Find("id"), /*attribute=*/true);
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_LT(ids[0], ids[1]);
  EXPECT_EQ(index.RegionOf(ids[0]).end, ids[0]);
  EXPECT_EQ(index.Postings(doc->pool().Find("class"), true).size(), 1u);
  EXPECT_TRUE(index.Postings(doc->pool().Find("id"), false).empty());
  EXPECT_TRUE(index.Postings(xml::kInvalidName, false).empty());
}

/// Checks every posting list of `index` against a DOM scan for its name and
/// kind, every RegionOf against end/level recomputed from parent links, and
/// the `*` vertex streams against all elements (attributes) in document
/// order.
void ExpectPostingsMatchDom(const xml::Document& doc) {
  const RegionIndex index(doc);
  const size_t n = doc.NodeCount();
  std::vector<uint32_t> end(n);
  std::vector<uint32_t> level(n, 0);
  for (xml::NodeId i = 0; i < n; ++i) {
    end[i] = i;
    if (i > 0) level[i] = level[doc.Parent(i)] + 1;
  }
  for (xml::NodeId i = static_cast<xml::NodeId>(n); i-- > 1;) {
    const xml::NodeId parent = doc.Parent(i);
    end[parent] = std::max(end[parent], end[i]);
  }
  for (xml::NodeId i = 0; i < n; ++i) {
    const Region r = index.RegionOf(i);
    ASSERT_EQ(r.start, i);
    ASSERT_EQ(r.end, end[i]) << "node " << i;
    ASSERT_EQ(r.level, level[i]) << "node " << i;
  }
  EXPECT_EQ(index.DocumentRegion().end, n - 1);
  for (const bool attribute : {false, true}) {
    const xml::NodeKind kind =
        attribute ? xml::NodeKind::kAttribute : xml::NodeKind::kElement;
    size_t listed = 0;
    for (xml::NameId name = 0; name < doc.pool().size(); ++name) {
      std::vector<xml::NodeId> scan;
      for (xml::NodeId i = 0; i < n; ++i) {
        if (doc.Kind(i) == kind && doc.Name(i) == name) scan.push_back(i);
      }
      const auto postings = index.Postings(name, attribute);
      EXPECT_EQ(std::vector<xml::NodeId>(postings.begin(), postings.end()),
                scan)
          << doc.pool().NameOf(name) << (attribute ? " (attribute)" : "");
      listed += postings.size();
    }
    std::vector<xml::NodeId> all;
    for (xml::NodeId i = 0; i < n; ++i) {
      if (doc.Kind(i) == kind) all.push_back(i);
    }
    EXPECT_EQ(listed, all.size());
    // The wildcard stream, derived from the node kinds.
    algebra::PatternGraph graph;
    const algebra::VertexId star = graph.AddVertex(
        graph.root(),
        attribute ? algebra::Axis::kAttribute : algebra::Axis::kDescendant,
        "*", attribute);
    const exec::IndexedDocument view{&doc, nullptr, &index, nullptr};
    exec::OpStats stats;
    auto stream = exec::BuildVertexStream(view, graph.vertex(star), &stats);
    ASSERT_TRUE(stream.ok()) << stream.status().ToString();
    EXPECT_EQ(stats.index_probes, all.size());
    ASSERT_EQ(stream->size(), all.size());
    for (size_t i = 0; i < all.size(); ++i) {
      EXPECT_EQ((*stream)[i].start, all[i]);
      EXPECT_EQ((*stream)[i].end, end[all[i]]);
      EXPECT_EQ((*stream)[i].level, level[all[i]]);
    }
  }
}

TEST(RegionIndexTest, PostingsMatchDomScanOnRandomTrees) {
  for (uint64_t seed : {5ull, 13ull}) {
    datagen::RandomTreeOptions options;
    options.seed = seed;
    options.num_elements = 300;
    auto doc = datagen::GenerateRandomTree(options);
    SCOPED_TRACE(seed);
    ExpectPostingsMatchDom(*doc);
  }
}

TEST(RegionIndexTest, PostingsMatchDomScanOnAuction) {
  datagen::AuctionOptions options;
  options.scale = 0.05;
  auto doc = datagen::GenerateAuctionSite(options);
  ExpectPostingsMatchDom(*doc);
}

TEST(ValueIndexTest, ElementLookup) {
  auto doc = xml::ParseDocument(
      "<r><p>10</p><p>20</p><p>10</p><q>10</q><mixed>a<u/>b</mixed></r>");
  ASSERT_TRUE(doc.ok());
  ValueIndex index(*doc);
  const xml::NameId p = doc->pool().Find("p");
  const auto tens = index.Lookup(p, "10", /*attribute=*/false);
  EXPECT_EQ(tens.size(), 2u);
  EXPECT_TRUE(index.Lookup(p, "30", false).empty());
  // q with the same value is a different key.
  EXPECT_EQ(index.Lookup(doc->pool().Find("q"), "10", false).size(), 1u);
  // Mixed-content elements are not data elements and are not indexed.
  EXPECT_TRUE(index.Lookup(doc->pool().Find("mixed"), "ab", false).empty());
}

TEST(ValueIndexTest, AttributeLookupAndNumericRange) {
  auto doc = xml::ParseDocument(
      "<r><i price=\"5\"/><i price=\"15\"/><i price=\"25\"/>"
      "<i price=\"cheap\"/></r>");
  ASSERT_TRUE(doc.ok());
  ValueIndex index(*doc);
  const xml::NameId price = doc->pool().Find("price");
  EXPECT_EQ(index.Lookup(price, "15", true).size(), 1u);
  const auto in_range = index.LookupNumericRange(price, 5, false, 25, true,
                                                 /*attribute=*/true);
  EXPECT_EQ(in_range.size(), 2u);  // 15 and 25; 5 excluded, "cheap" skipped
  const auto all = index.LookupNumericRange(price, 0, true, 100, true, true);
  EXPECT_EQ(all.size(), 3u);
}

TEST(ValueIndexTest, BibliographyPriceRange) {
  datagen::BibOptions options;
  options.num_books = 200;
  auto doc = datagen::GenerateBibliography(options);
  ValueIndex index(*doc);
  const xml::NameId price = doc->pool().Find("price");
  const auto all =
      index.LookupNumericRange(price, 0, true, 1e9, true, false);
  EXPECT_EQ(all.size(), 200u);
  const auto some =
      index.LookupNumericRange(price, 0, true, 80, true, false);
  EXPECT_GT(some.size(), 0u);
  EXPECT_LT(some.size(), 200u);
  // Results are element NodeIds in document order.
  for (size_t i = 1; i < some.size(); ++i) {
    EXPECT_LT(some[i - 1], some[i]);
  }
  // Cross-check one hit against the document.
  ASSERT_FALSE(some.empty());
  const double v = std::stod(doc->StringValue(some[0]));
  EXPECT_LE(v, 80.0);
}

TEST(ValueIndexTest, CountsWithoutMaterializing) {
  auto doc = xml::ParseDocument(
      "<r><p>10</p><p>20</p><p>10</p><p>x</p>"
      "<i price=\"5\"/><i price=\"15\"/><i price=\"15\"/></r>");
  ASSERT_TRUE(doc.ok());
  ValueIndex index(*doc);
  const xml::NameId p = doc->pool().Find("p");
  const xml::NameId price = doc->pool().Find("price");
  // Absent name: never interned, or interned but not in this family.
  EXPECT_EQ(index.CountEqual(xml::kInvalidName, "10", false), 0u);
  EXPECT_EQ(index.CountEqual(doc->pool().Find("r"), "10", false), 0u);
  EXPECT_EQ(index.CountEqual(price, "15", /*attribute=*/false), 0u);
  EXPECT_EQ(index.CountNumericRange(xml::kInvalidName, 0, true, 100, true,
                                    false),
            0u);
  EXPECT_EQ(index.CountNumericRange(p, 0, true, 100, true, true), 0u);
  // Absent value.
  EXPECT_EQ(index.CountEqual(p, "30", false), 0u);
  EXPECT_EQ(index.CountEqual(price, "7", true), 0u);
  EXPECT_EQ(index.CountNumericRange(p, 11, true, 19, true, false), 0u);
  // Present values, both families.
  EXPECT_EQ(index.CountEqual(p, "10", false), 2u);
  EXPECT_EQ(index.CountEqual(p, "x", false), 1u);
  EXPECT_EQ(index.CountEqual(price, "15", true), 2u);
  // Inclusive and exclusive bounds ("x" has no numeric value).
  EXPECT_EQ(index.CountNumericRange(p, 10, true, 20, true, false), 3u);
  EXPECT_EQ(index.CountNumericRange(p, 10, false, 20, true, false), 1u);
  EXPECT_EQ(index.CountNumericRange(p, 10, true, 20, false, false), 2u);
  EXPECT_EQ(index.CountNumericRange(p, 10, false, 20, false, false), 0u);
  EXPECT_EQ(index.CountNumericRange(price, 5, true, 15, true, true), 3u);
  EXPECT_EQ(index.CountNumericRange(price, 5, false, 15, true, true), 2u);
  EXPECT_EQ(index.CountNumericRange(price, 5, true, 15, false, true), 1u);
  EXPECT_EQ(index.CountNumericRange(price, 15, true, 15, true, true), 2u);
}

TEST(ValueIndexTest, CountsEqualLookupSizesOnAuction) {
  datagen::AuctionOptions options;
  options.scale = 0.05;
  options.seed = 11;
  auto doc = datagen::GenerateAuctionSite(options);
  ValueIndex index(*doc);
  // Every indexed (name, value) key, both families.
  size_t checked = 0;
  for (xml::NodeId id = 0; id < doc->NodeCount(); ++id) {
    const bool attribute = doc->Kind(id) == xml::NodeKind::kAttribute;
    if (!attribute && doc->Kind(id) != xml::NodeKind::kElement) continue;
    const std::string value = doc->StringValue(id);
    ASSERT_EQ(index.CountEqual(doc->Name(id), value, attribute),
              index.Lookup(doc->Name(id), value, attribute).size())
        << doc->pool().NameOf(doc->Name(id)) << " = " << value;
    ++checked;
  }
  EXPECT_GT(checked, 1000u);
  for (const char* name : {"increase", "current", "price", "quantity"}) {
    const xml::NameId id = doc->pool().Find(name);
    ASSERT_NE(id, xml::kInvalidName) << name;
    for (const double lo : {0.0, 1.5, 10.0, 25.0}) {
      for (const double hi : {1.5, 12.0, 26.5, 1e9}) {
        for (const bool lo_in : {false, true}) {
          for (const bool hi_in : {false, true}) {
            EXPECT_EQ(index.CountNumericRange(id, lo, lo_in, hi, hi_in, false),
                      index.LookupNumericRange(id, lo, lo_in, hi, hi_in, false)
                          .size())
                << name << " " << lo << ".." << hi;
          }
        }
      }
    }
  }
}

TEST(ValueIndexTest, NanValuesStayOutOfNumericRuns) {
  // One value in three is "nan", which parses. Left in a run it would break
  // the run's sort order and so every binary search over it.
  std::string text = "<r>";
  for (int i = 0; i < 200; ++i) {
    text += "<p>" + (i % 3 == 0 ? std::string("nan")
                                : std::to_string((i * 37) % 211)) +
            "</p>";
  }
  text += "</r>";
  auto doc = xml::ParseDocument(text);
  ASSERT_TRUE(doc.ok());
  ValueIndex index(*doc);
  const xml::NameId p = doc->pool().Find("p");
  const RegionIndex regions(*doc);
  const auto stream = regions.Postings(p, /*attribute=*/false);
  ASSERT_EQ(stream.size(), 200u);
  ASSERT_EQ(index.RunSize(p, /*attribute=*/false), 200u);
  size_t ranges = 0;
  for (const double lo : {-1.0, 0.0, 50.0, 100.0}) {
    for (const double hi : {0.0, 100.0, 150.0, 210.0}) {
      if (hi < lo) continue;
      for (const bool inclusive : {false, true}) {
        std::vector<xml::NodeId> scan;
        for (const xml::NodeId id : stream) {
          const double v = std::stod(doc->StringValue(id));
          if (!std::isnan(v) && (inclusive ? lo <= v : lo < v) &&
              (inclusive ? v <= hi : v < hi)) {
            scan.push_back(id);
          }
        }
        EXPECT_EQ(index.LookupNumericRange(p, lo, inclusive, hi, inclusive,
                                           false),
                  scan)
            << lo << ".." << hi;
        EXPECT_EQ(index.CountNumericRange(p, lo, inclusive, hi, inclusive,
                                          false),
                  scan.size())
            << lo << ".." << hi;
        ++ranges;
      }
    }
  }
  EXPECT_EQ(ranges, 28u);
  // NaN is still indexed as text, and a NaN bound selects nothing.
  EXPECT_EQ(index.CountEqual(p, "nan", false), 67u);
  const double nan = std::nan("");
  EXPECT_EQ(index.CountNumericRange(p, nan, true, nan, true, false), 0u);
  EXPECT_EQ(index.CountNumericRange(p, nan, false, 1e9, true, false), 0u);
}

}  // namespace
}  // namespace xmlq::storage
