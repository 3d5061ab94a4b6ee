#include <gtest/gtest.h>

#include "xmlq/xpath/compiler.h"
#include "xmlq/xpath/lexer.h"
#include "xmlq/xpath/nok_partition.h"
#include "xmlq/xpath/parser.h"

namespace xmlq::xpath {
namespace {

using algebra::Axis;
using algebra::CompareOp;

TEST(LexerTest, TokenizesOperatorsAndLiterals) {
  auto tokens = Tokenize("/a//b[@id = 'x'][n >= 4.5]");
  ASSERT_TRUE(tokens.ok());
  std::vector<TokenKind> kinds;
  for (const Token& t : *tokens) kinds.push_back(t.kind);
  const std::vector<TokenKind> expected = {
      TokenKind::kSlash,    TokenKind::kName,     TokenKind::kDoubleSlash,
      TokenKind::kName,     TokenKind::kLBracket, TokenKind::kAt,
      TokenKind::kName,     TokenKind::kEq,       TokenKind::kString,
      TokenKind::kRBracket, TokenKind::kLBracket, TokenKind::kName,
      TokenKind::kGe,       TokenKind::kNumber,   TokenKind::kRBracket,
      TokenKind::kEnd};
  EXPECT_EQ(kinds, expected);
  EXPECT_EQ((*tokens)[8].text, "x");
  EXPECT_EQ((*tokens)[13].text, "4.5");
}

TEST(LexerTest, RejectsBadCharacters) {
  EXPECT_FALSE(Tokenize("/a[b % 2]").ok());
  EXPECT_FALSE(Tokenize("/a['unterminated]").ok());
  EXPECT_FALSE(Tokenize("/a[b ! c]").ok());
}

TEST(ParserTest, SimplePath) {
  auto path = ParsePath("/bib/book//title");
  ASSERT_TRUE(path.ok()) << path.status().ToString();
  ASSERT_EQ(path->steps.size(), 3u);
  EXPECT_EQ(path->steps[0].axis, Axis::kChild);
  EXPECT_EQ(path->steps[0].name, "bib");
  EXPECT_EQ(path->steps[2].axis, Axis::kDescendant);
  EXPECT_EQ(path->steps[2].name, "title");
}

TEST(ParserTest, AttributesWildcardsPredicates) {
  auto path = ParsePath("//book[@year = '1994'][price < 50]/*");
  ASSERT_TRUE(path.ok()) << path.status().ToString();
  ASSERT_EQ(path->steps.size(), 2u);
  const StepAst& book = path->steps[0];
  ASSERT_EQ(book.predicates.size(), 2u);
  EXPECT_TRUE(book.predicates[0].path[0].is_attribute);
  EXPECT_EQ(book.predicates[0].literal, "1994");
  EXPECT_FALSE(book.predicates[0].numeric);
  EXPECT_EQ(book.predicates[1].op, CompareOp::kLt);
  EXPECT_TRUE(book.predicates[1].numeric);
  EXPECT_EQ(path->steps[1].name, "*");
}

TEST(ParserTest, ConjunctionAndNestedPredicatePaths) {
  auto path = ParsePath("/a[b/c = 'x' and d]//e[. != 'y']");
  ASSERT_TRUE(path.ok()) << path.status().ToString();
  const StepAst& a = path->steps[0];
  ASSERT_EQ(a.predicates.size(), 2u);
  ASSERT_EQ(a.predicates[0].path.size(), 2u);
  EXPECT_EQ(a.predicates[0].path[1].name, "c");
  EXPECT_FALSE(a.predicates[1].has_comparison);  // existence of d
  const StepAst& e = path->steps[1];
  ASSERT_EQ(e.predicates.size(), 1u);
  EXPECT_TRUE(e.predicates[0].path.empty());  // '.' comparison
  EXPECT_EQ(e.predicates[0].op, CompareOp::kNe);
}

TEST(ParserTest, RejectsOutsideSubset) {
  EXPECT_EQ(ParsePath("/a[1]").status().code(), StatusCode::kUnsupported);
  EXPECT_EQ(ParsePath("/a[b or c]").status().code(),
            StatusCode::kUnsupported);
  EXPECT_EQ(ParsePath("a/b").status().code(), StatusCode::kParseError);
  EXPECT_EQ(ParsePath("/").status().code(), StatusCode::kParseError);
  EXPECT_EQ(ParsePath("/a]").status().code(), StatusCode::kParseError);
  EXPECT_EQ(ParsePath("").status().code(), StatusCode::kParseError);
}

TEST(ParserTest, ExplicitAxisSyntax) {
  auto path = ParsePath(
      "/child::a/descendant::b/following-sibling::c/attribute::id");
  ASSERT_TRUE(path.ok()) << path.status().ToString();
  ASSERT_EQ(path->steps.size(), 4u);
  EXPECT_EQ(path->steps[0].axis, Axis::kChild);
  EXPECT_EQ(path->steps[1].axis, Axis::kDescendant);
  EXPECT_EQ(path->steps[2].axis, Axis::kFollowingSibling);
  EXPECT_EQ(path->steps[3].axis, Axis::kAttribute);
  EXPECT_TRUE(path->steps[3].is_attribute);
  EXPECT_EQ(ParsePath("/self::a").status().ok(), true);
  EXPECT_EQ(ParsePath("/ancestor::a").status().code(),
            StatusCode::kUnsupported);
  EXPECT_EQ(ParsePath("//following-sibling::a").status().code(),
            StatusCode::kParseError);
}

TEST(CompilerTest, BuildsTwigFromPredicates) {
  auto path = ParsePath("/bib/book[author/last = 'Stevens']//title");
  ASSERT_TRUE(path.ok());
  auto graph = CompileToPattern(*path);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  // root, bib, book, author, last, title = 6 vertices.
  EXPECT_EQ(graph->VertexCount(), 6u);
  const auto out = graph->SoleOutput();
  EXPECT_EQ(graph->vertex(out).label, "title");
  EXPECT_EQ(graph->vertex(out).incoming_axis, Axis::kDescendant);
  // The comparison lands on `last`.
  bool found = false;
  for (algebra::VertexId v = 0; v < graph->VertexCount(); ++v) {
    if (graph->vertex(v).label == "last") {
      ASSERT_EQ(graph->vertex(v).predicates.size(), 1u);
      EXPECT_EQ(graph->vertex(v).predicates[0].literal(), "Stevens");
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(CompilerTest, NavigationChainForSimplePaths) {
  auto path = ParsePath("/bib/book/title");
  ASSERT_TRUE(path.ok());
  auto chain = CompileToNavigationChain(*path, "d");
  ASSERT_TRUE(chain.ok());
  EXPECT_EQ((*chain)->op, algebra::LogicalOp::kNavigate);
  // Structural predicates cannot be expressed as a chain.
  auto twig = ParsePath("/bib/book[author]");
  ASSERT_TRUE(twig.ok());
  EXPECT_EQ(CompileToNavigationChain(*twig, "d").status().code(),
            StatusCode::kUnsupported);
}

TEST(CompilerTest, CompilePathProducesTreePatternPlan) {
  auto plan = CompilePath("//book[price < 50]/title", "bib.xml");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ((*plan)->op, algebra::LogicalOp::kTreePattern);
  EXPECT_EQ((*plan)->children[0]->str, "bib.xml");
}

TEST(NokPartitionTest, ChildOnlyPathIsOnePart) {
  auto path = ParsePath("/bib/book/title");
  auto graph = CompileToPattern(*path);
  ASSERT_TRUE(graph.ok());
  const NokPartition partition = PartitionNok(*graph);
  ASSERT_EQ(partition.parts.size(), 1u);
  EXPECT_EQ(partition.parts[0].head, graph->root());
  EXPECT_EQ(partition.parts[0].vertices.size(), 4u);
}

TEST(NokPartitionTest, DescendantArcsCutParts) {
  auto path = ParsePath("/a/b//c/d[@x]//e");
  auto graph = CompileToPattern(*path);
  ASSERT_TRUE(graph.ok());
  const NokPartition partition = PartitionNok(*graph);
  // Parts: {root,a,b}, {c,d,@x}, {e}.
  ASSERT_EQ(partition.parts.size(), 3u);
  EXPECT_EQ(partition.parts[0].vertices.size(), 3u);
  EXPECT_EQ(partition.parts[1].vertices.size(), 3u);
  EXPECT_EQ(partition.parts[2].vertices.size(), 1u);
  // Seams: part1 hangs off b (in part0); part2 hangs off d (in part1).
  EXPECT_EQ(partition.parts[1].parent_part, 0);
  EXPECT_EQ(graph->vertex(partition.parts[1].attach_vertex).label, "b");
  EXPECT_EQ(partition.parts[2].parent_part, 1);
  EXPECT_EQ(graph->vertex(partition.parts[2].attach_vertex).label, "d");
  // part_of is consistent.
  for (size_t p = 0; p < partition.parts.size(); ++p) {
    for (auto v : partition.parts[p].vertices) {
      EXPECT_EQ(partition.part_of[v], static_cast<int>(p));
    }
  }
  const std::string rendered = partition.ToString(*graph);
  EXPECT_NE(rendered.find("part 1"), std::string::npos);
}

TEST(NokPartitionTest, LeadingDescendantSplitsFromRoot) {
  auto path = ParsePath("//book/title");
  auto graph = CompileToPattern(*path);
  ASSERT_TRUE(graph.ok());
  const NokPartition partition = PartitionNok(*graph);
  ASSERT_EQ(partition.parts.size(), 2u);
  EXPECT_EQ(partition.parts[0].vertices.size(), 1u);  // just the root
  EXPECT_EQ(graph->vertex(partition.parts[1].head).label, "book");
  EXPECT_EQ(partition.parts[1].vertices.size(), 2u);
}

}  // namespace
}  // namespace xmlq::xpath
