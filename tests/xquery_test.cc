#include <gtest/gtest.h>

#include "xmlq/xquery/parser.h"
#include "xmlq/xquery/schema_extract.h"
#include "xmlq/xquery/translate.h"

namespace xmlq::xquery {
namespace {

using algebra::LogicalOp;

ExprPtr Parse(std::string_view query) {
  auto ast = ParseQuery(query);
  EXPECT_TRUE(ast.ok()) << ast.status().ToString();
  return ast.ok() ? std::move(*ast) : std::make_unique<Expr>(ExprKind::kSequence);
}

TEST(XQueryParserTest, Literals) {
  EXPECT_EQ(Parse("42")->kind, ExprKind::kNumberLiteral);
  EXPECT_EQ(Parse("3.5")->number, 3.5);
  EXPECT_EQ(Parse("\"hi\"")->str, "hi");
  EXPECT_EQ(Parse("'it''s'")->str, "it's");
  EXPECT_EQ(Parse("$x")->kind, ExprKind::kVarRef);
}

TEST(XQueryParserTest, ArithmeticPrecedence) {
  // 1 + 2 * 3 parses as 1 + (2 * 3).
  ExprPtr e = Parse("1 + 2 * 3");
  ASSERT_EQ(e->kind, ExprKind::kBinary);
  EXPECT_EQ(e->binop, algebra::BinaryOp::kAdd);
  EXPECT_EQ(e->children[1]->binop, algebra::BinaryOp::kMul);
  ExprPtr m = Parse("6 div 2 mod 2");
  EXPECT_EQ(m->binop, algebra::BinaryOp::kMod);
}

TEST(XQueryParserTest, ComparisonAndLogic) {
  ExprPtr e = Parse("$a < 5 and $b = 'x' or $c");
  ASSERT_EQ(e->kind, ExprKind::kBinary);
  EXPECT_EQ(e->binop, algebra::BinaryOp::kOr);
  EXPECT_EQ(e->children[0]->binop, algebra::BinaryOp::kAnd);
  EXPECT_EQ(Parse("$a ge 3")->binop, algebra::BinaryOp::kGe);
}

TEST(XQueryParserTest, Paths) {
  ExprPtr e = Parse("doc(\"bib.xml\")/bib/book//title/@lang");
  ASSERT_EQ(e->kind, ExprKind::kPath);
  ASSERT_EQ(e->children.size(), 1u);  // the doc() base
  EXPECT_EQ(e->children[0]->kind, ExprKind::kFunctionCall);
  ASSERT_EQ(e->steps.size(), 4u);
  EXPECT_EQ(e->steps[1].name, "book");
  EXPECT_EQ(e->steps[2].axis, algebra::Axis::kDescendant);
  EXPECT_TRUE(e->steps[3].is_attribute);

  ExprPtr abs = Parse("//book/title");
  EXPECT_TRUE(abs->children.empty());  // absolute: default document
  EXPECT_EQ(abs->steps.size(), 2u);
}

TEST(XQueryParserTest, Flwor) {
  ExprPtr e = Parse(
      "for $b in //book, $a in $b/author "
      "let $t := $b/title "
      "where $b/price > 50 "
      "order by $t descending "
      "return $t");
  ASSERT_EQ(e->kind, ExprKind::kFlwor);
  ASSERT_EQ(e->clauses.size(), 5u);
  EXPECT_EQ(e->clauses[0].kind, ClauseAst::Kind::kFor);
  EXPECT_EQ(e->clauses[0].var, "b");
  EXPECT_EQ(e->clauses[1].kind, ClauseAst::Kind::kFor);
  EXPECT_EQ(e->clauses[1].var, "a");
  EXPECT_EQ(e->clauses[2].kind, ClauseAst::Kind::kLet);
  EXPECT_EQ(e->clauses[3].kind, ClauseAst::Kind::kWhere);
  EXPECT_EQ(e->clauses[4].kind, ClauseAst::Kind::kOrderBy);
  EXPECT_TRUE(e->clauses[4].descending);
  // children: 5 clause exprs + return.
  EXPECT_EQ(e->children.size(), 6u);
}

TEST(XQueryParserTest, Constructors) {
  ExprPtr e = Parse(
      "<results count=\"{count($x)}\" kind=\"all\">"
      "text {$x} <nested>{1 + 2}</nested> tail</results>");
  ASSERT_EQ(e->kind, ExprKind::kConstructor);
  EXPECT_EQ(e->str, "results");
  ASSERT_EQ(e->attrs.size(), 2u);
  EXPECT_NE(e->attrs[0].expr_child, AttrAst::kNoChild);
  EXPECT_EQ(e->attrs[1].literal, "all");
  // Content: "text ", {$x}, <nested>, " tail".
  ASSERT_EQ(e->content.size(), 4u);
  EXPECT_EQ(e->content[0].text, "text ");
  EXPECT_NE(e->content[1].expr_child, ContentAst::kNoChild);
  EXPECT_EQ(e->children[e->content[2].expr_child]->kind,
            ExprKind::kConstructor);
}

TEST(XQueryParserTest, IfAndComments) {
  ExprPtr e = Parse("if ($x > 1) then 'big' else 'small' (: trailing :)");
  ASSERT_EQ(e->kind, ExprKind::kIf);
  EXPECT_EQ(e->children.size(), 3u);
  EXPECT_EQ(Parse("(: a (: nested :) comment :) 7")->number, 7.0);
}

TEST(XQueryParserTest, EscapedBracesInContent) {
  ExprPtr e = Parse("<a>{{literal}}</a>");
  ASSERT_EQ(e->content.size(), 1u);
  EXPECT_EQ(e->content[0].text, "{literal}");
}

TEST(XQueryParserTest, RejectsOutsideSubset) {
  EXPECT_EQ(ParseQuery("declare function f() { 1 }; f()").status().code(),
            StatusCode::kUnsupported);
  EXPECT_EQ(ParseQuery("for $x in //a[1] return $x").status().code(),
            StatusCode::kUnsupported);  // positional predicate
  EXPECT_FALSE(ParseQuery("for $x return 1").ok());
  EXPECT_FALSE(ParseQuery("title/text").ok());  // no context
  EXPECT_FALSE(ParseQuery("<a><b></a></b>").ok());
  EXPECT_FALSE(ParseQuery("1 +").ok());
  EXPECT_FALSE(ParseQuery("").ok());
}

TEST(XQueryParserTest, PathPredicatesDelegateToXPathGrammar) {
  ExprPtr e = Parse("doc(\"d\")//book[author/last = 'Stevens'][@year]/title");
  ASSERT_EQ(e->kind, ExprKind::kPath);
  ASSERT_EQ(e->steps.size(), 2u);
  const PathStep& book = e->steps[0];
  ASSERT_EQ(book.predicates.size(), 2u);
  ASSERT_EQ(book.predicates[0].path.size(), 2u);
  EXPECT_EQ(book.predicates[0].literal, "Stevens");
  EXPECT_TRUE(book.predicates[1].path[0].is_attribute);
  EXPECT_FALSE(book.predicates[1].has_comparison);
  // Nested brackets and quoted ']' survive extraction.
  ExprPtr nested = Parse("$v/a[b[c = ']']]");
  ASSERT_EQ(nested->steps.size(), 1u);
  ASSERT_EQ(nested->steps[0].predicates.size(), 1u);
  EXPECT_EQ(nested->steps[0].predicates[0].path[0].predicates.size(), 1u);
}

TEST(TranslateTest, PathPredicatesFoldIntoPattern) {
  TranslateOptions options;
  options.default_document = "d";
  auto plan = CompileQuery("//book[price < 50]/title", options);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  // Rewrites graft the filter and fold the chain into one TreePattern.
  ASSERT_EQ((*plan)->op, LogicalOp::kTreePattern);
  bool found_pred = false;
  for (algebra::VertexId v = 0; v < (*plan)->pattern->VertexCount(); ++v) {
    if (!(*plan)->pattern->vertex(v).predicates.empty()) found_pred = true;
  }
  EXPECT_TRUE(found_pred);
}

TEST(TranslateTest, VariableRootedPredicateStaysAsFilter) {
  TranslateOptions options;
  auto plan = CompileQuery(
      "for $b in //book return $b/author[last = 'Stevens']", options);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  // The return expression filters per node (no document scan to fold into).
  const auto& ret = *(*plan)->children.back();
  EXPECT_EQ(ret.op, LogicalOp::kPatternFilter);
  EXPECT_EQ(ret.children[0]->op, LogicalOp::kNavigate);
}

TEST(TranslateTest, PathBecomesTreePatternViaRewrites) {
  TranslateOptions options;
  options.default_document = "bib.xml";
  auto plan = CompileQuery("//book/title", options);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ((*plan)->op, LogicalOp::kTreePattern);
  EXPECT_EQ((*plan)->children[0]->str, "bib.xml");
  EXPECT_EQ((*plan)->pattern->VertexCount(), 3u);
}

TEST(TranslateTest, RewritesCanBeDisabled) {
  TranslateOptions options;
  options.default_document = "d";
  options.apply_rewrites = false;
  auto plan = CompileQuery("//book/title", options);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ((*plan)->op, LogicalOp::kNavigate);
}

TEST(TranslateTest, FlworShape) {
  TranslateOptions options;
  options.default_document = "d";
  auto plan = CompileQuery(
      "for $b in //book where $b/price > 50 return $b/title", options);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ((*plan)->op, LogicalOp::kFlwor);
  // R6 folded the where clause into the for-binding's pattern, so only
  // the for clause is left.
  ASSERT_EQ((*plan)->clauses.size(), 1u);
  // The for-binding expression folded into a TreePattern.
  const auto& for_expr =
      *(*plan)->children[(*plan)->clauses[0].expr_child];
  ASSERT_EQ(for_expr.op, LogicalOp::kTreePattern);
  // The conjunct is a price branch under the output vertex, carrying a
  // general-typed number predicate.
  const algebra::PatternGraph& pattern = *for_expr.pattern;
  const algebra::PatternVertex& book = pattern.vertex(pattern.SoleOutput());
  EXPECT_EQ(book.label, "book");
  ASSERT_EQ(book.children.size(), 1u);
  const algebra::PatternVertex& price = pattern.vertex(book.children[0]);
  EXPECT_EQ(price.label, "price");
  EXPECT_EQ(price.incoming_axis, algebra::Axis::kChild);
  ASSERT_EQ(price.predicates.size(), 1u);
  EXPECT_EQ(price.predicates[0].op, algebra::CompareOp::kGt);
  EXPECT_EQ(price.predicates[0].typing, algebra::ValueTyping::kGeneralNumber);
  EXPECT_EQ(price.predicates[0].literal(), "50");
  ASSERT_EQ((*plan)->children.size(), 2u);
  // The return expression navigates from $b.
  const auto& ret = *(*plan)->children.back();
  EXPECT_EQ(ret.op, LogicalOp::kNavigate);
  EXPECT_EQ(ret.children[0]->op, LogicalOp::kVarRef);
}

TEST(TranslateTest, ConstructorBecomesGammaWithInlinedSchema) {
  TranslateOptions options;
  auto plan = CompileQuery(
      "<result id=\"{$i}\"><name>{$n}</name><tag/></result>", options);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ((*plan)->op, LogicalOp::kConstruct);
  ASSERT_NE((*plan)->schema, nullptr);
  // Nested <name> is inlined into one schema tree (no nested γ).
  EXPECT_EQ((*plan)->schema->NodeCount(), 4u);  // result, name, {$n}, tag
  EXPECT_EQ((*plan)->children.size(), 2u);      // $i and $n slots
}

TEST(SchemaExtractTest, Figure1SchemaTree) {
  // The paper's Fig. 1(a) query.
  ExprPtr ast = Parse(
      "<results>{"
      " for $b in doc(\"bib.xml\")/bib/book"
      " let $t := $b/title"
      " let $a := $b/author"
      " return <result>{$t} {$a}</result>"
      "}</results>");
  auto extracted = ExtractSchemaTree(*ast);
  ASSERT_TRUE(extracted.ok()) << extracted.status().ToString();
  const std::string rendered = extracted->tree.ToString();
  // Fig. 1(b): results -> result (with ϕ arc) -> two placeholders.
  EXPECT_NE(rendered.find("<results>"), std::string::npos);
  EXPECT_NE(rendered.find("<result>"), std::string::npos);
  EXPECT_NE(rendered.find("phi="), std::string::npos);
  // ϕ is described as the comprehension over $b, $t, $a.
  bool found_phi = false;
  for (const std::string& desc : extracted->slot_descriptions) {
    if (desc.find("$b <- ") != std::string::npos &&
        desc.find("$t := ") != std::string::npos) {
      found_phi = true;
    }
  }
  EXPECT_TRUE(found_phi);
  EXPECT_EQ(extracted->tree.NodeCount(), 4u);
}

TEST(SchemaExtractTest, RenderExprRoundImpression) {
  ExprPtr ast = Parse("for $x in //a order by $x return count($x)");
  const std::string rendered = RenderExpr(*ast);
  EXPECT_NE(rendered.find("$x <- "), std::string::npos);
  EXPECT_NE(rendered.find("order by"), std::string::npos);
}

}  // namespace
}  // namespace xmlq::xquery
