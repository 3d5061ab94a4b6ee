#include <gtest/gtest.h>

#include <cmath>

// GCC 12 emits spurious -Wmaybe-uninitialized reports from libstdc++
// internals when vectors of variant-holding NestedItems are built inline
// (gcc bug 105593 family); the diagnostics point at <variant>/<string>
// headers, not user code.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

#include "xmlq/algebra/env.h"
#include "xmlq/algebra/logical_plan.h"
#include "xmlq/algebra/pattern_graph.h"
#include "xmlq/algebra/rewrite.h"
#include "xmlq/algebra/schema_tree.h"
#include "xmlq/algebra/value.h"
#include "xmlq/xml/parser.h"

namespace xmlq::algebra {
namespace {

TEST(ItemTest, AtomicValues) {
  EXPECT_EQ(Item(std::string("ab")).StringValue(), "ab");
  EXPECT_EQ(Item(3.5).StringValue(), "3.5");
  EXPECT_EQ(Item(true).StringValue(), "true");
  EXPECT_EQ(Item(std::string("12")).NumberValue(), 12.0);
  EXPECT_TRUE(std::isnan(Item(std::string("x")).NumberValue()));
  EXPECT_TRUE(Item(std::string("x")).BooleanValue());
  EXPECT_FALSE(Item(std::string("")).BooleanValue());
  EXPECT_FALSE(Item(0.0).BooleanValue());
  EXPECT_TRUE(Item(2.0).BooleanValue());
}

TEST(ItemTest, NodeStringValue) {
  auto doc = xml::ParseDocument("<a><b>x</b>y</a>");
  ASSERT_TRUE(doc.ok());
  Item item(NodeRef{&*doc, doc->RootElement()});
  EXPECT_TRUE(item.IsNode());
  EXPECT_EQ(item.StringValue(), "xy");
  EXPECT_TRUE(item.BooleanValue());
}

TEST(SequenceTest, SortDocOrderDedup) {
  auto doc = xml::ParseDocument("<a><b/><c/></a>");
  ASSERT_TRUE(doc.ok());
  Sequence seq;
  seq.push_back(Item(NodeRef{&*doc, 3}));
  seq.push_back(Item(std::string("atom")));
  seq.push_back(Item(NodeRef{&*doc, 1}));
  seq.push_back(Item(NodeRef{&*doc, 3}));
  SortDocOrderDedup(&seq);
  ASSERT_EQ(seq.size(), 3u);
  EXPECT_EQ(seq[0].node().id, 1u);
  EXPECT_EQ(seq[1].node().id, 3u);
  EXPECT_TRUE(seq[2].IsString());
}

TEST(NestedListTest, FlattenAndSize) {
  NestedList list;
  list.push_back(NestedItem(Item(1.0)));
  std::vector<NestedItem> kids;
  kids.push_back(NestedItem(Item(3.0)));
  kids.push_back(NestedItem(Item(4.0)));
  list.push_back(NestedItem(Item(2.0), std::move(kids)));
  EXPECT_EQ(NestedSize(list), 4u);
  const Sequence flat = Flatten(list);
  ASSERT_EQ(flat.size(), 4u);
  EXPECT_EQ(flat[1].number(), 2.0);
  EXPECT_EQ(flat[3].number(), 4.0);
  EXPECT_EQ(ToString(list), "[1, 2 [3, 4]]");
}

TEST(ValuePredicateTest, StringAndNumericComparison) {
  ValuePredicate eq{CompareOp::kEq, "abc", ValueTyping::kString};
  EXPECT_TRUE(eq.Eval("abc"));
  EXPECT_FALSE(eq.Eval("abd"));
  ValuePredicate lt{CompareOp::kLt, "10", ValueTyping::kNumber};
  EXPECT_TRUE(lt.Eval("9.5"));
  EXPECT_FALSE(lt.Eval("10"));
  EXPECT_FALSE(lt.Eval("abc"));  // non-numeric never matches numeric compare
  ValuePredicate ge{CompareOp::kGe, "2", ValueTyping::kNumber};
  EXPECT_TRUE(ge.Eval("10"));  // numeric, not lexicographic
  // General typings: numeric when both texts parse (or the literal is a
  // number), and then a NaN satisfies only !=.
  ValuePredicate general{CompareOp::kEq, "1990", ValueTyping::kGeneral};
  EXPECT_TRUE(general.Eval(" 1990"));
  EXPECT_TRUE(general.Eval("1990.0"));
  EXPECT_FALSE(general.Eval("x"));
  ValuePredicate ne{CompareOp::kNe, "1990", ValueTyping::kGeneralNumber};
  EXPECT_TRUE(ne.Eval("x"));
  EXPECT_FALSE(ne.Eval("1990.0"));
  ValuePredicate xpath_ne{CompareOp::kNe, "1990", ValueTyping::kNumber};
  EXPECT_FALSE(xpath_ne.Eval("x"));
  ValuePredicate gt_string{CompareOp::kGt, "a", ValueTyping::kGeneral};
  EXPECT_TRUE(gt_string.Eval("x"));
  ValuePredicate gt_number{CompareOp::kGt, "1000", ValueTyping::kGeneralNumber};
  EXPECT_FALSE(gt_number.Eval("x"));
}

TEST(PatternGraphTest, BuildAndValidate) {
  PatternGraph graph;
  const VertexId a = graph.AddVertex(graph.root(), Axis::kChild, "a");
  const VertexId b = graph.AddVertex(a, Axis::kDescendant, "b");
  const VertexId at = graph.AddVertex(b, Axis::kAttribute, "id", true);
  graph.SetOutput(b);
  EXPECT_TRUE(graph.Validate().ok());
  EXPECT_EQ(graph.SoleOutput(), b);
  EXPECT_EQ(graph.vertex(at).parent, b);
  EXPECT_EQ(graph.VertexCount(), 4u);
  const std::string rendered = graph.ToString();
  EXPECT_NE(rendered.find("//b [output]"), std::string::npos);
  EXPECT_NE(rendered.find("@id"), std::string::npos);
}

TEST(PatternGraphTest, ValidateCatchesMissingOutput) {
  PatternGraph graph;
  graph.AddVertex(graph.root(), Axis::kChild, "a");
  EXPECT_FALSE(graph.Validate().ok());
}

TEST(SchemaTreeTest, NodeCountAndRender) {
  SchemaNode root;
  root.kind = SchemaNodeKind::kElement;
  root.label = "results";
  SchemaNode result;
  result.kind = SchemaNodeKind::kElement;
  result.label = "result";
  result.iterate = 0;
  SchemaNode t;
  t.kind = SchemaNodeKind::kPlaceholder;
  t.expr = 1;
  result.children.push_back(std::move(t));
  root.children.push_back(std::move(result));
  SchemaTree tree(std::move(root));
  EXPECT_EQ(tree.NodeCount(), 3u);
  const std::string rendered = tree.ToString();
  EXPECT_NE(rendered.find("<results>"), std::string::npos);
  EXPECT_NE(rendered.find("phi=e0"), std::string::npos);
  EXPECT_NE(rendered.find("{e1}"), std::string::npos);
}

TEST(EnvTest, Figure2Example) {
  // for $a in (a1,a2,a3), $b in per-$a values,
  // let $c, $d, for $e — mirrors the paper's Fig. 2 structure.
  Env env;
  const int la = env.AddLayer("a", Env::LayerKind::kFor);
  const int lb = env.AddLayer("b", Env::LayerKind::kFor);
  const int lc = env.AddLayer("c", Env::LayerKind::kLet);
  const int le = env.AddLayer("e", Env::LayerKind::kFor);
  // $a: 3 bindings. $b fanouts: a1->2, a2->1, a3->3 (as in Fig. 2).
  const int b_fanout[] = {2, 1, 3};
  // $e fanouts per b-branch: 3,2,2,2,3,1 → 13 total tuples in the paper.
  const int e_fanout[] = {3, 2, 2, 2, 3, 1};
  int b_index = 0;
  for (int a = 0; a < 3; ++a) {
    const uint32_t na =
        env.AddBinding(la, Env::kNoParent, Sequence{Item(double(a))});
    for (int b = 0; b < b_fanout[a]; ++b) {
      const uint32_t nb =
          env.AddBinding(lb, na, Sequence{Item(double(b))});
      const uint32_t nc = env.AddBinding(lc, nb, Sequence{Item(1.0)});
      for (int e = 0; e < e_fanout[b_index]; ++e) {
        env.AddBinding(le, nc, Sequence{Item(double(e))});
      }
      ++b_index;
    }
  }
  EXPECT_EQ(env.TupleCount(), 13u);
  size_t seen = 0;
  env.ForEachTuple([&](const Env::Tuple& tuple) {
    ASSERT_EQ(tuple.size(), 4u);
    EXPECT_EQ(tuple[2]->at(0).number(), 1.0);  // the let value
    ++seen;
  });
  EXPECT_EQ(seen, 13u);
  EXPECT_NE(env.ToString().find("for $a: 3"), std::string::npos);
}

TEST(EnvTest, WhereLayerPrunesTuples) {
  Env env;
  const int la = env.AddLayer("a", Env::LayerKind::kFor);
  const int lw = env.AddLayer("", Env::LayerKind::kWhere);
  for (int a = 0; a < 4; ++a) {
    const uint32_t na =
        env.AddBinding(la, Env::kNoParent, Sequence{Item(double(a))});
    env.AddBinding(lw, na, Sequence{Item(a % 2 == 0)});
  }
  EXPECT_EQ(env.TupleCount(), 2u);
}

TEST(EnvTest, EmptyForLayerYieldsNoTuples) {
  Env env;
  env.AddLayer("a", Env::LayerKind::kFor);
  env.AddLayer("b", Env::LayerKind::kFor);
  env.AddBinding(0, Env::kNoParent, Sequence{Item(1.0)});
  // No bindings at layer b: zero total tuples.
  EXPECT_EQ(env.TupleCount(), 0u);
}

TEST(LogicalPlanTest, FactoriesAndPrinting) {
  LogicalExprPtr plan = MakeNavigate(
      MakeNavigate(MakeDocScan("bib.xml"), Axis::kChild, "bib", false),
      Axis::kDescendant, "book", false);
  const std::string rendered = plan->ToString();
  EXPECT_NE(rendered.find("Navigate(descendant::book)"), std::string::npos);
  EXPECT_NE(rendered.find("DocScan(bib.xml)"), std::string::npos);
  LogicalExprPtr copy = plan->Clone();
  EXPECT_EQ(copy->ToString(), rendered);
}

TEST(RewriteTest, FoldsNavigationChainIntoPattern) {
  LogicalExprPtr plan = MakeNavigate(
      MakeNavigate(MakeDocScan("d"), Axis::kChild, "bib", false),
      Axis::kDescendant, "book", false);
  const int n = FoldNavigationChains(&plan);
  EXPECT_EQ(n, 2);
  ASSERT_EQ(plan->op, LogicalOp::kTreePattern);
  ASSERT_NE(plan->pattern, nullptr);
  EXPECT_EQ(plan->pattern->VertexCount(), 3u);
  EXPECT_EQ(plan->pattern->SoleOutput(), 2u);
  EXPECT_EQ(plan->children[0]->op, LogicalOp::kDocScan);
}

TEST(RewriteTest, PushesSelectValueIntoPattern) {
  LogicalExprPtr plan = MakeSelectValue(
      MakeNavigate(MakeDocScan("d"), Axis::kChild, "price", false),
      ValuePredicate{CompareOp::kLt, "50", ValueTyping::kNumber});
  ApplyAllRewrites(&plan);
  ASSERT_EQ(plan->op, LogicalOp::kTreePattern);
  const VertexId out = plan->pattern->SoleOutput();
  ASSERT_EQ(plan->pattern->vertex(out).predicates.size(), 1u);
  EXPECT_EQ(plan->pattern->vertex(out).predicates[0].literal(), "50");
}

TEST(RewriteTest, RemovesRedundantDedupAndFusesSelectTag) {
  // SelectTag over a wildcard step, wrapped in two dedups.
  LogicalExprPtr plan = MakeDocOrderDedup(MakeDocOrderDedup(MakeSelectTag(
      MakeNavigate(MakeDocScan("d"), Axis::kDescendant, "*", false),
      "item")));
  ApplyAllRewrites(&plan);
  // Everything collapses to a single TreePattern on descendant::item.
  ASSERT_EQ(plan->op, LogicalOp::kTreePattern);
  const VertexId out = plan->pattern->SoleOutput();
  EXPECT_EQ(plan->pattern->vertex(out).label, "item");
}

TEST(RewriteTest, DoesNotFoldPastNonFoldableInput) {
  LogicalExprPtr plan = MakeNavigate(MakeVarRef("b"), Axis::kChild, "title",
                                     false);
  EXPECT_EQ(ApplyAllRewrites(&plan), 0);
  EXPECT_EQ(plan->op, LogicalOp::kNavigate);
}

}  // namespace
}  // namespace xmlq::algebra
