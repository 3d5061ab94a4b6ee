#include <gtest/gtest.h>

#include <memory>

#include "xmlq/exec/executor.h"
#include "xmlq/storage/region_index.h"
#include "xmlq/storage/succinct_doc.h"
#include "xmlq/xml/parser.h"
#include "xmlq/xml/serializer.h"
#include "xmlq/xquery/translate.h"

namespace xmlq::exec {
namespace {

using algebra::Item;
using algebra::LogicalExprPtr;
using algebra::Sequence;

/// Minimal self-contained harness: one document + an executor.
class ExecutorTest : public ::testing::Test {
 protected:
  void Load(std::string_view xml_text) {
    auto parsed = xml::ParseDocument(xml_text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    dom_ = std::make_unique<xml::Document>(std::move(*parsed));
    succinct_ = std::make_unique<storage::SuccinctDocument>(
        storage::SuccinctDocument::Build(*dom_));
    regions_ = std::make_unique<storage::RegionIndex>(*dom_);
    context_.documents[""] =
        IndexedDocument{dom_.get(), succinct_.get(), regions_.get(), nullptr};
    context_.documents["doc.xml"] = context_.documents[""];
  }

  /// Compiles and evaluates an XQuery string; fails the test on error.
  QueryResult Run(std::string_view query) {
    xquery::TranslateOptions options;
    options.default_document = "doc.xml";
    auto plan = xquery::CompileQuery(query, options);
    EXPECT_TRUE(plan.ok()) << query << ": " << plan.status().ToString();
    algebra::SetPatternStrategy(plan->get(), strategy_);
    Executor executor(&context_);
    auto result = executor.Evaluate(**plan);
    EXPECT_TRUE(result.ok()) << query << ": " << result.status().ToString();
    return result.ok() ? std::move(*result) : QueryResult{};
  }

  /// Runs and renders items space-separated by string value.
  std::string RunStr(std::string_view query) {
    const QueryResult result = Run(query);
    std::string out;
    for (const Item& item : result.value) {
      if (!out.empty()) out.push_back(' ');
      out += item.StringValue();
    }
    return out;
  }

  std::unique_ptr<xml::Document> dom_;
  std::unique_ptr<storage::SuccinctDocument> succinct_;
  std::unique_ptr<storage::RegionIndex> regions_;
  EvalContext context_;
  PatternStrategy strategy_ = PatternStrategy::kNok;  // every τ node's engine
};

TEST_F(ExecutorTest, PathQuery) {
  Load("<bib><book><title>A</title></book><book><title>B</title></book>"
       "</bib>");
  EXPECT_EQ(RunStr("/bib/book/title"), "A B");
  EXPECT_EQ(RunStr("//title"), "A B");
  EXPECT_EQ(RunStr("doc(\"doc.xml\")/bib/book/title"), "A B");
}

TEST_F(ExecutorTest, ArithmeticAndComparisons) {
  Load("<r/>");
  EXPECT_EQ(RunStr("1 + 2 * 3"), "7");
  EXPECT_EQ(RunStr("10 div 4"), "2.5");
  EXPECT_EQ(RunStr("7 mod 3"), "1");
  EXPECT_EQ(RunStr("1 < 2"), "true");
  EXPECT_EQ(RunStr("'b' = 'a'"), "false");
  EXPECT_EQ(RunStr("2 >= 2 and 1 != 2"), "true");
  EXPECT_EQ(RunStr("1 > 2 or 3 > 2"), "true");
  EXPECT_EQ(RunStr("-3 + 1"), "-2");
}

TEST_F(ExecutorTest, GeneralComparisonIsExistential) {
  Load("<r><n>1</n><n>5</n><n>9</n></r>");
  EXPECT_EQ(RunStr("//n > 8"), "true");    // some n > 8
  EXPECT_EQ(RunStr("//n > 9"), "false");   // none
  EXPECT_EQ(RunStr("//n = 5"), "true");
}

TEST_F(ExecutorTest, Functions) {
  Load("<r><a>x</a><a>y</a><p>3</p><p>4</p></r>");
  EXPECT_EQ(RunStr("count(//a)"), "2");
  EXPECT_EQ(RunStr("exists(//zzz)"), "false");
  EXPECT_EQ(RunStr("empty(//zzz)"), "true");
  EXPECT_EQ(RunStr("not(1 = 2)"), "true");
  EXPECT_EQ(RunStr("sum(//p)"), "7");
  EXPECT_EQ(RunStr("avg(//p)"), "3.5");
  EXPECT_EQ(RunStr("min(//p)"), "3");
  EXPECT_EQ(RunStr("max(//p)"), "4");
  EXPECT_EQ(RunStr("concat('a', 'b', 'c')"), "abc");
  EXPECT_EQ(RunStr("contains('hello', 'ell')"), "true");
  EXPECT_EQ(RunStr("starts-with('hello', 'he')"), "true");
  EXPECT_EQ(RunStr("string-length('abc')"), "3");
  EXPECT_EQ(RunStr("string(42)"), "42");
  EXPECT_EQ(RunStr("number('3.5') + 1"), "4.5");
  EXPECT_EQ(RunStr("round(2.6)"), "3");
  EXPECT_EQ(RunStr("floor(2.6)"), "2");
  EXPECT_EQ(RunStr("ceiling(2.2)"), "3");
  EXPECT_EQ(RunStr("distinct-values((1, 2, 1, 3))"), "1 2 3");
  EXPECT_EQ(RunStr("name(//a)"), "a");
  EXPECT_EQ(RunStr("if (1 < 2) then 'yes' else 'no'"), "yes");
}

TEST_F(ExecutorTest, UnknownFunctionIsUnsupported) {
  Load("<r/>");
  xquery::TranslateOptions options;
  auto plan = xquery::CompileQuery("frobnicate(1)", options);
  ASSERT_TRUE(plan.ok());
  Executor executor(&context_);
  EXPECT_EQ(executor.Evaluate(**plan).status().code(),
            StatusCode::kUnsupported);
}

TEST_F(ExecutorTest, FlworForWhereReturn) {
  Load("<shop><item><name>pen</name><price>5</price></item>"
       "<item><name>ink</name><price>50</price></item>"
       "<item><name>pad</name><price>9</price></item></shop>");
  EXPECT_EQ(
      RunStr("for $i in //item where $i/price < 10 return $i/name"),
      "pen pad");
  EXPECT_EQ(RunStr("for $i in //item let $p := $i/price "
                   "where $p > 4 and $p < 40 return $i/name"),
            "pen pad");
}

TEST_F(ExecutorTest, PathPredicatesInFlworBindings) {
  Load("<shop><item><name>pen</name><price>5</price></item>"
       "<item><name>ink</name><price>50</price></item>"
       "<item><name>pad</name><price>9</price></item></shop>");
  // Predicate in the binding path ≡ the where-clause formulation.
  EXPECT_EQ(RunStr("for $i in //item[price < 10] return $i/name"),
            RunStr("for $i in //item where $i/price < 10 return $i/name"));
  EXPECT_EQ(RunStr("for $i in //item[price < 10] return $i/name"),
            "pen pad");
  // Predicates on variable-rooted paths (per-node PatternFilter).
  EXPECT_EQ(RunStr("for $i in //item return $i/name[. = 'ink']"), "ink");
  EXPECT_EQ(RunStr("count(//item[name = 'pad'][price > 5])"), "1");
  EXPECT_EQ(RunStr("count(//item[name = 'pad'][price > 50])"), "0");
}

TEST_F(ExecutorTest, FlworOrderBy) {
  Load("<r><x><k>2</k></x><x><k>10</k></x><x><k>1</k></x></r>");
  EXPECT_EQ(RunStr("for $x in //x order by $x/k return $x/k"), "1 2 10");
  EXPECT_EQ(RunStr("for $x in //x order by $x/k descending return $x/k"),
            "10 2 1");
  // String keys sort lexicographically.
  Load("<r><s>b</s><s>a</s><s>c</s></r>");
  EXPECT_EQ(RunStr("for $s in //s order by $s return $s"), "a b c");
}

TEST_F(ExecutorTest, NestedFlworAndMultipleBindings) {
  Load("<r><g><v>1</v><v>2</v></g><g><v>3</v></g></r>");
  EXPECT_EQ(RunStr("for $g in //g for $v in $g/v return $v"), "1 2 3");
  EXPECT_EQ(RunStr("for $g in //g return count($g/v)"), "2 1");
  EXPECT_EQ(RunStr("for $g in //g, $v in $g/v return $v"), "1 2 3");
}

TEST_F(ExecutorTest, EnvAndPipelinedModesAgree) {
  Load("<r><a><b>1</b><b>2</b></a><a><b>3</b></a></r>");
  const char* query =
      "for $a in //a let $n := count($a/b) for $b in $a/b "
      "where $n > 1 return $b";
  context_.flwor_mode = FlworMode::kEnv;
  const std::string env_result = RunStr(query);
  context_.flwor_mode = FlworMode::kPipelined;
  const std::string pipelined_result = RunStr(query);
  EXPECT_EQ(env_result, "1 2");
  EXPECT_EQ(env_result, pipelined_result);
}

TEST_F(ExecutorTest, ConstructionProducesNewDocument) {
  Load("<bib><book><title>A</title></book></bib>");
  const QueryResult result = Run(
      "<out n=\"{count(//book)}\"><t>{//title}</t></out>");
  ASSERT_EQ(result.value.size(), 1u);
  ASSERT_TRUE(result.value[0].IsNode());
  ASSERT_EQ(result.constructed.size(), 1u);
  const auto& node = result.value[0].node();
  const std::string xml_text = xml::Serialize(*node.doc, node.id);
  EXPECT_EQ(xml_text, "<out n=\"1\"><t><title>A</title></t></out>");
}

TEST_F(ExecutorTest, ConstructionSplicesAtomicsWithSpaces) {
  Load("<r/>");
  const QueryResult result = Run("<v>{1, 2, 'x'}</v>");
  const auto& node = result.value[0].node();
  EXPECT_EQ(xml::Serialize(*node.doc, node.id), "<v>1 2 x</v>");
}

TEST_F(ExecutorTest, ConstructionWithFlworPerTuple) {
  Load("<bib><book><title>A</title></book><book><title>B</title></book>"
       "</bib>");
  const QueryResult result = Run(
      "<results>{for $b in //book return <r>{$b/title}</r>}</results>");
  const auto& node = result.value[0].node();
  EXPECT_EQ(xml::Serialize(*node.doc, node.id),
            "<results><r><title>A</title></r><r><title>B</title></r>"
            "</results>");
}

TEST_F(ExecutorTest, AttributeNodeInContentAttaches) {
  Load("<r><i id=\"7\"/></r>");
  const QueryResult result = Run("<copy>{//i/@id}</copy>");
  const auto& node = result.value[0].node();
  EXPECT_EQ(xml::Serialize(*node.doc, node.id), "<copy id=\"7\"/>");
}

TEST_F(ExecutorTest, SequencesConcatenate) {
  Load("<r><a>1</a></r>");
  EXPECT_EQ(RunStr("(1, 'two', //a)"), "1 two 1");
  EXPECT_EQ(RunStr("()"), "");
}

TEST_F(ExecutorTest, StrategiesProduceIdenticalQueryResults) {
  Load("<site><a><b><c>1</c></b></a><b><c>2</c></b><a><c>3</c></a></site>");
  const char* query = "for $b in //a//c return $b";
  std::string reference;
  for (const PatternStrategy strategy :
       {PatternStrategy::kNok, PatternStrategy::kTwigStack,
        PatternStrategy::kPathStack, PatternStrategy::kBinaryJoin,
        PatternStrategy::kNaive}) {
    strategy_ = strategy;
    const std::string got = RunStr(query);
    if (reference.empty()) {
      reference = got;
    } else {
      EXPECT_EQ(got, reference)
          << "strategy " << PatternStrategyName(strategy);
    }
  }
  EXPECT_EQ(reference, "1 3");
}

TEST_F(ExecutorTest, UnsupportedAxesFallBackToNaive) {
  Load("<r><a/><b>1</b><b>2</b><x><b>3</b></x></r>");
  // following-sibling and self are outside every specialized engine's
  // subset; the executor transparently evaluates them navigationally even
  // when a join-based strategy is forced.
  for (const PatternStrategy strategy :
       {PatternStrategy::kNok, PatternStrategy::kTwigStack,
        PatternStrategy::kBinaryJoin}) {
    strategy_ = strategy;
    EXPECT_EQ(RunStr("/r/a/following-sibling::b"), "1 2")
        << PatternStrategyName(strategy);
    EXPECT_EQ(RunStr("//b/self::b[. = '3']"), "3")
        << PatternStrategyName(strategy);
  }
}

TEST_F(ExecutorTest, UnboundVariableIsAnError) {
  Load("<r/>");
  xquery::TranslateOptions options;
  auto plan = xquery::CompileQuery("$nope", options);
  ASSERT_TRUE(plan.ok());
  Executor executor(&context_);
  EXPECT_EQ(executor.Evaluate(**plan).status().code(), StatusCode::kNotFound);
}

TEST_F(ExecutorTest, MissingDocumentIsAnError) {
  Load("<r/>");
  xquery::TranslateOptions options;
  auto plan = xquery::CompileQuery("doc(\"missing.xml\")//x", options);
  ASSERT_TRUE(plan.ok());
  Executor executor(&context_);
  EXPECT_EQ(executor.Evaluate(**plan).status().code(), StatusCode::kNotFound);
}

TEST_F(ExecutorTest, EvaluateWithVarsBindsExternalValues) {
  Load("<r><a>5</a></r>");
  xquery::TranslateOptions options;
  auto plan = xquery::CompileQuery("$x + 1", options);
  ASSERT_TRUE(plan.ok());
  Executor executor(&context_);
  QueryResult out;
  std::map<std::string, Sequence> vars;
  vars["x"] = Sequence{Item(41.0)};
  auto result = executor.EvaluateWithVars(**plan, vars, &out);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*result)[0].number(), 42.0);
}

}  // namespace
}  // namespace xmlq::exec
