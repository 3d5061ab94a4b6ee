#include <gtest/gtest.h>

#include "xmlq/datagen/random_tree.h"
#include "xmlq/xml/document.h"
#include "xmlq/xml/parser.h"
#include "xmlq/xml/serializer.h"

namespace xmlq::xml {
namespace {

TEST(NamePoolTest, InternIsStableAndDense) {
  NamePool pool;
  const NameId a = pool.Intern("alpha");
  const NameId b = pool.Intern("beta");
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(pool.Intern("alpha"), a);
  EXPECT_EQ(pool.NameOf(a), "alpha");
  EXPECT_EQ(pool.Find("beta"), b);
  EXPECT_EQ(pool.Find("gamma"), kInvalidName);
  EXPECT_EQ(pool.size(), 2u);
}

TEST(NamePoolTest, ViewsSurviveGrowth) {
  NamePool pool;
  const std::string_view first = pool.NameOf(pool.Intern("first"));
  for (int i = 0; i < 1000; ++i) {
    pool.Intern("name" + std::to_string(i));
  }
  EXPECT_EQ(first, "first");
  EXPECT_EQ(pool.Find("first"), 0u);
}

TEST(DocumentTest, BuildSmallTree) {
  Document doc;
  const NodeId root = doc.AddElement(doc.root(), "bib");
  doc.AddAttribute(root, "version", "1");
  const NodeId book = doc.AddElement(root, "book");
  const NodeId title = doc.AddElement(book, "title");
  doc.AddText(title, "TCP/IP Illustrated");

  EXPECT_EQ(doc.RootElement(), root);
  EXPECT_EQ(doc.NameStr(root), "bib");
  EXPECT_EQ(doc.Parent(book), root);
  EXPECT_EQ(doc.FirstChild(book), title);
  EXPECT_EQ(doc.NextSibling(title), kNullNode);
  EXPECT_EQ(doc.Depth(title), 3u);
  bool found = false;
  EXPECT_EQ(doc.AttributeValue(root, "version", &found), "1");
  EXPECT_TRUE(found);
  doc.AttributeValue(root, "missing", &found);
  EXPECT_FALSE(found);
  EXPECT_TRUE(doc.IsPreorder());
}

TEST(DocumentTest, StringValueConcatenatesDescendantText) {
  Document doc;
  const NodeId root = doc.AddElement(doc.root(), "a");
  doc.AddText(root, "x");
  const NodeId b = doc.AddElement(root, "b");
  doc.AddText(b, "y");
  doc.AddText(root, "z");
  EXPECT_EQ(doc.StringValue(root), "xyz");
  EXPECT_EQ(doc.StringValue(b), "y");
}

TEST(DocumentTest, PreorderNextVisitsAllNonAttributeNodes) {
  Document doc;
  const NodeId a = doc.AddElement(doc.root(), "a");
  const NodeId b = doc.AddElement(a, "b");
  doc.AddText(b, "t");
  doc.AddElement(a, "c");
  size_t visited = 0;
  for (NodeId n = doc.root(); n != kNullNode; n = doc.PreorderNext(n)) {
    ++visited;
  }
  EXPECT_EQ(visited, 5u);  // document, a, b, text, c
}

TEST(ParserTest, ParsesElementsAttributesText) {
  auto doc = ParseDocument(
      "<bib><book year=\"1994\"><title>TCP/IP</title></book></bib>");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const NodeId bib = doc->RootElement();
  EXPECT_EQ(doc->NameStr(bib), "bib");
  const NodeId book = doc->FirstChild(bib);
  EXPECT_EQ(doc->AttributeValue(book, "year"), "1994");
  EXPECT_EQ(doc->StringValue(book), "TCP/IP");
  EXPECT_TRUE(doc->IsPreorder());
}

TEST(ParserTest, DecodesEntitiesAndCharRefs) {
  auto doc = ParseDocument("<a b=\"x &lt; y\">&amp;&#65;&#x42;</a>");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const NodeId a = doc->RootElement();
  EXPECT_EQ(doc->AttributeValue(a, "b"), "x < y");
  EXPECT_EQ(doc->StringValue(a), "&AB");
}

TEST(ParserTest, HandlesSelfClosingAndCdataAndComments) {
  ParseOptions options;
  options.keep_comments = true;
  auto doc = ParseDocument(
      "<r><empty/><!-- note --><![CDATA[a<b&c]]></r>", options);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const NodeId r = doc->RootElement();
  const NodeId empty = doc->FirstChild(r);
  EXPECT_EQ(doc->NameStr(empty), "empty");
  const NodeId comment = doc->NextSibling(empty);
  EXPECT_EQ(doc->Kind(comment), NodeKind::kComment);
  EXPECT_EQ(doc->Text(comment), " note ");
  const NodeId cdata = doc->NextSibling(comment);
  EXPECT_EQ(doc->Kind(cdata), NodeKind::kText);
  EXPECT_EQ(doc->Text(cdata), "a<b&c");
}

TEST(ParserTest, SkipsPrologDoctypeAndPIs) {
  auto doc = ParseDocument(
      "<?xml version=\"1.0\"?>\n"
      "<!DOCTYPE r [ <!ELEMENT r ANY> ]>\n"
      "<?target data?>\n"
      "<r>ok</r>");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->StringValue(doc->RootElement()), "ok");
}

TEST(ParserTest, DropsWhitespaceTextByDefault) {
  auto doc = ParseDocument("<r>\n  <a/>\n  <b/>\n</r>");
  ASSERT_TRUE(doc.ok());
  const NodeId r = doc->RootElement();
  EXPECT_EQ(doc->NameStr(doc->FirstChild(r)), "a");
  EXPECT_EQ(doc->NodeCount(), 4u);  // document, r, a, b
}

TEST(ParserTest, PreservesWhitespaceWhenAsked) {
  ParseOptions options;
  options.drop_whitespace_text = false;
  auto doc = ParseDocument("<r> <a/> </r>", options);
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->NodeCount(), 5u);  // document, r, ws, a, ws
}

TEST(ParserTest, NormalizesCrLf) {
  auto doc = ParseDocument("<r>line1&#13;\r\nline2</r>");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  // CRLF becomes LF; the explicit char-ref CR survives decoding.
  EXPECT_EQ(doc->StringValue(doc->RootElement()), "line1\r\nline2");
}

struct BadInput {
  const char* name;
  const char* text;
};

// Without this, gtest prints the parameter as its raw bytes (two string
// pointers), and the discovered test names change with every build.
void PrintTo(const BadInput& input, std::ostream* os) { *os << input.name; }

class ParserErrorTest : public ::testing::TestWithParam<BadInput> {};

TEST_P(ParserErrorTest, RejectsMalformedInput) {
  auto doc = ParseDocument(GetParam().text);
  EXPECT_FALSE(doc.ok()) << "input: " << GetParam().text;
  EXPECT_EQ(doc.status().code(), StatusCode::kParseError);
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, ParserErrorTest,
    ::testing::Values(
        BadInput{"unclosed", "<a><b></a>"},
        BadInput{"bare_text", "hello"},
        BadInput{"two_roots", "<a/><b/>"},
        BadInput{"bad_entity", "<a>&unknown;</a>"},
        BadInput{"dup_attr", "<a x=\"1\" x=\"2\"/>"},
        BadInput{"unterminated_attr", "<a x=\"1/>"},
        BadInput{"lt_in_attr", "<a x=\"<\"/>"},
        BadInput{"unterminated_comment", "<a><!-- foo</a>"},
        BadInput{"empty", ""},
        BadInput{"unmatched_end", "</a>"},
        BadInput{"truncated_tag", "<a"},
        BadInput{"text_outside_root", "<a/>junk"}),
    [](const ::testing::TestParamInfo<BadInput>& info) {
      return info.param.name;
    });

TEST(SerializerTest, EscapesSpecialCharacters) {
  EXPECT_EQ(EscapeText("a<b&c>d"), "a&lt;b&amp;c&gt;d");
  EXPECT_EQ(EscapeAttribute("say \"hi\"\n"), "say &quot;hi&quot;&#10;");
}

TEST(SerializerTest, RoundTripsSimpleDocument) {
  const std::string input =
      "<bib><book year=\"1994\"><title>TCP/IP &amp; more</title>"
      "<empty/></book></bib>";
  auto doc = ParseDocument(input);
  ASSERT_TRUE(doc.ok());
  const std::string output = Serialize(*doc);
  auto doc2 = ParseDocument(output);
  ASSERT_TRUE(doc2.ok()) << doc2.status().ToString();
  EXPECT_EQ(Serialize(*doc2), output);
  EXPECT_EQ(output, input);
}

TEST(SerializerTest, IndentedOutputReparsesToSameStringValues) {
  auto doc = ParseDocument("<r><a><b>x</b></a><c>y</c></r>");
  ASSERT_TRUE(doc.ok());
  SerializeOptions options;
  options.indent = true;
  const std::string pretty = Serialize(*doc, options);
  EXPECT_NE(pretty.find('\n'), std::string::npos);
  auto doc2 = ParseDocument(pretty);
  ASSERT_TRUE(doc2.ok());
  EXPECT_EQ(doc2->StringValue(doc2->RootElement()), "xy");
}

TEST(SerializerTest, RoundTripPropertyOnRandomTrees) {
  for (uint64_t seed = 0; seed < 20; ++seed) {
    datagen::RandomTreeOptions options;
    options.seed = seed;
    options.num_elements = 80;
    auto doc = datagen::GenerateRandomTree(options);
    const std::string once = Serialize(*doc);
    auto reparsed = ParseDocument(once);
    ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
    EXPECT_EQ(Serialize(*reparsed), once) << "seed " << seed;
    EXPECT_EQ(reparsed->NodeCount(), doc->NodeCount()) << "seed " << seed;
  }
}

TEST(StreamParserTest, EmitsEventsInDocumentOrder) {
  StreamParser parser("<a x=\"1\"><b>t</b><c/></a>");
  std::vector<ParseEvent::Kind> kinds;
  std::vector<std::string> names;
  while (true) {
    auto ev = parser.Next();
    ASSERT_TRUE(ev.ok()) << ev.status().ToString();
    kinds.push_back(ev->kind);
    names.push_back(std::string(ev->name));
    if (ev->kind == ParseEvent::Kind::kEndDocument) break;
  }
  using K = ParseEvent::Kind;
  const std::vector<K> expected = {
      K::kStartElement, K::kStartElement, K::kText,       K::kEndElement,
      K::kStartElement, K::kEndElement,   K::kEndElement, K::kEndDocument};
  EXPECT_EQ(kinds, expected);
  EXPECT_EQ(names[0], "a");
  EXPECT_EQ(names[1], "b");
  EXPECT_EQ(names[4], "c");
}

TEST(StreamParserTest, AttributesAvailableAtStartElement) {
  StreamParser parser("<a x=\"1\" y=\"two &gt; one\"/>");
  auto ev = parser.Next();
  ASSERT_TRUE(ev.ok());
  ASSERT_EQ(parser.attributes().size(), 2u);
  EXPECT_EQ(parser.attributes()[0].name, "x");
  EXPECT_EQ(parser.attributes()[0].value, "1");
  EXPECT_EQ(parser.attributes()[1].value, "two > one");
}

TEST(StreamParserTest, ErrorsCarryLineAndColumn) {
  StreamParser parser("<a>\n<b></c>");
  (void)parser.Next();  // <a>
  (void)parser.Next();  // <b>
  auto ev = parser.Next();
  ASSERT_FALSE(ev.ok());
  EXPECT_NE(ev.status().message().find("line 2"), std::string::npos)
      << ev.status().ToString();
}

}  // namespace
}  // namespace xmlq::xml
