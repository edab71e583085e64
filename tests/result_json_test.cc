// Golden-string tests for the W3C SPARQL 1.1 JSON results serializer
// (query/result_json.h): term-kind mapping, lang/datatype attributes,
// bnode prefix stripping, numeric aggregate columns, unbound-cell
// omission and RFC 8259 escaping.
#include <gtest/gtest.h>

#include <string>

#include "core/graph.h"
#include "query/result_json.h"
#include "query/session.h"

namespace hexastore {
namespace {

TEST(JsonEscapeTest, TwoCharEscapesAndControlBytes) {
  std::string out;
  AppendJsonEscaped("a\"b\\c\n\t\r\f\b", &out);
  EXPECT_EQ(out, "a\\\"b\\\\c\\n\\t\\r\\f\\b");
  out.clear();
  AppendJsonEscaped(std::string("x\x01y\x1f", 4), &out);
  EXPECT_EQ(out, "x\\u0001y\\u001f");
}

TEST(JsonEscapeTest, PlainTextPassesThrough) {
  std::string out;
  AppendJsonEscaped("héllo <world> & 'friends'", &out);
  EXPECT_EQ(out, "héllo <world> & 'friends'");
}

TEST(BooleanResultTest, Golden) {
  EXPECT_EQ(BooleanResultToJson(true), "{\"head\":{},\"boolean\":true}");
  EXPECT_EQ(BooleanResultToJson(false), "{\"head\":{},\"boolean\":false}");
}

class ResultJsonTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(graph_
                    .LoadNTriples(
                        "<http://x/alice> <http://x/name> \"Alice\" .\n"
                        "<http://x/alice> <http://x/bio> "
                        "\"chat\"@fr .\n"
                        "<http://x/alice> <http://x/age> "
                        "\"30\"^^<http://www.w3.org/2001/XMLSchema#integer> "
                        ".\n"
                        "_:b0 <http://x/name> \"Blank\" .\n"
                        "<http://x/alice> <http://x/quote> "
                        "\"say \\\"hi\\\"\" .\n")
                    .ok());
  }

  std::string RunJson(const std::string& query) {
    auto r = query::Session(graph_.store(), graph_.dict()).Query(query);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? ResultSetToJson(r.value().set, graph_.dict()) : "";
  }

  Graph graph_;
};

TEST_F(ResultJsonTest, UriAndPlainLiteral) {
  EXPECT_EQ(
      RunJson("SELECT ?s ?n WHERE { ?s <http://x/name> ?n . "
              "FILTER(?n = \"Alice\") }"),
      "{\"head\":{\"vars\":[\"s\",\"n\"]},\"results\":{\"bindings\":["
      "{\"s\":{\"type\":\"uri\",\"value\":\"http://x/alice\"},"
      "\"n\":{\"type\":\"literal\",\"value\":\"Alice\"}}]}}");
}

TEST_F(ResultJsonTest, LanguageTaggedLiteral) {
  EXPECT_EQ(
      RunJson("SELECT ?b WHERE { <http://x/alice> <http://x/bio> ?b }"),
      "{\"head\":{\"vars\":[\"b\"]},\"results\":{\"bindings\":["
      "{\"b\":{\"type\":\"literal\",\"value\":\"chat\","
      "\"xml:lang\":\"fr\"}}]}}");
}

TEST_F(ResultJsonTest, TypedLiteral) {
  EXPECT_EQ(
      RunJson("SELECT ?a WHERE { <http://x/alice> <http://x/age> ?a }"),
      "{\"head\":{\"vars\":[\"a\"]},\"results\":{\"bindings\":["
      "{\"a\":{\"type\":\"literal\",\"value\":\"30\",\"datatype\":"
      "\"http://www.w3.org/2001/XMLSchema#integer\"}}]}}");
}

TEST_F(ResultJsonTest, BnodeStripsPrefix) {
  EXPECT_EQ(
      RunJson("SELECT ?s WHERE { ?s <http://x/name> ?n . "
              "FILTER(?n = \"Blank\") }"),
      "{\"head\":{\"vars\":[\"s\"]},\"results\":{\"bindings\":["
      "{\"s\":{\"type\":\"bnode\",\"value\":\"b0\"}}]}}");
}

TEST_F(ResultJsonTest, EscapedLiteralValue) {
  EXPECT_EQ(
      RunJson("SELECT ?q WHERE { <http://x/alice> <http://x/quote> ?q }"),
      "{\"head\":{\"vars\":[\"q\"]},\"results\":{\"bindings\":["
      "{\"q\":{\"type\":\"literal\",\"value\":\"say \\\"hi\\\"\"}}]}}");
}

TEST_F(ResultJsonTest, NumericAggregateColumn) {
  // COUNT produces a numeric column, rendered as an xsd:integer literal.
  EXPECT_EQ(
      RunJson("SELECT (COUNT(?s) AS ?n) WHERE { ?s <http://x/name> ?o }"),
      "{\"head\":{\"vars\":[\"n\"]},\"results\":{\"bindings\":["
      "{\"n\":{\"type\":\"literal\",\"value\":\"2\",\"datatype\":"
      "\"http://www.w3.org/2001/XMLSchema#integer\"}}]}}");
}

TEST_F(ResultJsonTest, EmptyResultSet) {
  EXPECT_EQ(
      RunJson("SELECT ?s WHERE { ?s <http://x/nosuch> ?o }"),
      "{\"head\":{\"vars\":[\"s\"]},\"results\":{\"bindings\":[]}}");
}

TEST(ResultJsonDirectTest, UnboundCellOmitted) {
  // An unresolvable id renders as an absent key, per spec.
  Dictionary dict;
  ResultSet set;
  set.vars.Intern("x");
  set.vars.Intern("y");
  const Id alice = dict.Intern(Term::Iri("http://x/alice"));
  set.rows.push_back({alice, kInvalidId});
  EXPECT_EQ(ResultSetToJson(set, dict),
            "{\"head\":{\"vars\":[\"x\",\"y\"]},\"results\":{\"bindings\":["
            "{\"x\":{\"type\":\"uri\",\"value\":\"http://x/alice\"}}]}}");
}

}  // namespace
}  // namespace hexastore
