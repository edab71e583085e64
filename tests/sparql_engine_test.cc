// End-to-end tests for SPARQL-subset execution over the Graph facade.
#include <gtest/gtest.h>

#include "baseline/triple_table.h"
#include "core/graph.h"
#include "query/session.h"

namespace hexastore {
namespace {

class SparqlEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(graph_
                    .LoadNTriples(
                        "<http://x/alice> "
                        "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type> "
                        "<http://x/Person> .\n"
                        "<http://x/bob> "
                        "<http://www.w3.org/1999/02/22-rdf-syntax-ns#type> "
                        "<http://x/Person> .\n"
                        "<http://x/alice> <http://x/knows> <http://x/bob> "
                        ".\n"
                        "<http://x/bob> <http://x/knows> <http://x/carol> "
                        ".\n"
                        "<http://x/alice> <http://x/name> \"Alice\" .\n"
                        "<http://x/bob> <http://x/name> \"Bob\" .\n"
                        "<http://x/carol> <http://x/name> \"Carol\" .\n")
                    .ok());
  }

  ResultSet Run(const std::string& query) {
    auto r = query::Session(graph_.store(), graph_.dict()).Query(query);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? std::move(r).value().set : ResultSet{};
  }

  Graph graph_;
};

TEST_F(SparqlEngineTest, SimpleSelect) {
  ResultSet r = Run("SELECT ?s WHERE { ?s a <http://x/Person> }");
  EXPECT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.vars.size(), 1u);
}

TEST_F(SparqlEngineTest, JoinAcrossPatterns) {
  ResultSet r = Run(
      "PREFIX x: <http://x/>\n"
      "SELECT ?n WHERE { x:alice x:knows ?b . ?b x:name ?n }");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(graph_.dict().term(r.rows[0][0]), Term::Literal("Bob"));
}

TEST_F(SparqlEngineTest, TwoHopChain) {
  ResultSet r = Run(
      "PREFIX x: <http://x/>\n"
      "SELECT ?c WHERE { x:alice x:knows ?b . ?b x:knows ?c }");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(graph_.dict().term(r.rows[0][0]), Term::Iri("http://x/carol"));
}

TEST_F(SparqlEngineTest, FilterNotEqual) {
  ResultSet r = Run(
      "PREFIX x: <http://x/>\n"
      "SELECT ?s WHERE { ?s x:name ?n . FILTER(?n != \"Bob\") }");
  EXPECT_EQ(r.rows.size(), 2u);
}

TEST_F(SparqlEngineTest, FilterEqualConstant) {
  ResultSet r = Run(
      "PREFIX x: <http://x/>\n"
      "SELECT ?s WHERE { ?s x:name ?n . FILTER(?n = \"Carol\") }");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(graph_.dict().term(r.rows[0][0]), Term::Iri("http://x/carol"));
}

TEST_F(SparqlEngineTest, OrderByNameAndLimit) {
  ResultSet r = Run(
      "PREFIX x: <http://x/>\n"
      "SELECT ?n WHERE { ?s x:name ?n } ORDER BY ?n LIMIT 2");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(graph_.dict().term(r.rows[0][0]), Term::Literal("Alice"));
  EXPECT_EQ(graph_.dict().term(r.rows[1][0]), Term::Literal("Bob"));
}

TEST_F(SparqlEngineTest, DistinctCollapses) {
  ResultSet r = Run(
      "PREFIX x: <http://x/>\n"
      "SELECT DISTINCT ?p WHERE { ?s ?p ?o . ?s a x:Person }");
  // alice and bob each contribute type/knows/name -> 3 distinct.
  EXPECT_EQ(r.rows.size(), 3u);
}

TEST_F(SparqlEngineTest, SelectStarKeepsAllVars) {
  ResultSet r = Run("SELECT * WHERE { ?s ?p ?o } LIMIT 3");
  EXPECT_EQ(r.vars.size(), 3u);
  EXPECT_EQ(r.rows.size(), 3u);
}

TEST_F(SparqlEngineTest, UnknownSelectVarIsError) {
  query::Session session(graph_.store(), graph_.dict());
  auto r = session.Query("SELECT ?zzz WHERE { ?s ?p ?o }");
  EXPECT_FALSE(r.ok());
}

TEST_F(SparqlEngineTest, ParseErrorPropagates) {
  query::Session session(graph_.store(), graph_.dict());
  auto r = session.Query("SELEKT broken");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

TEST_F(SparqlEngineTest, WorksOverAnyStore) {
  // Same query over a triples table gives identical rows.
  TripleTableStore table;
  graph_.store().Scan(IdPattern{}, [&](const IdTriple& t) {
    table.Insert(t);
  });
  const std::string q =
      "PREFIX x: <http://x/>\n"
      "SELECT ?s ?n WHERE { ?s x:name ?n } ORDER BY ?n";
  auto r1 = query::Session(graph_.store(), graph_.dict()).Query(q);
  auto r2 = query::Session(table, graph_.dict()).Query(q);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1.value().set.rows, r2.value().set.rows);
}

}  // namespace
}  // namespace hexastore
