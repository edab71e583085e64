// Tests for SPARQL COUNT / GROUP BY, including an end-to-end check that
// the SPARQL form of Barton Query 1 matches the hand-planned workload
// implementation.
#include <gtest/gtest.h>

#include "core/graph.h"
#include "data/barton_generator.h"
#include "query/session.h"
#include "workload/barton_queries.h"

namespace hexastore {
namespace {

class SparqlAggregateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(graph_
                    .LoadNTriples(
                        "<http://x/a> <http://x/type> <http://x/T1> .\n"
                        "<http://x/b> <http://x/type> <http://x/T1> .\n"
                        "<http://x/c> <http://x/type> <http://x/T2> .\n"
                        "<http://x/a> <http://x/knows> <http://x/b> .\n"
                        "<http://x/a> <http://x/knows> <http://x/c> .\n"
                        "<http://x/b> <http://x/knows> <http://x/c> .\n")
                    .ok());
  }

  ResultSet Run(const std::string& query) {
    auto r = query::Session(graph_.store(), graph_.dict()).Query(query);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? std::move(r).value().set : ResultSet{};
  }

  Graph graph_;
};

TEST_F(SparqlAggregateTest, ParseAggregate) {
  auto r = ParseSparql(
      "SELECT ?t (COUNT(?s) AS ?n) WHERE { ?s <p> ?t } GROUP BY ?t");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const ParsedQuery& q = r.value();
  EXPECT_EQ(q.select_vars, (std::vector<std::string>{"t"}));
  ASSERT_EQ(q.aggregates.size(), 1u);
  EXPECT_EQ(q.aggregates[0].var, "s");
  EXPECT_EQ(q.aggregates[0].alias, "n");
  EXPECT_FALSE(q.aggregates[0].distinct);
  EXPECT_EQ(q.group_by, (std::vector<std::string>{"t"}));
}

TEST_F(SparqlAggregateTest, ParseCountStarAndDistinct) {
  auto r = ParseSparql(
      "SELECT (COUNT(*) AS ?all) (COUNT(DISTINCT ?o) AS ?vals) "
      "WHERE { ?s ?p ?o }");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().aggregates.size(), 2u);
  EXPECT_TRUE(r.value().aggregates[0].var.empty());
  EXPECT_TRUE(r.value().aggregates[1].distinct);
}

TEST_F(SparqlAggregateTest, ParseErrors) {
  EXPECT_FALSE(ParseSparql("SELECT (SUM(?x) AS ?s) WHERE { ?a ?b ?x }")
                   .ok());  // only COUNT
  EXPECT_FALSE(
      ParseSparql("SELECT (COUNT(?x) ?y) WHERE { ?a ?b ?x }").ok());
  EXPECT_FALSE(
      ParseSparql("SELECT (COUNT(?x) AS ?y WHERE { ?a ?b ?x }").ok());
  EXPECT_FALSE(ParseSparql(
                   "SELECT ?s WHERE { ?s ?p ?o } GROUP BY")
                   .ok());
}

TEST_F(SparqlAggregateTest, GroupCountByType) {
  ResultSet r = Run(
      "PREFIX x: <http://x/>\n"
      "SELECT ?t (COUNT(?s) AS ?n) WHERE { ?s x:type ?t } GROUP BY ?t "
      "ORDER BY ?t");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.vars.size(), 2u);
  EXPECT_FALSE(r.IsNumeric(0));
  EXPECT_TRUE(r.IsNumeric(1));
  // T1 -> 2 subjects, T2 -> 1.
  EXPECT_EQ(graph_.dict().term(r.rows[0][0]), Term::Iri("http://x/T1"));
  EXPECT_EQ(r.rows[0][1], 2u);
  EXPECT_EQ(graph_.dict().term(r.rows[1][0]), Term::Iri("http://x/T2"));
  EXPECT_EQ(r.rows[1][1], 1u);
}

TEST_F(SparqlAggregateTest, CountStarWithoutGroupBy) {
  ResultSet r = Run("SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0], graph_.size());
}

TEST_F(SparqlAggregateTest, CountOverEmptyMatchIsZero) {
  ResultSet r = Run(
      "SELECT (COUNT(*) AS ?n) WHERE { ?s <http://x/nothere> ?o }");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0], 0u);
}

TEST_F(SparqlAggregateTest, CountDistinct) {
  // a knows {b, c}, b knows {c}: 3 rows, 2 distinct objects.
  ResultSet r = Run(
      "PREFIX x: <http://x/>\n"
      "SELECT (COUNT(*) AS ?rows) (COUNT(DISTINCT ?o) AS ?objs) "
      "WHERE { ?s x:knows ?o }");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0], 3u);
  EXPECT_EQ(r.rows[0][1], 2u);
}

TEST_F(SparqlAggregateTest, OrderByAggregate) {
  ResultSet r = Run(
      "PREFIX x: <http://x/>\n"
      "SELECT ?t (COUNT(?s) AS ?n) WHERE { ?s x:type ?t } GROUP BY ?t "
      "ORDER BY ?n");
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_LE(r.rows[0][1], r.rows[1][1]);
}

TEST_F(SparqlAggregateTest, SelectVarMustBeGrouped) {
  query::Session session(graph_.store(), graph_.dict());
  auto r = session.Query(
      "PREFIX x: <http://x/>\n"
      "SELECT ?s (COUNT(?o) AS ?n) WHERE { ?s x:knows ?o }");
  EXPECT_FALSE(r.ok());
}

TEST_F(SparqlAggregateTest, LimitAfterAggregation) {
  ResultSet r = Run(
      "PREFIX x: <http://x/>\n"
      "SELECT ?t (COUNT(?s) AS ?n) WHERE { ?s x:type ?t } GROUP BY ?t "
      "LIMIT 1");
  EXPECT_EQ(r.rows.size(), 1u);
}

// The headline cross-check: Barton Query 1 ("calculate the counts of each
// different type of data in the RDF store") expressed in SPARQL matches
// the hand-planned workload implementation on the same store.
TEST(SparqlAggregateBartonTest, Bq1MatchesWorkloadImplementation) {
  Graph graph;
  graph.BulkLoad(data::BartonGenerator().Generate(20000));
  workload::BartonIds ids = workload::BartonIds::Resolve(graph.dict());
  workload::CountRows expect =
      workload::BartonQ1Hexa(graph.store(), ids);

  query::Session session(graph.store(), graph.dict());
  auto r = session.Query(
      "PREFIX b: <http://example.org/barton/>\n"
      "SELECT ?t (COUNT(?s) AS ?n) WHERE { ?s b:type ?t } GROUP BY ?t");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  workload::CountRows got;
  for (const Row& row : r.value().set.rows) {
    got.emplace_back(row[0], row[1]);
  }
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, expect);
}

}  // namespace
}  // namespace hexastore
