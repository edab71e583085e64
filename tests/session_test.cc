// Tests for the unified query::Session API (query/session.h): pin
// policies and write visibility (on a DeltaHexastore and a 1-shard
// facade), per-query deadlines, ProfileSink feeding, plan-cache
// integration, and equivalence with unpinned evaluation.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/hexastore.h"
#include "delta/delta_hexastore.h"
#include "dict/dictionary.h"
#include "query/bgp.h"
#include "query/plan_cache.h"
#include "query/result_json.h"
#include "query/session.h"
#include "shard/sharded_hexastore.h"

namespace hexastore {
namespace {

class SessionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 8; ++i) {
      Add("s" + std::to_string(i), "knows", "s" + std::to_string(i + 1));
      Add("s" + std::to_string(i), "type", "Person");
    }
    store_.GetSnapshot();  // publish: wait-free readers see the data
  }

  void Add(const std::string& s, const std::string& p,
           const std::string& o) {
    store_.Insert(dict_.Encode(Triple{Term::Iri("http://x/" + s),
                                      Term::Iri("http://x/" + p),
                                      Term::Iri("http://x/" + o)}));
  }

  TriplePattern Pat(const std::string& s, const std::string& p,
                    const std::string& o) {
    auto slot = [](const std::string& t) {
      return t[0] == '?' ? PatternTerm::Variable(t.substr(1))
                         : PatternTerm::Bound(Term::Iri("http://x/" + t));
    };
    return TriplePattern{slot(s), slot(p), slot(o)};
  }

  Dictionary dict_;
  DeltaHexastore store_;
};

constexpr const char* kChainQuery =
    "SELECT ?a ?c WHERE { ?a <http://x/knows> ?b . "
    "?b <http://x/knows> ?c } ORDER BY ?a";

TEST_F(SessionTest, PinnedQueryMatchesUnpinnedRead) {
  query::Session session(store_, dict_);
  auto via_session = session.Query(kChainQuery);
  ASSERT_TRUE(via_session.ok()) << via_session.status().ToString();
  EXPECT_GT(via_session.value().profile.pin_ns, 0u);

  query::SessionOptions unpinned;
  unpinned.pin = query::PinPolicy::kNone;
  auto live = query::Session(store_, dict_, unpinned).Query(kChainQuery);
  ASSERT_TRUE(live.ok());
  EXPECT_EQ(live.value().profile.pin_ns, 0u);
  EXPECT_EQ(ResultSetToJson(via_session.value().set, dict_),
            ResultSetToJson(live.value().set, dict_));
  // Sessions always profile: phase times and rows populated.
  EXPECT_EQ(via_session.value().profile.rows_out,
            via_session.value().set.rows.size());
  EXPECT_GT(via_session.value().profile.patterns.size(), 0u);
}

TEST_F(SessionTest, WaitFreePinSeesOnlyPublishedState) {
  query::SessionOptions wait_free;
  wait_free.pin = query::PinPolicy::kWaitFree;
  query::Session pinned(store_, dict_, wait_free);

  query::SessionOptions linearizable;
  linearizable.pin = query::PinPolicy::kLinearizable;
  query::Session fresh(store_, dict_, linearizable);

  const std::size_t before =
      pinned.Query(kChainQuery).value().set.rows.size();

  // Stage (but do not publish) one more link in the chain.
  Add("s8", "knows", "s9");

  // The wait-free session still reads the published generation...
  EXPECT_EQ(pinned.Query(kChainQuery).value().set.rows.size(), before);
  // ...the linearizable one serializes with writers and sees the write.
  EXPECT_EQ(fresh.Query(kChainQuery).value().set.rows.size(), before + 1);
  // Publication catches the wait-free session up.
  store_.GetSnapshot();
  EXPECT_EQ(pinned.Query(kChainQuery).value().set.rows.size(), before + 1);
}

TEST_F(SessionTest, WaitFreePinOnOneShardFacadeMatchesItsShard) {
  // The 1-shard facade pins like its shard: same wait-free visibility,
  // the shard's (epoch, staged_ops) as the plan-cache stamp, and a
  // repeat query is a cache hit.
  ShardedHexastore facade{ShardedOptions{}};
  store_.Scan(IdPattern{}, [&facade](const IdTriple& t) { facade.Insert(t); });
  facade.Publish();
  const DeltaHexastore::Snapshot shard_view =
      facade.shard(0).AcquireReadHandle();
  facade.Pin(PinPolicy::kWaitFree,
             [&](const TripleStore& view, std::vector<std::uint64_t> stamp) {
               EXPECT_EQ(view.size(), shard_view.size());
               EXPECT_EQ(stamp, (std::vector<std::uint64_t>{
                                    shard_view.epoch(),
                                    shard_view.staged_ops()}));
             });
  PlanCache cache;
  query::SessionOptions options;
  options.plan_cache = &cache;
  query::Session session(facade, dict_, options);
  query::Session single(store_, dict_);

  auto first = session.Query(kChainQuery);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(ResultSetToJson(first.value().set, dict_),
            ResultSetToJson(single.Query(kChainQuery).value().set, dict_));
  EXPECT_TRUE(session.Query(kChainQuery).value().from_plan_cache);

  // Staged but unpublished writes stay invisible until Publish().
  const std::size_t before = first.value().set.rows.size();
  facade.Insert(dict_.Encode(Triple{Term::Iri("http://x/s8"),
                                    Term::Iri("http://x/knows"),
                                    Term::Iri("http://x/s9")}));
  EXPECT_EQ(session.Query(kChainQuery).value().set.rows.size(), before);
  facade.Publish();
  EXPECT_EQ(session.Query(kChainQuery).value().set.rows.size(), before + 1);
}

TEST_F(SessionTest, PlainTripleStoreReadsItselfUnpinned) {
  Hexastore plain;
  Dictionary dict;
  plain.Insert(dict.Encode(Triple{Term::Iri("http://x/a"),
                                  Term::Iri("http://x/p"),
                                  Term::Iri("http://x/b")}));
  query::SessionOptions options;
  options.pin = query::PinPolicy::kWaitFree;  // no gate: reads the store
  query::Session session(plain, dict, options);
  auto r = session.Query("SELECT ?s WHERE { ?s <http://x/p> ?o }");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().set.rows.size(), 1u);
  EXPECT_EQ(r.value().profile.pin_ns, 0u);
  EXPECT_EQ(r.value().profile.total_ns,
            r.value().profile.parse_ns + r.value().profile.plan_ns +
                r.value().profile.eval_ns);
}

TEST_F(SessionTest, DeadlineExceededSurfacesAsError) {
  query::SessionOptions options;
  options.deadline_ns = 1;  // nothing real finishes in 1ns
  query::Session session(store_, dict_, options);
  auto r = session.Query(kChainQuery);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded);
  // The profile still recorded the overrun for observability.
  EXPECT_TRUE(session.last_profile().deadline_exceeded);
}

TEST_F(SessionTest, ZeroDeadlineMeansUnlimited) {
  query::SessionOptions options;
  options.deadline_ns = 0;
  query::Session session(store_, dict_, options);
  EXPECT_TRUE(session.Query(kChainQuery).ok());
}

TEST_F(SessionTest, SinkFedOnSuccessAndOnDeadline) {
  ProfileSink sink(/*slow_threshold_ns=*/0);
  query::SessionOptions options;
  options.sink = &sink;
  query::Session session(store_, dict_, options);
  ASSERT_TRUE(session.Query(kChainQuery).ok());
  EXPECT_EQ(sink.histogram(QueryKind::kSparql)->Snapshot().count, 1u);

  query::SessionOptions doomed = options;
  doomed.deadline_ns = 1;
  query::Session hurried(store_, dict_, doomed);
  ASSERT_FALSE(hurried.Query(kChainQuery).ok());
  // Deadline overruns are recorded too — they are exactly the queries
  // the slow-query log exists for.
  EXPECT_EQ(sink.histogram(QueryKind::kSparql)->Snapshot().count, 2u);
}

TEST_F(SessionTest, PlanCacheServesRepeatedTemplates) {
  PlanCache cache;
  query::SessionOptions options;
  options.plan_cache = &cache;
  query::Session session(store_, dict_, options);

  auto first = session.Query(kChainQuery);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.value().from_plan_cache);
  auto second = session.Query(kChainQuery);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.value().from_plan_cache);
  EXPECT_EQ(ResultSetToJson(first.value().set, dict_),
            ResultSetToJson(second.value().set, dict_));

  // Renamed variables, same shape: still a hit.
  auto renamed = session.Query(
      "SELECT ?p ?r WHERE { ?p <http://x/knows> ?q . "
      "?q <http://x/knows> ?r } ORDER BY ?p");
  ASSERT_TRUE(renamed.ok());
  EXPECT_TRUE(renamed.value().from_plan_cache);
  EXPECT_EQ(cache.hits(), 2u);
}

TEST_F(SessionTest, EvalBgpMatchesSnapshotEvaluation) {
  std::vector<TriplePattern> patterns = {Pat("?a", "knows", "?b"),
                                         Pat("?b", "knows", "?c")};
  query::SessionOptions options;
  options.pin = query::PinPolicy::kLinearizable;
  query::Session session(store_, dict_, options);
  auto via_session = session.EvalBgp(patterns);
  ASSERT_TRUE(via_session.ok());
  const QueryProfile& profile = via_session.value().profile;
  EXPECT_EQ(profile.kind, QueryKind::kBgp);

  ResultSet direct = EvalBgp(store_.GetSnapshot(), dict_, patterns);
  EXPECT_EQ(ResultSetToJson(via_session.value().set, dict_),
            ResultSetToJson(direct, dict_));
  // Patterns attached; the pin encloses plan+eval, so total is
  // parse+pin.
  EXPECT_EQ(profile.patterns.size(), 2u);
  EXPECT_GT(profile.rows_out, 0u);
  EXPECT_EQ(profile.total_ns, profile.parse_ns + profile.pin_ns);
}

TEST_F(SessionTest, ExplainIsDeterministicAndAnalyzeRuns) {
  query::Session session(store_, dict_);
  auto plan_a = session.Explain(kChainQuery);
  auto plan_b = session.Explain(kChainQuery);
  ASSERT_TRUE(plan_a.ok());
  ASSERT_TRUE(plan_b.ok());
  EXPECT_EQ(plan_a.value(), plan_b.value());
  EXPECT_NE(plan_a.value().find("plan:"), std::string::npos);

  auto analyzed = session.ExplainAnalyze(kChainQuery);
  ASSERT_TRUE(analyzed.ok());
  EXPECT_NE(analyzed.value().find("actual"), std::string::npos);
}

TEST_F(SessionTest, ParseErrorsPropagate) {
  query::Session session(store_, dict_);
  auto r = session.Query("SELECT WHERE {");
  ASSERT_FALSE(r.ok());
}

}  // namespace
}  // namespace hexastore
