// End-to-end export tests for the PR-7 observability surface: a leveled
// DeltaHexastore and a durable store are churned, then the Prometheus
// text page, the JSON dump, GatherStats() and the HEXA_METRICS_JSON
// destructor dump are checked for the content docs/observability.md
// promises (and scripts/check_metrics_json.py validates in CI).
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "core/graph.h"
#include "delta/delta_hexastore.h"
#include "query/bgp.h"
#include "query/profile.h"
#include "query/session.h"
#include "wal/durable_store.h"

namespace hexastore {
namespace {

namespace fs = std::filesystem;

IdTriple T(std::uint32_t s, std::uint32_t p, std::uint32_t o) {
  return {Id{s}, Id{p}, Id{o}};
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// Churns a store enough to seal, fold and base-merge.
template <typename Store>
void Churn(Store* store, std::uint32_t n) {
  for (std::uint32_t i = 0; i < n; ++i) {
    store->Insert(T(i, i % 7, i % 31));
  }
  for (std::uint32_t i = 0; i < n; i += 3) {
    store->Erase(T(i, i % 7, i % 31));
  }
}

TEST(MetricsExportTest, DeltaPrometheusAndJson) {
  DeltaOptions options;
  options.compact_threshold = 64;
  options.l0_run_limit = 2;
  DeltaHexastore store(options);
  Churn(&store, 1000);
  (void)store.Contains(T(1, 1, 31));
  auto snap_handle = store.AcquireReadHandle();

  const std::string prom = store.MetricsText();
  EXPECT_NE(prom.find("# TYPE hexa_delta_staged_ops_total counter"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE hexa_delta_size_triples gauge"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE hexa_insert_latency_ns histogram"),
            std::string::npos);
  EXPECT_NE(prom.find("hexa_epoch_handles_acquired_total"),
            std::string::npos);

  const std::string json = store.MetricsJson();
  EXPECT_NE(json.find("\"version\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"hexa_delta_seals_total\""), std::string::npos);
  EXPECT_NE(json.find("\"p999_ns\""), std::string::npos);
  // The churn sealed and folded, so the trace retained events.
  EXPECT_NE(json.find("\"event\": \"seal\""), std::string::npos);
  EXPECT_NE(json.find("\"event\": \"fold\""), std::string::npos);
  EXPECT_GT(store.trace_ring().TotalRecorded(), 0u);
}

// GatherStats is the single coherent path: the struct views and the
// registry values it feeds must agree when the store is quiescent.
TEST(MetricsExportTest, GatherStatsMatchesRegistry) {
  DeltaOptions options;
  options.compact_threshold = 64;
  options.l0_run_limit = 2;
  DeltaHexastore store(options);
  Churn(&store, 500);

  const StatsSnapshot snap = store.GatherStats();
  EXPECT_EQ(snap.delta.compactions, store.CompactionCount());
  EXPECT_GT(snap.delta.staged_ops_total, 0u);
  EXPECT_GT(snap.delta.seals, 0u);
  EXPECT_FALSE(snap.has_wal);

  std::uint64_t staged = 0;
  ASSERT_TRUE(store.metrics_registry().CounterValue(
      "hexa_delta_staged_ops_total", &staged));
  EXPECT_EQ(staged, snap.delta.staged_ops_total);
  std::int64_t size_gauge = 0;
  ASSERT_TRUE(store.metrics_registry().GaugeValue("hexa_delta_size_triples",
                                                  &size_gauge));
  EXPECT_EQ(static_cast<std::size_t>(size_gauge), store.size());
  // Stats() and EpochCounters() are views over the same gather.
  EXPECT_EQ(store.Stats().staged_ops_total, snap.delta.staged_ops_total);
  EXPECT_EQ(store.EpochCounters().global_epoch, snap.epoch.global_epoch);
}

TEST(MetricsExportTest, GraphFacadeMetrics) {
  Graph g;
  g.Insert({Term::Iri("s"), Term::Iri("p"), Term::Iri("o")});
  g.Insert({Term::Iri("s"), Term::Iri("p"), Term::Iri("o2")});
  (void)g.Match(Term::Iri("s"), std::nullopt, std::nullopt);

  const std::string prom = g.MetricsText();
  EXPECT_NE(prom.find("hexa_graph_inserts_total 2"), std::string::npos);
  EXPECT_NE(prom.find("hexa_graph_matches_total 1"), std::string::npos);
  EXPECT_NE(prom.find("hexa_graph_size_triples 2"), std::string::npos);
  const std::string json = g.MetricsJson();
  EXPECT_NE(json.find("\"hexa_graph_dict_terms\": 4"), std::string::npos);
}

// A ProfileSink registered with the graph's registry surfaces the query
// class histograms and the slow-query ring in both exports — the shape
// the CI metrics-smoke job validates with
// scripts/check_metrics_json.py --require-queries.
TEST(MetricsExportTest, SlowQueryJsonSection) {
  // Without an attached sink the JSON schema still carries the key.
  {
    Graph g;
    EXPECT_NE(g.MetricsJson().find("\"slow_queries\": null"),
              std::string::npos);
  }

  // Declared before the graph so the sink outlives the registry render.
  ProfileSink sink(/*slow_threshold_ns=*/std::uint64_t{0});
  Graph g;
  sink.RegisterWith(&g.metrics_registry());
  g.Insert({Term::Iri("s"), Term::Iri("p"), Term::Iri("o")});

  const std::string query = "SELECT ?o WHERE { <s> <p> ?o }";
  auto result = query::Session(g.store(), g.dict()).Query(query);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().set.rows.size(), 1u);
  sink.Record(result.value().profile, query);

  const std::string prom = g.MetricsText();
  EXPECT_NE(prom.find("# TYPE hexa_query_sparql_latency_ns histogram"),
            std::string::npos);
  const std::string json = g.MetricsJson();
  EXPECT_NE(json.find("\"slow_queries\": {"), std::string::npos);
  EXPECT_NE(json.find("\"recorded\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"sparql\""), std::string::npos);
  EXPECT_NE(json.find(query), std::string::npos);
}

// Durable churn: WAL counters, checkpoint trace events and the
// destructor-time HEXA_METRICS_JSON dump — the shape the CI
// metrics-smoke job validates with scripts/check_metrics_json.py. When
// the job pre-sets HEXA_METRICS_JSON the dump goes to (and stays at)
// that path so it can be checked and uploaded as an artifact.
TEST(MetricsExportTest, DurableChurnAndEnvDump) {
  const std::string dir =
      (fs::temp_directory_path() /
       (std::string("hexa_metrics_export_") + std::to_string(::getpid())))
          .string();
  fs::remove_all(dir);
  const char* preset = std::getenv("HEXA_METRICS_JSON");
  const bool external_dump = preset != nullptr && preset[0] != '\0';
  const std::string dump_path =
      external_dump ? std::string(preset) : dir + "_dump.json";
  fs::remove(dump_path);

  DurabilityOptions options;
  options.dir = dir;
  options.delta.compact_threshold = 64;
  options.delta.l0_run_limit = 2;
  ::setenv("HEXA_METRICS_JSON", dump_path.c_str(), 1);
  {
    auto opened = DurableDeltaHexastore::Open(options);
    ASSERT_TRUE(opened.ok()) << opened.status().message();
    auto store = std::move(opened).value();
    Churn(store.get(), 1000);
    ASSERT_TRUE(store->Checkpoint().ok());

    const StatsSnapshot snap = store->GatherStats();
    EXPECT_TRUE(snap.has_wal);
    EXPECT_GT(snap.wal.records_appended, 0u);
    EXPECT_GT(snap.wal.fsyncs, 0u);
    EXPECT_GT(snap.wal.checkpoints, 0u);
    const std::string prom = store->MetricsText();
    EXPECT_NE(prom.find("hexa_wal_records_appended_total"),
              std::string::npos);
    EXPECT_NE(prom.find("hexa_wal_fsync_latency_ns"), std::string::npos);
    // Store destructs here, with HEXA_METRICS_JSON still set.
  }
  if (!external_dump) ::unsetenv("HEXA_METRICS_JSON");

  ASSERT_TRUE(fs::exists(dump_path));
  const std::string dump = ReadFile(dump_path);
  EXPECT_NE(dump.find("\"version\": 2"), std::string::npos);
  EXPECT_NE(dump.find("\"hexa_delta_staged_ops_total\""), std::string::npos);
  EXPECT_NE(dump.find("\"hexa_wal_records_appended_total\""),
            std::string::npos);
  EXPECT_NE(dump.find("\"hexa_epoch_generations_published_total\""),
            std::string::npos);
  EXPECT_NE(dump.find("\"event\": \"checkpoint\""), std::string::npos);
  EXPECT_NE(dump.find("\"event\": \"recovery\""), std::string::npos);

  fs::remove_all(dir);
  if (!external_dump) fs::remove(dump_path);
}

// Delta churn plus a profiled query through a ProfileSink on the
// store's registry: the destructor-time dump carries the store families
// AND the query sections — the shape the CI metrics-smoke query step
// runs under HEXA_SLOW_QUERY_US=0 and validates with
// scripts/check_metrics_json.py --require-queries.
TEST(MetricsExportTest, QueryChurnAndEnvDump) {
  const char* preset = std::getenv("HEXA_METRICS_JSON");
  const bool external_dump = preset != nullptr && preset[0] != '\0';
  const std::string dump_path =
      external_dump
          ? std::string(preset)
          : (fs::temp_directory_path() /
             (std::string("hexa_query_dump_") + std::to_string(::getpid()) +
              ".json"))
                .string();
  fs::remove(dump_path);

  ::setenv("HEXA_METRICS_JSON", dump_path.c_str(), 1);
  {
    // The sink outlives the store: the destructor-time dump renders the
    // sink's histograms and slow-query ring.
    ProfileSink sink;  // threshold from HEXA_SLOW_QUERY_US (CI sets 0)
    Dictionary dict;
    DeltaOptions options;
    options.compact_threshold = 64;
    options.l0_run_limit = 2;
    DeltaHexastore store(options);
    sink.RegisterWith(&store.metrics_registry());
    for (int i = 0; i < 300; ++i) {
      store.Insert(dict.Encode({Term::Iri("s" + std::to_string(i)),
                                Term::Iri("p" + std::to_string(i % 5)),
                                Term::Iri("o" + std::to_string(i % 31))}));
    }

    query::SessionOptions pinned;
    pinned.pin = PinPolicy::kLinearizable;  // nothing published yet
    query::Session session(store, dict, pinned);
    auto result = session.EvalBgp(
        {{PatternTerm::Variable("s"), PatternTerm::Bound(Term::Iri("p0")),
          PatternTerm::Variable("o")}});
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.value().set.rows.size(), 60u);
    sink.Record(result.value().profile, "BGP ?s <p0> ?o");
    EXPECT_EQ(sink.histogram(QueryKind::kBgp)->Snapshot().count, 1u);
    // Store destructs here, with HEXA_METRICS_JSON still set.
  }
  if (!external_dump) ::unsetenv("HEXA_METRICS_JSON");

  ASSERT_TRUE(fs::exists(dump_path));
  const std::string dump = ReadFile(dump_path);
  EXPECT_NE(dump.find("\"version\": 2"), std::string::npos);
  EXPECT_NE(dump.find("\"hexa_delta_staged_ops_total\""), std::string::npos);
  EXPECT_NE(dump.find("\"hexa_query_bgp_latency_ns\""), std::string::npos);
  EXPECT_NE(dump.find("\"slow_queries\": {"), std::string::npos);
  const char* slow_us = std::getenv("HEXA_SLOW_QUERY_US");
  if (slow_us != nullptr && std::string(slow_us) == "0") {
    // The CI query step captures everything; the entry must be whole.
    EXPECT_NE(dump.find("\"text\": \"BGP ?s <p0> ?o\""), std::string::npos);
    EXPECT_NE(dump.find("\"kind\": \"bgp\""), std::string::npos);
  }

  if (!external_dump) fs::remove(dump_path);
}

}  // namespace
}  // namespace hexastore
