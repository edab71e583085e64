// Tests for the consolidated HEXA_* environment reader
// (server/store_options.h): FromEnv mapping into the served store's and
// the server's options, unparsable-value repair notes, and
// ServerOptions::Normalize clamping.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "server/store_options.h"

namespace hexastore {
namespace {

// Clears every variable FromEnv reads, so tests see only what they set.
class StoreOptionsTest : public ::testing::Test {
 protected:
  void SetUp() override { ClearAll(); }
  void TearDown() override { ClearAll(); }

  static void ClearAll() {
    for (const char* name :
         {"HEXA_COMPACT_THRESHOLD", "HEXA_BG_COMPACTION",
          "HEXA_L0_RUN_LIMIT", "HEXA_L1_BASE_FRACTION", "HEXA_MEM_BUDGET",
          "HEXA_FILTER_BITS", "HEXA_WAL_DIR", "HEXA_WAL_MODE",
          "HEXA_WAL_SEGMENT_BYTES", "HEXA_WAL_BATCH_BYTES",
          "HEXA_BG_CHECKPOINTS", "HEXA_HOST", "HEXA_PORT",
          "HEXA_SERVER_THREADS", "HEXA_SERVER_QUEUE",
          "HEXA_QUERY_DEADLINE_MS", "HEXA_PLAN_CACHE_CAP",
          "HEXA_PLAN_CACHE_QERR", "HEXA_MAX_REQUEST_BYTES",
          "HEXA_SHARDS"}) {
      ::unsetenv(name);
    }
  }
};

TEST_F(StoreOptionsTest, DefaultsWhenEnvironmentIsEmpty) {
  std::string notes;
  StoreOptions options = StoreOptions::FromEnv(&notes);
  EXPECT_TRUE(notes.empty()) << notes;
  EXPECT_FALSE(options.durable);
  EXPECT_EQ(options.server.host, "127.0.0.1");
  EXPECT_EQ(options.server.port, 8585);
  EXPECT_EQ(options.server.threads, 4u);
  EXPECT_EQ(options.server.queue_depth, 64u);
  EXPECT_EQ(options.server.query_deadline_ms, 0u);
  EXPECT_EQ(options.delta.compact_threshold,
            DeltaOptions{}.compact_threshold);
}

TEST_F(StoreOptionsTest, StoreShapeKnobsReachDurableShards) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("hexa-store-options-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  ::setenv("HEXA_COMPACT_THRESHOLD", "123", 1);
  ::setenv("HEXA_BG_COMPACTION", "1", 1);
  ::setenv("HEXA_L0_RUN_LIMIT", "3", 1);
  ::setenv("HEXA_WAL_DIR", dir.c_str(), 1);
  ::setenv("HEXA_L1_BASE_FRACTION", "0.5", 1);
  ::setenv("HEXA_MEM_BUDGET", "65536", 1);
  ::setenv("HEXA_FILTER_BITS", "6", 1);
  StoreOptions options = StoreOptions::FromEnv();
  EXPECT_EQ(options.delta.compact_threshold, 123u);
  EXPECT_TRUE(options.delta.background_compaction);
  EXPECT_EQ(options.delta.l0_run_limit, 3u);
  // `durability` alone configures a durable store the same way.
  const DeltaOptions& durable_delta = options.durability.delta;
  EXPECT_EQ(durable_delta.compact_threshold, options.delta.compact_threshold);
  EXPECT_EQ(durable_delta.background_compaction,
            options.delta.background_compaction);
  EXPECT_EQ(durable_delta.l0_run_limit, options.delta.l0_run_limit);
  EXPECT_EQ(durable_delta.l1_base_fraction, options.delta.l1_base_fraction);
  EXPECT_EQ(durable_delta.memory_budget_bytes,
            options.delta.memory_budget_bytes);
  EXPECT_EQ(durable_delta.filter_bits_per_key,
            options.delta.filter_bits_per_key);
  EXPECT_EQ(durable_delta.trace_capacity, options.delta.trace_capacity);
  // The same shape reaches the durable store: one store geometry
  // regardless of whether the WAL wrapper is in front.
  {
    auto opened = ShardedHexastore::Open(options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    const DeltaHexastore& shard = opened.value()->shard(0);
    EXPECT_EQ(shard.compact_threshold(), 123u);
    EXPECT_TRUE(shard.background());
    EXPECT_EQ(shard.l0_run_limit(), 3u);
  }
  {
    auto opened = DurableDeltaHexastore::Open(options.durability);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    const DeltaHexastore& store = opened.value()->delta();
    EXPECT_EQ(store.compact_threshold(), 123u);
    EXPECT_TRUE(store.background());
    EXPECT_EQ(store.l0_run_limit(), 3u);
  }
  std::filesystem::remove_all(dir);
}

TEST_F(StoreOptionsTest, ShardsKnob) {
  // Default: one shard.
  EXPECT_EQ(StoreOptions::FromEnv().shards, 1u);
  ::setenv("HEXA_SHARDS", "4", 1);
  std::string notes;
  EXPECT_EQ(StoreOptions::FromEnv(&notes).shards, 4u);
  EXPECT_TRUE(notes.empty()) << notes;
  // Unparsable keeps the default and notes the repair.
  ::setenv("HEXA_SHARDS", "many", 1);
  notes.clear();
  EXPECT_EQ(StoreOptions::FromEnv(&notes).shards, 1u);
  EXPECT_NE(notes.find("HEXA_SHARDS"), std::string::npos) << notes;
  // Zero is clamped to 1 (a facade always has at least one shard).
  ::setenv("HEXA_SHARDS", "0", 1);
  notes.clear();
  EXPECT_EQ(StoreOptions::FromEnv(&notes).shards, 1u);
  EXPECT_NE(notes.find("shards=0"), std::string::npos) << notes;
  // With a store-shape repair alongside, both are reported.
  ::setenv("HEXA_COMPACT_THRESHOLD", "0", 1);
  notes.clear();
  const StoreOptions repaired = StoreOptions::FromEnv(&notes);
  EXPECT_EQ(repaired.shards, 1u);
  EXPECT_EQ(repaired.delta.compact_threshold, 1u);
  EXPECT_NE(notes.find("shards=0"), std::string::npos) << notes;
  EXPECT_NE(notes.find("compact_threshold 0"), std::string::npos) << notes;
}

TEST_F(StoreOptionsTest, WalDirImpliesDurable) {
  ::setenv("HEXA_WAL_DIR", "/tmp/hexa-test-wal", 1);
  ::setenv("HEXA_WAL_MODE", "per-commit", 1);
  StoreOptions options = StoreOptions::FromEnv();
  EXPECT_TRUE(options.durable);
  EXPECT_EQ(options.durability.dir, "/tmp/hexa-test-wal");
  EXPECT_EQ(options.durability.mode, DurabilityMode::kPerCommit);
}

TEST_F(StoreOptionsTest, ServerKnobs) {
  ::setenv("HEXA_HOST", "0.0.0.0", 1);
  ::setenv("HEXA_PORT", "9191", 1);
  ::setenv("HEXA_SERVER_THREADS", "8", 1);
  ::setenv("HEXA_SERVER_QUEUE", "16", 1);
  ::setenv("HEXA_QUERY_DEADLINE_MS", "250", 1);
  ::setenv("HEXA_PLAN_CACHE_CAP", "32", 1);
  ::setenv("HEXA_PLAN_CACHE_QERR", "3.5", 1);
  StoreOptions options = StoreOptions::FromEnv();
  EXPECT_EQ(options.server.host, "0.0.0.0");
  EXPECT_EQ(options.server.port, 9191);
  EXPECT_EQ(options.server.threads, 8u);
  EXPECT_EQ(options.server.queue_depth, 16u);
  EXPECT_EQ(options.server.query_deadline_ms, 250u);
  EXPECT_EQ(options.server.plan_cache_capacity, 32u);
  EXPECT_DOUBLE_EQ(options.server.plan_cache_q_error, 3.5);
}

TEST_F(StoreOptionsTest, UnparsableValueKeepsDefaultAndNotes) {
  ::setenv("HEXA_SERVER_THREADS", "lots", 1);
  std::string notes;
  StoreOptions options = StoreOptions::FromEnv(&notes);
  EXPECT_EQ(options.server.threads, 4u);
  EXPECT_NE(notes.find("HEXA_SERVER_THREADS"), std::string::npos) << notes;
}

TEST_F(StoreOptionsTest, NormalizeRepairsInvalidServerOptions) {
  ServerOptions server;
  server.host = "";
  server.threads = 0;
  server.queue_depth = 0;
  server.plan_cache_capacity = 0;
  server.plan_cache_q_error = 0.5;  // < 1 is meaningless for a q-error
  server.max_request_bytes = 16;    // cannot fit a request line
  const std::string notes = server.Normalize();
  // Every repair is reported, one per line, in field order.
  std::vector<std::string> lines;
  std::istringstream in(notes);
  for (std::string line; std::getline(in, line);) {
    lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 6u) << notes;
  const char* fields[] = {"host", "threads", "queue_depth",
                          "plan_cache_capacity", "plan_cache_q_error",
                          "max_request_bytes"};
  for (std::size_t i = 0; i < lines.size(); ++i) {
    EXPECT_NE(lines[i].find(fields[i]), std::string::npos) << lines[i];
  }
  EXPECT_EQ(server.host, "127.0.0.1");
  EXPECT_GT(server.threads, 0u);
  EXPECT_GT(server.queue_depth, 0u);
  EXPECT_GT(server.plan_cache_capacity, 0u);
  EXPECT_GE(server.plan_cache_q_error, 1.0);
  EXPECT_GE(server.max_request_bytes, 1024u);
}

TEST_F(StoreOptionsTest, NormalizeIsIdempotentOnValidOptions) {
  ServerOptions server;
  EXPECT_EQ(server.Normalize(), "");
}

}  // namespace
}  // namespace hexastore
