// Golden-format tests for every stats ToString() report: the exact text
// is part of the observability surface (docs/observability.md "Export
// formats"), so a change here must be deliberate and versioned, not an
// accident of refactoring.
#include <gtest/gtest.h>

#include <string>

#include "core/stats.h"

namespace hexastore {
namespace {

TEST(StatsFormatTest, MemoryStatsGolden) {
  MemoryStats m;
  for (int i = 0; i < 6; ++i) m.perm_index_bytes[i] = 100 * (i + 1);
  m.terminal_bytes[0] = 7;
  m.terminal_bytes[1] = 8;
  m.terminal_bytes[2] = 9;
  m.key_entries = 55;
  EXPECT_EQ(m.ToString(),
            "Hexastore memory breakdown:\n"
            "  index spo: 100 bytes\n"
            "  index sop: 200 bytes\n"
            "  index pso: 300 bytes\n"
            "  index pos: 400 bytes\n"
            "  index osp: 500 bytes\n"
            "  index ops: 600 bytes\n"
            "  terminal o(s,p): 7 bytes\n"
            "  terminal p(s,o): 8 bytes\n"
            "  terminal s(p,o): 9 bytes\n"
            "  total: 2124 bytes, key entries: 55\n");
  EXPECT_EQ(m.Total(), 2124u);
}

// Flat synchronous store: only the three always-on lines print.
TEST(StatsFormatTest, DeltaStatsFlatGolden) {
  DeltaStats d;
  d.staged_inserts = 3;
  d.staged_tombstones = 1;
  d.pattern_tombstones = 2;
  d.compact_threshold = 1000;
  d.compactions = 4;
  d.epoch = 5;
  d.base_triples = 600;
  d.base_bytes = 7000;
  d.delta_bytes = 800;
  EXPECT_EQ(d.ToString(),
            "DeltaHexastore delta layer:\n"
            "  staged: 3 inserts, 1 tombstones, 2 pattern tombstones "
            "(threshold 1000)\n"
            "  compactions: 4, epoch: 5\n"
            "  base: 600 triples, 7000 bytes; delta: 800 bytes\n");
}

// Flat inline store (the served default) after three drains: each drain
// follows a seal, so the seal line and the base-merge / write
// amplification line print although the store is neither background nor
// leveled.
TEST(StatsFormatTest, DeltaStatsFlatInlineAfterDrainsGolden) {
  DeltaStats d;
  d.compact_threshold = 100;
  d.compactions = 3;
  d.epoch = 3;
  d.base_triples = 280;
  d.base_bytes = 9000;
  d.seals = 3;
  d.base_merges = 3;
  d.base_rebuild_triples = 300;
  d.staged_ops_total = 300;
  EXPECT_EQ(d.ToString(),
            "DeltaHexastore delta layer:\n"
            "  staged: 0 inserts, 0 tombstones, 0 pattern tombstones "
            "(threshold 100)\n"
            "  compactions: 3, epoch: 3\n"
            "  base: 280 triples, 9000 bytes; delta: 0 bytes\n"
            "  inline: 3 seals, 0 overflows, 0 ops sealed now\n"
            "  merges: 0 L0->L1 folds, 3 base merges; write amplification "
            "1 (0 run ops + 300 rebuilt triples over 300 staged)\n");
}

// A served flat store whose first drain rebuilt the base and whose later
// drains applied in place to the spare: the merges line names the
// rebuilds.
TEST(StatsFormatTest, DeltaStatsFlatInlineWithRebuildsGolden) {
  DeltaStats d;
  d.compact_threshold = 100;
  d.compactions = 5;
  d.epoch = 5;
  d.base_triples = 1000;
  d.base_bytes = 9000;
  d.seals = 5;
  d.base_merges = 5;
  d.base_rebuilds = 1;
  d.base_rebuild_triples = 1700;
  d.staged_ops_total = 500;
  EXPECT_EQ(d.ToString(),
            "DeltaHexastore delta layer:\n"
            "  staged: 0 inserts, 0 tombstones, 0 pattern tombstones "
            "(threshold 100)\n"
            "  compactions: 5, epoch: 5\n"
            "  base: 1000 triples, 9000 bytes; delta: 0 bytes\n"
            "  inline: 5 seals, 0 overflows, 0 ops sealed now\n"
            "  merges: 0 L0->L1 folds, 5 base merges (1 rebuilt); write "
            "amplification 3.4 (0 run ops + 1700 rebuilt triples over 500 "
            "staged)\n");
}

// Every conditional section armed: background, levels, filters, budget.
TEST(StatsFormatTest, DeltaStatsFullGolden) {
  DeltaStats d;
  d.staged_inserts = 1;
  d.compact_threshold = 100;
  d.compactions = 2;
  d.epoch = 3;
  d.base_triples = 4;
  d.base_bytes = 5;
  d.delta_bytes = 6;
  d.background = true;
  d.seals = 7;
  d.background_merges = 8;
  d.merge_discards = 1;
  d.seal_overflows = 2;
  d.sealed_ops = 9;
  d.l0_run_limit = 4;
  d.l0_runs = 2;
  d.l0_ops = 20;
  d.l1_ops = 30;
  d.l0_merges = 5;
  d.base_merges = 6;
  d.merge_run_ops = 50;
  d.base_rebuild_triples = 70;
  d.staged_ops_total = 100;
  d.filter_bits_per_key = 10;
  d.filter_probes = 40;
  d.filter_skips = 30;
  d.filter_false_positives = 3;
  d.filters_dropped = 1;
  d.memory_budget_bytes = 4096;
  d.resident_bytes = 2048;
  d.budget_seals = 2;
  d.budget_folds = 1;
  d.budget_base_merges = 1;
  EXPECT_DOUBLE_EQ(d.WriteAmplification(), 1.2);
  EXPECT_EQ(d.ToString(),
            "DeltaHexastore delta layer:\n"
            "  staged: 1 inserts, 0 tombstones, 0 pattern tombstones "
            "(threshold 100)\n"
            "  compactions: 2, epoch: 3\n"
            "  base: 4 triples, 5 bytes; delta: 6 bytes\n"
            "  background: 7 seals, 8 merges (1 discarded), 2 overflows, "
            "9 ops sealed now\n"
            "  levels: L0 2 runs / 20 ops (fold at 4), L1 30 ops\n"
            "  merges: 5 L0->L1 folds, 6 base merges; write amplification "
            "1.2 (50 run ops + 70 rebuilt triples over 100 staged)\n"
            "  filters: 10 bits/key; 40 probes, 30 skips, 3 false "
            "positives, 1 dropped\n"
            "  budget: 2048 / 4096 bytes resident; forced 2 seals, 1 "
            "folds, 1 base merges\n");
}

TEST(StatsFormatTest, EpochStatsGolden) {
  EpochStats e;
  e.global_epoch = 10;
  e.generations_published = 9;
  e.generations_retired = 8;
  e.generations_reclaimed = 7;
  e.retire_queue_depth = 1;
  e.handles_acquired = 500;
  e.active_reader_sections = 2;
  EXPECT_EQ(e.ToString(),
            "generation gate:\n"
            "  epoch: 10, published: 9, retired: 8, reclaimed: 7\n"
            "  retire queue: 1, handles acquired: 500, readers "
            "mid-acquire: 2\n");
}

TEST(StatsFormatTest, WalStatsGolden) {
  WalStats w;
  w.records_appended = 100;
  w.bytes_appended = 2048;
  w.commit_requests = 50;
  w.fsyncs = 10;
  w.rotations = 3;
  w.checkpoints = 2;
  EXPECT_EQ(w.ToString(),
            "write-ahead log:\n"
            "  appended: 100 records, 2048 bytes\n"
            "  commits: 50, fsyncs: 10, rotations: 3, checkpoints: 2\n");
}

// The snapshot concatenates the sections; the WAL block appears only on
// a durable store.
TEST(StatsFormatTest, StatsSnapshotConcatenation) {
  StatsSnapshot snap;
  snap.delta.compact_threshold = 10;
  snap.epoch.global_epoch = 1;
  const std::string without_wal = snap.ToString();
  EXPECT_EQ(without_wal, snap.delta.ToString() + snap.epoch.ToString());
  EXPECT_EQ(without_wal.find("write-ahead log"), std::string::npos);

  snap.has_wal = true;
  snap.wal.records_appended = 5;
  EXPECT_EQ(snap.ToString(), snap.delta.ToString() + snap.epoch.ToString() +
                                 snap.wal.ToString());
}

}  // namespace
}  // namespace hexastore
