// Behavior tests of the DeltaHexastore: staging semantics, threshold
// auto-compaction, snapshot isolation across compactions, pattern erases
// across levels, stats, and the snapshot file format.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/hexastore.h"
#include "delta/delta_hexastore.h"
#include "io/snapshot.h"
#include "rdf/term.h"
#include "util/rng.h"

namespace hexastore {
namespace {

IdTripleVec MatchAll(const TripleStore& store) {
  return store.Match(IdPattern{});
}

TEST(DeltaHexastoreTest, InsertEraseContainsMirrorTripleStoreContract) {
  DeltaHexastore store;
  EXPECT_TRUE(store.Insert({1, 2, 3}));
  EXPECT_FALSE(store.Insert({1, 2, 3}));
  EXPECT_TRUE(store.Contains({1, 2, 3}));
  EXPECT_EQ(store.size(), 1u);
  EXPECT_TRUE(store.Erase({1, 2, 3}));
  EXPECT_FALSE(store.Erase({1, 2, 3}));
  EXPECT_FALSE(store.Contains({1, 2, 3}));
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.name(), "DeltaHexastore");
}

TEST(DeltaHexastoreTest, WritesStageInDeltaUntilThreshold) {
  DeltaHexastore store(DeltaOptions{.compact_threshold = 8});
  for (Id i = 1; i <= 7; ++i) {
    store.Insert({i, 1, 1});
  }
  EXPECT_EQ(store.StagedOps(), 7u);
  EXPECT_EQ(store.CompactionCount(), 0u);
  EXPECT_EQ(store.base()->size(), 0u);  // nothing drained yet
  store.Insert({8, 1, 1});              // hits the threshold
  EXPECT_EQ(store.StagedOps(), 0u);
  EXPECT_EQ(store.CompactionCount(), 1u);
  EXPECT_EQ(store.base()->size(), 8u);
  EXPECT_EQ(store.size(), 8u);
}

TEST(DeltaHexastoreTest, EraseOfBaseTripleStagesTombstone) {
  DeltaHexastore store(DeltaOptions{.compact_threshold = 4});
  for (Id i = 1; i <= 4; ++i) {
    store.Insert({i, 1, 1});  // compacts on the 4th
  }
  ASSERT_EQ(store.CompactionCount(), 1u);
  EXPECT_TRUE(store.Erase({2, 1, 1}));
  EXPECT_EQ(store.StagedOps(), 1u);
  EXPECT_FALSE(store.Contains({2, 1, 1}));
  EXPECT_EQ(store.size(), 3u);
  // The tombstoned triple is still physically in the base.
  EXPECT_TRUE(store.base()->Contains({2, 1, 1}));
  store.Compact();
  EXPECT_FALSE(store.base()->Contains({2, 1, 1}));
  EXPECT_EQ(store.size(), 3u);
}

TEST(DeltaHexastoreTest, ScanSeesBaseMinusTombstonesPlusDelta) {
  DeltaHexastore store(DeltaOptions{.compact_threshold = 1024});
  store.BulkLoad({{1, 1, 1}, {2, 1, 1}, {3, 1, 1}});
  store.Erase({2, 1, 1});   // tombstone over base
  store.Insert({4, 1, 1});  // staged insert
  const IdTripleVec expect{{1, 1, 1}, {3, 1, 1}, {4, 1, 1}};
  EXPECT_EQ(MatchAll(store), expect);
  // Pattern-restricted scans see the same merged view.
  EXPECT_EQ(store.CountMatches({0, 1, 1}), 3u);
  EXPECT_EQ(store.CountMatches({2, 0, 0}), 0u);
  EXPECT_EQ(store.CountMatches({4, 0, 0}), 1u);
}

TEST(DeltaHexastoreTest, AgreesWithHexastoreUnderRandomChurn) {
  Rng rng(0xde17a);
  DeltaHexastore store(DeltaOptions{.compact_threshold = 64});
  Hexastore oracle;
  for (int i = 0; i < 4000; ++i) {
    IdTriple t{1 + rng.Uniform(12), 1 + rng.Uniform(6),
               1 + rng.Uniform(12)};
    if (rng.Bernoulli(0.6)) {
      EXPECT_EQ(store.Insert(t), oracle.Insert(t));
    } else {
      EXPECT_EQ(store.Erase(t), oracle.Erase(t));
    }
  }
  EXPECT_EQ(store.size(), oracle.size());
  EXPECT_GT(store.CompactionCount(), 0u);
  for (int mask = 0; mask < 8; ++mask) {
    for (int probe = 0; probe < 20; ++probe) {
      IdPattern q;
      if (mask & 1) q.s = 1 + rng.Uniform(13);
      if (mask & 2) q.p = 1 + rng.Uniform(7);
      if (mask & 4) q.o = 1 + rng.Uniform(13);
      EXPECT_EQ(store.Match(q), oracle.Match(q));
    }
  }
  std::string err;
  EXPECT_TRUE(store.CheckInvariants(&err)) << err;
}

TEST(DeltaHexastoreTest, SnapshotIsIsolatedFromLaterWritesAndCompaction) {
  DeltaHexastore store(DeltaOptions{.compact_threshold = 16});
  for (Id i = 1; i <= 10; ++i) {
    store.Insert({i, 1, 1});
  }
  DeltaHexastore::Snapshot snap = store.GetSnapshot();
  const IdTripleVec at_snapshot = snap.Match(IdPattern{});
  ASSERT_EQ(at_snapshot.size(), 10u);

  // Mutate past the threshold: compaction runs with the snapshot alive.
  for (Id i = 11; i <= 40; ++i) {
    store.Insert({i, 1, 1});
  }
  store.Erase({1, 1, 1});
  ASSERT_GT(store.CompactionCount(), 0u);

  // The snapshot still answers from the pre-compaction view.
  EXPECT_EQ(snap.Match(IdPattern{}), at_snapshot);
  EXPECT_EQ(snap.size(), 10u);
  EXPECT_TRUE(snap.Contains({1, 1, 1}));
  EXPECT_FALSE(snap.Contains({11, 1, 1}));
  // The live store sees the new state.
  EXPECT_EQ(store.size(), 39u);
  EXPECT_FALSE(store.Contains({1, 1, 1}));
}

TEST(DeltaHexastoreTest, SnapshotEpochAdvancesOnCompaction) {
  DeltaHexastore store(DeltaOptions{.compact_threshold = 4});
  DeltaHexastore::Snapshot before = store.GetSnapshot();
  for (Id i = 1; i <= 4; ++i) {
    store.Insert({i, 1, 1});
  }
  DeltaHexastore::Snapshot after = store.GetSnapshot();
  EXPECT_GT(after.epoch(), before.epoch());
}

TEST(DeltaHexastoreTest, ClearResetsEverythingIncludingStagedOps) {
  DeltaHexastore store(DeltaOptions{.compact_threshold = 1024});
  store.BulkLoad({{1, 1, 1}, {2, 2, 2}});
  store.Insert({3, 3, 3});
  DeltaHexastore::Snapshot snap = store.GetSnapshot();
  store.Clear();
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.StagedOps(), 0u);
  EXPECT_EQ(MatchAll(store), IdTripleVec{});
  // The snapshot keeps the pre-clear view.
  EXPECT_EQ(snap.size(), 3u);
  EXPECT_TRUE(snap.Contains({3, 3, 3}));
  std::string err;
  EXPECT_TRUE(store.CheckInvariants(&err)) << err;
}

TEST(DeltaHexastoreTest, StatsReportDeltaAndBase) {
  DeltaHexastore store(DeltaOptions{.compact_threshold = 100});
  store.BulkLoad({{1, 1, 1}, {2, 2, 2}, {3, 3, 3}});
  store.Insert({4, 4, 4});
  store.Insert({5, 5, 5});
  store.Erase({1, 1, 1});
  const DeltaStats stats = store.Stats();
  EXPECT_EQ(stats.staged_inserts, 2u);
  EXPECT_EQ(stats.staged_tombstones, 1u);
  EXPECT_EQ(stats.compact_threshold, 100u);
  EXPECT_EQ(stats.base_triples, 3u);
  EXPECT_GT(stats.delta_bytes, 0u);
  EXPECT_GT(stats.base_bytes, 0u);
  const std::string report = stats.ToString();
  EXPECT_NE(report.find("2 inserts"), std::string::npos);
  EXPECT_NE(report.find("1 tombstones"), std::string::npos);
  EXPECT_GT(store.MemoryBytes(), 0u);
}

TEST(DeltaHexastoreTest, BulkLoadMergesIntoExistingContents) {
  DeltaHexastore store(DeltaOptions{.compact_threshold = 1024});
  store.Insert({1, 1, 1});
  store.Insert({2, 2, 2});
  store.BulkLoad({{2, 2, 2}, {3, 3, 3}, {3, 3, 3}});
  const IdTripleVec expect{{1, 1, 1}, {2, 2, 2}, {3, 3, 3}};
  EXPECT_EQ(MatchAll(store), expect);
  EXPECT_EQ(store.size(), 3u);
  EXPECT_EQ(store.StagedOps(), 0u);  // BulkLoad drains the delta first
}

TEST(DeltaHexastoreTest, ErasePatternStagesOneTombstoneNotOnePerMatch) {
  DeltaHexastore store(DeltaOptions{.compact_threshold = 1u << 20});
  IdTripleVec triples;
  for (Id i = 1; i <= 100; ++i) {
    triples.push_back(IdTriple{i, 7, i + 1});
    triples.push_back(IdTriple{i, 8, i + 1});
  }
  std::sort(triples.begin(), triples.end());
  store.BulkLoad(triples);
  const std::size_t staged_before = store.StagedOps();

  EXPECT_EQ(store.ErasePattern(IdPattern{0, 7, 0}), 100u);
  // O(1) staging: no per-match point tombstones appeared.
  EXPECT_EQ(store.StagedOps(), staged_before);
  EXPECT_EQ(store.Stats().pattern_tombstones, 1u);
  EXPECT_EQ(store.size(), 100u);
  EXPECT_FALSE(store.Contains(IdTriple{1, 7, 2}));
  EXPECT_TRUE(store.Contains(IdTriple{1, 8, 2}));
  EXPECT_EQ(store.CountMatches(IdPattern{0, 7, 0}), 0u);
  std::string err;
  EXPECT_TRUE(store.CheckInvariants(&err)) << err;

  // Idempotent; a second erase of the same predicate removes nothing.
  EXPECT_EQ(store.ErasePattern(IdPattern{0, 7, 0}), 0u);

  // Re-insert after the pattern erase: only that triple resurfaces, and
  // compaction settles everything into the base.
  EXPECT_TRUE(store.Insert(IdTriple{1, 7, 2}));
  EXPECT_EQ(store.CountMatches(IdPattern{0, 7, 0}), 1u);
  store.Compact();
  EXPECT_EQ(store.Stats().pattern_tombstones, 0u);
  EXPECT_EQ(store.CountMatches(IdPattern{0, 7, 0}), 1u);
  EXPECT_EQ(store.size(), 101u);
  EXPECT_TRUE(store.CheckInvariants(&err)) << err;
}

TEST(DeltaHexastoreTest, ErasePatternSubsumesStagedOpsOnPredicate) {
  DeltaHexastore store(DeltaOptions{.compact_threshold = 1u << 20});
  store.BulkLoad({IdTriple{1, 5, 1}, IdTriple{2, 5, 2}, IdTriple{3, 6, 3}});
  EXPECT_TRUE(store.Insert(IdTriple{9, 5, 9}));  // staged insert, pred 5
  EXPECT_TRUE(store.Erase(IdTriple{1, 5, 1}));   // staged tombstone, pred 5
  // Logical matches of pred 5: (2,5,2) in base plus staged (9,5,9).
  EXPECT_EQ(store.ErasePattern(IdPattern{0, 5, 0}), 2u);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_TRUE(store.Contains(IdTriple{3, 6, 3}));
  std::string err;
  EXPECT_TRUE(store.CheckInvariants(&err)) << err;
}

TEST(DeltaHexastoreTest, SnapshotIsolatedFromErasePattern) {
  DeltaHexastore store(DeltaOptions{.compact_threshold = 1u << 20});
  store.BulkLoad({IdTriple{1, 2, 3}, IdTriple{4, 2, 5}, IdTriple{6, 7, 8}});
  DeltaHexastore::Snapshot snap = store.GetSnapshot();
  EXPECT_EQ(store.ErasePattern(IdPattern{0, 2, 0}), 2u);
  // The snapshot still sees the pre-erase world; the live store does not.
  EXPECT_TRUE(snap.Contains(IdTriple{1, 2, 3}));
  EXPECT_EQ(snap.Match(IdPattern{0, 2, 0}).size(), 2u);
  EXPECT_FALSE(store.Contains(IdTriple{1, 2, 3}));
  EXPECT_EQ(store.size(), 1u);
}

// Publishing after every batch, as the server does, sorts each staged
// insert once plus O(log batches) chunk-merge rewrites. Re-sorting the
// whole buffer for every published generation would write the sum of
// the buffer sizes, about 5.1M triples here.
TEST(DeltaHexastoreTest, PublishPerBatchSortsEachInsertLogTimes) {
  constexpr Id kBatches = 200;
  constexpr Id kBatch = 256;  // 51,200 ops stay under the 64k threshold
  DeltaHexastore store;
  for (Id b = 0; b < kBatches; ++b) {
    for (Id i = 0; i < kBatch; ++i) {
      ASSERT_TRUE(store.Insert({b * kBatch + i + 1, 1 + i % 4, b + 1}));
    }
    const DeltaHexastore::Snapshot snap = store.GetSnapshot();
    std::size_t matches = 0;
    snap.Scan(IdPattern{0, 2, 0}, [&matches](const IdTriple&) { ++matches; });
    ASSERT_EQ(matches, (b + 1) * kBatch / 4);
  }
  EXPECT_EQ(store.Stats().seals, 0u);
  std::uint64_t sorted = 0;
  ASSERT_TRUE(store.metrics_registry().CounterValue(
      "hexa_delta_run_sort_triples_total", &sorted));
  const double staged = static_cast<double>(kBatches * kBatch);
  EXPECT_GE(static_cast<double>(sorted), staged);
  EXPECT_LE(static_cast<double>(sorted),
            2 * std::log2(static_cast<double>(kBatches)) * staged);
}

// One churn step of the spare-base tests: 128 inserts of fresh triples
// and 128 erases of the oldest ones, so the size stays put and one
// 256-op run seals and drains at the step's last op.
void ChurnStep(DeltaHexastore* store, Id step, Id base_size) {
  for (Id i = 0; i < 128; ++i) {
    ASSERT_TRUE(store->Insert({base_size + step * 128 + i + 1, 1, 1}));
  }
  for (Id i = 0; i < 128; ++i) {
    ASSERT_TRUE(store->Erase({step * 128 + i + 1, 1, 1}));
  }
}

// Published every step, only the first drain rebuilds (no spare yet);
// every later one applies in place to the spare after its catch-up (512
// ops a use), however many ops the bases have absorbed since they were
// built.
TEST(DeltaHexastoreTest, UnpinnedSpareTakesEveryLaterDrain) {
  constexpr Id kBase = 1000;
  DeltaHexastore store(DeltaOptions{.compact_threshold = 256});
  IdTripleVec base;
  for (Id s = 1; s <= kBase; ++s) {
    base.push_back({s, 1, 1});
  }
  store.BulkLoad(base);
  store.GetSnapshot();
  std::vector<std::uint64_t> rebuilds;  // after each drain
  for (Id step = 0; step < 13; ++step) {
    ASSERT_NO_FATAL_FAILURE(ChurnStep(&store, step, kBase));
    store.GetSnapshot();
    const DeltaStats stats = store.Stats();
    ASSERT_EQ(stats.base_merges, step + 1);
    rebuilds.push_back(stats.base_rebuilds);
    // The rebuild writes the whole base; an in-place drain its run and
    // the one run its spare lags.
    EXPECT_EQ(stats.base_rebuild_triples, kBase + step * 512);
    if (step == 0) {
      // The replaced base is kept as the spare and counted.
      const std::size_t base_bytes = store.base()->MemoryBytes();
      EXPECT_GT(store.MemoryBytes(), base_bytes + base_bytes / 2);
    }
    std::string err;
    ASSERT_TRUE(store.CheckInvariants(&err)) << err;
  }
  EXPECT_EQ(rebuilds, std::vector<std::uint64_t>(13, 1));
  EXPECT_EQ(store.size(), kBase);
}

// A store that drains in place without publishing lets its spare fall
// behind: once the lag holds more ops than the base holds triples the
// spare is dropped, so the next drain of a published base rebuilds
// rather than replaying the lag.
TEST(DeltaHexastoreTest, SpareLaggingPastTheBaseSizeIsDropped) {
  constexpr Id kBase = 300;
  DeltaHexastore store(DeltaOptions{.compact_threshold = 256});
  IdTripleVec base;
  for (Id s = 1; s <= kBase; ++s) {
    base.push_back({s, 1, 1});
  }
  store.BulkLoad(base);
  store.GetSnapshot();
  ASSERT_NO_FATAL_FAILURE(ChurnStep(&store, 0, kBase));  // rebuilds
  EXPECT_EQ(store.Stats().base_rebuilds, 1u);
  // Unpublished: in place on the current base; the spare's lag grows to
  // 512 ops against 300 triples and the spare is dropped.
  ASSERT_NO_FATAL_FAILURE(ChurnStep(&store, 1, kBase));
  EXPECT_EQ(store.Stats().base_rebuilds, 1u);
  store.GetSnapshot();
  ASSERT_NO_FATAL_FAILURE(ChurnStep(&store, 2, kBase));
  EXPECT_EQ(store.Stats().base_rebuilds, 2u);
  EXPECT_EQ(store.size(), kBase);
  std::string err;
  EXPECT_TRUE(store.CheckInvariants(&err)) << err;
}

TEST(DeltaHexastoreSnapshotIoTest, RoundTripsAndCompactsFirst) {
  Dictionary dict;
  DeltaHexastore store(DeltaOptions{.compact_threshold = 1024});
  Rng rng(5);
  for (int i = 0; i < 300; ++i) {
    Term s = Term::Iri("http://ex/s" + std::to_string(rng.Uniform(40)));
    Term p = Term::Iri("http://ex/p" + std::to_string(rng.Uniform(8)));
    Term o = Term::Literal("v" + std::to_string(rng.Uniform(40)));
    store.Insert(IdTriple{dict.Intern(s), dict.Intern(p), dict.Intern(o)});
  }
  ASSERT_GT(store.StagedOps(), 0u);
  std::ostringstream out;
  ASSERT_TRUE(SaveSnapshot(dict, &store, out).ok());
  EXPECT_EQ(store.StagedOps(), 0u);  // save compacted the delta

  Dictionary loaded_dict;
  DeltaHexastore loaded;
  std::istringstream in(out.str());
  ASSERT_TRUE(LoadSnapshot(in, &loaded_dict, &loaded).ok());
  EXPECT_EQ(loaded.size(), store.size());
  EXPECT_EQ(MatchAll(loaded), MatchAll(store));
  EXPECT_EQ(loaded_dict.size(), dict.size());

  // Loading into a non-empty target is rejected.
  std::istringstream in2(out.str());
  EXPECT_FALSE(LoadSnapshot(in2, &loaded_dict, &loaded).ok());
}

TEST(DeltaHexastoreSnapshotIoTest, ByteIdenticalToGraphSnapshot) {
  // Build the same contents through a Graph and through a DeltaHexastore
  // sharing the Graph's dictionary; the two snapshots must match byte for
  // byte (compact-first keeps one on-disk format).
  Graph graph;
  std::vector<Triple> triples;
  for (int i = 0; i < 50; ++i) {
    triples.push_back(Triple{Term::Iri("http://ex/s" + std::to_string(i % 7)),
                             Term::Iri("http://ex/p" + std::to_string(i % 3)),
                             Term::Literal("v" + std::to_string(i))});
  }
  for (const Triple& t : triples) {
    graph.Insert(t);
  }
  DeltaHexastore store;
  for (const Triple& t : triples) {
    store.Insert(*graph.dict().TryEncode(t));
  }
  std::ostringstream graph_out;
  ASSERT_TRUE(SaveSnapshot(graph, graph_out).ok());
  std::ostringstream delta_out;
  ASSERT_TRUE(SaveSnapshot(graph.dict(), &store, delta_out).ok());
  EXPECT_EQ(graph_out.str(), delta_out.str());
}

// -- Leveled delta runs (docs/delta-levels.md) ----------------------------

DeltaOptions LeveledOptions(std::size_t threshold, std::size_t l0_limit,
                            double l1_fraction = 0.25) {
  DeltaOptions options;
  options.compact_threshold = threshold;
  options.l0_run_limit = l0_limit;
  options.l1_base_fraction = l1_fraction;
  return options;
}

TEST(LeveledDeltaTest, SealsAccumulateAsL0RunsAndFoldIntoL1) {
  DeltaHexastore store(LeveledOptions(4, 2));
  // Pre-populate so the L1→base trigger (a fraction of the base) stays
  // out of reach: 0.25 * 400 = 100 staged ops.
  IdTripleVec bulk;
  for (Id i = 1; i <= 400; ++i) {
    bulk.push_back({i, 7, i});
  }
  store.BulkLoad(bulk);
  ASSERT_TRUE(store.leveled());

  // First threshold hit: the buffer seals into one L0 run — no merge.
  for (Id i = 1; i <= 4; ++i) {
    store.Insert({1000 + i, 8, i});
  }
  DeltaStats stats = store.Stats();
  EXPECT_EQ(stats.l0_runs, 1u);
  EXPECT_EQ(stats.l1_ops, 0u);
  EXPECT_EQ(stats.l0_merges, 0u);
  EXPECT_EQ(store.StagedOps(), 4u);  // staged in the run, not drained

  // Second seal reaches l0_run_limit: the runs fold into a single L1
  // run; the base is still untouched.
  for (Id i = 5; i <= 8; ++i) {
    store.Insert({1000 + i, 8, i});
  }
  stats = store.Stats();
  EXPECT_EQ(stats.l0_runs, 0u);
  EXPECT_EQ(stats.l1_ops, 8u);
  EXPECT_EQ(stats.l0_merges, 1u);
  EXPECT_EQ(stats.base_merges, 0u);
  EXPECT_EQ(stats.base_triples, 400u);
  EXPECT_EQ(store.size(), 408u);

  // Reads see the whole chain: active ▷ L0 ▷ L1 ▷ base.
  EXPECT_TRUE(store.Contains({1001, 8, 1}));
  EXPECT_TRUE(store.Contains({1, 7, 1}));
  EXPECT_EQ(store.CountMatches(IdPattern{0, 8, 0}), 8u);
  std::string err;
  EXPECT_TRUE(store.CheckInvariants(&err)) << err;

  // An explicit Compact collapses the full hierarchy into the base.
  store.Compact();
  EXPECT_EQ(store.StagedOps(), 0u);
  EXPECT_EQ(store.base()->size(), 408u);
  EXPECT_TRUE(store.CheckInvariants(&err)) << err;
}

TEST(LeveledDeltaTest, L1MergesIntoBaseOnlyWhenItEarnsIt) {
  // Tiny base: the fraction trigger collapses to the threshold, so the
  // first fold is immediately followed by an L1→base merge.
  DeltaHexastore store(LeveledOptions(4, 2));
  for (Id i = 1; i <= 8; ++i) {
    store.Insert({i, 3, i});
  }
  DeltaStats stats = store.Stats();
  EXPECT_EQ(stats.l0_merges, 1u);
  EXPECT_EQ(stats.base_merges, 1u);
  EXPECT_EQ(stats.l0_runs, 0u);
  EXPECT_EQ(stats.l1_ops, 0u);
  EXPECT_EQ(stats.base_triples, 8u);
  EXPECT_EQ(store.size(), 8u);
  EXPECT_GT(stats.staged_ops_total, 0u);
  EXPECT_GT(stats.WriteAmplification(), 0.0);
  std::string err;
  EXPECT_TRUE(store.CheckInvariants(&err)) << err;
}

TEST(LeveledDeltaTest, TombstonesInRunsEraseBaseAndLowerRuns) {
  DeltaHexastore store(LeveledOptions(4, 2));
  IdTripleVec bulk;
  for (Id i = 1; i <= 400; ++i) {
    bulk.push_back({i, 7, i});
  }
  store.BulkLoad(bulk);
  // Two seals: one run of inserts, one run erasing base triples plus one
  // of the first run's inserts — the fold must annihilate that pair.
  for (Id i = 1; i <= 4; ++i) {
    store.Insert({1000 + i, 8, i});
  }
  EXPECT_TRUE(store.Erase({1000 + 1, 8, 1}));  // insert in the run below
  EXPECT_TRUE(store.Erase({1, 7, 1}));         // base-resident
  EXPECT_TRUE(store.Erase({2, 7, 2}));
  EXPECT_TRUE(store.Insert({3000, 9, 9}));  // 4th op seals and folds
  DeltaStats stats = store.Stats();
  EXPECT_EQ(stats.l0_merges, 1u);
  // 4 inserts + 4 ops, minus the annihilated insert/tombstone pair.
  EXPECT_EQ(stats.l1_ops, 6u);
  EXPECT_FALSE(store.Contains({1000 + 1, 8, 1}));
  EXPECT_FALSE(store.Contains({1, 7, 1}));
  EXPECT_TRUE(store.Contains({1000 + 2, 8, 2}));
  EXPECT_EQ(store.size(), 400u + 4 + 1 - 3);
  std::string err;
  EXPECT_TRUE(store.CheckInvariants(&err)) << err;
  store.Compact();
  EXPECT_EQ(store.base()->size(), 402u);
  EXPECT_TRUE(store.CheckInvariants(&err)) << err;
}

// Regression: an ErasePattern tombstone staged above matching triples
// that sit in lower levels (an L0 run above L1) must suppress them in
// every read path, survive the L0→L1 fold, and let later re-inserts
// show through.
TEST(LeveledDeltaTest, PatternTombstoneInL0SuppressesMatchesInL1) {
  DeltaHexastore store(LeveledOptions(4, 2));
  IdTripleVec bulk;
  for (Id i = 1; i <= 400; ++i) {
    bulk.push_back({i, 7, i});
  }
  store.BulkLoad(bulk);

  // Land 8 pred-5 triples in L1 (two seals, one fold).
  for (Id i = 1; i <= 8; ++i) {
    store.Insert({1000 + i, 5, i});
  }
  ASSERT_EQ(store.Stats().l1_ops, 8u);
  ASSERT_EQ(store.Stats().l0_runs, 0u);

  // The leveled fast path counts by one merged scan — no level drains.
  EXPECT_EQ(store.ErasePattern(IdPattern{0, 5, 0}), 8u);
  EXPECT_EQ(store.size(), 400u);
  ASSERT_EQ(store.Stats().l1_ops, 8u);  // suppressed, not yet purged

  // Seal the pattern tombstone into an L0 run above L1.
  for (Id i = 1; i <= 4; ++i) {
    store.Insert({2000 + i, 9, i});  // 4th op seals
  }
  DeltaStats stats = store.Stats();
  ASSERT_EQ(stats.l0_runs, 1u);
  ASSERT_EQ(stats.l1_ops, 8u);

  // Verdict chain: the L0 run's pattern wins over the L1 inserts below.
  EXPECT_FALSE(store.Contains({1001, 5, 1}));
  EXPECT_EQ(store.CountMatches(IdPattern{0, 5, 0}), 0u);
  EXPECT_EQ(store.EstimateMatches(IdPattern{0, 5, 0}), 0u);
  EXPECT_FALSE(store.MatchesAny(IdPattern{1001, 5, 0}));
  EXPECT_EQ(store.size(), 404u);
  std::string err;
  ASSERT_TRUE(store.CheckInvariants(&err)) << err;

  // A re-insert above the pattern is visible again.
  EXPECT_TRUE(store.Insert({1001, 5, 1}));
  EXPECT_TRUE(store.Contains({1001, 5, 1}));
  EXPECT_EQ(store.CountMatches(IdPattern{0, 5, 0}), 1u);

  // Fold the pattern run onto L1: the suppressed inserts die there, the
  // pattern and the re-insert survive.
  for (Id i = 1; i <= 3; ++i) {
    store.Insert({3000 + i, 9, 100 + i});  // 4th op with the re-insert
  }
  stats = store.Stats();
  ASSERT_EQ(stats.l0_merges, 2u);
  ASSERT_EQ(stats.l0_runs, 0u);
  EXPECT_TRUE(store.Contains({1001, 5, 1}));
  EXPECT_EQ(store.CountMatches(IdPattern{0, 5, 0}), 1u);
  EXPECT_EQ(store.size(), 408u);
  ASSERT_TRUE(store.CheckInvariants(&err)) << err;

  // Full drain: the physical purge agrees with the logical view.
  store.Compact();
  EXPECT_EQ(store.base()->size(), 408u);
  EXPECT_TRUE(store.Contains({1001, 5, 1}));
  EXPECT_EQ(store.CountMatches(IdPattern{0, 5, 0}), 1u);
  EXPECT_TRUE(store.CheckInvariants(&err)) << err;
}

// Regression: BulkLoad's wait-for-merge sets the compactor's full-depth
// drain request; once the hierarchy is empty the flag must clear, or
// the next routine seal is folded and base-merged immediately instead
// of accumulating l0_run_limit runs.
TEST(LeveledDeltaTest, BulkLoadDoesNotLeaveStaleDrainRequest) {
  DeltaOptions options;
  options.compact_threshold = 4;
  options.background_compaction = true;
  options.l0_run_limit = 4;
  DeltaHexastore store(options);
  IdTripleVec bulk;
  for (Id i = 1; i <= 100; ++i) {
    bulk.push_back({i, 7, i});
  }
  store.BulkLoad(bulk);  // sets, then must clear, the drain request
  for (Id i = 1; i <= 4; ++i) {
    store.Insert({1000 + i, 8, i});  // one seal
  }
  // Give a (buggy) compactor ample time to act on a stale request.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  const DeltaStats stats = store.Stats();
  EXPECT_EQ(stats.l0_runs, 1u);  // the run awaits l0_run_limit peers
  EXPECT_EQ(stats.l0_merges, 0u);
  EXPECT_EQ(stats.base_merges, 0u);
  EXPECT_EQ(stats.base_triples, 100u);
}

TEST(LeveledDeltaTest, SnapshotsPinTheLeveledChain) {
  DeltaHexastore store(LeveledOptions(4, 2));
  IdTripleVec bulk;
  for (Id i = 1; i <= 400; ++i) {
    bulk.push_back({i, 7, i});
  }
  store.BulkLoad(bulk);
  for (Id i = 1; i <= 6; ++i) {
    store.Insert({1000 + i, 8, i});  // one fold + a half-full buffer
  }
  const DeltaHexastore::Snapshot snap = store.GetSnapshot();
  const IdTripleVec before = MatchAll(snap);
  ASSERT_EQ(before.size(), 406u);

  // Churn through more seals, folds and a full drain.
  for (Id i = 7; i <= 40; ++i) {
    store.Insert({1000 + i, 8, i});
  }
  store.ErasePattern(IdPattern{0, 8, 0});
  store.Compact();
  EXPECT_EQ(store.size(), 400u);

  // The pinned handle still answers from its generation.
  EXPECT_EQ(MatchAll(snap), before);
  EXPECT_EQ(snap.size(), 406u);
  EXPECT_TRUE(snap.Contains({1001, 8, 1}));
  EXPECT_EQ(snap.CountMatches(IdPattern{0, 8, 0}), 6u);
}

TEST(DeltaOptionsTest, NormalizeRepairsBadL1BaseFraction) {
  // Zero, negative, NaN and infinity used to silently degrade the
  // leveled store into always-base-merging; Normalize now clamps each
  // to the default and says so.
  const double bad[] = {0.0, -0.5, std::nan(""),
                        std::numeric_limits<double>::infinity()};
  for (const double value : bad) {
    DeltaOptions o;
    o.l1_base_fraction = value;
    const std::string message = o.Normalize();
    EXPECT_FALSE(message.empty()) << "value " << value;
    EXPECT_EQ(o.l1_base_fraction, 0.25) << "value " << value;
    // A repaired options struct is clean on re-normalization.
    EXPECT_TRUE(o.Normalize().empty()) << "value " << value;
  }
  // Valid fractions pass through untouched.
  DeltaOptions ok;
  ok.l1_base_fraction = 0.7;
  EXPECT_TRUE(ok.Normalize().empty());
  EXPECT_EQ(ok.l1_base_fraction, 0.7);
}

TEST(DeltaOptionsTest, StoreRepairsBadOptionsOnConstruction) {
  DeltaOptions o;
  o.compact_threshold = 0;  // would seal on every op
  o.l1_base_fraction = -1.0;
  o.l0_run_limit = 2;
  DeltaHexastore store(o);
  EXPECT_EQ(store.l1_base_fraction(), 0.25);
  // The repaired store still behaves: a leveled churn round-trips.
  for (Id i = 1; i <= 20; ++i) {
    ASSERT_TRUE(store.Insert({i, 1 + i % 3, i}));
  }
  EXPECT_EQ(store.size(), 20u);
  std::string err;
  EXPECT_TRUE(store.CheckInvariants(&err)) << err;
}

}  // namespace
}  // namespace hexastore
