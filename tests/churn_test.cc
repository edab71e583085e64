// Cross-index consistency under churn: a randomized interleaved
// Insert/Erase/Clear sequence must keep all six permutation indexes in
// agreement (Hexastore::CheckInvariants) and in lock-step with a
// std::set<IdTriple> oracle. The same oracle churn also runs against
// DeltaHexastore with a tiny compaction threshold, so every batch crosses
// several staged/part-drained/freshly-compacted states, and against every
// compaction mode (flat or leveled policy, inline or compactor-thread
// placement, with and without a memory budget), and with a publication
// every few ops, as the server publishes after each write batch.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/hexastore.h"
#include "delta/delta_hexastore.h"
#include "rdf/triple.h"
#include "util/rng.h"

namespace hexastore {
namespace {

// Draws a triple from a small id universe so that Erase hits existing
// triples often and vectors/headers repeatedly empty out and reappear.
IdTriple RandomTriple(Rng& rng, Id universe) {
  return IdTriple{rng.UniformRange(1, universe), rng.UniformRange(1, universe),
                  rng.UniformRange(1, universe)};
}

// Full materialization of the store via an unbound scan, sorted. Works
// for any store exposing Scan/size/CheckInvariants (Hexastore and
// DeltaHexastore both do).
template <typename StoreT>
IdTripleVec ScanAll(const StoreT& store) {
  IdTripleVec out;
  store.Scan(IdPattern{}, [&out](const IdTriple& t) { out.push_back(t); });
  std::sort(out.begin(), out.end());
  return out;
}

template <typename StoreT>
void ExpectAgreesWithOracle(const StoreT& store,
                            const std::set<IdTriple>& oracle) {
  ASSERT_EQ(store.size(), oracle.size());
  IdTripleVec scanned = ScanAll(store);
  IdTripleVec expected(oracle.begin(), oracle.end());
  ASSERT_EQ(scanned, expected);
  std::string err;
  ASSERT_TRUE(store.CheckInvariants(&err)) << err;
}

// Erases every oracle triple matching `q`; returns how many it removed.
std::size_t OracleErasePattern(std::set<IdTriple>* oracle,
                               const IdPattern& q) {
  std::size_t erased = 0;
  for (auto it = oracle->begin(); it != oracle->end();) {
    if (q.Matches(*it)) {
      it = oracle->erase(it);
      ++erased;
    } else {
      ++it;
    }
  }
  return erased;
}

// One of the 8 bound/unbound IdPattern shapes, bound where `mask` says
// (4 = s, 2 = p, 1 = o) to the ids of `anchor`.
IdPattern Shape(const IdTriple& anchor, int mask) {
  return IdPattern{(mask & 4) != 0 ? anchor.s : kInvalidId,
                   (mask & 2) != 0 ? anchor.p : kInvalidId,
                   (mask & 1) != 0 ? anchor.o : kInvalidId};
}

// Every shape anchored at each of `anchors` scans `view` to exactly the
// oracle's matches, compared as multisets (a duplicate fails).
template <typename View>
void ExpectShapesMatch(const View& view, const std::set<IdTriple>& oracle,
                       const std::vector<IdTriple>& anchors) {
  for (const IdTriple& anchor : anchors) {
    for (int mask = 0; mask < 8; ++mask) {
      const IdPattern q = Shape(anchor, mask);
      IdTripleVec scanned;
      view.Scan(q, [&scanned](const IdTriple& t) { scanned.push_back(t); });
      std::sort(scanned.begin(), scanned.end());
      IdTripleVec expected;
      for (const IdTriple& t : oracle) {
        if (q.Matches(t)) {
          expected.push_back(t);
        }
      }
      ASSERT_EQ(scanned, expected) << "shape " << mask;
    }
  }
}

// A memory budget far below what the run tables and filters occupy, so
// budget triggers fire constantly; the CI smoke job overrides it via
// HEXA_MEM_BUDGET.
std::size_t TightBudget() {
  if (const char* env = std::getenv("HEXA_MEM_BUDGET")) {
    if (*env != '\0') {
      return static_cast<std::size_t>(std::strtoull(env, nullptr, 10));
    }
  }
  return 4096;
}

TEST(ChurnTest, RandomizedInsertEraseClearAgreesWithOracle) {
  Rng rng(0xC0FFEE);
  Hexastore store;
  std::set<IdTriple> oracle;

  constexpr Id kUniverse = 12;  // small: heavy collisions by design
  constexpr int kBatches = 60;
  constexpr int kOpsPerBatch = 50;

  for (int batch = 0; batch < kBatches; ++batch) {
    for (int op = 0; op < kOpsPerBatch; ++op) {
      double dice = rng.NextDouble();
      if (dice < 0.55) {
        IdTriple t = RandomTriple(rng, kUniverse);
        EXPECT_EQ(store.Insert(t), oracle.insert(t).second);
      } else if (dice < 0.98) {
        // Half the erases target known-present triples so the store
        // actually shrinks; the rest probe (often absent) random ones.
        IdTriple t;
        if (!oracle.empty() && rng.Bernoulli(0.5)) {
          auto it = oracle.begin();
          std::advance(it, rng.Uniform(oracle.size()));
          t = *it;
        } else {
          t = RandomTriple(rng, kUniverse);
        }
        EXPECT_EQ(store.Erase(t), oracle.erase(t) > 0);
      } else {
        store.Clear();
        oracle.clear();
      }
    }
    ASSERT_NO_FATAL_FAILURE(ExpectAgreesWithOracle(store, oracle))
        << "after batch " << batch;
  }
}

TEST(ChurnTest, ContainsMatchesOracleThroughoutChurn) {
  Rng rng(42);
  Hexastore store;
  std::set<IdTriple> oracle;

  constexpr Id kUniverse = 6;  // tiny universe: probe the whole cube
  for (int round = 0; round < 20; ++round) {
    for (int op = 0; op < 30; ++op) {
      IdTriple t = RandomTriple(rng, kUniverse);
      if (rng.Bernoulli(0.5)) {
        EXPECT_EQ(store.Insert(t), oracle.insert(t).second);
      } else {
        EXPECT_EQ(store.Erase(t), oracle.erase(t) > 0);
      }
    }
    for (Id s = 1; s <= kUniverse; ++s) {
      for (Id p = 1; p <= kUniverse; ++p) {
        for (Id o = 1; o <= kUniverse; ++o) {
          IdTriple t{s, p, o};
          ASSERT_EQ(store.Contains(t), oracle.count(t) > 0)
              << "round " << round << " triple (" << s << "," << p << "," << o
              << ")";
        }
      }
    }
    std::string err;
    ASSERT_TRUE(store.CheckInvariants(&err)) << err;
  }
}

TEST(DeltaChurnTest, RandomizedInsertEraseClearAgreesWithOracle) {
  Rng rng(0xC0FFEE);
  // Threshold far below ops-per-batch: every batch straddles several
  // compactions, so the oracle checks hit mid-compaction states.
  DeltaHexastore store(DeltaOptions{.compact_threshold = 32});
  std::set<IdTriple> oracle;

  constexpr Id kUniverse = 12;
  constexpr int kBatches = 60;
  constexpr int kOpsPerBatch = 50;

  for (int batch = 0; batch < kBatches; ++batch) {
    for (int op = 0; op < kOpsPerBatch; ++op) {
      double dice = rng.NextDouble();
      if (dice < 0.55) {
        IdTriple t = RandomTriple(rng, kUniverse);
        EXPECT_EQ(store.Insert(t), oracle.insert(t).second);
      } else if (dice < 0.98) {
        IdTriple t;
        if (!oracle.empty() && rng.Bernoulli(0.5)) {
          auto it = oracle.begin();
          std::advance(it, rng.Uniform(oracle.size()));
          t = *it;
        } else {
          t = RandomTriple(rng, kUniverse);
        }
        EXPECT_EQ(store.Erase(t), oracle.erase(t) > 0);
      } else {
        store.Clear();
        oracle.clear();
      }
    }
    ASSERT_NO_FATAL_FAILURE(ExpectAgreesWithOracle(store, oracle))
        << "after batch " << batch;
  }
  EXPECT_GT(store.CompactionCount(), 0u);
}

TEST(DeltaChurnTest, ContainsMatchesOracleThroughoutChurn) {
  Rng rng(42);
  DeltaHexastore store(DeltaOptions{.compact_threshold = 16});
  std::set<IdTriple> oracle;

  constexpr Id kUniverse = 6;
  for (int round = 0; round < 20; ++round) {
    for (int op = 0; op < 30; ++op) {
      IdTriple t = RandomTriple(rng, kUniverse);
      if (rng.Bernoulli(0.5)) {
        EXPECT_EQ(store.Insert(t), oracle.insert(t).second);
      } else {
        EXPECT_EQ(store.Erase(t), oracle.erase(t) > 0);
      }
    }
    for (Id s = 1; s <= kUniverse; ++s) {
      for (Id p = 1; p <= kUniverse; ++p) {
        for (Id o = 1; o <= kUniverse; ++o) {
          IdTriple t{s, p, o};
          ASSERT_EQ(store.Contains(t), oracle.count(t) > 0)
              << "round " << round << " triple (" << s << "," << p << ","
              << o << ")";
        }
      }
    }
    std::string err;
    ASSERT_TRUE(store.CheckInvariants(&err)) << err;
  }
}

TEST(DeltaChurnTest, ErasePatternAgreesWithOracle) {
  Rng rng(0xEA5E);
  // Tiny threshold: pattern tombstones repeatedly cross compactions.
  DeltaHexastore store(DeltaOptions{.compact_threshold = 24});
  std::set<IdTriple> oracle;

  constexpr Id kUniverse = 10;
  constexpr int kBatches = 40;
  constexpr int kOpsPerBatch = 40;

  for (int batch = 0; batch < kBatches; ++batch) {
    for (int op = 0; op < kOpsPerBatch; ++op) {
      const double dice = rng.NextDouble();
      if (dice < 0.60) {
        IdTriple t = RandomTriple(rng, kUniverse);
        EXPECT_EQ(store.Insert(t), oracle.insert(t).second);
      } else if (dice < 0.80) {
        IdTriple t = RandomTriple(rng, kUniverse);
        EXPECT_EQ(store.Erase(t), oracle.erase(t) > 0);
      } else if (dice < 0.92) {
        // Predicate-only: the pattern-tombstone fast path.
        const IdPattern q{0, rng.UniformRange(1, kUniverse), 0};
        EXPECT_EQ(store.ErasePattern(q), OracleErasePattern(&oracle, q));
      } else if (dice < 0.97) {
        // Other shapes exercise the point-tombstone fallback.
        IdPattern q;
        if (rng.Bernoulli(0.5)) {
          q.s = rng.UniformRange(1, kUniverse);
        } else {
          q.o = rng.UniformRange(1, kUniverse);
          if (rng.Bernoulli(0.4)) {
            q.p = rng.UniformRange(1, kUniverse);
          }
        }
        EXPECT_EQ(store.ErasePattern(q), OracleErasePattern(&oracle, q));
      } else {
        // All-wildcard == Clear.
        EXPECT_EQ(store.ErasePattern(IdPattern{}), oracle.size());
        oracle.clear();
      }
    }
    ASSERT_NO_FATAL_FAILURE(ExpectAgreesWithOracle(store, oracle))
        << "after batch " << batch;
  }
  EXPECT_GT(store.CompactionCount(), 0u);
}

TEST(DeltaChurnTest, ErasePatternScansAgreeMidDelta) {
  // Every bound pattern shape, scanned on the live store and on a
  // snapshot, against a brute-force oracle while a pattern tombstone and
  // a re-insert above it are still staged (no compaction).
  Rng rng(0x9A77E12);
  DeltaHexastore store(DeltaOptions{.compact_threshold = 1u << 20});
  std::set<IdTriple> oracle;
  constexpr Id kUniverse = 6;
  for (int i = 0; i < 150; ++i) {
    IdTriple t = RandomTriple(rng, kUniverse);
    store.Insert(t);
    oracle.insert(t);
  }
  store.Compact();  // everything into the base
  for (int i = 0; i < 60; ++i) {  // fresh staged layer on top
    IdTriple t = RandomTriple(rng, kUniverse);
    if (rng.Bernoulli(0.6)) {
      if (store.Insert(t)) {
        oracle.insert(t);
      }
    } else {
      store.Erase(t);
      oracle.erase(t);
    }
  }
  const Id erased_p = 3;
  const IdPattern q{0, erased_p, 0};
  std::size_t expected_erased = 0;
  for (auto it = oracle.begin(); it != oracle.end();) {
    it = q.Matches(*it) ? (++expected_erased, oracle.erase(it)) : ++it;
  }
  EXPECT_EQ(store.ErasePattern(q), expected_erased);
  // Re-insert one pattern-erased triple: it must resurface everywhere.
  const IdTriple revived{1, erased_p, 1};
  EXPECT_TRUE(store.Insert(revived));
  oracle.insert(revived);

  ASSERT_NO_FATAL_FAILURE(ExpectAgreesWithOracle(store, oracle));
  ASSERT_GT(store.StagedOps(), 0u);
  // Anchors over twice the drawn id range, so absent ids are probed too:
  // each shape bound at every id pair covers (a,b,?), (a,?,b), (?,a,b)
  // and each single-bound shape.
  std::vector<IdTriple> anchors;
  for (Id s = 1; s <= 2 * kUniverse; ++s) {
    for (Id p = 1; p <= 2 * kUniverse; ++p) {
      for (Id o = 1; o <= 2 * kUniverse; ++o) {
        anchors.push_back({s, p, o});
      }
    }
  }
  const DeltaHexastore::Snapshot snap = store.GetSnapshot();
  ASSERT_NO_FATAL_FAILURE(ExpectShapesMatch(store, oracle, anchors))
      << "live store";
  ASSERT_NO_FATAL_FAILURE(ExpectShapesMatch(snap, oracle, anchors))
      << "snapshot";
  // And after compaction the store stays identical.
  store.Compact();
  ASSERT_NO_FATAL_FAILURE(ExpectAgreesWithOracle(store, oracle));
}

TEST(DeltaChurnTest, SnapshotStaysStableWhileChurnContinues) {
  Rng rng(0x5a5a);
  DeltaHexastore store(DeltaOptions{.compact_threshold = 24});
  std::set<IdTriple> oracle;
  for (int i = 0; i < 100; ++i) {
    IdTriple t = RandomTriple(rng, 10);
    store.Insert(t);
    oracle.insert(t);
  }
  DeltaHexastore::Snapshot snap = store.GetSnapshot();
  const IdTripleVec frozen(oracle.begin(), oracle.end());
  ASSERT_EQ(snap.Match(IdPattern{}), frozen);
  // Churn on, crossing several compactions and a Clear.
  for (int i = 0; i < 400; ++i) {
    IdTriple t = RandomTriple(rng, 10);
    if (rng.Bernoulli(0.5)) {
      store.Insert(t);
    } else {
      store.Erase(t);
    }
    if (i == 250) {
      store.Clear();
    }
  }
  // The snapshot still serves the frozen view.
  EXPECT_EQ(snap.Match(IdPattern{}), frozen);
  EXPECT_EQ(snap.size(), frozen.size());
}

// The churn oracle pointed at the leveled configuration: a small
// threshold and run limit with an aggressive L1→base fraction, so every
// few batches cross seals, L0→L1 folds AND L1→base merges — the oracle
// checks hit every intermediate level shape, including pattern
// tombstones sealed above matching triples in lower runs.
TEST(LeveledChurnTest, RandomizedChurnAgreesWithOracleAcrossLevelMerges) {
  Rng rng(0x1E7E1ED);
  DeltaOptions options;
  options.compact_threshold = 16;
  options.l0_run_limit = 3;
  options.l1_base_fraction = 0.05;  // base merges actually happen
  DeltaHexastore store(options);
  std::set<IdTriple> oracle;

  constexpr Id kUniverse = 10;
  constexpr int kBatches = 50;
  constexpr int kOpsPerBatch = 40;

  for (int batch = 0; batch < kBatches; ++batch) {
    for (int op = 0; op < kOpsPerBatch; ++op) {
      const double dice = rng.NextDouble();
      if (dice < 0.58) {
        IdTriple t = RandomTriple(rng, kUniverse);
        EXPECT_EQ(store.Insert(t), oracle.insert(t).second);
      } else if (dice < 0.88) {
        IdTriple t;
        if (!oracle.empty() && rng.Bernoulli(0.5)) {
          auto it = oracle.begin();
          std::advance(it, rng.Uniform(oracle.size()));
          t = *it;
        } else {
          t = RandomTriple(rng, kUniverse);
        }
        EXPECT_EQ(store.Erase(t), oracle.erase(t) > 0);
      } else if (dice < 0.94) {
        // Predicate-only: the leveled pattern-tombstone fast path
        // (counts by merged scan, drains nothing).
        const IdPattern q{0, rng.UniformRange(1, kUniverse), 0};
        EXPECT_EQ(store.ErasePattern(q), OracleErasePattern(&oracle, q));
      } else if (dice < 0.97) {
        IdPattern q;
        q.s = rng.UniformRange(1, kUniverse);
        EXPECT_EQ(store.ErasePattern(q), OracleErasePattern(&oracle, q));
      } else if (dice < 0.99) {
        store.Compact();  // forced full drain of the hierarchy
      } else {
        store.Clear();
        oracle.clear();
      }
    }
    ASSERT_NO_FATAL_FAILURE(ExpectAgreesWithOracle(store, oracle))
        << "after batch " << batch;
  }
  const DeltaStats stats = store.Stats();
  EXPECT_GT(stats.seals, 0u);
  EXPECT_GT(stats.l0_merges, 0u);
  EXPECT_GT(stats.base_merges, 0u);
}

// The leveled churn oracle with prefix filters armed and a hard memory
// budget tight enough that budget pressure (not l0_run_limit) drives
// folds: reads must stay oracle-exact through filter skips, and the
// teardown must return every tracked byte — the regression guard for
// the deferred-reclaim accounting drift.
TEST(LeveledChurnTest, FilteredChurnUnderMemoryBudgetAgreesWithOracle) {
  Rng rng(0xB0D9E7);
  DeltaOptions options;
  options.compact_threshold = 16;
  options.l0_run_limit = 3;
  options.l1_base_fraction = 0.05;
  options.filter_bits_per_key = 10;
  options.memory_budget_bytes = TightBudget();

  std::shared_ptr<MemoryTracker> tracker;
  {
    DeltaHexastore store(options);
    tracker = store.memory_tracker();
    std::set<IdTriple> oracle;

    constexpr Id kUniverse = 10;
    constexpr int kBatches = 40;
    constexpr int kOpsPerBatch = 40;

    for (int batch = 0; batch < kBatches; ++batch) {
      for (int op = 0; op < kOpsPerBatch; ++op) {
        const double dice = rng.NextDouble();
        if (dice < 0.58) {
          IdTriple t = RandomTriple(rng, kUniverse);
          EXPECT_EQ(store.Insert(t), oracle.insert(t).second);
        } else if (dice < 0.88) {
          IdTriple t;
          if (!oracle.empty() && rng.Bernoulli(0.5)) {
            auto it = oracle.begin();
            std::advance(it, rng.Uniform(oracle.size()));
            t = *it;
          } else {
            t = RandomTriple(rng, kUniverse);
          }
          EXPECT_EQ(store.Erase(t), oracle.erase(t) > 0);
        } else if (dice < 0.94) {
          const IdPattern q{0, rng.UniformRange(1, kUniverse), 0};
          EXPECT_EQ(store.ErasePattern(q), OracleErasePattern(&oracle, q));
        } else if (dice < 0.97) {
          // Point probes against (mostly absent) distant keys drive the
          // filter skip counters.
          const IdTriple far{rng.UniformRange(100, 200),
                             rng.UniformRange(100, 200),
                             rng.UniformRange(100, 200)};
          EXPECT_EQ(store.Contains(far), oracle.count(far) > 0);
        } else {
          // A snapshot pinning a generation mid-churn: superseded runs
          // must still return their bytes when it dies.
          DeltaHexastore::Snapshot snap = store.GetSnapshot();
          EXPECT_EQ(snap.size(), oracle.size());
        }
      }
      ASSERT_NO_FATAL_FAILURE(ExpectAgreesWithOracle(store, oracle))
          << "after batch " << batch;
    }
    const DeltaStats stats = store.Stats();
    EXPECT_GT(stats.seals, 0u);
    // Either the filters answered probes, or the budget was so tight
    // the store (correctly) dropped every one of them.
    EXPECT_GT(stats.filter_probes + stats.filters_dropped, 0u);
    if (stats.filter_probes > 0) {
      EXPECT_GT(stats.filter_skips, 0u);
    }
    EXPECT_GT(stats.resident_bytes, 0u);
    EXPECT_EQ(stats.memory_budget_bytes, options.memory_budget_bytes);
    // The whole point of the budget: merges fire because memory crossed
    // the line, not because l0_run_limit filled up. Only asserted for
    // budgets this small workload actually exceeds — a generous
    // HEXA_MEM_BUDGET override legitimately never triggers.
    if (options.memory_budget_bytes > 0 &&
        options.memory_budget_bytes <= 4096) {
      EXPECT_GT(stats.budget_folds + stats.budget_base_merges, 0u);
    }
  }
  // Store, snapshots and all runs are gone: the tracker must balance.
  // This pins the deferred-reclaim fix — before it, runs destroyed off
  // the store mutex never subtracted their bytes.
  EXPECT_TRUE(tracker->balanced());
}

// The flat policy on the compactor thread: seals made while a drain
// runs become L0 runs, so the active buffer never holds more than
// compact_threshold ops, however long one drain takes.
TEST(DeltaChurnTest, StagingStaysBoundedWhileTheCompactorDrains) {
  DeltaOptions options;
  options.compact_threshold = 64;
  options.background_compaction = true;
  options.l0_run_limit = 0;
  DeltaHexastore store(options);
  // A base big enough that one drain (a full rebuild) takes tens of ms:
  // the full 67^3 cube, about 300k triples. A cube keeps the number of
  // index lists small, so the per-insert Stats() (which sums the base's
  // memory) stays cheap.
  constexpr Id kSide = 67;
  IdTripleVec bulk;
  bulk.reserve(kSide * kSide * kSide);
  for (Id s = 1; s <= kSide; ++s) {
    for (Id p = 1; p <= kSide; ++p) {
      for (Id o = 1; o <= kSide; ++o) {
        bulk.push_back({s, p, o});
      }
    }
  }
  store.BulkLoad(bulk);

  constexpr Id kInserts = 2000;
  for (Id i = 0; i < kInserts; ++i) {
    ASSERT_TRUE(store.Insert({kSide + 1 + i, 1, 1}));
    const DeltaStats stats = store.Stats();
    ASSERT_LE(stats.staged_inserts + stats.staged_tombstones,
              options.compact_threshold)
        << "after insert " << i;
  }
  store.Compact();
  EXPECT_EQ(store.StagedOps(), 0u);
  EXPECT_EQ(store.size(), bulk.size() + kInserts);
  EXPECT_EQ(store.CountMatches(IdPattern{0, 1, 1}), kSide + kInserts);
}

// One compaction mode: the policy (flat or leveled) and the memory
// budget. Each case runs the inline and the compactor-thread placement
// side by side.
struct EngineCase {
  std::size_t l0_run_limit;
  bool tight_budget;
};

class CompactionEngineTest : public ::testing::TestWithParam<EngineCase> {
 protected:
  DeltaOptions Options(bool background) const {
    DeltaOptions options;
    options.compact_threshold = 16;
    options.background_compaction = background;
    options.l0_run_limit = GetParam().l0_run_limit;
    options.l1_base_fraction = 0.05;  // leveled drains actually happen
    options.memory_budget_bytes = GetParam().tight_budget ? TightBudget() : 0;
    return options;
  }
};

// Both placements run the same jobs: one seeded sequence of Insert,
// Erase, ErasePattern, Compact and BulkLoad leaves them with the same
// contents, and every Compact() drains both into identical bases.
TEST_P(CompactionEngineTest, PlacementsAgreeAfterEveryCompact) {
  Rng rng(0xE46105 + GetParam().l0_run_limit);
  DeltaHexastore inline_store(Options(/*background=*/false));
  DeltaHexastore thread_store(Options(/*background=*/true));
  DeltaHexastore* stores[] = {&inline_store, &thread_store};
  std::set<IdTriple> oracle;
  constexpr Id kUniverse = 10;
  int compacts = 0;

  for (int batch = 0; batch < 40; ++batch) {
    for (int op = 0; op < 40; ++op) {
      const double dice = rng.NextDouble();
      if (dice < 0.55) {
        const IdTriple t = RandomTriple(rng, kUniverse);
        const bool inserted = oracle.insert(t).second;
        for (DeltaHexastore* store : stores) {
          EXPECT_EQ(store->Insert(t), inserted);
        }
      } else if (dice < 0.82) {
        const IdTriple t = RandomTriple(rng, kUniverse);
        const bool erased = oracle.erase(t) > 0;
        for (DeltaHexastore* store : stores) {
          EXPECT_EQ(store->Erase(t), erased);
        }
      } else if (dice < 0.90) {
        IdPattern q{0, rng.UniformRange(1, kUniverse), 0};
        if (rng.Bernoulli(0.3)) {
          q = IdPattern{rng.UniformRange(1, kUniverse), 0, 0};
        }
        const std::size_t erased = OracleErasePattern(&oracle, q);
        for (DeltaHexastore* store : stores) {
          EXPECT_EQ(store->ErasePattern(q), erased);
        }
      } else if (dice < 0.97) {
        ++compacts;
        for (DeltaHexastore* store : stores) {
          store->Compact();
          ASSERT_NO_FATAL_FAILURE(ExpectAgreesWithOracle(*store, oracle))
              << "background " << store->background() << ", batch "
              << batch;
          ASSERT_EQ(store->StagedOps(), 0u);
        }
        ASSERT_EQ(inline_store.base()->Match(IdPattern{}),
                  thread_store.base()->Match(IdPattern{}))
            << "batch " << batch;
      } else {
        std::set<IdTriple> batch_set;
        for (int i = 0; i < 12; ++i) {
          batch_set.insert(RandomTriple(rng, kUniverse));
        }
        const IdTripleVec bulk(batch_set.begin(), batch_set.end());
        oracle.insert(bulk.begin(), bulk.end());
        for (DeltaHexastore* store : stores) {
          store->BulkLoad(bulk);
        }
      }
    }
    for (DeltaHexastore* store : stores) {
      ASSERT_NO_FATAL_FAILURE(ExpectAgreesWithOracle(*store, oracle))
          << "background " << store->background() << ", batch " << batch;
    }
  }
  EXPECT_GT(compacts, 0);
  for (DeltaHexastore* store : stores) {
    EXPECT_GT(store->Stats().seals, 0u);
    EXPECT_GT(store->Stats().base_merges, 0u);
  }
}

// Compact() drains what was staged at the call and returns even while
// another thread keeps writing. The test enforces its own deadline, so
// a Compact() that chases the writer fails here instead of hanging.
TEST_P(CompactionEngineTest, CompactReturnsUnderConcurrentWrites) {
  for (const bool background : {false, true}) {
    DeltaHexastore store(Options(background));
    std::atomic<bool> stop{false};
    std::atomic<int> writes{0};
    std::thread writer([&store, &stop, &writes] {
      Rng rng(0x3217E5);
      while (!stop.load(std::memory_order_relaxed)) {
        const IdTriple t{rng.UniformRange(1, 40), rng.UniformRange(1, 8),
                         rng.UniformRange(1, 40)};
        if (!store.Insert(t)) {
          store.Erase(t);
        }
        writes.fetch_add(1, std::memory_order_relaxed);
      }
    });
    std::promise<void> done;
    std::future<void> compacted = done.get_future();
    std::thread compactor([&store, &stop, &writes, &done] {
      for (int i = 1; i <= 20; ++i) {
        // Let the writer stage a few seals' worth of ops first.
        while (writes.load(std::memory_order_relaxed) < 100 * i &&
               !stop.load(std::memory_order_relaxed)) {
          std::this_thread::yield();
        }
        store.Compact();
      }
      done.set_value();
    });
    constexpr auto kDeadline = std::chrono::seconds(60);
    const bool in_time =
        compacted.wait_for(kDeadline) == std::future_status::ready;
    stop.store(true, std::memory_order_relaxed);
    writer.join();
    if (!in_time &&
        compacted.wait_for(kDeadline) != std::future_status::ready) {
      // Stuck even with the writer gone: abort rather than hang.
      std::fprintf(stderr, "Compact() did not return (background %d)\n",
                   background);
      std::abort();
    }
    compactor.join();
    EXPECT_TRUE(in_time) << "Compact() chased the writer (background "
                         << background << ")";
    std::string err;
    EXPECT_TRUE(store.CheckInvariants(&err)) << err;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, CompactionEngineTest,
    ::testing::Values(EngineCase{0, false}, EngineCase{0, true},
                      EngineCase{3, false}, EngineCase{3, true}),
    [](const ::testing::TestParamInfo<EngineCase>& info) {
      return std::string(info.param.l0_run_limit == 0 ? "Flat" : "Leveled") +
             (info.param.tight_budget ? "TightBudget" : "NoBudget");
    });

// One store shape for the publish-per-batch oracle: the compaction
// policy (flat or leveled) and the placement (inline or thread).
struct PublishCase {
  std::size_t l0_run_limit;
  bool background;
};

class PublishPerBatchTest : public ::testing::TestWithParam<PublishCase> {};

// The served write pattern: a publication (GetSnapshot) every few ops,
// so the staging buffer is settled, cloned and mutated over and over.
// Half the erases target recent inserts and so cancel staged or settled
// ones; some inserts re-insert recently erased triples. After each
// publish the live store, the new snapshot and an older snapshot kept
// alive all scan every shape to their oracles.
TEST_P(PublishPerBatchTest, EveryPublishedViewMatchesItsOracle) {
  DeltaOptions options;
  options.compact_threshold = 96;
  options.background_compaction = GetParam().background;
  options.l0_run_limit = GetParam().l0_run_limit;
  options.l1_base_fraction = 0.05;  // leveled drains actually happen
  DeltaHexastore store(options);
  Rng rng(0x9B1ED + GetParam().l0_run_limit * 2 + GetParam().background);
  constexpr Id kUniverse = 12;
  std::set<IdTriple> oracle;
  // The last inserts (erase targets) and erases (re-insert targets).
  std::vector<IdTriple> recent;
  std::vector<IdTriple> recently_erased;
  auto remember = [](std::vector<IdTriple>* list, const IdTriple& t) {
    list->push_back(t);
    if (list->size() > 16) {
      list->erase(list->begin());
    }
  };
  DeltaHexastore::Snapshot older = store.GetSnapshot();
  std::set<IdTriple> older_oracle;
  int publishes = 0;

  for (int op = 0; op < 3000; ++op) {
    const double dice = rng.NextDouble();
    if (dice < 0.5) {
      const IdTriple t =
          !recently_erased.empty() && rng.Bernoulli(0.3)
              ? recently_erased[rng.Uniform(recently_erased.size())]
              : RandomTriple(rng, kUniverse);
      const bool inserted = oracle.insert(t).second;
      ASSERT_EQ(store.Insert(t), inserted);
      if (inserted) {
        remember(&recent, t);
      }
    } else if (dice < 0.88) {
      const IdTriple t = !recent.empty() && rng.Bernoulli(0.5)
                             ? recent[rng.Uniform(recent.size())]
                             : RandomTriple(rng, kUniverse);
      const bool erased = oracle.erase(t) > 0;
      ASSERT_EQ(store.Erase(t), erased);
      if (erased) {
        remember(&recently_erased, t);
      }
    } else if (dice < 0.97) {
      IdPattern q{0, rng.UniformRange(1, kUniverse), 0};
      if (rng.Bernoulli(0.3)) {
        q = IdPattern{rng.UniformRange(1, kUniverse), 0, 0};
      }
      ASSERT_EQ(store.ErasePattern(q), OracleErasePattern(&oracle, q));
    } else {
      store.Compact();
    }
    if (rng.Uniform(6) != 0) {
      continue;
    }
    // Publish, as the server does after every write batch.
    DeltaHexastore::Snapshot snap = store.GetSnapshot();
    ++publishes;
    std::vector<IdTriple> anchors{RandomTriple(rng, kUniverse)};
    for (int i = 0; i < 2 && !oracle.empty(); ++i) {
      auto it = oracle.begin();
      std::advance(it, rng.Uniform(oracle.size()));
      anchors.push_back(*it);
    }
    ASSERT_NO_FATAL_FAILURE(ExpectShapesMatch(store, oracle, anchors))
        << "live store, op " << op;
    ASSERT_NO_FATAL_FAILURE(ExpectShapesMatch(snap, oracle, anchors))
        << "new snapshot, op " << op;
    ASSERT_NO_FATAL_FAILURE(ExpectShapesMatch(older, older_oracle, anchors))
        << "older snapshot, op " << op;
    std::string err;
    ASSERT_TRUE(store.CheckInvariants(&err)) << err << ", op " << op;
    if (publishes % 8 == 0) {
      older = snap;
      older_oracle = oracle;
    }
  }
  EXPECT_GT(publishes, 300);
  EXPECT_GT(store.Stats().seals, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, PublishPerBatchTest,
    ::testing::Values(PublishCase{0, false}, PublishCase{0, true},
                      PublishCase{3, false}, PublishCase{3, true}),
    [](const ::testing::TestParamInfo<PublishCase>& info) {
      return std::string(info.param.l0_run_limit == 0 ? "Flat" : "Leveled") +
             (info.param.background ? "Thread" : "Inline");
    });

// Drains write into a base no handle references: the first drain of a
// published store rebuilds, and every later one applies its run in
// place to the spare base unless a handle still pins it. The served
// write pattern (a publication per batch, threshold 256) runs in three
// phases: no handle held across drains, one snapshot held across three
// drains, then released again. Every batch checks all shapes on the
// live store, its new snapshot and the held snapshot against their
// oracles, and CheckInvariants replays the spare's lag against the base.
class SpareBaseTest : public ::testing::TestWithParam<bool> {};

TEST_P(SpareBaseTest, DrainsRebuildOnlyWhenAHandlePinsTheSpare) {
  DeltaOptions options;
  options.compact_threshold = 256;
  options.background_compaction = GetParam();
  DeltaHexastore store(options);
  Rng rng(0x5BA4E + (GetParam() ? 1 : 0));
  auto random_triple = [&rng] {
    return IdTriple{rng.UniformRange(1, 60), rng.UniformRange(1, 20),
                    rng.UniformRange(1, 60)};
  };
  // A base far larger than the ops either base absorbs here, so the
  // spare is never dropped for its lag.
  std::set<IdTriple> oracle;
  IdTripleVec preload;
  while (oracle.size() < 8000) {
    const IdTriple t = random_triple();
    if (oracle.insert(t).second) {
      preload.push_back(t);
    }
  }
  store.BulkLoad(preload);
  std::vector<IdTriple> recent;

  // Waits until no sealed run awaits the compactor (inline: at once).
  auto settle_drains = [&store] {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (store.Stats().sealed_ops > 0) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };
  DeltaHexastore::Snapshot held;
  std::set<IdTriple> held_oracle;
  // One 32-op batch, then a publication checked against the oracles.
  auto batch = [&](int number) {
    for (int op = 0; op < 32; ++op) {
      const double dice = rng.NextDouble();
      if (dice < 0.55) {
        const IdTriple t = random_triple();
        const bool inserted = oracle.insert(t).second;
        ASSERT_EQ(store.Insert(t), inserted);
        if (inserted) {
          recent.push_back(t);
        }
      } else if (dice < 0.995) {
        IdTriple t = random_triple();
        if (!recent.empty() && rng.Bernoulli(0.5)) {
          const std::size_t i = rng.Uniform(recent.size());
          t = recent[i];
          recent.erase(recent.begin() + static_cast<std::ptrdiff_t>(i));
        } else if (rng.Bernoulli(0.7)) {
          auto it = oracle.begin();
          std::advance(it, rng.Uniform(oracle.size()));
          t = *it;
        }
        ASSERT_EQ(store.Erase(t), oracle.erase(t) > 0);
      } else {
        const IdPattern q{rng.UniformRange(1, 60), 0, 0};
        ASSERT_EQ(store.ErasePattern(q), OracleErasePattern(&oracle, q));
      }
    }
    if (number % 40 == 17) {
      // A pattern tombstone, replayed on the spare like any run.
      const IdPattern q{0, rng.UniformRange(1, 20), 0};
      ASSERT_EQ(store.ErasePattern(q), OracleErasePattern(&oracle, q));
    }
    const DeltaHexastore::Snapshot snap = store.GetSnapshot();
    std::vector<IdTriple> anchors{random_triple()};
    for (int i = 0; i < 2; ++i) {
      auto it = oracle.begin();
      std::advance(it, rng.Uniform(oracle.size()));
      anchors.push_back(*it);
    }
    ASSERT_NO_FATAL_FAILURE(ExpectShapesMatch(store, oracle, anchors))
        << "live store, batch " << number;
    ASSERT_NO_FATAL_FAILURE(ExpectShapesMatch(snap, oracle, anchors))
        << "new snapshot, batch " << number;
    ASSERT_NO_FATAL_FAILURE(ExpectShapesMatch(held, held_oracle, anchors))
        << "held snapshot, batch " << number;
    std::string err;
    ASSERT_TRUE(store.CheckInvariants(&err)) << err << ", batch " << number;
  };
  int batches = 0;
  // Runs batches until `drains` more drains completed.
  auto run_drains = [&](std::uint64_t drains) {
    const std::uint64_t target = store.Stats().base_merges + drains;
    while (store.Stats().base_merges < target) {
      ASSERT_NO_FATAL_FAILURE(batch(batches++));
      ASSERT_LT(batches, 2000);
      ASSERT_NO_FATAL_FAILURE(settle_drains());
    }
  };

  // No handle across a drain: only the first drain rebuilds (the base
  // was pinned and no spare existed yet).
  ASSERT_NO_FATAL_FAILURE(run_drains(6));
  EXPECT_EQ(store.Stats().base_rebuilds, 1u);

  // A snapshot held across three drains pins the base it saw. The first
  // drain still finds the spare free and swaps; the next finds the held
  // base as the spare and must rebuild; the third swaps again.
  held = store.GetSnapshot();
  held_oracle = oracle;
  ASSERT_NO_FATAL_FAILURE(run_drains(3));
  EXPECT_EQ(store.Stats().base_rebuilds, 2u);

  // Released: later drains go back to the spare.
  held = DeltaHexastore::Snapshot();
  held_oracle.clear();
  ASSERT_NO_FATAL_FAILURE(run_drains(4));
  EXPECT_EQ(store.Stats().base_rebuilds, 2u);
  EXPECT_EQ(store.size(), oracle.size());
}

INSTANTIATE_TEST_SUITE_P(Placements, SpareBaseTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return std::string(info.param ? "Thread"
                                                         : "Inline");
                         });

TEST(ChurnTest, ClearThenReuseKeepsInvariants) {
  Rng rng(7);
  Hexastore store;
  std::set<IdTriple> oracle;
  for (int cycle = 0; cycle < 5; ++cycle) {
    for (int i = 0; i < 200; ++i) {
      IdTriple t = RandomTriple(rng, 20);
      store.Insert(t);
      oracle.insert(t);
    }
    ASSERT_NO_FATAL_FAILURE(ExpectAgreesWithOracle(store, oracle));
    store.Clear();
    oracle.clear();
    EXPECT_EQ(store.size(), 0u);
    std::string err;
    ASSERT_TRUE(store.CheckInvariants(&err)) << err;
  }
}

}  // namespace
}  // namespace hexastore
