// Cross-index consistency under churn: a randomized interleaved
// Insert/Erase/Clear sequence must keep all six permutation indexes in
// agreement (Hexastore::CheckInvariants) and in lock-step with a
// std::set<IdTriple> oracle. The same oracle churn also runs against
// DeltaHexastore with a tiny compaction threshold, so every batch crosses
// several staged/part-drained/freshly-compacted states.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
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

  auto oracle_erase_pattern = [&oracle](const IdPattern& q) {
    std::size_t erased = 0;
    for (auto it = oracle.begin(); it != oracle.end();) {
      if (q.Matches(*it)) {
        it = oracle.erase(it);
        ++erased;
      } else {
        ++it;
      }
    }
    return erased;
  };

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
        EXPECT_EQ(store.ErasePattern(q), oracle_erase_pattern(q));
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
        EXPECT_EQ(store.ErasePattern(q), oracle_erase_pattern(q));
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

TEST(DeltaChurnTest, ErasePatternMergedViewsAgreeMidDelta) {
  // Pin the merged accessor views (lists + header vectors) against a
  // brute-force oracle while pattern tombstones are live (no compaction).
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
  for (Id a = 1; a <= kUniverse; ++a) {
    for (Id b = 1; b <= kUniverse; ++b) {
      IdVec objects_oracle;
      IdVec predicates_oracle;
      IdVec subjects_oracle;
      for (const IdTriple& t : oracle) {
        if (t.s == a && t.p == b) objects_oracle.push_back(t.o);
        if (t.s == a && t.o == b) predicates_oracle.push_back(t.p);
        if (t.p == a && t.o == b) subjects_oracle.push_back(t.s);
      }
      EXPECT_EQ(store.objects(a, b).Materialize(), objects_oracle)
          << "o(" << a << "," << b << ")";
      EXPECT_EQ(store.predicates(a, b).Materialize(), predicates_oracle)
          << "p(" << a << "," << b << ")";
      EXPECT_EQ(store.subjects(a, b).Materialize(), subjects_oracle)
          << "s(" << a << "," << b << ")";
    }
    IdVec ps_oracle, os_oracle, sp_oracle, op_oracle, so_oracle, po_oracle;
    for (const IdTriple& t : oracle) {
      if (t.s == a) SortedInsert(&ps_oracle, t.p);
      if (t.s == a) SortedInsert(&os_oracle, t.o);
      if (t.p == a) SortedInsert(&sp_oracle, t.s);
      if (t.p == a) SortedInsert(&op_oracle, t.o);
      if (t.o == a) SortedInsert(&so_oracle, t.s);
      if (t.o == a) SortedInsert(&po_oracle, t.p);
    }
    EXPECT_EQ(store.predicates_of_subject(a), ps_oracle) << "p(s=" << a << ")";
    EXPECT_EQ(store.objects_of_subject(a), os_oracle) << "o(s=" << a << ")";
    EXPECT_EQ(store.subjects_of_predicate(a), sp_oracle) << "s(p=" << a << ")";
    EXPECT_EQ(store.objects_of_predicate(a), op_oracle) << "o(p=" << a << ")";
    EXPECT_EQ(store.subjects_of_object(a), so_oracle) << "s(o=" << a << ")";
    EXPECT_EQ(store.predicates_of_object(a), po_oracle) << "p(o=" << a << ")";
  }
  // And after compaction the views stay identical.
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

  auto oracle_erase_pattern = [&oracle](const IdPattern& q) {
    std::size_t erased = 0;
    for (auto it = oracle.begin(); it != oracle.end();) {
      if (q.Matches(*it)) {
        it = oracle.erase(it);
        ++erased;
      } else {
        ++it;
      }
    }
    return erased;
  };

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
        EXPECT_EQ(store.ErasePattern(q), oracle_erase_pattern(q));
      } else if (dice < 0.97) {
        IdPattern q;
        q.s = rng.UniformRange(1, kUniverse);
        EXPECT_EQ(store.ErasePattern(q), oracle_erase_pattern(q));
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
  // Far below what the run tables + filters occupy, so budget triggers
  // fire constantly; the CI smoke job overrides it via HEXA_MEM_BUDGET.
  options.memory_budget_bytes = 4096;
  if (const char* env = std::getenv("HEXA_MEM_BUDGET")) {
    if (*env != '\0') {
      options.memory_budget_bytes =
          static_cast<std::size_t>(std::strtoull(env, nullptr, 10));
    }
  }

  std::shared_ptr<MemoryTracker> tracker;
  {
    DeltaHexastore store(options);
    tracker = store.memory_tracker();
    std::set<IdTriple> oracle;

    constexpr Id kUniverse = 10;
    constexpr int kBatches = 40;
    constexpr int kOpsPerBatch = 40;

    auto oracle_erase_pattern = [&oracle](const IdPattern& q) {
      std::size_t erased = 0;
      for (auto it = oracle.begin(); it != oracle.end();) {
        if (q.Matches(*it)) {
          it = oracle.erase(it);
          ++erased;
        } else {
          ++it;
        }
      }
      return erased;
    };

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
          EXPECT_EQ(store.ErasePattern(q), oracle_erase_pattern(q));
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
