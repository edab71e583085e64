// Epoch-reclamation and background-compaction stress tests.
//
// The contracts under test:
//   * AcquireReadHandle() is wait-free and never touches the store
//     mutex: reader threads keep answering from pinned generations while
//     a writer churns and forces compaction after compaction.
//   * A handle stays internally consistent (same answer on re-scan,
//     size exact, membership agreeing with the scan) no matter how many
//     generations are published, retired and reclaimed underneath it —
//     including handles deliberately held across many compactions and a
//     WAL checkpoint.
//   * The merged store agrees with a std::set oracle through randomized
//     churn in background-compaction mode (the churn oracle from
//     churn_test, pointed at the concurrent machinery).
//   * Pinned-generation BGP evaluation and merge joins answer from
//     exactly one generation.
//
// These suites run in the TSan CI job; keep every cross-thread
// interaction data-race-free by construction.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <deque>
#include <filesystem>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "delta/delta_hexastore.h"
#include "index/sorted_vec.h"
#include "query/bgp.h"
#include "shard/sharded_hexastore.h"
#include "query/plan_cache.h"
#include "query/result_json.h"
#include "query/session.h"
#include "util/rng.h"
#include "wal/durable_store.h"

namespace hexastore {
namespace {

IdTriple RandomTriple(Rng& rng, Id universe) {
  return IdTriple{rng.UniformRange(1, universe),
                  rng.UniformRange(1, universe),
                  rng.UniformRange(1, universe)};
}

// Internal-consistency probe of one pinned handle: re-scan stability,
// size bookkeeping, membership, and per-predicate scan agreement.
// Returns the number of violations found. Works on any pinned view
// (DeltaHexastore::Snapshot or ShardedSnapshot).
template <typename SnapT>
int CheckHandleConsistency(const SnapT& snap, Rng& rng) {
  int failures = 0;
  const IdTripleVec first = snap.Match(IdPattern{});
  if (first.size() != snap.size()) {
    ++failures;
  }
  const IdTripleVec second = snap.Match(IdPattern{});
  if (second != first) {
    ++failures;
  }
  for (int probe = 0; probe < 8 && !first.empty(); ++probe) {
    if (!snap.Contains(first[rng.Uniform(first.size())])) {
      ++failures;
    }
  }
  const Id p = 1 + rng.Uniform(8);
  std::size_t by_p = 0;
  snap.Scan(IdPattern{0, p, 0}, [&by_p](const IdTriple&) { ++by_p; });
  std::size_t expect = 0;
  for (const IdTriple& t : first) {
    expect += t.p == p ? 1 : 0;
  }
  if (by_p != expect) {
    ++failures;
  }
  return failures;
}

// A handle pins its generation: the view must not move however many
// compactions, publications and reclamations happen after it was taken.
TEST(EpochStressTest, HandlesPinGenerationsAcrossCompactions) {
  DeltaHexastore store(DeltaOptions{/*compact_threshold=*/32,
                                    /*background_compaction=*/true});
  for (Id i = 1; i <= 100; ++i) {
    store.Insert({i, 1 + i % 5, i + 1});
  }
  store.Compact();
  const DeltaHexastore::Snapshot pinned = store.GetSnapshot();
  const IdTripleVec before = pinned.Match(IdPattern{});
  ASSERT_EQ(before.size(), 100u);

  // Churn through many more compactions.
  for (Id i = 101; i <= 600; ++i) {
    store.Insert({i, 1 + i % 5, i + 1});
  }
  for (Id i = 1; i <= 50; ++i) {
    store.Erase({i, 1 + i % 5, i + 1});
  }
  store.Compact();
  EXPECT_GT(store.CompactionCount(), 1u);

  // The pinned handle still answers from its generation...
  EXPECT_EQ(pinned.Match(IdPattern{}), before);
  EXPECT_EQ(pinned.size(), 100u);
  // ...while fresh handles see the new state.
  EXPECT_EQ(store.GetSnapshot().size(), 550u);

  const EpochStats epochs = store.EpochCounters();
  EXPECT_GT(epochs.generations_published, 1u);
  EXPECT_GT(epochs.generations_retired, 0u);
  // Quiescent now: every retired generation's grace period has passed.
  EXPECT_EQ(epochs.retire_queue_depth, 0u);
  EXPECT_EQ(epochs.generations_retired, epochs.generations_reclaimed);
}

// AcquireReadHandle trails the live store by at most the unpublished
// tail, and a snapshot publication catches it up exactly.
TEST(EpochStressTest, AcquireReadHandleSeesLastPublishedGeneration) {
  DeltaHexastore store(DeltaOptions{/*compact_threshold=*/1u << 20,
                                    /*background_compaction=*/true});
  // Nothing published yet: the wait-free handle is empty.
  EXPECT_EQ(store.AcquireReadHandle().size(), 0u);
  store.Insert({1, 2, 3});
  EXPECT_EQ(store.AcquireReadHandle().size(), 0u);  // still unpublished
  const DeltaHexastore::Snapshot snap = store.GetSnapshot();  // publishes
  EXPECT_EQ(snap.size(), 1u);
  EXPECT_EQ(store.AcquireReadHandle().size(), 1u);
  EXPECT_TRUE(store.AcquireReadHandle().Contains({1, 2, 3}));
}

// Regression: a merge-completion publication excludes the staging
// buffer when no snapshot exposed it — but it must NOT mark the store
// clean, or the next GetSnapshot would return the published (stale)
// generation and miss ops staged while the merge ran (and a WAL
// checkpoint serialized from it would silently drop them).
TEST(EpochStressTest, SnapshotCoversOpsStagedDuringMerge) {
  DeltaHexastore store(DeltaOptions{/*compact_threshold=*/8,
                                    /*background_compaction=*/true});
  for (Id i = 1; i <= 8; ++i) {
    store.Insert({i, 1, i});  // 8th op seals and wakes the merger
  }
  store.Insert({100, 2, 100});  // races the in-flight merge
  while (store.CompactionCount() == 0) {
    std::this_thread::yield();
  }
  const DeltaHexastore::Snapshot snap = store.GetSnapshot();
  EXPECT_EQ(snap.size(), 9u);
  EXPECT_TRUE(snap.Contains({100, 2, 100}));
  // A wait-free handle acquired after the snapshot's publication must
  // cover the raced op as well.
  EXPECT_TRUE(store.AcquireReadHandle().Contains({100, 2, 100}));
}

// The churn oracle from churn_test, run against background compaction:
// randomized Insert/Erase/ErasePattern/Clear with forced drains must
// stay in lock-step with a std::set and pass the invariant checker.
TEST(EpochStressTest, BackgroundChurnAgreesWithOracle) {
  Rng rng(0xBEEFCAFE);
  DeltaHexastore store(DeltaOptions{/*compact_threshold=*/48,
                                    /*background_compaction=*/true});
  std::set<IdTriple> oracle;
  constexpr Id kUniverse = 12;

  for (int batch = 0; batch < 40; ++batch) {
    for (int op = 0; op < 60; ++op) {
      const double dice = rng.NextDouble();
      if (dice < 0.52) {
        IdTriple t = RandomTriple(rng, kUniverse);
        ASSERT_EQ(store.Insert(t), oracle.insert(t).second);
      } else if (dice < 0.90) {
        IdTriple t;
        if (!oracle.empty() && rng.Bernoulli(0.5)) {
          auto it = oracle.begin();
          std::advance(it, rng.Uniform(oracle.size()));
          t = *it;
        } else {
          t = RandomTriple(rng, kUniverse);
        }
        ASSERT_EQ(store.Erase(t), oracle.erase(t) > 0);
      } else if (dice < 0.95) {
        const Id p = rng.UniformRange(1, kUniverse);
        std::size_t expected = 0;
        for (auto it = oracle.begin(); it != oracle.end();) {
          if (it->p == p) {
            it = oracle.erase(it);
            ++expected;
          } else {
            ++it;
          }
        }
        ASSERT_EQ(store.ErasePattern(IdPattern{0, p, 0}), expected);
      } else if (dice < 0.97) {
        store.Clear();
        oracle.clear();
      } else {
        store.Compact();
      }
    }
    ASSERT_EQ(store.size(), oracle.size()) << "batch " << batch;
    IdTripleVec scanned = store.Match(IdPattern{});
    ASSERT_EQ(scanned, IdTripleVec(oracle.begin(), oracle.end()))
        << "batch " << batch;
    std::string err;
    ASSERT_TRUE(store.CheckInvariants(&err)) << err;
  }
  store.Compact();
  const DeltaStats stats = store.Stats();
  EXPECT_TRUE(stats.background);
  EXPECT_GT(stats.seals, 0u);
  EXPECT_GT(stats.background_merges, 0u);
}

// The leveled configuration under the same oracle: background seals
// accumulate as L0 runs, fold into L1 off-thread and only occasionally
// rebuild the base — every intermediate level shape must agree with the
// std::set oracle and pass the invariant checker.
TEST(EpochStressTest, LeveledBackgroundChurnAgreesWithOracle) {
  Rng rng(0x1E7EBEEF);
  DeltaOptions options;
  options.compact_threshold = 32;
  options.background_compaction = true;
  options.l0_run_limit = 3;
  options.l1_base_fraction = 0.05;
  DeltaHexastore store(options);
  std::set<IdTriple> oracle;
  constexpr Id kUniverse = 12;

  for (int batch = 0; batch < 40; ++batch) {
    for (int op = 0; op < 60; ++op) {
      const double dice = rng.NextDouble();
      if (dice < 0.52) {
        IdTriple t = RandomTriple(rng, kUniverse);
        ASSERT_EQ(store.Insert(t), oracle.insert(t).second);
      } else if (dice < 0.90) {
        IdTriple t;
        if (!oracle.empty() && rng.Bernoulli(0.5)) {
          auto it = oracle.begin();
          std::advance(it, rng.Uniform(oracle.size()));
          t = *it;
        } else {
          t = RandomTriple(rng, kUniverse);
        }
        ASSERT_EQ(store.Erase(t), oracle.erase(t) > 0);
      } else if (dice < 0.95) {
        // Leveled fast path: the pattern tombstone may land above
        // matching triples sitting in L0 runs or L1.
        const Id p = rng.UniformRange(1, kUniverse);
        std::size_t expected = 0;
        for (auto it = oracle.begin(); it != oracle.end();) {
          if (it->p == p) {
            it = oracle.erase(it);
            ++expected;
          } else {
            ++it;
          }
        }
        ASSERT_EQ(store.ErasePattern(IdPattern{0, p, 0}), expected);
      } else if (dice < 0.97) {
        store.Clear();
        oracle.clear();
      } else {
        store.Compact();
      }
    }
    ASSERT_EQ(store.size(), oracle.size()) << "batch " << batch;
    IdTripleVec scanned = store.Match(IdPattern{});
    ASSERT_EQ(scanned, IdTripleVec(oracle.begin(), oracle.end()))
        << "batch " << batch;
    std::string err;
    ASSERT_TRUE(store.CheckInvariants(&err)) << err;
  }
  store.Compact();
  const DeltaStats stats = store.Stats();
  EXPECT_TRUE(stats.background);
  EXPECT_GT(stats.seals, 0u);
  EXPECT_GT(stats.l0_merges, 0u);
}

// The leveled background churn with prefix filters armed and a hard
// memory budget: reader threads hammer wait-free handles with mostly-
// absent point probes (the filter skip path) while the compactor folds
// under budget pressure and frees superseded runs on the deferred-
// reclaim path — which must return every tracked byte.
TEST(EpochStressTest, FilteredBackgroundChurnUnderBudgetStaysExact) {
  Rng rng(0xF117BEEF);
  DeltaOptions options;
  options.compact_threshold = 32;
  options.background_compaction = true;
  options.l0_run_limit = 3;
  options.l1_base_fraction = 0.05;
  options.filter_bits_per_key = 10;
  options.memory_budget_bytes = 8192;  // constant budget pressure

  std::shared_ptr<MemoryTracker> tracker;
  {
    DeltaHexastore store(options);
    tracker = store.memory_tracker();
    std::set<IdTriple> oracle;
    constexpr Id kUniverse = 12;

    std::atomic<bool> stop{false};
    std::thread reader([&store, &stop] {
      Rng reader_rng(0x5EED);
      while (!stop.load(std::memory_order_acquire)) {
        DeltaHexastore::Snapshot snap = store.AcquireReadHandle();
        // Distant keys are absent from every run: each probe that
        // reaches a filtered run should skip its table.
        const IdTriple far{reader_rng.UniformRange(1000, 2000),
                           reader_rng.UniformRange(1000, 2000),
                           reader_rng.UniformRange(1000, 2000)};
        EXPECT_FALSE(snap.Contains(far));
      }
    });

    for (int batch = 0; batch < 30; ++batch) {
      for (int op = 0; op < 60; ++op) {
        const double dice = rng.NextDouble();
        if (dice < 0.55) {
          IdTriple t = RandomTriple(rng, kUniverse);
          ASSERT_EQ(store.Insert(t), oracle.insert(t).second);
        } else if (dice < 0.92) {
          IdTriple t;
          if (!oracle.empty() && rng.Bernoulli(0.5)) {
            auto it = oracle.begin();
            std::advance(it, rng.Uniform(oracle.size()));
            t = *it;
          } else {
            t = RandomTriple(rng, kUniverse);
          }
          ASSERT_EQ(store.Erase(t), oracle.erase(t) > 0);
        } else if (dice < 0.97) {
          const Id p = rng.UniformRange(1, kUniverse);
          std::size_t expected = 0;
          for (auto it = oracle.begin(); it != oracle.end();) {
            if (it->p == p) {
              it = oracle.erase(it);
              ++expected;
            } else {
              ++it;
            }
          }
          ASSERT_EQ(store.ErasePattern(IdPattern{0, p, 0}), expected);
        } else {
          store.Compact();
        }
      }
      ASSERT_EQ(store.size(), oracle.size()) << "batch " << batch;
      IdTripleVec scanned = store.Match(IdPattern{});
      ASSERT_EQ(scanned, IdTripleVec(oracle.begin(), oracle.end()))
          << "batch " << batch;
      std::string err;
      ASSERT_TRUE(store.CheckInvariants(&err)) << err;
    }
    stop.store(true, std::memory_order_release);
    reader.join();

    // Whether any seal got its filter armed above is a race: over
    // budget, ConfigureRunLocked drops filters, and with an 8 KiB
    // budget the store is over it almost the entire run — on a loaded
    // machine every seal can land in a dropped-filter window and the
    // counters stay zero. Finish deterministically: Clear() takes the
    // store under budget (the meters and filter counters survive), one
    // staged batch past the threshold seals a run that must arm its
    // filter, and absent-key probes against the pinned generation hit
    // the skip path.
    for (Id attempt = 0; store.Stats().filter_probes == 0 && attempt < 8;
         ++attempt) {
      store.Clear();
      for (Id k = 0; k <= options.compact_threshold; ++k) {
        store.Insert(IdTriple{500 + attempt, 500 + k, 500});
      }
      DeltaHexastore::Snapshot snap = store.AcquireReadHandle();
      for (Id k = 0; k < 16; ++k) {
        EXPECT_FALSE(snap.Contains(IdTriple{3000 + k, 3000, 3000}));
      }
    }

    // A budget fold is a race too: the policy counts a fold as one only
    // when it picks it over budget with L0 still below l0_run_limit, and
    // under load the writer can fill L0 first every time. Finish the
    // same way: from an emptied store, one bulk-loaded subject erased by
    // a point-tombstone pattern erase seals a single run far over the
    // budget, leaving no L1 and one L0 run, so the compactor's next job
    // must be a budget fold. Wait for it under a deadline kept here.
    for (Id attempt = 0; store.Stats().budget_folds == 0 && attempt < 4;
         ++attempt) {
      store.Clear();
      IdTripleVec subject;
      for (Id k = 1; k <= 2000; ++k) {
        subject.push_back(IdTriple{700 + attempt, 700, k});
      }
      store.BulkLoad(subject);
      ASSERT_EQ(store.ErasePattern(IdPattern{700 + attempt, 0, 0}),
                subject.size());
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(30);
      while (store.Stats().budget_folds == 0 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }

    const DeltaStats stats = store.Stats();
    EXPECT_TRUE(stats.background);
    EXPECT_GT(stats.seals, 0u);
    EXPECT_GT(stats.filter_probes, 0u);
    EXPECT_GT(stats.filter_skips, 0u);
    EXPECT_GT(stats.budget_folds, 0u);
  }
  // Every run — including those destroyed by the compactor on the
  // deferred-reclaim path — must have subtracted its tracked bytes.
  EXPECT_TRUE(tracker->balanced());
}

// Leveled headline: readers hold a window of wait-free handles across
// L0→L1 folds and L1→base merges running on the compactor thread. Every
// pinned view must stay internally consistent no matter which level a
// merge is moving underneath it, and the quiescent state must match the
// oracle built from the writer's return values.
TEST(EpochStressTest, ReadersHoldHandlesAcrossLevelMerges) {
  DeltaOptions options;
  options.compact_threshold = 48;
  options.background_compaction = true;
  options.l0_run_limit = 2;
  options.l1_base_fraction = 0.02;  // frequent L1→base rebuilds
  DeltaHexastore store(options);
  constexpr int kReaders = 4;
  constexpr int kWriterOps = 8000;

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&store, &done, &failures, r] {
      Rng rng(9100 + r);
      std::deque<DeltaHexastore::Snapshot> held;
      while (!done.load(std::memory_order_acquire)) {
        held.push_back(store.AcquireReadHandle());
        if (held.size() > 8) {
          held.pop_front();
        }
        failures.fetch_add(CheckHandleConsistency(held.back(), rng));
        failures.fetch_add(
            CheckHandleConsistency(held[rng.Uniform(held.size())], rng));
        // Don't starve the writer on small machines (see above).
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
  }

  Rng rng(2027);
  std::set<IdTriple> oracle;
  for (int i = 0; i < kWriterOps; ++i) {
    IdTriple t{1 + rng.Uniform(200), 1 + rng.Uniform(8),
               1 + rng.Uniform(200)};
    if (rng.Bernoulli(0.8)) {
      ASSERT_EQ(store.Insert(t), oracle.insert(t).second);
    } else {
      ASSERT_EQ(store.Erase(t), oracle.erase(t) > 0);
    }
    if (i % 2500 == 2499) {
      store.Compact();  // forced full-depth drain mid-churn
    }
  }
  done.store(true, std::memory_order_release);
  for (auto& th : readers) {
    th.join();
  }
  EXPECT_EQ(failures.load(), 0);

  // Quiesce and verify against the oracle.
  store.Compact();
  const DeltaHexastore::Snapshot final_snap = store.GetSnapshot();
  EXPECT_EQ(final_snap.Match(IdPattern{}),
            IdTripleVec(oracle.begin(), oracle.end()));
  std::string err;
  EXPECT_TRUE(store.CheckInvariants(&err)) << err;

  // The run actually exercised both merge kinds off-thread.
  const DeltaStats stats = store.Stats();
  EXPECT_GT(stats.seals, 0u);
  EXPECT_GT(stats.l0_merges, 0u);
  EXPECT_GT(stats.base_merges, 0u);

  const EpochStats epochs = store.EpochCounters();
  EXPECT_GT(epochs.handles_acquired, 0u);
  EXPECT_EQ(epochs.retire_queue_depth, 0u);
  EXPECT_EQ(epochs.active_reader_sections, 0);
}

// The headline contract: reader threads holding generation handles
// across many forced compactions never block on the store mutex and
// never see a torn or moving view. Readers deliberately keep a window
// of old handles alive (exercising the retire list) while the writer
// drives hundreds of seals and merges; a final quiescent check compares
// against the oracle built from the writer's return values.
TEST(EpochStressTest, ReadersHoldHandlesAcrossForcedCompactions) {
  DeltaHexastore store(DeltaOptions{/*compact_threshold=*/64,
                                    /*background_compaction=*/true});
  constexpr int kReaders = 4;
  constexpr int kWriterOps = 8000;

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::atomic<std::uint64_t> handles_taken{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&store, &done, &failures, &handles_taken, r] {
      Rng rng(7000 + r);
      // Held window: handles survive several compactions each.
      std::deque<DeltaHexastore::Snapshot> held;
      while (!done.load(std::memory_order_acquire)) {
        held.push_back(store.AcquireReadHandle());
        handles_taken.fetch_add(1, std::memory_order_relaxed);
        if (held.size() > 8) {
          held.pop_front();
        }
        // Check the freshest handle and one from deeper in the window
        // (old enough to have been retired and survive only via its
        // pin) — checking all eight every round would just repeat work.
        failures.fetch_add(CheckHandleConsistency(held.back(), rng));
        failures.fetch_add(
            CheckHandleConsistency(held[rng.Uniform(held.size())], rng));
        // Brief nap: the box running this may have fewer cores than
        // threads, and spinning readers would starve the writer whose
        // progress bounds the test's wall time.
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
  }

  Rng rng(2026);
  std::set<IdTriple> oracle;
  for (int i = 0; i < kWriterOps; ++i) {
    IdTriple t{1 + rng.Uniform(200), 1 + rng.Uniform(8),
               1 + rng.Uniform(200)};
    if (rng.Bernoulli(0.8)) {
      ASSERT_EQ(store.Insert(t), oracle.insert(t).second);
    } else {
      ASSERT_EQ(store.Erase(t), oracle.erase(t) > 0);
    }
    if (i % 2000 == 1999) {
      store.Compact();  // forced drain mid-churn
    }
  }
  done.store(true, std::memory_order_release);
  for (auto& th : readers) {
    th.join();
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(handles_taken.load(), 0u);
  EXPECT_GT(store.CompactionCount(), 0u);

  // Quiesce and verify against the oracle.
  store.Compact();
  const DeltaHexastore::Snapshot final_snap = store.GetSnapshot();
  EXPECT_EQ(final_snap.Match(IdPattern{}),
            IdTripleVec(oracle.begin(), oracle.end()));
  std::string err;
  EXPECT_TRUE(store.CheckInvariants(&err)) << err;

  // All readers gone: reclamation has caught up with retirement.
  const EpochStats epochs = store.EpochCounters();
  EXPECT_GT(epochs.handles_acquired, 0u);
  EXPECT_EQ(epochs.retire_queue_depth, 0u);
  EXPECT_EQ(epochs.active_reader_sections, 0);
}

// Inline drains write into the spare base once the last handle pinning
// it is gone — a base other threads were reading moments earlier. With
// a publication every 32 ops (as the server publishes per batch) and
// reader threads that scan from, hold and drop wait-free handles, every
// view must stay exact, and the spare must be reused: only drains that
// find it pinned rebuild. Under TSan this checks that a
// reader's last read of a base happens before the writer's first write.
TEST(EpochStressTest, InlineDrainsReuseTheSpareReadersReleased) {
  DeltaHexastore store(DeltaOptions{/*compact_threshold=*/256});
  Rng rng(0x5BA4);
  std::set<IdTriple> oracle;
  IdTripleVec preload;
  for (Id s = 1; s <= 3000; ++s) {
    const IdTriple t{s, 1 + rng.Uniform(8), 1 + rng.Uniform(300)};
    oracle.insert(t);
    preload.push_back(t);
  }
  store.BulkLoad(preload);
  store.GetSnapshot();

  // Readers hold each handle only for one short probe (a predicate scan
  // read twice, each scanned triple checked by Contains), so a drain
  // usually finds the spare released however slow the build.
  constexpr int kReaders = 2;
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&store, &done, &failures, r] {
      Rng reader_rng(9100 + r);
      while (!done.load(std::memory_order_acquire)) {
        {
          const DeltaHexastore::Snapshot snap = store.AcquireReadHandle();
          const IdPattern q{0, 1 + reader_rng.Uniform(8), 0};
          const IdTripleVec first = snap.Match(q);
          if (snap.Match(q) != first) {
            failures.fetch_add(1);
          }
          for (const IdTriple& t : first) {
            if (!snap.Contains(t)) {
              failures.fetch_add(1);
            }
          }
        }
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
    });
  }
  for (int i = 0; i < 6000; ++i) {
    const IdTriple t{1 + rng.Uniform(3000), 1 + rng.Uniform(8),
                     1 + rng.Uniform(300)};
    if (rng.Bernoulli(0.5)) {
      ASSERT_EQ(store.Insert(t), oracle.insert(t).second);
    } else {
      ASSERT_EQ(store.Erase(t), oracle.erase(t) > 0);
    }
    if (i % 32 == 31) {
      store.GetSnapshot();
    }
  }
  done.store(true, std::memory_order_release);
  for (auto& th : readers) {
    th.join();
  }
  EXPECT_EQ(failures.load(), 0);
  const DeltaStats stats = store.Stats();
  EXPECT_GT(stats.base_merges, 5u);
  EXPECT_LT(stats.base_rebuilds, stats.base_merges);
  EXPECT_EQ(store.GetSnapshot().Match(IdPattern{}),
            IdTripleVec(oracle.begin(), oracle.end()));
  std::string err;
  EXPECT_TRUE(store.CheckInvariants(&err)) << err;
}

// Pinned-generation query plans: BGP evaluation and repeated bound
// reads over a handle answer from exactly one generation while the
// writer churns.
TEST(EpochStressTest, PinnedQueriesAnswerFromOneGeneration) {
  DeltaHexastore store(DeltaOptions{/*compact_threshold=*/32,
                                    /*background_compaction=*/true});
  Dictionary dict;
  const Id p_knows = dict.Encode({Term::Iri("a"), Term::Iri("knows"),
                                  Term::Iri("b")})
                         .p;

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&store, &done, &failures, p_knows] {
      // The distinct values of one role across a pattern's matches.
      auto distinct = [](const IdTripleVec& matches, Id IdTriple::*role) {
        IdVec ids;
        for (const IdTriple& t : matches) {
          ids.push_back(t.*role);
        }
        SortUnique(&ids);
        return ids;
      };
      while (!done.load(std::memory_order_acquire)) {
        const DeltaHexastore::Snapshot snap = store.AcquireReadHandle();
        // Separate reads agree because they read the same pinned
        // generation: every subject of both objects has a triple to each
        // of them.
        const IdVec both =
            Intersect(distinct(snap.Match(IdPattern{0, 0, 7}), &IdTriple::s),
                      distinct(snap.Match(IdPattern{0, 0, 9}), &IdTriple::s));
        for (Id s : both) {
          if (!snap.MatchesAny(IdPattern{s, 0, 7}) ||
              !snap.MatchesAny(IdPattern{s, 0, 9})) {
            failures.fetch_add(1);
          }
        }
        // A chain step over the same handle stays self-consistent: every
        // node that ends a knows edge and starts one matches bound reads
        // on both sides.
        const IdVec mids = Intersect(
            distinct(snap.Match(IdPattern{0, p_knows, 0}), &IdTriple::o),
            distinct(snap.Match(IdPattern{0, p_knows, 0}), &IdTriple::s));
        for (Id mid : mids) {
          if (!snap.MatchesAny(IdPattern{0, p_knows, mid}) ||
              !snap.MatchesAny(IdPattern{mid, p_knows, 0})) {
            failures.fetch_add(1);
          }
        }
      }
    });
  }

  Rng rng(99);
  for (int i = 0; i < 12000; ++i) {
    IdTriple t{1 + rng.Uniform(40), p_knows, 1 + rng.Uniform(40)};
    if (rng.Bernoulli(0.7)) {
      store.Insert(t);
    } else {
      store.Erase(t);
    }
  }
  done.store(true, std::memory_order_release);
  for (auto& th : readers) {
    th.join();
  }
  EXPECT_EQ(failures.load(), 0);

  // A pinned Session plans and evaluates against a single generation; on
  // a quiescent store it must agree with the live evaluation.
  store.Compact();
  const std::vector<TriplePattern> patterns = {
      {PatternTerm::Variable("x"), PatternTerm::Bound(dict.term(p_knows)),
       PatternTerm::Variable("y")}};
  query::SessionOptions linearizable;
  linearizable.pin = PinPolicy::kLinearizable;
  auto pinned = query::Session(store, dict, linearizable).EvalBgp(patterns);
  ASSERT_TRUE(pinned.ok());
  const ResultSet live = EvalBgp(store, dict, patterns);
  EXPECT_EQ(pinned.value().set.rows.size(), live.rows.size());
}

// Concurrent profiled queries against a churning store: every profile
// is filled from the single pinned generation its query ran on (never a
// freed one — TSan guards the reclamation race), the shared ProfileSink
// ring accepts records from all readers, and seqlock snapshots taken
// mid-churn only ever observe internally consistent entries.
TEST(EpochStressTest, ProfiledQueriesUnderBackgroundChurn) {
  DeltaHexastore store(DeltaOptions{/*compact_threshold=*/32,
                                    /*background_compaction=*/true});
  Dictionary dict;
  const Id p_knows = dict.Encode({Term::Iri("a"), Term::Iri("knows"),
                                  Term::Iri("b")})
                         .p;
  // Threshold 0: every profiled query lands in the slow-query ring.
  ProfileSink sink(/*slow_threshold_ns=*/std::uint64_t{0});

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::atomic<std::uint64_t> queries{0};
  const std::vector<TriplePattern> patterns = {
      {PatternTerm::Variable("x"), PatternTerm::Bound(dict.term(p_knows)),
       PatternTerm::Variable("y")}};

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(17 + r);
      query::SessionOptions linearizable;
      linearizable.pin = PinPolicy::kLinearizable;
      query::Session session(store, dict, linearizable);
      while (!done.load(std::memory_order_acquire)) {
        queries.fetch_add(1, std::memory_order_relaxed);
        auto evaluated = session.EvalBgp(patterns);
        if (!evaluated.ok()) {
          failures.fetch_add(1);
          continue;
        }
        const ResultSet& result = evaluated.value().set;
        const QueryProfile& profile = evaluated.value().profile;
        // The profile describes exactly the pinned evaluation: one
        // pattern, row count matching the result, phases that add up.
        if (profile.patterns.size() != 1 ||
            profile.rows_out != result.rows.size() ||
            profile.patterns[0].rows_emitted != result.rows.size() ||
            profile.total_ns != profile.parse_ns + profile.pin_ns) {
          failures.fetch_add(1);
        }
        sink.Record(profile, "pinned churn probe");
        if (rng.Bernoulli(0.25)) {
          // Seqlock snapshot raced against the other recorders: every
          // retained entry must be a whole record, never a torn one.
          for (const obs::SlowQueryRecord& e :
               sink.slow_queries().Snapshot()) {
            if (e.kind != obs::kSlowQueryKindBgp ||
                e.q_error_x1000 < 1000 || e.patterns != 1 ||
                e.total_ns != e.parse_ns + e.pin_ns ||
                e.text != "pinned churn probe") {
              failures.fetch_add(1);
            }
          }
        }
      }
    });
  }

  // Churn until the readers have run a healthy number of profiled
  // queries (thread startup can outlast a short fixed-length burst).
  Rng rng(4242);
  std::uint64_t ops = 0;
  while (queries.load(std::memory_order_relaxed) < 50 || ops < 12000) {
    IdTriple t{1 + rng.Uniform(40), p_knows, 1 + rng.Uniform(40)};
    if (rng.Bernoulli(0.7)) {
      store.Insert(t);
    } else {
      store.Erase(t);
    }
    ++ops;
  }
  done.store(true, std::memory_order_release);
  for (auto& th : readers) {
    th.join();
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(store.CompactionCount(), 0u);
  EXPECT_GT(sink.histogram(QueryKind::kBgp)->Snapshot().count, 0u);
  EXPECT_GT(sink.slow_queries().TotalRecorded(), 0u);
}

// The plan-cache churn oracle: concurrent wait-free Sessions sharing
// one PlanCache answer templated queries while a writer churns the hot
// predicate through background compactions and publications. Responses
// over the untouched predicate must stay byte-identical whether the
// join order came from the cache or a fresh plan; hot-predicate row
// counts are non-decreasing per session (sequential queries, monotone
// publications); and the growing hot cardinality must eventually drift
// past the q-error threshold and invalidate (the cache never serves a
// stale plan silently — it revalidates estimates per drifted stamp).
TEST(EpochStressTest, PlanCacheServesConcurrentSessionsUnderChurn) {
  DeltaHexastore store(DeltaOptions{/*compact_threshold=*/64,
                                    /*background_compaction=*/true});
  Dictionary dict;
  // Intern every term up front: Dictionary is not thread-safe, and the
  // readers render results against it while the writer runs.
  std::vector<IdTriple> hot_triples;
  for (int i = 0; i < 2000; ++i) {
    hot_triples.push_back(dict.Encode(
        {Term::Iri("http://x/h" + std::to_string(i)),
         Term::Iri("http://x/hot"), Term::Iri("http://x/o")}));
  }
  for (int i = 0; i < 32; ++i) {
    store.Insert(dict.Encode(
        {Term::Iri("http://x/s" + std::to_string(i)),
         Term::Iri("http://x/stable"),
         Term::Iri("http://x/t" + std::to_string(i % 4))}));
  }
  store.Insert(hot_triples[0]);
  store.GetSnapshot();  // publish the seed

  PlanCache cache;
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::atomic<std::uint64_t> hot_reads{0};  // completed hot queries
  std::mutex golden_mu;
  std::string golden_stable;

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      query::SessionOptions options;
      options.pin = query::PinPolicy::kWaitFree;
      options.plan_cache = &cache;
      query::Session session(store, dict, options);
      std::size_t last_hot_rows = 0;
      std::uint64_t i = 0;
      while (!done.load(std::memory_order_acquire)) {
        if ((i++ + r) % 2 == 0) {
          auto result = session.Query(
              "SELECT ?s ?t WHERE { ?s <http://x/stable> ?t } ORDER BY ?s");
          if (!result.ok()) {
            failures.fetch_add(1);
            continue;
          }
          const std::string json =
              ResultSetToJson(result.value().set, dict);
          std::lock_guard<std::mutex> lock(golden_mu);
          if (golden_stable.empty()) {
            golden_stable = json;
          } else if (golden_stable != json) {
            failures.fetch_add(1);
          }
        } else {
          auto result = session.Query(
              "SELECT ?s WHERE { ?s <http://x/hot> ?o }");
          if (!result.ok()) {
            failures.fetch_add(1);
            continue;
          }
          const std::size_t rows = result.value().set.rows.size();
          if (rows < last_hot_rows) {
            failures.fetch_add(1);  // a pinned read went backwards
          }
          last_hot_rows = rows;
          hot_reads.fetch_add(1, std::memory_order_release);
        }
      }
    });
  }

  // Writer: grow the hot predicate (pre-encoded ids only — no dict
  // mutation) and publish every batch so wait-free readers advance. After
  // each publication it waits for four more hot queries — each reader
  // has at most one in flight, so one of them started after the
  // publication — so the readers see the cardinality drift however the
  // threads are scheduled (a writer that finished before the readers ran
  // left them nothing to invalidate).
  for (std::size_t i = 1; i < hot_triples.size(); ++i) {
    store.Insert(hot_triples[i]);
    if (i % 16 == 0) {
      store.GetSnapshot();
      const std::uint64_t target =
          hot_reads.load(std::memory_order_acquire) + 4;
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (hot_reads.load(std::memory_order_acquire) < target &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
    }
  }
  store.GetSnapshot();
  done.store(true, std::memory_order_release);
  for (auto& th : readers) {
    th.join();
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(cache.hits(), 0u);
  // 1 -> 2000 hot triples sweeps through the q-error threshold many
  // times over; the cache must have replanned at least once.
  EXPECT_GT(cache.invalidations(), 0u);
  EXPECT_EQ(cache.size(), 2u);
}

// Readers hold handles across WAL checkpoints running on the
// checkpointer thread while a writer churns through compactions; the
// reopened store must recover exactly the writer's final state.
TEST(EpochStressTest, HandlesSurviveCheckpointsAndRecovery) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("hexa-epoch-stress-" + std::to_string(::getpid()));
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);

  DurabilityOptions options;
  options.dir = dir.string();
  options.mode = DurabilityMode::kNone;
  // Each checkpoint pays several fsyncs; a mid-size threshold keeps the
  // test to a handful of compaction-triggered checkpoints plus the two
  // explicit ones below.
  options.delta.compact_threshold = 512;
  options.delta.background_compaction = true;
  options.background_checkpoints = true;
  // Leveled inner store: checkpoints ride fold and base merges alike,
  // and recovery must replay into the same leveled configuration.
  options.delta.l0_run_limit = 2;
  options.delta.l1_base_fraction = 0.1;

  std::set<IdTriple> oracle;
  {
    auto opened = DurableDeltaHexastore::Open(options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    DurableDeltaHexastore* store = opened.value().get();

    std::atomic<bool> done{false};
    std::atomic<int> failures{0};
    std::vector<std::thread> readers;
    for (int r = 0; r < 3; ++r) {
      readers.emplace_back([store, &done, &failures, r] {
        Rng rng(41 + r);
        std::deque<DeltaHexastore::Snapshot> held;
        while (!done.load(std::memory_order_acquire)) {
          held.push_back(store->AcquireReadHandle());
          if (held.size() > 4) {
            held.pop_front();
          }
          failures.fetch_add(CheckHandleConsistency(held.back(), rng));
          failures.fetch_add(
              CheckHandleConsistency(held.front(), rng));
          // Don't starve the writer on small machines (see above).
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
      });
    }

    Rng rng(0xD00D);
    for (int i = 0; i < 4000; ++i) {
      IdTriple t{1 + rng.Uniform(100), 1 + rng.Uniform(8),
                 1 + rng.Uniform(100)};
      if (rng.Bernoulli(0.75)) {
        ASSERT_EQ(store->Insert(t), oracle.insert(t).second);
      } else {
        ASSERT_EQ(store->Erase(t), oracle.erase(t) > 0);
      }
      if (i % 1500 == 1499) {
        ASSERT_TRUE(store->Checkpoint().ok());  // explicit, mid-churn
      }
    }
    done.store(true, std::memory_order_release);
    for (auto& th : readers) {
      th.join();
    }
    EXPECT_EQ(failures.load(), 0);
    ASSERT_TRUE(store->status().ok());
    ASSERT_TRUE(store->Flush().ok());
    const WalStats wal = store->wal_stats();
    EXPECT_GT(wal.checkpoints, 0u);
  }

  auto reopened = DurableDeltaHexastore::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value()->size(), oracle.size());
  EXPECT_EQ(reopened.value()->Match(IdPattern{}),
            IdTripleVec(oracle.begin(), oracle.end()));
  std::string err;
  EXPECT_TRUE(reopened.value()->CheckInvariants(&err)) << err;
  std::filesystem::remove_all(dir, ec);
}

// Observability under concurrency, for the TSan job: writers churn a
// leveled background store (histograms recording, trace ring filling
// from both the writer and the compactor thread) while reader threads
// continuously render the Prometheus page, the JSON dump, GatherStats()
// and raw trace snapshots. Everything here must be data-race-free: the
// instruments are relaxed atomics, the trace ring is a seqlock, and
// GatherStats serializes on the store mutex.
TEST(EpochStressTest, MetricsExportsRaceFreeUnderChurn) {
  DeltaOptions options;
  options.compact_threshold = 48;
  options.background_compaction = true;
  options.l0_run_limit = 2;
  options.trace_capacity = 64;  // force wraparound under churn
  DeltaHexastore store(options);

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&store, &done, &failures, r] {
      while (!done.load(std::memory_order_acquire)) {
        if (r == 0) {
          if (store.MetricsText().find("hexa_delta_staged_ops_total") ==
              std::string::npos) {
            failures.fetch_add(1);
          }
        } else if (r == 1) {
          if (store.MetricsJson().find("\"version\": 2") ==
              std::string::npos) {
            failures.fetch_add(1);
          }
        } else {
          const StatsSnapshot snap = store.GatherStats();
          if (snap.delta.compact_threshold != 48) {
            failures.fetch_add(1);
          }
          for (const obs::TraceRecord& rec : store.trace_ring().Snapshot()) {
            if (rec.reason == nullptr) {
              failures.fetch_add(1);
            }
          }
        }
      }
    });
  }

  Rng rng(0x0B5EC0DE);
  constexpr Id kUniverse = 16;
  for (int op = 0; op < 6000; ++op) {
    const IdTriple t = RandomTriple(rng, kUniverse);
    if (rng.Bernoulli(0.6)) {
      store.Insert(t);
    } else {
      store.Erase(t);
    }
    store.Contains(t);
  }
  store.Compact();
  done.store(true, std::memory_order_release);
  for (auto& th : readers) {
    th.join();
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(store.trace_ring().TotalRecorded(), 0u);
  const DeltaStats stats = store.Stats();
  EXPECT_GT(stats.seals, 0u);
  std::string err;
  ASSERT_TRUE(store.CheckInvariants(&err)) << err;
}

// -- Sharded multi-writer stress --------------------------------------------
//
// The sharding headline: N writer threads hammer one ShardedHexastore
// while per-shard background compactors fold their own shards and
// reader threads hold cross-shard pinned snapshots. Writers own
// disjoint subject ranges, so each can check every Insert/Erase/
// ErasePattern return value against a private std::set oracle with no
// cross-writer interference (subjects route deterministically, so two
// writers never race on the same logical triple). The quiescent union
// of the writer oracles is the ground truth for the facade.
TEST(EpochStressTest, ShardedMultiWriterChurnAgreesWithOracle) {
  constexpr int kWriters = 4;
  constexpr int kOpsPerWriter = 3000;
  ShardedOptions options;
  options.shards = 4;
  options.delta.compact_threshold = 48;
  options.delta.background_compaction = true;
  options.delta.l0_run_limit = 2;
  options.delta.l1_base_fraction = 0.05;
  // A tight facade budget (sliced across shards) keeps every per-shard
  // compactor under pressure, exercising the budget-fold path in
  // parallel.
  options.delta.memory_budget_bytes = 64 * 1024;

  std::vector<std::shared_ptr<MemoryTracker>> trackers;
  std::vector<std::set<IdTriple>> oracles(kWriters);
  {
    ShardedHexastore store(options);
    for (std::size_t i = 0; i < store.shard_count(); ++i) {
      trackers.push_back(store.shard(i).memory_tracker());
    }

    std::atomic<bool> done{false};
    std::atomic<int> failures{0};
    std::vector<std::thread> readers;
    for (int r = 0; r < 2; ++r) {
      readers.emplace_back([&store, &done, &failures, r] {
        Rng rng(6200 + r);
        std::deque<ShardedSnapshot> held;
        while (!done.load(std::memory_order_acquire)) {
          held.push_back(store.AcquireReadHandle());
          if (held.size() > 4) {
            held.pop_front();
          }
          // A cross-shard snapshot carries one (epoch, staged_ops) pair
          // per shard and must stay internally consistent even though
          // its shards were pinned at different generations.
          if (held.back().StampVector().size() != 2 * store.shard_count()) {
            failures.fetch_add(1);
          }
          failures.fetch_add(CheckHandleConsistency(held.back(), rng));
          failures.fetch_add(
              CheckHandleConsistency(held[rng.Uniform(held.size())], rng));
          // Don't starve the writers on small machines.
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
      });
    }

    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([&store, &oracles, &failures, w] {
        Rng rng(3100 + w);
        std::set<IdTriple>& oracle = oracles[w];
        // Disjoint subject range per writer: [base, base + 50).
        const Id base = 1 + static_cast<Id>(w) * 50;
        for (int i = 0; i < kOpsPerWriter; ++i) {
          const IdTriple t{base + rng.Uniform(50), 1 + rng.Uniform(8),
                           1 + rng.Uniform(40)};
          const double dice = rng.NextDouble();
          if (dice < 0.68) {
            if (store.Insert(t) != oracle.insert(t).second) {
              failures.fetch_add(1);
            }
          } else if (dice < 0.97) {
            if (store.Erase(t) != (oracle.erase(t) > 0)) {
              failures.fetch_add(1);
            }
          } else {
            // Bound-subject pattern erase stays inside this writer's
            // range, so the exact count is checkable concurrently.
            const Id s = base + rng.Uniform(50);
            std::size_t expected = 0;
            for (auto it = oracle.begin(); it != oracle.end();) {
              if (it->s == s) {
                it = oracle.erase(it);
                ++expected;
              } else {
                ++it;
              }
            }
            if (store.ErasePattern(IdPattern{s, 0, 0}) != expected) {
              failures.fetch_add(1);
            }
          }
        }
      });
    }
    for (auto& th : writers) {
      th.join();
    }
    done.store(true, std::memory_order_release);
    for (auto& th : readers) {
      th.join();
    }
    EXPECT_EQ(failures.load(), 0);

    // Quiesce: the facade must equal the union of the writer oracles.
    store.Compact();
    std::set<IdTriple> merged;
    for (const auto& oracle : oracles) {
      merged.insert(oracle.begin(), oracle.end());
    }
    EXPECT_EQ(store.GetSnapshot().Match(IdPattern{}),
              IdTripleVec(merged.begin(), merged.end()));
    EXPECT_EQ(store.size(), merged.size());
    std::string err;
    EXPECT_TRUE(store.CheckInvariants(&err)) << err;

    // Every shard's compactor actually ran, and with all readers gone
    // reclamation has caught up with retirement on every shard.
    std::uint64_t seals = 0;
    for (std::size_t i = 0; i < store.shard_count(); ++i) {
      seals += store.shard(i).Stats().seals;
      const EpochStats epochs = store.shard(i).EpochCounters();
      EXPECT_EQ(epochs.retire_queue_depth, 0u) << "shard " << i;
      EXPECT_EQ(epochs.active_reader_sections, 0) << "shard " << i;
    }
    EXPECT_GT(seals, 0u);
  }
  // Per-shard memory accounting balances after teardown — including
  // runs freed by the parallel compactors on the deferred path.
  for (std::size_t i = 0; i < trackers.size(); ++i) {
    EXPECT_TRUE(trackers[i]->balanced()) << "shard " << i;
  }
}

// Durable sharding under concurrency: writers on disjoint subject
// ranges drive cross-shard group commits (batched mode shares one
// WalCommitGroup across the per-shard WALs) while a checkpointer thread
// runs facade-wide checkpoints and readers hold cross-shard handles.
// The reopened store must recover exactly the union of the writer
// oracles.
TEST(EpochStressTest, ShardedWritersGroupCommitsAndCheckpointsRecover) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("hexa-shard-stress-" + std::to_string(::getpid()));
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);

  constexpr int kWriters = 3;
  constexpr int kOpsPerWriter = 1500;
  ShardedOptions options;
  options.shards = 4;
  options.durable = true;
  options.durability.dir = dir.string();
  options.durability.mode = DurabilityMode::kBatched;
  options.durability.batch_bytes = 256;  // frequent group sweeps
  options.delta.compact_threshold = 512;
  options.delta.background_compaction = true;

  std::vector<std::set<IdTriple>> oracles(kWriters);
  {
    auto opened = ShardedHexastore::Open(options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    ShardedHexastore* store = opened.value().get();

    std::atomic<bool> done{false};
    std::atomic<int> failures{0};
    std::thread reader([store, &done, &failures] {
      Rng rng(808);
      while (!done.load(std::memory_order_acquire)) {
        failures.fetch_add(
            CheckHandleConsistency(store->AcquireReadHandle(), rng));
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
    std::thread checkpointer([store, &done, &failures] {
      while (!done.load(std::memory_order_acquire)) {
        if (!store->Checkpoint().ok()) {
          failures.fetch_add(1);
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    });

    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([store, &oracles, &failures, w] {
        Rng rng(5400 + w);
        std::set<IdTriple>& oracle = oracles[w];
        const Id base = 1 + static_cast<Id>(w) * 40;
        for (int i = 0; i < kOpsPerWriter; ++i) {
          const IdTriple t{base + rng.Uniform(40), 1 + rng.Uniform(6),
                           1 + rng.Uniform(30)};
          if (rng.Bernoulli(0.72)) {
            if (store->Insert(t) != oracle.insert(t).second) {
              failures.fetch_add(1);
            }
          } else {
            if (store->Erase(t) != (oracle.erase(t) > 0)) {
              failures.fetch_add(1);
            }
          }
        }
      });
    }
    for (auto& th : writers) {
      th.join();
    }
    done.store(true, std::memory_order_release);
    reader.join();
    checkpointer.join();
    EXPECT_EQ(failures.load(), 0);
    ASSERT_TRUE(store->status().ok());
    ASSERT_TRUE(store->Flush().ok());
    // Group commit actually batched across shard WALs: the facade saw
    // checkpoints on at least one shard and every shard's WAL is clean.
    for (std::size_t i = 0; i < store->shard_count(); ++i) {
      ASSERT_TRUE(store->durable_shard(i)->status().ok()) << "shard " << i;
    }
  }

  std::set<IdTriple> merged;
  for (const auto& oracle : oracles) {
    merged.insert(oracle.begin(), oracle.end());
  }
  auto reopened = ShardedHexastore::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.value()->size(), merged.size());
  EXPECT_EQ(reopened.value()->Match(IdPattern{}),
            IdTripleVec(merged.begin(), merged.end()));
  std::string err;
  EXPECT_TRUE(reopened.value()->CheckInvariants(&err)) << err;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace
}  // namespace hexastore
