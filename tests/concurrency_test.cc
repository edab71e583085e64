// Concurrent-reader tests: an immutable Hexastore must serve pattern
// lookups, workload queries and advisor reads from many threads at once
// (reads only mutate the relaxed-atomic access counters), and a
// DeltaHexastore must serve snapshot-isolated readers while a writer
// stages ops and triggers compactions.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <thread>
#include <vector>

#include "core/advisor.h"
#include "core/hexastore.h"
#include "data/lubm_generator.h"
#include "delta/delta_hexastore.h"
#include "dict/dictionary.h"
#include "util/rng.h"
#include "workload/lubm_queries.h"

namespace hexastore {
namespace {

TEST(ConcurrencyTest, ParallelPatternScansAgree) {
  Hexastore store;
  Rng rng(2026);
  for (int i = 0; i < 5000; ++i) {
    store.Insert({1 + rng.Uniform(80), 1 + rng.Uniform(10),
                  1 + rng.Uniform(80)});
  }
  // Reference answers computed single-threaded.
  std::vector<IdPattern> probes;
  std::vector<IdTripleVec> expected;
  for (int mask = 0; mask < 8; ++mask) {
    for (int k = 0; k < 10; ++k) {
      IdPattern q;
      if (mask & 1) q.s = 1 + rng.Uniform(81);
      if (mask & 2) q.p = 1 + rng.Uniform(11);
      if (mask & 4) q.o = 1 + rng.Uniform(81);
      probes.push_back(q);
      expected.push_back(store.Match(q));
    }
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < 20; ++round) {
        for (std::size_t i = 0; i < probes.size(); ++i) {
          if (store.Match(probes[i]) != expected[i]) {
            failures.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(failures.load(), 0);
}

TEST(ConcurrencyTest, ParallelWorkloadQueriesAgree) {
  auto triples = data::LubmGenerator().Generate(20000);
  Dictionary dict;
  IdTripleVec encoded;
  for (const auto& t : triples) {
    encoded.push_back(dict.Encode(t));
  }
  Hexastore store;
  store.BulkLoad(encoded);
  workload::LubmIds ids = workload::LubmIds::Resolve(dict);

  const auto expect_q1 = workload::LubmRelatedToHexa(store, ids.course10);
  const auto expect_q4 = workload::LubmQ4Hexa(store, ids);

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&] {
      for (int round = 0; round < 30; ++round) {
        if (workload::LubmRelatedToHexa(store, ids.course10) !=
            expect_q1) {
          failures.fetch_add(1);
        }
        if (workload::LubmQ4Hexa(store, ids) != expect_q4) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(failures.load(), 0);
}

// Reader threads scan through snapshot handles while one writer inserts
// past the compaction threshold over and over. Each snapshot must stay
// internally consistent (same answer on re-scan, size bookkeeping exact,
// membership agreeing with the scan) no matter how many compactions and
// generation swaps happen underneath it.
TEST(ConcurrencyTest, SnapshotReadersSurviveWriterCompactions) {
  // Small threshold: the writer triggers hundreds of compactions.
  DeltaHexastore store(DeltaOptions{.compact_threshold = 64});
  constexpr int kWriterOps = 20000;
  constexpr int kReaders = 4;

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&store, &done, &failures, r] {
      Rng rng(1000 + r);
      while (!done.load(std::memory_order_acquire)) {
        DeltaHexastore::Snapshot snap = store.GetSnapshot();
        const IdTripleVec first = snap.Match(IdPattern{});
        if (first.size() != snap.size()) {
          failures.fetch_add(1);
        }
        // Writer keeps mutating the live store; this snapshot must not
        // move.
        const IdTripleVec second = snap.Match(IdPattern{});
        if (second != first) {
          failures.fetch_add(1);
        }
        // Membership agrees with the materialized scan.
        for (int probe = 0; probe < 10 && !first.empty(); ++probe) {
          const IdTriple& t = first[rng.Uniform(first.size())];
          if (!snap.Contains(t)) {
            failures.fetch_add(1);
          }
        }
        // Pattern scans answer from the same frozen generation.
        const Id p = 1 + rng.Uniform(8);
        IdTripleVec by_p;
        snap.Scan(IdPattern{0, p, 0},
                  [&by_p](const IdTriple& t) { by_p.push_back(t); });
        std::size_t expect = 0;
        for (const IdTriple& t : first) {
          expect += t.p == p ? 1 : 0;
        }
        if (by_p.size() != expect) {
          failures.fetch_add(1);
        }
      }
    });
  }

  Rng rng(2026);
  for (int i = 0; i < kWriterOps; ++i) {
    IdTriple t{1 + rng.Uniform(300), 1 + rng.Uniform(8),
               1 + rng.Uniform(300)};
    if (rng.Bernoulli(0.8)) {
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
  EXPECT_GT(store.CompactionCount(), 0u);
  std::string err;
  EXPECT_TRUE(store.CheckInvariants(&err)) << err;
}

TEST(ConcurrencyTest, AccessCountersAccumulateAcrossThreads) {
  Hexastore store;
  store.Insert({1, 2, 3});
  store.ResetAccessCounts();
  constexpr int kThreads = 8;
  constexpr int kReads = 1000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store] {
      for (int i = 0; i < kReads; ++i) {
        store.subjects_of_predicate(2);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  // Relaxed atomics must not lose increments.
  EXPECT_EQ(store.access_count(Permutation::kPso),
            static_cast<std::uint64_t>(kThreads) * kReads);
  IndexAdvice advice = AdviseIndexes(store);
  EXPECT_NEAR(advice.share[static_cast<int>(Permutation::kPso)], 1.0,
              1e-12);
}

}  // namespace
}  // namespace hexastore
