// Integration property test: all seven stores (Hexastore, COVP1, COVP2,
// TripleTable, DeltaHexastore in both a compacting and a pure-delta
// configuration, and a 3-shard ShardedHexastore) answer every pattern
// identically under random workloads of inserts, erases and bulk loads.
// (The dedicated sharded-vs-single oracle at shards {1,2,4,7} lives in
// sharded_store_test.cc; riding along here additionally cross-checks the
// facade against the non-delta baselines.)
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "baseline/triple_table.h"
#include "baseline/vertical_store.h"
#include "core/hexastore.h"
#include "delta/delta_hexastore.h"
#include "shard/sharded_hexastore.h"
#include "util/rng.h"

namespace hexastore {
namespace {

ShardedOptions SmallShardedOptions() {
  ShardedOptions opts;
  opts.shards = 3;
  // Tiny threshold so per-shard compactions fire mid-workload.
  opts.delta.compact_threshold = 64;
  return opts;
}

struct StoreSet {
  Hexastore hexa;
  VerticalStore covp1{false};
  VerticalStore covp2{true};
  TripleTableStore table;
  // Tiny threshold: compactions fire constantly mid-workload, so probes
  // hit freshly-drained and half-staged states alike.
  DeltaHexastore delta_compacting{DeltaOptions{.compact_threshold = 128}};
  // Huge threshold: the whole workload stays staged in the delta.
  DeltaHexastore delta_staged{DeltaOptions{.compact_threshold = 1u << 30}};
  ShardedHexastore sharded{SmallShardedOptions()};

  std::vector<TripleStore*> all() {
    return {&hexa,  &covp1,            &covp2,       &table,
            &delta_compacting, &delta_staged, &sharded};
  }
};

void ExpectAllEqual(StoreSet* stores, const IdPattern& q) {
  const IdTripleVec expect = stores->table.Match(q);
  for (TripleStore* s : stores->all()) {
    EXPECT_EQ(s->Match(q), expect)
        << s->name() << " disagrees on pattern s=" << q.s << " p=" << q.p
        << " o=" << q.o;
  }
}

class StoreEquivalenceTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StoreEquivalenceTest, RandomMutationWorkload) {
  Rng rng(GetParam());
  StoreSet stores;
  for (int i = 0; i < 2500; ++i) {
    IdTriple t{1 + rng.Uniform(15), 1 + rng.Uniform(8),
               1 + rng.Uniform(15)};
    if (rng.Bernoulli(0.7)) {
      const bool inserted = stores.table.Insert(t);
      for (TripleStore* s : stores.all()) {
        if (s != &stores.table) {
          EXPECT_EQ(s->Insert(t), inserted) << s->name();
        }
      }
    } else {
      const bool erased = stores.table.Erase(t);
      for (TripleStore* s : stores.all()) {
        if (s != &stores.table) {
          EXPECT_EQ(s->Erase(t), erased) << s->name();
        }
      }
    }
  }
  for (TripleStore* s : stores.all()) {
    EXPECT_EQ(s->size(), stores.table.size()) << s->name();
  }
  // The small-threshold delta store must actually have compacted, and
  // both delta stores must uphold their layering invariants mid-state.
  EXPECT_GT(stores.delta_compacting.CompactionCount(), 0u);
  std::string err;
  EXPECT_TRUE(stores.delta_compacting.CheckInvariants(&err)) << err;
  EXPECT_TRUE(stores.delta_staged.CheckInvariants(&err)) << err;
  // The facade upholds per-shard invariants plus subject routing.
  EXPECT_TRUE(stores.sharded.CheckInvariants(&err)) << err;
  // Probe all 8 pattern shapes.
  for (int mask = 0; mask < 8; ++mask) {
    for (int probe = 0; probe < 25; ++probe) {
      IdPattern q;
      if (mask & 1) q.s = 1 + rng.Uniform(16);
      if (mask & 2) q.p = 1 + rng.Uniform(9);
      if (mask & 4) q.o = 1 + rng.Uniform(16);
      ExpectAllEqual(&stores, q);
    }
  }
}

TEST_P(StoreEquivalenceTest, BulkLoadWorkload) {
  Rng rng(GetParam() ^ 0xb01d);
  IdTripleVec data;
  for (int i = 0; i < 5000; ++i) {
    data.push_back(IdTriple{1 + rng.Uniform(40), 1 + rng.Uniform(12),
                            1 + rng.Uniform(40)});
  }
  StoreSet stores;
  for (TripleStore* s : stores.all()) {
    s->BulkLoad(data);
  }
  for (TripleStore* s : stores.all()) {
    EXPECT_EQ(s->size(), stores.table.size()) << s->name();
  }
  for (int mask = 0; mask < 8; ++mask) {
    for (int probe = 0; probe < 15; ++probe) {
      IdPattern q;
      if (mask & 1) q.s = 1 + rng.Uniform(41);
      if (mask & 2) q.p = 1 + rng.Uniform(13);
      if (mask & 4) q.o = 1 + rng.Uniform(41);
      ExpectAllEqual(&stores, q);
    }
  }
  std::string err;
  EXPECT_TRUE(stores.hexa.CheckInvariants(&err)) << err;
  EXPECT_TRUE(stores.delta_compacting.CheckInvariants(&err)) << err;
  EXPECT_TRUE(stores.delta_staged.CheckInvariants(&err)) << err;
}

TEST_P(StoreEquivalenceTest, CountsAgree) {
  Rng rng(GetParam() ^ 0xc0117);
  StoreSet stores;
  for (int i = 0; i < 1500; ++i) {
    IdTriple t{1 + rng.Uniform(10), 1 + rng.Uniform(5),
               1 + rng.Uniform(10)};
    for (TripleStore* s : stores.all()) {
      s->Insert(t);
    }
  }
  for (int probe = 0; probe < 100; ++probe) {
    IdPattern q;
    if (rng.Bernoulli(0.5)) q.s = 1 + rng.Uniform(11);
    if (rng.Bernoulli(0.5)) q.p = 1 + rng.Uniform(6);
    if (rng.Bernoulli(0.5)) q.o = 1 + rng.Uniform(11);
    const auto expect = stores.table.CountMatches(q);
    for (TripleStore* s : stores.all()) {
      EXPECT_EQ(s->CountMatches(q), expect) << s->name();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StoreEquivalenceTest,
                         ::testing::Values(11, 222, 3333, 44444));

}  // namespace
}  // namespace hexastore
