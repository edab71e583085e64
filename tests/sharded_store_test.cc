// Sharded-vs-single oracle: a ShardedHexastore at shard counts
// {1, 2, 4, 7} must stay byte-identical to one DeltaHexastore over the
// same ops — contents, Match results, ErasePattern counts, snapshot
// views, merged accessor orders, and EstimateMatches where the facade
// contract promises exactness (fully-bound patterns; any pattern after
// Compact). Also pins the predicate-only ErasePattern fan-out count
// (the facade must SUM per-shard counts, never double-count) including
// the leveled pattern-tombstone-above-L1 interleavings, and the routing
// invariant behind it all.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "delta/delta_hexastore.h"
#include "shard/sharded_hexastore.h"
#include "util/rng.h"

namespace hexastore {
namespace {

IdTriple RandomTriple(Rng* rng, Id max_s, Id max_p, Id max_o) {
  return IdTriple{1 + rng->Uniform(max_s), 1 + rng->Uniform(max_p),
                  1 + rng->Uniform(max_o)};
}

// All 8 pattern shapes probed against both stores.
void ExpectPatternsEqual(const ShardedHexastore& sharded,
                         const DeltaHexastore& single, Rng* rng,
                         int probes_per_mask) {
  for (int mask = 0; mask < 8; ++mask) {
    for (int probe = 0; probe < probes_per_mask; ++probe) {
      IdPattern q;
      if (mask & 1) q.s = 1 + rng->Uniform(20);
      if (mask & 2) q.p = 1 + rng->Uniform(10);
      if (mask & 4) q.o = 1 + rng->Uniform(20);
      EXPECT_EQ(sharded.Match(q), single.Match(q))
          << "shards=" << sharded.shard_count() << " s=" << q.s
          << " p=" << q.p << " o=" << q.o;
      EXPECT_EQ(sharded.CountMatches(q), single.CountMatches(q));
    }
  }
}

class ShardedOracleTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ShardedOracleTest, ChurnStaysByteIdentical) {
  const std::size_t shards = GetParam();
  ShardedOptions opts;
  opts.shards = shards;
  opts.delta.compact_threshold = 96;  // compactions fire mid-churn
  ShardedHexastore sharded(opts);
  DeltaHexastore single(DeltaOptions{.compact_threshold = 96});

  Rng rng(0x5eed0 + shards);
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 1200; ++i) {
      const double dice = rng.NextDouble();
      if (dice < 0.62) {
        const IdTriple t = RandomTriple(&rng, 19, 9, 19);
        EXPECT_EQ(sharded.Insert(t), single.Insert(t));
      } else if (dice < 0.90) {
        const IdTriple t = RandomTriple(&rng, 19, 9, 19);
        EXPECT_EQ(sharded.Erase(t), single.Erase(t));
      } else if (dice < 0.97) {
        // Pattern erases across shapes: bound-subject routes, the rest
        // fan out; counts must agree either way.
        IdPattern q;
        if (rng.Bernoulli(0.3)) q.s = 1 + rng.Uniform(20);
        if (rng.Bernoulli(0.6)) q.p = 1 + rng.Uniform(10);
        if (rng.Bernoulli(0.3)) q.o = 1 + rng.Uniform(20);
        EXPECT_EQ(sharded.ErasePattern(q), single.ErasePattern(q));
      } else {
        const IdTriple t = RandomTriple(&rng, 19, 9, 19);
        EXPECT_EQ(sharded.Contains(t), single.Contains(t));
      }
      if (i % 300 == 299) {
        EXPECT_EQ(sharded.size(), single.size());
      }
    }
    ExpectPatternsEqual(sharded, single, &rng, 8);

    // Fully-bound estimates are exact on both sides, hence identical
    // even mid-churn.
    for (int probe = 0; probe < 40; ++probe) {
      const IdTriple t = RandomTriple(&rng, 19, 9, 19);
      const IdPattern q{t.s, t.p, t.o};
      EXPECT_EQ(sharded.EstimateMatches(q), single.EstimateMatches(q));
    }

    std::string err;
    EXPECT_TRUE(sharded.CheckInvariants(&err)) << err;

    if (round == 1) {
      // Bulk load on top of live state: partitioned load must agree
      // with the single store's.
      IdTripleVec batch;
      for (int i = 0; i < 700; ++i) {
        batch.push_back(RandomTriple(&rng, 19, 9, 19));
      }
      sharded.BulkLoad(batch);
      single.BulkLoad(batch);
      EXPECT_EQ(sharded.size(), single.size());
    }
  }

  // Post-Compact quiescence: estimates become exact base counts on
  // every shard, so ANY pattern's estimate is additive and identical.
  sharded.Compact();
  single.Compact();
  EXPECT_EQ(sharded.StagedOps(), 0u);
  Rng est_rng(0xe577 + shards);
  for (int probe = 0; probe < 60; ++probe) {
    IdPattern q;
    if (est_rng.Bernoulli(0.5)) q.s = 1 + est_rng.Uniform(20);
    if (est_rng.Bernoulli(0.5)) q.p = 1 + est_rng.Uniform(10);
    if (est_rng.Bernoulli(0.5)) q.o = 1 + est_rng.Uniform(20);
    EXPECT_EQ(sharded.EstimateMatches(q), single.EstimateMatches(q))
        << "post-compact s=" << q.s << " p=" << q.p << " o=" << q.o;
  }
  ExpectPatternsEqual(sharded, single, &est_rng, 6);

  // Clear must empty every shard.
  sharded.Clear();
  single.Clear();
  EXPECT_EQ(sharded.size(), 0u);
  EXPECT_EQ(sharded.Match(IdPattern{}), single.Match(IdPattern{}));
}

TEST_P(ShardedOracleTest, SnapshotAndAccessorViewsAgree) {
  const std::size_t shards = GetParam();
  ShardedOptions opts;
  opts.shards = shards;
  opts.delta.compact_threshold = 128;
  ShardedHexastore sharded(opts);
  DeltaHexastore single(DeltaOptions{.compact_threshold = 128});

  Rng rng(0xacce55 + shards);
  for (int i = 0; i < 900; ++i) {
    const IdTriple t = RandomTriple(&rng, 15, 7, 15);
    sharded.Insert(t);
    single.Insert(t);
  }
  for (int i = 0; i < 200; ++i) {
    const IdTriple t = RandomTriple(&rng, 15, 7, 15);
    sharded.Erase(t);
    single.Erase(t);
  }

  const ShardedSnapshot snap = sharded.GetSnapshot();
  const DeltaHexastore::Snapshot oracle = single.GetSnapshot();
  EXPECT_EQ(snap.shard_count(), shards);
  EXPECT_EQ(snap.StampVector().size(), shards * 2);
  EXPECT_EQ(snap.size(), oracle.size());

  // Snapshot pattern answers and both stores' merged accessor views:
  // scatter results must reproduce the single store's sorted orders
  // byte-for-byte (subject lists are disjoint unions; object/predicate
  // lists are sorted-unique merges).
  for (Id s = 1; s <= 16; ++s) {
    EXPECT_EQ(snap.predicates_of_subject(s), oracle.predicates_of_subject(s));
    EXPECT_EQ(snap.objects_of_subject(s), oracle.objects_of_subject(s));
    EXPECT_EQ(sharded.predicates_of_subject(s),
              single.predicates_of_subject(s));
    EXPECT_EQ(sharded.objects_of_subject(s), single.objects_of_subject(s));
    EXPECT_EQ(sharded.subjects_of_object(s), single.subjects_of_object(s));
    EXPECT_EQ(snap.subjects_of_object(s), oracle.subjects_of_object(s));
  }
  for (Id p = 1; p <= 8; ++p) {
    EXPECT_EQ(snap.subjects_of_predicate(p), oracle.subjects_of_predicate(p));
    EXPECT_EQ(snap.objects_of_predicate(p), oracle.objects_of_predicate(p));
    EXPECT_EQ(sharded.subjects_of_predicate(p),
              single.subjects_of_predicate(p));
    EXPECT_EQ(sharded.objects_of_predicate(p), single.objects_of_predicate(p));
    EXPECT_EQ(sharded.predicates_of_object(p), single.predicates_of_object(p));
  }
  for (Id s = 1; s <= 16; ++s) {
    for (Id p = 1; p <= 8; ++p) {
      EXPECT_EQ(snap.objects(s, p).Materialize(),
                oracle.objects(s, p).Materialize());
      EXPECT_EQ(sharded.objects(s, p).Materialize(),
                single.objects(s, p).Materialize());
      EXPECT_EQ(snap.subjects(p, s).Materialize(),
                oracle.subjects(p, s).Materialize());
      EXPECT_EQ(sharded.subjects(p, s).Materialize(),
                single.subjects(p, s).Materialize());
    }
  }
  for (int probe = 0; probe < 80; ++probe) {
    IdPattern q;
    if (probe % 2) q.s = 1 + rng.Uniform(16);
    if (probe % 3) q.p = 1 + rng.Uniform(8);
    if (probe % 5) q.o = 1 + rng.Uniform(16);
    EXPECT_EQ(snap.Match(q), oracle.Match(q));
  }

  // Snapshot isolation: post-pin writes are invisible to the pinned
  // view on every shard.
  const std::size_t pinned_size = snap.size();
  for (int i = 0; i < 100; ++i) {
    IdTriple t{100 + rng.Uniform(50), 1 + rng.Uniform(7),
               100 + rng.Uniform(50)};
    sharded.Insert(t);
  }
  EXPECT_EQ(snap.size(), pinned_size);
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ShardedOracleTest,
                         ::testing::Values(1, 2, 4, 7));

TEST(ShardedHexastoreTest, ShardOfIsStableAndSpreads) {
  // Deterministic, in-range, and not striping dense ids into one shard.
  std::set<std::size_t> hit;
  for (Id s = 1; s <= 64; ++s) {
    const std::size_t a = ShardedHexastore::ShardOf(s, 4);
    ASSERT_LT(a, 4u);
    ASSERT_EQ(a, ShardedHexastore::ShardOf(s, 4));
    hit.insert(a);
  }
  EXPECT_EQ(hit.size(), 4u) << "64 dense ids left some shard empty";
  EXPECT_EQ(ShardedHexastore::ShardOf(7, 1), 0u);
}

// The facade regression the fan-out design exists for: a predicate-only
// pattern reaches EVERY shard, and because the subject partition is
// disjoint the summed per-shard counts must equal the single-store
// count exactly — no triple double-counted, none missed.
TEST(ShardedHexastoreTest, PredicateOnlyErasePatternCountsExactly) {
  ShardedOptions opts;
  opts.shards = 4;
  opts.delta.compact_threshold = 64;
  ShardedHexastore sharded(opts);
  DeltaHexastore single(DeltaOptions{.compact_threshold = 64});

  Rng rng(0xfade);
  for (int i = 0; i < 1500; ++i) {
    const IdTriple t = RandomTriple(&rng, 30, 4, 30);
    sharded.Insert(t);
    single.Insert(t);
  }
  for (Id p = 1; p <= 5; ++p) {
    IdPattern q;
    q.p = p;
    const std::uint64_t expected = single.CountMatches(q);
    EXPECT_EQ(sharded.CountMatches(q), expected);
    const std::size_t erased_sharded = sharded.ErasePattern(q);
    const std::size_t erased_single = single.ErasePattern(q);
    EXPECT_EQ(erased_sharded, erased_single);
    EXPECT_EQ(erased_sharded, expected);
    // Idempotence: the predicate is gone everywhere, a second fan-out
    // finds nothing.
    EXPECT_EQ(sharded.ErasePattern(q), 0u);
    EXPECT_EQ(sharded.CountMatches(q), 0u);
  }
  EXPECT_EQ(sharded.size(), 0u);
  EXPECT_EQ(single.size(), 0u);
}

// Same fan-out count pinned on a LEVELED configuration where the
// predicate erase lands as a pattern tombstone above L1: sealed L0 runs
// and an L1 run all hold matching staged inserts when the erase
// arrives, then fresh inserts of the same predicate land on top of the
// tombstone, then everything compacts. Counts and contents must track
// the single store through every interleaving.
TEST(ShardedHexastoreTest, PatternTombstoneAboveL1Interleavings) {
  ShardedOptions opts;
  opts.shards = 4;
  opts.delta.compact_threshold = 48;
  opts.delta.l0_run_limit = 3;  // leveled: seals stack as L0 runs
  DeltaOptions single_opts;
  single_opts.compact_threshold = 48;
  single_opts.l0_run_limit = 3;
  ShardedHexastore sharded(opts);
  DeltaHexastore single(single_opts);

  Rng rng(0x1e7e1);
  // Phase 1: enough churn that seals fold runs into L1 on every shard.
  for (int i = 0; i < 800; ++i) {
    const IdTriple t = RandomTriple(&rng, 25, 3, 25);
    EXPECT_EQ(sharded.Insert(t), single.Insert(t));
    if (rng.Bernoulli(0.15)) {
      const IdTriple e = RandomTriple(&rng, 25, 3, 25);
      EXPECT_EQ(sharded.Erase(e), single.Erase(e));
    }
  }
  // Phase 2: the predicate-wide erase — a pattern tombstone shadowing
  // staged inserts across active/L0/L1 layers.
  IdPattern wipe;
  wipe.p = 2;
  const std::uint64_t before = single.CountMatches(wipe);
  EXPECT_EQ(sharded.CountMatches(wipe), before);
  EXPECT_EQ(sharded.ErasePattern(wipe), single.ErasePattern(wipe));
  EXPECT_EQ(sharded.CountMatches(wipe), 0u);
  // Phase 3: resurrect some of the predicate above the tombstone.
  for (int i = 0; i < 200; ++i) {
    IdTriple t{1 + rng.Uniform(25), 2, 1 + rng.Uniform(25)};
    EXPECT_EQ(sharded.Insert(t), single.Insert(t));
  }
  EXPECT_EQ(sharded.CountMatches(wipe), single.CountMatches(wipe));
  // Phase 4: a second wipe while the first tombstone may still sit in
  // a lower level — counts must only cover the resurrected triples.
  EXPECT_EQ(sharded.ErasePattern(wipe), single.ErasePattern(wipe));
  // Phase 5: full drain; the merged result must agree everywhere.
  sharded.Compact();
  single.Compact();
  EXPECT_EQ(sharded.size(), single.size());
  EXPECT_EQ(sharded.Match(IdPattern{}), single.Match(IdPattern{}));
  std::string err;
  EXPECT_TRUE(sharded.CheckInvariants(&err)) << err;
}

TEST(ShardedHexastoreTest, StatsAggregateAndMetersCount) {
  ShardedOptions opts;
  opts.shards = 2;
  opts.delta.compact_threshold = 32;
  ShardedHexastore sharded(opts);
  Rng rng(0x57a75);
  for (int i = 0; i < 300; ++i) {
    sharded.Insert(RandomTriple(&rng, 40, 6, 40));
  }
  const DeltaStats stats = sharded.Stats();
  EXPECT_EQ(stats.base_triples + stats.staged_inserts -
                stats.staged_tombstones,
            sharded.size());
  // The facade's meters live in shard 0's registry and exports carry
  // the hexa_shard_* series.
  const std::string text = sharded.MetricsText();
  EXPECT_NE(text.find("hexa_shard_count"), std::string::npos);
  EXPECT_NE(text.find("hexa_shard_routed_writes_total"), std::string::npos);
  EXPECT_NE(text.find("hexa_shard_0_triples"), std::string::npos);
  EXPECT_NE(text.find("hexa_shard_1_triples"), std::string::npos);
}

TEST(ShardedHexastoreTest, NormalizeClampsZeroShards) {
  ShardedOptions opts;
  opts.shards = 0;
  const std::string note = opts.Normalize();
  EXPECT_EQ(opts.shards, 1u);
  EXPECT_NE(note.find("clamped"), std::string::npos);
}

}  // namespace
}  // namespace hexastore
