// Unit tests for the greedy BGP planner, including the delta-aware
// cardinality estimates a DeltaHexastore serves mid-delta, the
// estimate memo, and the golden EXPLAIN rendering.
#include <gtest/gtest.h>

#include "core/hexastore.h"
#include "delta/delta_hexastore.h"
#include "query/planner.h"
#include "query/profile.h"

namespace hexastore {
namespace {

TriplePattern TP(PatternTerm s, PatternTerm p, PatternTerm o) {
  return {std::move(s), std::move(p), std::move(o)};
}
PatternTerm B(const std::string& iri) {
  return PatternTerm::Bound(Term::Iri(iri));
}
PatternTerm V(const std::string& name) {
  return PatternTerm::Variable(name);
}

class PlannerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // p1 is rare (1 triple), p2 is common (100 triples).
    dict_ = std::make_unique<Dictionary>();
    auto add = [&](const std::string& s, const std::string& p,
                   const std::string& o) {
      store_.Insert(dict_->Encode(
          {Term::Iri(s), Term::Iri(p), Term::Iri(o)}));
    };
    add("s0", "p1", "o0");
    for (int i = 0; i < 100; ++i) {
      add("s" + std::to_string(i), "p2", "x" + std::to_string(i % 10));
    }
  }

  Hexastore store_;
  std::unique_ptr<Dictionary> dict_;
};

TEST_F(PlannerTest, OrderIsPermutation) {
  std::vector<TriplePattern> patterns = {
      TP(V("a"), B("p2"), V("b")),
      TP(V("b"), B("p1"), V("c")),
      TP(V("c"), B("p2"), V("d")),
  };
  CompiledBgp bgp = CompileBgp(patterns, *dict_);
  auto order = PlanBgp(store_, bgp);
  ASSERT_EQ(order.size(), 3u);
  std::vector<bool> seen(3, false);
  for (std::size_t idx : order) {
    ASSERT_LT(idx, 3u);
    EXPECT_FALSE(seen[idx]);
    seen[idx] = true;
  }
}

TEST_F(PlannerTest, SelectivePatternGoesFirst) {
  std::vector<TriplePattern> patterns = {
      TP(V("x"), B("p2"), V("y")),  // 100 matches
      TP(V("x"), B("p1"), V("z")),  // 1 match
  };
  CompiledBgp bgp = CompileBgp(patterns, *dict_);
  auto order = PlanBgp(store_, bgp);
  EXPECT_EQ(order[0], 1u);  // the selective p1 pattern first
}

TEST_F(PlannerTest, PrefersConnectedPatterns) {
  // Pattern 1 is disconnected from pattern 0; pattern 2 shares ?x.
  std::vector<TriplePattern> patterns = {
      TP(B("s0"), B("p1"), V("x")),
      TP(V("unrelated"), B("p2"), V("other")),
      TP(V("x"), B("p2"), V("y")),
  };
  CompiledBgp bgp = CompileBgp(patterns, *dict_);
  auto order = PlanBgp(store_, bgp);
  EXPECT_EQ(order[0], 0u);
  EXPECT_EQ(order[1], 2u);  // connected before the Cartesian one
  EXPECT_EQ(order[2], 1u);
}

TEST_F(PlannerTest, CardinalityEstimateUsesConstants) {
  std::vector<bool> no_bound(2, false);
  CompiledBgp bgp = CompileBgp(
      {TP(V("x"), B("p1"), V("y")), TP(V("x"), B("p2"), V("y"))}, *dict_);
  auto est1 = EstimateCardinality(store_, bgp.patterns[0], no_bound);
  auto est2 = EstimateCardinality(store_, bgp.patterns[1], no_bound);
  EXPECT_EQ(est1, 1u);
  EXPECT_EQ(est2, 100u);
}

TEST_F(PlannerTest, BoundVarsReduceEstimate) {
  CompiledBgp bgp =
      CompileBgp({TP(V("x"), B("p2"), V("y"))}, *dict_);
  std::vector<bool> unbound(bgp.vars.size(), false);
  std::vector<bool> bound(bgp.vars.size(), true);
  EXPECT_LT(EstimateCardinality(store_, bgp.patterns[0], bound),
            EstimateCardinality(store_, bgp.patterns[0], unbound));
}

TEST_F(PlannerTest, ProfiledPlanMatchesUnprofiledPlan) {
  std::vector<TriplePattern> patterns = {
      TP(V("a"), B("p2"), V("b")),
      TP(V("b"), B("p1"), V("c")),
      TP(V("c"), B("p2"), V("d")),
  };
  CompiledBgp bgp = CompileBgp(patterns, *dict_);
  PlanProfile profile;
  EXPECT_EQ(PlanBgp(store_, bgp, &profile), PlanBgp(store_, bgp));
  ASSERT_EQ(profile.steps.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(profile.steps[i].pattern_index, PlanBgp(store_, bgp)[i]);
  }
}

TEST_F(PlannerTest, MemoBoundsEstimateProbes) {
  // Three patterns, pairwise variable-disjoint: after the first pick no
  // other pattern's variables get bound, so every memo entry survives
  // and steps 2 and 3 probe the store zero times. Naive O(n^2) probing
  // would issue 3 + 2 + 1 = 6 probes; the memo caps it at 3.
  std::vector<TriplePattern> patterns = {
      TP(V("a"), B("p2"), V("b")),
      TP(V("c"), B("p1"), V("d")),
      TP(V("e"), B("p2"), V("f")),
  };
  CompiledBgp bgp = CompileBgp(patterns, *dict_);
  PlanProfile profile;
  PlanBgp(store_, bgp, &profile);
  EXPECT_EQ(profile.estimate_probes, 3u);
  EXPECT_EQ(profile.memo_hits, 3u);  // steps 2 and 3 reuse entries
}

TEST_F(PlannerTest, MemoInvalidatesOnlyPatternsTouchingNewBindings) {
  // A chain a-b-c: picking the ?b pattern binds ?b, which invalidates
  // both neighbours; the disconnected ?x pattern keeps its memo entry
  // throughout.
  std::vector<TriplePattern> patterns = {
      TP(V("a"), B("p2"), V("b")),      // invalidated when ?b binds
      TP(V("b"), B("p1"), V("c")),      // picked first (est 1)
      TP(V("c"), B("p2"), V("d")),      // invalidated when ?c binds
      TP(V("x"), B("p2"), V("y")),      // never invalidated
  };
  CompiledBgp bgp = CompileBgp(patterns, *dict_);
  PlanProfile profile;
  PlanBgp(store_, bgp, &profile);
  // Step 1 probes all 4. Picking pattern 1 binds ?b and ?c, so patterns
  // 0 and 2 re-probe at step 2 while pattern 3 memo-hits. Binding the
  // picked pattern's remaining vars invalidates the other neighbour
  // once more; the disconnected pattern never re-probes.
  EXPECT_LT(profile.estimate_probes, 10u);  // naive would be 4+3+2+1
  EXPECT_GE(profile.memo_hits, 1u);
  // The memoized plan still equals the recompute-everything plan.
  EXPECT_EQ(PlanBgp(store_, bgp, nullptr), PlanBgp(store_, bgp));
}

TEST_F(PlannerTest, GoldenExplain) {
  // Pinned EXPLAIN text: plan-time facts only, so the rendering is
  // stable across runs and machines for a fixed store state.
  std::vector<TriplePattern> patterns = {
      TP(V("x"), B("p2"), V("y")),
      TP(V("x"), B("p1"), V("z")),
  };
  const std::string expected =
      "plan: bgp, 2 patterns, estimate_probes=3, memo_hits=0\n"
      "  step 1: pattern[1] (?x <p1> ?z)  index=pso bound=1 est=1\n"
      "  step 2: pattern[0] (?x <p2> ?y)  index=spo bound=2 est=10\n";
  EXPECT_EQ(ExplainBgp(store_, *dict_, patterns), expected);
}

TEST_F(PlannerTest, GoldenExplainUnknownConstant) {
  std::vector<TriplePattern> patterns = {
      TP(V("x"), B("never-seen"), V("y")),
  };
  EXPECT_EQ(ExplainBgp(store_, *dict_, patterns),
            "plan: bgp, empty result (constant term not in dictionary)\n");
}

// -- Delta-aware estimates (DeltaHexastore::EstimateMatches) --------------

class DeltaPlannerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dict_ = std::make_unique<Dictionary>();
    p1_ = dict_->Intern(Term::Iri("p1"));
    p2_ = dict_->Intern(Term::Iri("p2"));
    // 100 base triples with p2, fully compacted.
    IdTripleVec base;
    for (Id i = 0; i < 100; ++i) {
      base.push_back(IdTriple{Intern("s", i), p2_, Intern("x", i % 10)});
    }
    std::sort(base.begin(), base.end());
    store_ = std::make_unique<DeltaHexastore>(
        DeltaOptions{.compact_threshold = 1u << 20});
    store_->BulkLoad(base);
  }

  Id Intern(const std::string& prefix, Id i) {
    return dict_->Intern(Term::Iri(prefix + std::to_string(i)));
  }

  std::unique_ptr<Dictionary> dict_;
  std::unique_ptr<DeltaHexastore> store_;
  Id p1_ = 0;
  Id p2_ = 0;
};

TEST_F(DeltaPlannerTest, StagedInsertsCountExactly) {
  // One staged p1 triple and 20 staged p2 triples, none compacted.
  store_->Insert(IdTriple{Intern("s", 500), p1_, Intern("x", 500)});
  for (Id i = 0; i < 20; ++i) {
    store_->Insert(IdTriple{Intern("t", i), p2_, Intern("y", i)});
  }
  ASSERT_EQ(store_->StagedOps(), 21u);
  EXPECT_EQ(store_->EstimateMatches(IdPattern{0, p1_, 0}), 1u);
  EXPECT_EQ(store_->EstimateMatches(IdPattern{0, p2_, 0}), 120u);
}

TEST_F(DeltaPlannerTest, TombstonesScaleTheBaseEstimate) {
  // Tombstone half the p2 triples (all of the base is p2, so the
  // uniform-selectivity model is exact here).
  IdTripleVec all = store_->Match(IdPattern{});
  for (std::size_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(store_->Erase(all[i]));
  }
  ASSERT_EQ(store_->Stats().staged_tombstones, 50u);
  EXPECT_EQ(store_->EstimateMatches(IdPattern{0, p2_, 0}), 50u);
  EXPECT_EQ(store_->EstimateMatches(IdPattern{}), 50u + 0u);
}

TEST_F(DeltaPlannerTest, PatternTombstoneZeroesTheEstimate) {
  store_->Insert(IdTriple{Intern("s", 500), p1_, Intern("x", 500)});
  ASSERT_EQ(store_->ErasePattern(IdPattern{0, p2_, 0}), 100u);
  EXPECT_EQ(store_->EstimateMatches(IdPattern{0, p2_, 0}), 0u);
  EXPECT_EQ(store_->EstimateMatches(IdPattern{0, p1_, 0}), 1u);
  // Unbound-p patterns subtract the suppressed predicate exactly.
  const Id s = Intern("s", 500);
  EXPECT_EQ(store_->EstimateMatches(IdPattern{s, 0, 0}), 1u);
}

TEST_F(DeltaPlannerTest, ReStagedInsertDedupAcrossLayers) {
  // The double-count regression: a triple sealed into a lower delta
  // layer, pattern-erased, then re-staged in the active buffer used to
  // be counted once per layer. The estimate must see exactly one.
  DeltaOptions options;
  options.compact_threshold = 2;
  options.l0_run_limit = 8;
  DeltaHexastore store(options);
  const IdTriple t1{1, 7, 1};
  const IdTriple t2{2, 8, 2};
  ASSERT_TRUE(store.Insert(t1));
  ASSERT_TRUE(store.Insert(t2));  // seals {t1, t2} into an L0 run
  ASSERT_GT(store.Stats().l0_runs, 0u);
  ASSERT_EQ(store.ErasePattern(IdPattern{0, 7, 0}), 1u);
  ASSERT_TRUE(store.Insert(t1));  // re-staged above its own tombstone
  ASSERT_EQ(store.size(), 2u);

  EXPECT_EQ(store.EstimateMatches(IdPattern{1, 0, 0}), 1u);
  EXPECT_EQ(store.EstimateMatches(IdPattern{}), 2u);
}

TEST_F(DeltaPlannerTest, FullyBoundPatternIsExact) {
  // Fully-bound patterns short-circuit through the verdict chain: the
  // estimate is the membership answer, not a scaled guess.
  IdTripleVec all = store_->Match(IdPattern{});
  ASSERT_TRUE(store_->Erase(all[0]));
  EXPECT_EQ(
      store_->EstimateMatches(IdPattern{all[0].s, all[0].p, all[0].o}), 0u);
  EXPECT_EQ(
      store_->EstimateMatches(IdPattern{all[1].s, all[1].p, all[1].o}), 1u);
  const IdTriple staged{Intern("s", 900), p1_, Intern("x", 900)};
  ASSERT_TRUE(store_->Insert(staged));
  EXPECT_EQ(store_->EstimateMatches(IdPattern{staged.s, staged.p, staged.o}),
            1u);
}

TEST_F(DeltaPlannerTest, PlanPrefersStagedSelectivePatternMidDelta) {
  // The selective pattern exists ONLY in the staging buffer: a planner
  // reading just the base would see zero for p1 and tie-break wrong; the
  // delta-aware estimate ranks it first.
  store_->Insert(IdTriple{Intern("s", 0), p1_, Intern("x", 500)});
  ASSERT_GT(store_->StagedOps(), 0u);
  CompiledBgp bgp = CompileBgp(
      {TriplePattern{PatternTerm::Variable("a"),
                     PatternTerm::Bound(Term::Iri("p2")),
                     PatternTerm::Variable("b")},
       TriplePattern{PatternTerm::Variable("a"),
                     PatternTerm::Bound(Term::Iri("p1")),
                     PatternTerm::Variable("c")}},
      *dict_);
  auto order = PlanBgp(*store_, bgp);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1u);  // the 1-match staged p1 pattern first
}

}  // namespace
}  // namespace hexastore
