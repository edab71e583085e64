// Unit and property tests for the core Hexastore: all eight access
// patterns, shared-list identities from paper §4.1, updates, bulk load,
// and the structural invariants.
#include <gtest/gtest.h>

#include <set>

#include "core/hexastore.h"
#include "util/rng.h"

namespace hexastore {
namespace {

IdTripleVec FigureOneData() {
  // Encodes the paper's Figure 1 example with small ids:
  // subjects ID1..ID4 = 1..4; properties: type=10, teacherOf=11,
  // bachelorFrom=12, mastersFrom=13, phdFrom=14, worksFor=15, advisor=16,
  // teachingAssist=17, takesCourse=18; objects: FullProfessor=20,
  // AI=21, MIT=22, Cambridge=23, Yale=24, AssocProfessor=25,
  // DataBases=26, Stanford=27, GradStudent=28, Princeton=29, Columbia=30.
  return {
      {1, 10, 20}, {1, 11, 21}, {1, 12, 22}, {1, 13, 23}, {1, 14, 24},
      {2, 10, 25}, {2, 15, 22}, {2, 11, 26}, {2, 12, 24}, {2, 14, 27},
      {3, 10, 28}, {3, 16, 2},  {3, 17, 21}, {3, 12, 27}, {3, 13, 29},
      {4, 10, 28}, {4, 16, 1},  {4, 18, 26}, {4, 12, 30},
  };
}

TEST(HexastoreTest, InsertAndContains) {
  Hexastore store;
  EXPECT_TRUE(store.Insert({1, 2, 3}));
  EXPECT_FALSE(store.Insert({1, 2, 3}));
  EXPECT_TRUE(store.Contains({1, 2, 3}));
  EXPECT_FALSE(store.Contains({1, 2, 4}));
  EXPECT_EQ(store.size(), 1u);
}

TEST(HexastoreTest, EraseRemovesEverywhere) {
  Hexastore store;
  store.Insert({1, 2, 3});
  EXPECT_TRUE(store.Erase({1, 2, 3}));
  EXPECT_FALSE(store.Erase({1, 2, 3}));
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.objects(1, 2), nullptr);
  EXPECT_EQ(store.predicates(1, 3), nullptr);
  EXPECT_EQ(store.subjects(2, 3), nullptr);
  EXPECT_EQ(store.predicates_of_subject(1), nullptr);
  EXPECT_EQ(store.subjects_of_object(3), nullptr);
  std::string err;
  EXPECT_TRUE(store.CheckInvariants(&err)) << err;
}

TEST(HexastoreTest, EraseKeepsSiblingData) {
  Hexastore store;
  store.Insert({1, 2, 3});
  store.Insert({1, 2, 4});
  store.Insert({1, 5, 3});
  store.Erase({1, 2, 3});
  EXPECT_TRUE(store.Contains({1, 2, 4}));
  EXPECT_TRUE(store.Contains({1, 5, 3}));
  // (1,2) pair still exists because o(1,2) still holds 4.
  ASSERT_NE(store.objects(1, 2), nullptr);
  EXPECT_EQ(*store.objects(1, 2), (IdVec{4}));
  // p(1,3) now only contains 5.
  ASSERT_NE(store.predicates(1, 3), nullptr);
  EXPECT_EQ(*store.predicates(1, 3), (IdVec{5}));
  std::string err;
  EXPECT_TRUE(store.CheckInvariants(&err)) << err;
}

TEST(HexastoreTest, SharedListIdentities) {
  // Paper §4.1: op_y(s_x) == os_x(p_y) etc. Our pool makes them literally
  // the same object; check pointer equality through the accessors.
  Hexastore store;
  store.BulkLoad(FigureOneData());
  // o(s=2, p=12) reachable from both spo and pso sides is one list.
  const IdVec* o1 = store.objects(2, 12);
  ASSERT_NE(o1, nullptr);
  EXPECT_EQ(*o1, (IdVec{24}));
  // p(s=3, o=27): properties relating ID3 to Stanford = {bachelorFrom}.
  const IdVec* p1 = store.predicates(3, 27);
  ASSERT_NE(p1, nullptr);
  EXPECT_EQ(*p1, (IdVec{12}));
  // s(p=14, o=27): subjects with phdFrom Stanford = {ID2}.
  const IdVec* s1 = store.subjects(14, 27);
  ASSERT_NE(s1, nullptr);
  EXPECT_EQ(*s1, (IdVec{2}));
}

TEST(HexastoreTest, PaperOpsExample) {
  // Paper §4.1: "the ops indexing for the data in Figure 1 includes a
  // property vector for the object 'MIT'. This property vector contains
  // two property entries, namely bachelorFrom and worksFor", with subject
  // lists {ID1} and {ID2}.
  Hexastore store;
  store.BulkLoad(FigureOneData());
  const Id mit = 22;
  const IdVec* props = store.predicates_of_object(mit);
  ASSERT_NE(props, nullptr);
  EXPECT_EQ(*props, (IdVec{12, 15}));  // bachelorFrom, worksFor
  EXPECT_EQ(*store.subjects(12, mit), (IdVec{1}));
  EXPECT_EQ(*store.subjects(15, mit), (IdVec{2}));

  // "the osp indexing includes a subject vector for 'Stanford' ... two
  // subject entries, ID2 and ID3 ... lists contain phdFrom and
  // bachelorFrom respectively."
  const Id stanford = 27;
  const IdVec* subs = store.subjects_of_object(stanford);
  ASSERT_NE(subs, nullptr);
  EXPECT_EQ(*subs, (IdVec{2, 3}));
  EXPECT_EQ(*store.predicates(2, stanford), (IdVec{14}));
  EXPECT_EQ(*store.predicates(3, stanford), (IdVec{12}));
}

TEST(HexastoreTest, ScanFullyBound) {
  Hexastore store;
  store.Insert({1, 2, 3});
  EXPECT_EQ(store.Match({1, 2, 3}), (IdTripleVec{{1, 2, 3}}));
  EXPECT_TRUE(store.Match({1, 2, 4}).empty());
}

TEST(HexastoreTest, ScanAllEightPatterns) {
  Hexastore store;
  store.BulkLoad(FigureOneData());
  const IdTripleVec all = store.Match(IdPattern{});
  EXPECT_EQ(all.size(), FigureOneData().size());

  // (s,p,?): ID1 bachelorFrom -> MIT.
  EXPECT_EQ(store.Match({1, 12, kInvalidId}), (IdTripleVec{{1, 12, 22}}));
  // (s,?,o): ID2 ? MIT -> worksFor.
  EXPECT_EQ(store.Match({2, kInvalidId, 22}), (IdTripleVec{{2, 15, 22}}));
  // (?,p,o): ? type GradStudent -> ID3, ID4.
  EXPECT_EQ(store.Match({kInvalidId, 10, 28}),
            (IdTripleVec{{3, 10, 28}, {4, 10, 28}}));
  // (s,?,?): all five ID1 triples.
  EXPECT_EQ(store.Match({1, kInvalidId, kInvalidId}).size(), 5u);
  // (?,p,?): all four type triples.
  EXPECT_EQ(store.Match({kInvalidId, 10, kInvalidId}).size(), 4u);
  // (?,?,o): everything relating to MIT.
  EXPECT_EQ(store.Match({kInvalidId, kInvalidId, 22}),
            (IdTripleVec{{1, 12, 22}, {2, 15, 22}}));
}

TEST(HexastoreTest, VectorAccessorsAreSorted) {
  Hexastore store;
  store.BulkLoad(FigureOneData());
  for (Id s = 1; s <= 4; ++s) {
    const IdVec* ps = store.predicates_of_subject(s);
    ASSERT_NE(ps, nullptr);
    EXPECT_TRUE(IsStrictlySorted(*ps));
    const IdVec* os = store.objects_of_subject(s);
    ASSERT_NE(os, nullptr);
    EXPECT_TRUE(IsStrictlySorted(*os));
  }
  EXPECT_TRUE(IsStrictlySorted(*store.subjects_of_predicate(10)));
  EXPECT_TRUE(IsStrictlySorted(*store.objects_of_predicate(10)));
}

TEST(HexastoreTest, BulkLoadEqualsIncremental) {
  IdTripleVec data = FigureOneData();
  // Duplicate some rows: bulk load must dedupe.
  data.push_back(data[0]);
  data.push_back(data[5]);

  Hexastore bulk;
  bulk.BulkLoad(data);
  Hexastore inc;
  for (const auto& t : data) {
    inc.Insert(t);
  }
  EXPECT_EQ(bulk.size(), inc.size());
  EXPECT_EQ(bulk.Match(IdPattern{}), inc.Match(IdPattern{}));
  std::string err;
  EXPECT_TRUE(bulk.CheckInvariants(&err)) << err;
  EXPECT_TRUE(inc.CheckInvariants(&err)) << err;
}

// Regression: BulkLoad into a NON-empty store must merge the batch with
// the existing contents and dedup against them, not just within the
// batch. The DeltaHexastore compaction drain depends on this.
TEST(HexastoreTest, BulkLoadIntoNonEmptyStoreMergesAndDedups) {
  Hexastore store;
  std::set<IdTriple> oracle;
  for (Id s = 1; s <= 6; ++s) {
    for (Id p = 1; p <= 3; ++p) {
      IdTriple t{s, p, s + p};
      store.Insert(t);
      oracle.insert(t);
    }
  }
  IdTripleVec batch;
  batch.push_back({1, 1, 2});    // duplicate of an existing triple
  batch.push_back({9, 9, 9});    // brand new
  batch.push_back({9, 9, 9});    // duplicate within the batch
  batch.push_back({1, 1, 99});   // extends an existing o(s,p) list
  batch.push_back({1, 1, 1});    // sorts before existing list content
  for (const auto& t : batch) {
    oracle.insert(t);
  }
  store.BulkLoad(batch);
  EXPECT_EQ(store.size(), oracle.size());
  EXPECT_EQ(store.Match(IdPattern{}),
            IdTripleVec(oracle.begin(), oracle.end()));
  std::string err;
  EXPECT_TRUE(store.CheckInvariants(&err)) << err;
}

// Repeated non-empty bulk loads with overlap behave like one big load.
TEST(HexastoreTest, ChainedBulkLoadsEqualSingleLoad) {
  Rng rng(0xb17c);
  IdTripleVec all;
  Hexastore chained;
  for (int round = 0; round < 5; ++round) {
    IdTripleVec batch;
    for (int i = 0; i < 200; ++i) {
      batch.push_back(IdTriple{1 + rng.Uniform(20), 1 + rng.Uniform(6),
                               1 + rng.Uniform(20)});
    }
    chained.BulkLoad(batch);
    all.insert(all.end(), batch.begin(), batch.end());
  }
  Hexastore once;
  once.BulkLoad(all);
  EXPECT_EQ(chained.size(), once.size());
  EXPECT_EQ(chained.Match(IdPattern{}), once.Match(IdPattern{}));
  std::string err;
  EXPECT_TRUE(chained.CheckInvariants(&err)) << err;
}

TEST(HexastoreTest, BulkLoadEmptyBatchIsNoOp) {
  Hexastore store;
  store.Insert({1, 2, 3});
  store.BulkLoad({});
  EXPECT_EQ(store.size(), 1u);
  std::string err;
  EXPECT_TRUE(store.CheckInvariants(&err)) << err;
}

TEST(HexastoreTest, ClearResets) {
  Hexastore store;
  store.BulkLoad(FigureOneData());
  store.Clear();
  EXPECT_EQ(store.size(), 0u);
  EXPECT_TRUE(store.Match(IdPattern{}).empty());
  EXPECT_TRUE(store.Insert({1, 2, 3}));
}

TEST(HexastoreTest, CountAndExists) {
  Hexastore store;
  store.BulkLoad(FigureOneData());
  EXPECT_EQ(store.CountMatches({kInvalidId, 10, kInvalidId}), 4u);
  EXPECT_TRUE(store.MatchesAny({kInvalidId, 10, 28}));
  EXPECT_FALSE(store.MatchesAny({kInvalidId, 10, 99}));
}

TEST(HexastoreTest, StatsCountsKeyEntries) {
  Hexastore store;
  store.Insert({1, 2, 3});
  MemoryStats stats = store.Stats();
  // A single triple with three unique resources: 6 headers + 6 vector
  // entries + 3 terminal entries = 15 key entries (the 5x bound: 15 = 5*3).
  EXPECT_EQ(stats.key_entries, 15u);
  EXPECT_GT(stats.Total(), 0u);
  EXPECT_FALSE(stats.ToString().empty());
}

TEST(HexastoreTest, MemoryBytesMatchesStatsTotal) {
  Hexastore store;
  store.BulkLoad(FigureOneData());
  EXPECT_EQ(store.MemoryBytes(), store.Stats().Total());
}

TEST(HexastoreTest, NameIsHexastore) {
  Hexastore store;
  EXPECT_EQ(store.name(), "Hexastore");
}

TEST(HexastoreTest, DistinctCounts) {
  Hexastore store;
  store.BulkLoad(FigureOneData());
  EXPECT_EQ(store.DistinctSubjects(), 4u);   // ID1..ID4
  EXPECT_EQ(store.DistinctPredicates(), 9u);
  // Objects: 20,21,22,23,24,25,26,27,28,29,30 plus ID1 and ID2 (advisor
  // targets) = 13.
  EXPECT_EQ(store.DistinctObjects(), 13u);
}

TEST(HexastoreTest, BulkLoadOntoExistingData) {
  Hexastore store;
  store.Insert({1, 2, 3});
  store.Insert({4, 5, 6});
  // Bulk load overlapping data on top of the incremental inserts.
  store.BulkLoad({{1, 2, 3}, {7, 8, 9}, {1, 2, 4}});
  EXPECT_EQ(store.size(), 4u);
  EXPECT_TRUE(store.Contains({1, 2, 3}));
  EXPECT_TRUE(store.Contains({4, 5, 6}));
  EXPECT_TRUE(store.Contains({7, 8, 9}));
  EXPECT_TRUE(store.Contains({1, 2, 4}));
  std::string err;
  EXPECT_TRUE(store.CheckInvariants(&err)) << err;
}

TEST(HexastoreTest, BulkLoadDeduplicatesWithinBatch) {
  Hexastore store;
  // The same triple repeated in one batch must count once everywhere.
  store.BulkLoad({{1, 2, 3}, {1, 2, 3}, {1, 2, 3}, {4, 2, 3}, {4, 2, 3}});
  EXPECT_EQ(store.size(), 2u);
  ASSERT_NE(store.objects(1, 2), nullptr);
  EXPECT_EQ(store.objects(1, 2)->size(), 1u);
  ASSERT_NE(store.subjects(2, 3), nullptr);
  EXPECT_EQ((*store.subjects(2, 3)), (IdVec{1, 4}));
  std::string err;
  EXPECT_TRUE(store.CheckInvariants(&err)) << err;
}

TEST(HexastoreTest, EraseAfterBulkLoadKeepsInvariants) {
  Hexastore store;
  store.BulkLoad(FigureOneData());
  const std::size_t initial = store.size();
  EXPECT_TRUE(store.Erase({1, 10, 20}));
  EXPECT_FALSE(store.Erase({1, 10, 20}));  // already gone
  EXPECT_TRUE(store.Erase({3, 16, 2}));
  EXPECT_EQ(store.size(), initial - 2);
  EXPECT_FALSE(store.Contains({1, 10, 20}));
  std::string err;
  EXPECT_TRUE(store.CheckInvariants(&err)) << err;
  // And bulk-loading the erased triples back restores them exactly once.
  store.BulkLoad({{1, 10, 20}, {3, 16, 2}});
  EXPECT_EQ(store.size(), initial);
  EXPECT_TRUE(store.CheckInvariants(&err)) << err;
}

// BulkLoad counts the triples its o(s,p) merges add instead of walking
// every list: repeats within a batch and triples already stored must
// not count.
TEST(HexastoreTest, BulkLoadIntoNonEmptyStoreCountsOnlyNewTriples) {
  Rng rng(0x5123);
  Hexastore store;
  std::set<IdTriple> oracle;
  for (int round = 0; round < 6; ++round) {
    IdTripleVec batch;
    for (int i = 0; i < 300; ++i) {
      batch.push_back(IdTriple{1 + rng.Uniform(15), 1 + rng.Uniform(5),
                               1 + rng.Uniform(15)});
    }
    // Repeats within the batch and a slice already in the store.
    batch.push_back(batch.front());
    batch.push_back(batch.back());
    for (const IdTriple& t : oracle) {
      if (rng.Bernoulli(0.1)) {
        batch.push_back(t);
      }
    }
    oracle.insert(batch.begin(), batch.end());
    store.BulkLoad(batch);
    ASSERT_EQ(store.size(), oracle.size()) << "round " << round;
    ASSERT_EQ(store.size(), store.pool().EntryCount(ListFamily::kObjects));
    std::string err;
    ASSERT_TRUE(store.CheckInvariants(&err)) << err;
  }
}

// BulkErase must leave exactly what one Erase per triple leaves. Each
// erase set mixes a random sample, every triple of one subject, one
// predicate and one object (so terminal lists and header vectors empty
// out), absent triples and repeats.
TEST(HexastoreTest, BulkEraseEqualsPointErases) {
  Rng rng(0xB0E5);
  for (int round = 0; round < 8; ++round) {
    const Id universe = 6 + rng.Uniform(10);
    IdTripleVec data;
    for (int i = 0; i < 600; ++i) {
      data.push_back(IdTriple{1 + rng.Uniform(universe),
                              1 + rng.Uniform(universe / 2 + 1),
                              1 + rng.Uniform(universe)});
    }
    Hexastore bulk;
    Hexastore point;
    bulk.BulkLoad(data);
    point.BulkLoad(data);
    const IdTripleVec original = bulk.Match(IdPattern{});

    IdTripleVec erase;
    for (const IdTriple& t : original) {
      if (rng.Bernoulli(0.3)) {
        erase.push_back(t);
      }
    }
    const IdTriple anchor = original[rng.Uniform(original.size())];
    for (const IdPattern& q : {IdPattern{anchor.s, 0, 0},
                               IdPattern{0, anchor.p, 0},
                               IdPattern{0, 0, anchor.o}}) {
      for (const IdTriple& t : bulk.Match(q)) {
        erase.push_back(t);
      }
    }
    erase.push_back(IdTriple{universe + 1, 1, 1});  // absent subject
    erase.push_back(IdTriple{anchor.s, anchor.p, universe + 7});  // absent
    erase.push_back(erase.front());                               // repeat

    bulk.BulkErase(erase);
    for (const IdTriple& t : erase) {
      point.Erase(t);
    }
    ASSERT_EQ(bulk.Match(IdPattern{}), point.Match(IdPattern{}))
        << "round " << round;
    EXPECT_EQ(bulk.size(), point.size());
    EXPECT_EQ(bulk.size(), bulk.pool().EntryCount(ListFamily::kObjects));
    EXPECT_EQ(bulk.predicates_of_subject(anchor.s), nullptr);
    EXPECT_EQ(bulk.subjects_of_predicate(anchor.p), nullptr);
    EXPECT_EQ(bulk.subjects_of_object(anchor.o), nullptr);
    EXPECT_EQ(bulk.DistinctSubjects(), point.DistinctSubjects());
    EXPECT_EQ(bulk.DistinctPredicates(), point.DistinctPredicates());
    EXPECT_EQ(bulk.DistinctObjects(), point.DistinctObjects());
    std::string err;
    ASSERT_TRUE(bulk.CheckInvariants(&err)) << err;

    // Erasing what a BulkLoad added round-trips (the objects lie past
    // the universe, so every added triple is new).
    const IdTripleVec erased_state = bulk.Match(IdPattern{});
    IdTripleVec added;
    for (int i = 0; i < 200; ++i) {
      added.push_back(IdTriple{1 + rng.Uniform(universe + 3),
                               1 + rng.Uniform(universe),
                               universe + 1 + rng.Uniform(5)});
    }
    bulk.BulkLoad(added);
    bulk.BulkErase(added);
    EXPECT_EQ(bulk.Match(IdPattern{}), erased_state) << "round " << round;
    ASSERT_TRUE(bulk.CheckInvariants(&err)) << err;
  }
}

TEST(HexastoreTest, BulkEraseOfEverythingEmptiesTheStore) {
  Hexastore store;
  store.BulkLoad(FigureOneData());
  IdTripleVec all = store.Match(IdPattern{});
  store.BulkErase(all);
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.DistinctSubjects(), 0u);
  EXPECT_EQ(store.DistinctPredicates(), 0u);
  EXPECT_EQ(store.DistinctObjects(), 0u);
  for (int f = 0; f < 3; ++f) {
    EXPECT_EQ(store.pool().ListCount(static_cast<ListFamily>(f)), 0u);
  }
  std::string err;
  EXPECT_TRUE(store.CheckInvariants(&err)) << err;
  store.BulkErase(all);  // erasing from an empty store is a no-op
  EXPECT_EQ(store.size(), 0u);
}

// ---- Randomized property tests ------------------------------------------

class HexastorePropertyTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HexastorePropertyTest, RandomMutationsKeepInvariants) {
  Rng rng(GetParam());
  Hexastore store;
  std::set<IdTriple> ref;
  for (int i = 0; i < 3000; ++i) {
    IdTriple t{1 + rng.Uniform(12), 1 + rng.Uniform(6), 1 + rng.Uniform(12)};
    if (rng.Bernoulli(0.65)) {
      EXPECT_EQ(store.Insert(t), ref.insert(t).second);
    } else {
      EXPECT_EQ(store.Erase(t), ref.erase(t) > 0);
    }
  }
  EXPECT_EQ(store.size(), ref.size());
  EXPECT_EQ(store.Match(IdPattern{}), IdTripleVec(ref.begin(), ref.end()));
  std::string err;
  EXPECT_TRUE(store.CheckInvariants(&err)) << err;
}

TEST_P(HexastorePropertyTest, ScanMatchesFilteredReference) {
  Rng rng(GetParam() ^ 0xfeed);
  Hexastore store;
  std::set<IdTriple> ref;
  for (int i = 0; i < 800; ++i) {
    IdTriple t{1 + rng.Uniform(9), 1 + rng.Uniform(5), 1 + rng.Uniform(9)};
    store.Insert(t);
    ref.insert(t);
  }
  // All 8 bound/unbound shapes, several random probes each.
  for (int mask = 0; mask < 8; ++mask) {
    for (int probe = 0; probe < 20; ++probe) {
      IdPattern q;
      if (mask & 1) q.s = 1 + rng.Uniform(10);
      if (mask & 2) q.p = 1 + rng.Uniform(6);
      if (mask & 4) q.o = 1 + rng.Uniform(10);
      IdTripleVec expect;
      for (const auto& t : ref) {
        if (q.Matches(t)) {
          expect.push_back(t);
        }
      }
      EXPECT_EQ(store.Match(q), expect)
          << "mask=" << mask << " s=" << q.s << " p=" << q.p
          << " o=" << q.o;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HexastorePropertyTest,
                         ::testing::Values(3, 17, 2718, 31415));

}  // namespace
}  // namespace hexastore
