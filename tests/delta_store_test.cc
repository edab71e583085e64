// Unit tests of the delta staging buffer: op staging/cancellation
// rules, the sorted insert and tombstone orders, and the settled insert
// chunks (shared by copies, exact under cancels).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "delta/delta_store.h"

namespace hexastore {
namespace {

TEST(DeltaStoreTest, StageInsertAndLookup) {
  DeltaStore delta;
  const IdTriple t{1, 2, 3};
  EXPECT_TRUE(delta.StageInsert(t, /*base_present=*/false));
  EXPECT_EQ(delta.Lookup(t), DeltaStore::Presence::kInserted);
  // Double insert is a no-op.
  EXPECT_FALSE(delta.StageInsert(t, false));
  EXPECT_EQ(delta.insert_count(), 1u);
  EXPECT_EQ(delta.size_delta(), 1);
}

TEST(DeltaStoreTest, InsertPresentInBaseIsNoOp) {
  DeltaStore delta;
  EXPECT_FALSE(delta.StageInsert({1, 2, 3}, /*base_present=*/true));
  EXPECT_TRUE(delta.empty());
  EXPECT_EQ(delta.Lookup({1, 2, 3}), DeltaStore::Presence::kUnknown);
}

TEST(DeltaStoreTest, EraseStagesTombstoneOnlyForBaseTriples) {
  DeltaStore delta;
  // Absent everywhere: nothing to erase.
  EXPECT_FALSE(delta.StageErase({1, 2, 3}, /*base_present=*/false));
  EXPECT_TRUE(delta.empty());
  // Present in base: tombstone.
  EXPECT_TRUE(delta.StageErase({1, 2, 3}, /*base_present=*/true));
  EXPECT_EQ(delta.Lookup({1, 2, 3}), DeltaStore::Presence::kErased);
  EXPECT_EQ(delta.tombstone_count(), 1u);
  EXPECT_EQ(delta.size_delta(), -1);
  // Double erase is a no-op.
  EXPECT_FALSE(delta.StageErase({1, 2, 3}, true));
}

TEST(DeltaStoreTest, EraseCancelsStagedInsert) {
  DeltaStore delta;
  ASSERT_TRUE(delta.StageInsert({1, 2, 3}, false));
  EXPECT_TRUE(delta.StageErase({1, 2, 3}, false));
  EXPECT_TRUE(delta.empty());
  EXPECT_EQ(delta.Lookup({1, 2, 3}), DeltaStore::Presence::kUnknown);
}

TEST(DeltaStoreTest, ReinsertCancelsTombstone) {
  DeltaStore delta;
  ASSERT_TRUE(delta.StageErase({1, 2, 3}, /*base_present=*/true));
  EXPECT_TRUE(delta.StageInsert({1, 2, 3}, /*base_present=*/true));
  EXPECT_TRUE(delta.empty());  // base copy shows through again
  EXPECT_EQ(delta.Lookup({1, 2, 3}), DeltaStore::Presence::kUnknown);
}

TEST(DeltaStoreTest, SortedInsertsAndTombstonesAreSorted) {
  DeltaStore delta;
  delta.StageInsert({3, 1, 1}, false);
  delta.StageInsert({1, 2, 9}, false);
  delta.StageInsert({1, 2, 4}, false);
  delta.StageErase({9, 9, 9}, true);
  delta.StageErase({2, 2, 2}, true);
  const IdTripleVec inserts = delta.SortedInserts();
  const IdTripleVec expect_inserts{{1, 2, 4}, {1, 2, 9}, {3, 1, 1}};
  EXPECT_EQ(inserts, expect_inserts);
  const IdTripleVec tombs = delta.SortedTombstones();
  const IdTripleVec expect_tombs{{2, 2, 2}, {9, 9, 9}};
  EXPECT_EQ(tombs, expect_tombs);
}

TEST(DeltaStoreTest, ClearDropsEverything) {
  DeltaStore delta;
  delta.StageInsert({1, 2, 3}, false);
  delta.StageErase({4, 5, 6}, true);
  delta.Clear();
  EXPECT_TRUE(delta.empty());
  EXPECT_EQ(delta.insert_count(), 0u);
  EXPECT_EQ(delta.tombstone_count(), 0u);
}

TEST(DeltaStoreTest, CopyIsIndependent) {
  DeltaStore delta;
  delta.StageInsert({1, 2, 3}, false);
  DeltaStore copy = delta;
  copy.StageInsert({4, 5, 6}, false);
  EXPECT_EQ(delta.op_count(), 1u);
  EXPECT_EQ(copy.op_count(), 2u);
  EXPECT_EQ(delta.Lookup({4, 5, 6}), DeltaStore::Presence::kUnknown);
}

// -- Settled insert chunks ------------------------------------------------

// The staged inserts matching `q`, sorted (a multiset: duplicates stay).
IdTripleVec ScanSorted(const DeltaStore& delta, const IdPattern& q) {
  IdTripleVec out;
  delta.ScanInserts(q, [&out](const IdTriple& t) { out.push_back(t); });
  std::sort(out.begin(), out.end());
  return out;
}

// One of the 8 bound/unbound IdPattern shapes, bound where `mask` says
// (4 = s, 2 = p, 1 = o) to the ids of `anchor`.
IdPattern Shape(const IdTriple& anchor, int mask) {
  return IdPattern{(mask & 4) != 0 ? anchor.s : kInvalidId,
                   (mask & 2) != 0 ? anchor.p : kInvalidId,
                   (mask & 1) != 0 ? anchor.o : kInvalidId};
}

// Every shape anchored at every triple of `expected` (and one absent
// triple) scans exactly the matching members of `expected`.
void ExpectScansMatch(const DeltaStore& delta,
                      const std::set<IdTriple>& expected) {
  ASSERT_EQ(delta.insert_count(), expected.size());
  std::vector<IdTriple> anchors(expected.begin(), expected.end());
  anchors.push_back({999, 999, 999});
  for (const IdTriple& anchor : anchors) {
    for (int mask = 0; mask < 8; ++mask) {
      const IdPattern q = Shape(anchor, mask);
      IdTripleVec want;
      for (const IdTriple& t : expected) {
        if (q.Matches(t)) {
          want.push_back(t);
        }
      }
      ASSERT_EQ(ScanSorted(delta, q), want) << "shape " << mask;
    }
  }
  EXPECT_EQ(delta.SortedInserts(),
            IdTripleVec(expected.begin(), expected.end()));
}

TEST(DeltaStoreTest, CopyOfSettledStoreScansIdentically) {
  DeltaStore delta;
  std::set<IdTriple> contents;
  for (Id i = 1; i <= 40; ++i) {
    const IdTriple t{i % 7 + 1, i % 3 + 1, i};
    ASSERT_TRUE(delta.StageInsert(t, false));
    contents.insert(t);
    if (i % 10 == 0) {
      delta.Settle();  // several chunks, merged binary-counter style
    }
  }
  ASSERT_TRUE(delta.StageInsert({50, 1, 50}, false));  // unsettled tail
  contents.insert({50, 1, 50});
  DeltaStore copy = delta;
  ASSERT_NO_FATAL_FAILURE(ExpectScansMatch(copy, contents));
  ASSERT_NO_FATAL_FAILURE(ExpectScansMatch(delta, contents));

  // Diverge: the copy cancels settled and unsettled inserts, revives
  // one, stages new ones and settles; the source keeps its contents.
  std::set<IdTriple> copy_contents = contents;
  for (const IdTriple t : {IdTriple{2, 2, 1}, IdTriple{3, 3, 2},
                           IdTriple{50, 1, 50}}) {
    ASSERT_TRUE(copy.StageErase(t, false));
    copy_contents.erase(t);
  }
  ASSERT_TRUE(copy.StageInsert({3, 3, 2}, false));
  copy_contents.insert({3, 3, 2});
  ASSERT_TRUE(copy.StageInsert({60, 2, 60}, false));
  copy_contents.insert({60, 2, 60});
  ASSERT_NO_FATAL_FAILURE(ExpectScansMatch(copy, copy_contents));
  copy.Settle();
  ASSERT_NO_FATAL_FAILURE(ExpectScansMatch(copy, copy_contents));
  ASSERT_NO_FATAL_FAILURE(ExpectScansMatch(delta, contents));
}

TEST(DeltaStoreTest, ReinsertOfSettledInsertIsEmittedOnce) {
  const IdTriple t{1, 2, 3};
  DeltaStore delta;
  ASSERT_TRUE(delta.StageInsert(t, false));
  ASSERT_TRUE(delta.StageInsert({4, 5, 6}, false));
  delta.Settle();
  ASSERT_TRUE(delta.StageErase(t, false));
  EXPECT_EQ(delta.Lookup(t), DeltaStore::Presence::kUnknown);
  ASSERT_NO_FATAL_FAILURE(ExpectScansMatch(delta, {{4, 5, 6}}));
  ASSERT_TRUE(delta.StageInsert(t, false));
  delta.Settle();
  ASSERT_NO_FATAL_FAILURE(ExpectScansMatch(delta, {t, {4, 5, 6}}));

  // Once a chunk merge has dropped the dead copy (the new two-entry
  // chunk merges into the old one), a re-insert stages a fresh one:
  // still emitted once.
  ASSERT_TRUE(delta.StageErase(t, false));
  ASSERT_TRUE(delta.StageInsert({7, 8, 9}, false));
  ASSERT_TRUE(delta.StageInsert({7, 8, 10}, false));
  delta.Settle();
  ASSERT_TRUE(delta.StageInsert(t, false));
  delta.Settle();
  ASSERT_NO_FATAL_FAILURE(
      ExpectScansMatch(delta, {t, {4, 5, 6}, {7, 8, 9}, {7, 8, 10}}));
}

TEST(DeltaStoreTest, PatternEraseHidesSettledInserts) {
  DeltaStore delta;
  ASSERT_TRUE(delta.StageInsert({1, 2, 3}, false));
  ASSERT_TRUE(delta.StageInsert({4, 2, 6}, false));
  ASSERT_TRUE(delta.StageInsert({7, 8, 9}, false));
  delta.Settle();
  ASSERT_TRUE(delta.StageInsert({5, 2, 5}, false));  // unsettled
  delta.StagePatternErase(2);
  EXPECT_EQ(delta.Lookup({1, 2, 3}), DeltaStore::Presence::kErased);
  ASSERT_NO_FATAL_FAILURE(ExpectScansMatch(delta, {{7, 8, 9}}));
  delta.Settle();
  ASSERT_NO_FATAL_FAILURE(ExpectScansMatch(delta, {{7, 8, 9}}));
}

TEST(DeltaStoreTest, EmptiedBufferHoldsNoChunks) {
  constexpr Id kBatch = 256;
  DeltaStore delta;
  for (Id i = 1; i <= kBatch; ++i) {
    ASSERT_TRUE(delta.StageInsert({i, 7, i}, false));
  }
  delta.Settle();
  const std::size_t settled = delta.MemoryBytes();
  for (Id i = 1; i <= kBatch; ++i) {
    ASSERT_TRUE(delta.StageErase({i, 7, i}, false));
  }
  EXPECT_TRUE(delta.empty());
  // The chunk's three sorted copies are gone, not carried as dead
  // entries into the next settle.
  EXPECT_GE(settled - delta.MemoryBytes(), 3 * kBatch * sizeof(IdTriple));
  ASSERT_NO_FATAL_FAILURE(ExpectScansMatch(delta, {}));
  // The freed slots take the next batch.
  ASSERT_TRUE(delta.StageInsert({1, 7, 1}, false));
  delta.Settle();
  ASSERT_NO_FATAL_FAILURE(ExpectScansMatch(delta, {{1, 7, 1}}));
}

}  // namespace
}  // namespace hexastore
