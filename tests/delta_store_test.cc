// Unit tests of the delta staging buffer and the merging iterator: op
// staging/cancellation rules, the disjoint/subset side-list invariants,
// and MergedListCursor's sorted union-minus-tombstones walk.
#include <gtest/gtest.h>

#include <vector>

#include "delta/delta_store.h"
#include "delta/merged_list.h"

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
  EXPECT_EQ(delta.FindLists(ListFamily::kObjects, 1, 2), nullptr);
}

TEST(DeltaStoreTest, ReinsertCancelsTombstone) {
  DeltaStore delta;
  ASSERT_TRUE(delta.StageErase({1, 2, 3}, /*base_present=*/true));
  EXPECT_TRUE(delta.StageInsert({1, 2, 3}, /*base_present=*/true));
  EXPECT_TRUE(delta.empty());  // base copy shows through again
  EXPECT_EQ(delta.Lookup({1, 2, 3}), DeltaStore::Presence::kUnknown);
}

TEST(DeltaStoreTest, SideListsMirrorAllThreeFamilies) {
  DeltaStore delta;
  ASSERT_TRUE(delta.StageInsert({7, 8, 9}, false));
  const DeltaList* objects = delta.FindLists(ListFamily::kObjects, 7, 8);
  const DeltaList* predicates =
      delta.FindLists(ListFamily::kPredicates, 7, 9);
  const DeltaList* subjects = delta.FindLists(ListFamily::kSubjects, 8, 9);
  ASSERT_NE(objects, nullptr);
  ASSERT_NE(predicates, nullptr);
  ASSERT_NE(subjects, nullptr);
  EXPECT_EQ(objects->adds, IdVec{9});
  EXPECT_EQ(predicates->adds, IdVec{8});
  EXPECT_EQ(subjects->adds, IdVec{7});
  ASSERT_TRUE(delta.StageErase({7, 8, 1}, /*base_present=*/true));
  EXPECT_EQ(delta.FindLists(ListFamily::kObjects, 7, 8)->removes,
            IdVec{1});
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
  EXPECT_EQ(delta.FindLists(ListFamily::kObjects, 1, 2), nullptr);
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

// -- MergedListCursor -----------------------------------------------------

IdVec Walk(const IdVec* base, const IdVec* adds, const IdVec* removes) {
  IdVec out;
  for (MergedListCursor c(base, adds, removes); !c.done(); c.next()) {
    out.push_back(c.value());
  }
  return out;
}

TEST(MergedListCursorTest, AllInputsNull) {
  EXPECT_EQ(Walk(nullptr, nullptr, nullptr), IdVec{});
}

TEST(MergedListCursorTest, BaseOnly) {
  const IdVec base{1, 3, 5};
  EXPECT_EQ(Walk(&base, nullptr, nullptr), base);
}

TEST(MergedListCursorTest, AddsInterleaveWithBase) {
  const IdVec base{2, 5, 9};
  const IdVec adds{1, 4, 10};
  const IdVec expect{1, 2, 4, 5, 9, 10};
  EXPECT_EQ(Walk(&base, &adds, nullptr), expect);
}

TEST(MergedListCursorTest, RemovesDropBaseElements) {
  const IdVec base{1, 2, 3, 4, 5};
  const IdVec removes{1, 3, 5};
  const IdVec expect{2, 4};
  EXPECT_EQ(Walk(&base, nullptr, &removes), expect);
}

TEST(MergedListCursorTest, AddsAndRemovesTogether) {
  const IdVec base{2, 4, 6, 8};
  const IdVec adds{1, 5, 9};
  const IdVec removes{4, 8};
  const IdVec expect{1, 2, 5, 6, 9};
  EXPECT_EQ(Walk(&base, &adds, &removes), expect);
}

TEST(MergedListCursorTest, EverythingRemoved) {
  const IdVec base{1, 2};
  const IdVec removes{1, 2};
  EXPECT_EQ(Walk(&base, nullptr, &removes), IdVec{});
}

}  // namespace
}  // namespace hexastore
