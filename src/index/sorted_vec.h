// Operations on sorted, duplicate-free id vectors.
//
// Sorted id vectors are the universal building block of the Hexastore: the
// second-level vectors of each permutation index and the shared terminal
// lists are all sorted vectors, which is what makes every first-step
// pairwise join a linear merge join (paper §4.2).
#ifndef HEXASTORE_INDEX_SORTED_VEC_H_
#define HEXASTORE_INDEX_SORTED_VEC_H_

#include <cstddef>
#include <vector>

#include "util/common.h"

namespace hexastore {

/// A sorted, duplicate-free vector of ids.
using IdVec = std::vector<Id>;

/// Inserts `id` keeping order; returns false if already present.
bool SortedInsert(IdVec* vec, Id id);

/// Removes `id`; returns false if absent.
bool SortedErase(IdVec* vec, Id id);

/// Removes every id of the sorted `ids` from `vec` by one linear
/// set-difference in place (ids absent from `vec` are ignored; `ids` may
/// repeat). Returns how many entries left `vec`. The bulk-erase
/// primitive: one pass per list however many of its ids go.
std::size_t SortedEraseAll(IdVec* vec, const IdVec& ids);

/// Binary-search membership test.
bool SortedContains(const IdVec& vec, Id id);

/// Sorts and deduplicates in place (bulk-load path).
void SortUnique(IdVec* vec);

/// Finalizes a vector whose first `sorted_prefix` elements are sorted and
/// duplicate-free while the appended tail is arbitrary: sorts the tail,
/// merges it in linearly, and drops duplicates (including tail elements
/// already present in the prefix). The incremental bulk-load primitive.
void SortedMergeTail(IdVec* vec, std::size_t sorted_prefix);

/// Index of the first element >= target, probing with galloping
/// (exponential) search from `start`. Used to accelerate merge joins on
/// size-skewed inputs.
std::size_t GallopLowerBound(const IdVec& vec, std::size_t start, Id target);

/// Linear merge intersection of two sorted vectors.
IdVec Intersect(const IdVec& a, const IdVec& b);

/// Intersection that gallops through the larger input; O(n log(m/n)).
IdVec IntersectGalloping(const IdVec& small, const IdVec& large);

/// Linear merge union of two sorted vectors.
IdVec Union(const IdVec& a, const IdVec& b);

/// Elements of `a` not in `b` (merge difference).
IdVec Difference(const IdVec& a, const IdVec& b);

/// Calls `emit(id)` for every id present in both sorted inputs, walking
/// both in one pass (the paper's linear merge join).
template <typename Emit>
void MergeJoin(const IdVec& a, const IdVec& b, Emit&& emit) {
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (b[j] < a[i]) {
      ++j;
    } else {
      emit(a[i]);
      ++i;
      ++j;
    }
  }
}

/// True iff the vector is sorted strictly ascending (test helper for the
/// structural invariant every index must maintain).
bool IsStrictlySorted(const IdVec& vec);

}  // namespace hexastore

#endif  // HEXASTORE_INDEX_SORTED_VEC_H_
