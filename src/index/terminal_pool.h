// Shared terminal lists (paper §4.1).
//
// Three pairs of permutation indexes agree on the *set* of their first two
// roles, so they can share one physical copy of each terminal list:
//
//   spo + pso  share  object lists    o(s,p)   keyed by (subject, predicate)
//   sop + osp  share  predicate lists p(s,o)   keyed by (subject, object)
//   pos + ops  share  subject lists   s(p,o)   keyed by (predicate, object)
//
// This sharing is what reduces the worst-case space blow-up from 6x to 5x:
// each resource key lands in 2 headers + 2 vectors + 1 shared list.
#ifndef HEXASTORE_INDEX_TERMINAL_POOL_H_
#define HEXASTORE_INDEX_TERMINAL_POOL_H_

#include <cstddef>
#include <unordered_map>

#include "index/sorted_vec.h"
#include "util/common.h"

namespace hexastore {

/// Unordered pair-of-roles key for a terminal list.
struct IdPair {
  Id a = kInvalidId;
  Id b = kInvalidId;

  friend bool operator==(const IdPair&, const IdPair&) = default;
};

/// Hash for IdPair (64-bit mix of both components).
struct IdPairHash {
  std::size_t operator()(const IdPair& p) const {
    // splitmix64-style finalizer over the combined words.
    std::uint64_t x = p.a * 0x9e3779b97f4a7c15ULL ^ (p.b + 0x7f4a7c15ULL);
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<std::size_t>(x ^ (x >> 31));
  }
};

/// The three terminal-list families.
enum class ListFamily : int {
  kObjects = 0,     ///< o(s,p), shared by spo and pso
  kPredicates = 1,  ///< p(s,o), shared by sop and osp
  kSubjects = 2,    ///< s(p,o), shared by pos and ops
};

/// Owner of all shared terminal lists of a Hexastore.
class TerminalListPool {
 public:
  TerminalListPool() = default;

  TerminalListPool(const TerminalListPool&) = delete;
  TerminalListPool& operator=(const TerminalListPool&) = delete;

  /// Adds `third` to the list of `family` keyed by (a, b); creates the list
  /// on first use. Returns false if `third` was already present.
  bool Insert(ListFamily family, Id a, Id b, Id third);

  /// Removes `third` from the keyed list; drops the list when it becomes
  /// empty. Returns false if the list or element was absent.
  bool Erase(ListFamily family, Id a, Id b, Id third);

  /// Removes every id of the sorted `thirds` from the keyed list by one
  /// linear set-difference and drops the list when it becomes empty.
  /// Returns how many ids were removed; `*emptied` reports a dropped
  /// list.
  std::size_t EraseAll(ListFamily family, Id a, Id b, const IdVec& thirds,
                       bool* emptied);

  /// The keyed list, or nullptr if it does not exist.
  const IdVec* Find(ListFamily family, Id a, Id b) const;

  /// Membership test: is `third` in the list keyed by (a, b)?
  bool Contains(ListFamily family, Id a, Id b, Id third) const;

  /// Number of lists in a family.
  std::size_t ListCount(ListFamily family) const;

  /// Total entries across all lists of a family (each family totals the
  /// number of distinct triples).
  std::size_t EntryCount(ListFamily family) const;

  /// Approximate heap bytes of one family (map + list buffers).
  std::size_t MemoryBytes(ListFamily family) const;

  /// Approximate heap bytes of the whole pool.
  std::size_t MemoryBytes() const;

  /// Removes all lists.
  void Clear();

  /// Reserves hash-table capacity for bulk loading.
  void Reserve(std::size_t lists_per_family);

  /// Mutable access for bulk loaders; creates the list if absent. The
  /// caller must leave the list sorted and duplicate-free (or call
  /// SortUniqueAll afterwards).
  IdVec* GetOrCreate(ListFamily family, Id a, Id b);

  /// Sorts and deduplicates every list in every family (bulk-load
  /// finalization).
  void SortUniqueAll();

 private:
  using ListMap = std::unordered_map<IdPair, IdVec, IdPairHash>;

  const ListMap& map(ListFamily family) const {
    return maps_[static_cast<int>(family)];
  }
  ListMap& map(ListFamily family) {
    return maps_[static_cast<int>(family)];
  }

  ListMap maps_[3];
};

}  // namespace hexastore

#endif  // HEXASTORE_INDEX_TERMINAL_POOL_H_
