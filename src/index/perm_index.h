// One permutation index of a Hexastore: a header map from first-role ids
// to sorted vectors of second-role ids (Figure 2 of the paper). Terminal
// lists of third-role ids are not stored here — they live in the shared
// TerminalListPool and are keyed by (first, second) in the family the
// permutation belongs to.
#ifndef HEXASTORE_INDEX_PERM_INDEX_H_
#define HEXASTORE_INDEX_PERM_INDEX_H_

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "index/sorted_vec.h"
#include "util/common.h"

namespace hexastore {

/// The six permutations of (subject, predicate, object).
enum class Permutation : int {
  kSpo = 0,
  kSop = 1,
  kPso = 2,
  kPos = 3,
  kOsp = 4,
  kOps = 5,
};

/// Short lowercase name of a permutation ("spo", ...).
const char* PermutationName(Permutation perm);

/// All six permutations, in declaration order.
inline constexpr Permutation kAllPermutations[] = {
    Permutation::kSpo, Permutation::kSop, Permutation::kPso,
    Permutation::kPos, Permutation::kOsp, Permutation::kOps,
};

/// Roles (subject/predicate/object) of the first, second and third
/// position of a permutation.
struct PermutationRoles {
  Role first;
  Role second;
  Role third;
};

/// Role layout of a permutation (e.g. kPos -> {predicate, object, subject}).
PermutationRoles RolesOf(Permutation perm);

/// Two-level header/vector structure for one permutation.
class PermIndex {
 public:
  PermIndex() = default;

  PermIndex(const PermIndex&) = delete;
  PermIndex& operator=(const PermIndex&) = delete;

  /// Adds `second` under the `first` header. Returns false if the pair was
  /// already present.
  bool Insert(Id first, Id second);

  /// Removes `second` from the `first` header; drops the header when its
  /// vector becomes empty. Returns false if absent.
  bool Erase(Id first, Id second);

  /// Removes every id of the sorted `seconds` from the `first` header by
  /// one linear set-difference; drops the header when its vector becomes
  /// empty.
  void EraseAll(Id first, const IdVec& seconds);

  /// The sorted second-role vector under `first`, or nullptr.
  const IdVec* Find(Id first) const;

  /// True iff the (first, second) pair is present.
  bool Contains(Id first, Id second) const;

  /// Number of headers.
  std::size_t HeaderCount() const { return headers_.size(); }

  /// Total second-level entries across all headers.
  std::size_t EntryCount() const;

  /// All header ids, sorted ascending (materialized on demand; full-store
  /// scans are the only consumer).
  std::vector<Id> SortedHeaders() const;

  /// Calls `fn(first, vec)` for every header in unspecified order.
  template <typename Fn>
  void ForEachHeader(Fn&& fn) const {
    for (const auto& [first, vec] : headers_) {
      fn(first, vec);
    }
  }

  /// Approximate heap bytes (map + vector buffers).
  std::size_t MemoryBytes() const;

  /// Removes everything.
  void Clear();

  /// Reserves hash-table capacity for bulk loading.
  void Reserve(std::size_t headers);

  /// Mutable access for bulk loaders; creates the header if absent. The
  /// caller must leave the vector sorted and duplicate-free (or call
  /// SortUniqueAll afterwards).
  IdVec* GetOrCreate(Id first);

  /// Sorts and deduplicates every header vector (bulk-load finalization).
  void SortUniqueAll();

 private:
  std::unordered_map<Id, IdVec> headers_;
};

}  // namespace hexastore

#endif  // HEXASTORE_INDEX_PERM_INDEX_H_
