// The Hexastore: six permutation indexes (spo, sop, pso, pos, osp, ops)
// over one pool of shared terminal lists (paper §4).
//
// Every access pattern an RDF query may need maps onto exactly one index:
//
//   bound (s,p,o) -> membership test in o(s,p)
//   bound (s,p)   -> terminal list o(s,p)
//   bound (s,o)   -> terminal list p(s,o)
//   bound (p,o)   -> terminal list s(p,o)
//   bound (s)     -> spo headers (property vector) / sop (object vector)
//   bound (p)     -> pso (subject vector) / pos (object vector)
//   bound (o)     -> osp (subject vector) / ops (property vector)
//   none          -> full scan over spo
//
// All vectors and lists are sorted, so all first-step pairwise joins are
// linear merge joins.
#ifndef HEXASTORE_CORE_HEXASTORE_H_
#define HEXASTORE_CORE_HEXASTORE_H_

#include <atomic>
#include <cstddef>
#include <string>

#include "core/stats.h"
#include "core/store_interface.h"
#include "index/perm_index.h"
#include "index/terminal_pool.h"
#include "rdf/triple.h"
#include "util/common.h"

namespace hexastore {

/// In-memory sextuple-indexed RDF store.
class Hexastore : public TripleStore {
 public:
  Hexastore() = default;

  Hexastore(const Hexastore&) = delete;
  Hexastore& operator=(const Hexastore&) = delete;

  // -- TripleStore interface ----------------------------------------------

  /// Inserts into all six views; O(log + shift) per view.
  bool Insert(const IdTriple& t) override;
  /// Erases from all six views; drops emptied vectors and headers.
  bool Erase(const IdTriple& t) override;
  /// Membership test via the shared o(s,p) list.
  bool Contains(const IdTriple& t) const override;
  std::size_t size() const override { return size_; }
  void Scan(const IdPattern& pattern, const TripleSink& sink) const override;
  std::size_t MemoryBytes() const override;
  std::string name() const override { return "Hexastore"; }

  /// Appends unsorted then merges each touched vector/list once; much
  /// faster than repeated Insert for large batches. On a non-empty store
  /// the batch is merged with — and deduplicated against — the existing
  /// contents, touching only the lists the batch lands in (the delta
  /// compaction drain path).
  void BulkLoad(const IdTripleVec& triples) override;

  /// Removes every triple of `triples` the store holds (absent triples
  /// and repeats are ignored). Mirrors BulkLoad: the batch is sorted once
  /// per terminal family, and each touched terminal list and header
  /// vector gets one linear set-difference instead of one shifting erase
  /// per triple; emptied lists and headers are dropped.
  void BulkErase(const IdTripleVec& triples);

  /// Removes all triples.
  void Clear();

  // -- Sorted-vector accessors (the paper's vectors and lists) ------------
  // All return nullptr when the header/list does not exist. Returned
  // vectors are valid until the next mutation.

  /// Object list o(s,p) — terminal list shared by spo and pso.
  const IdVec* objects(Id s, Id p) const {
    Touch(Permutation::kSpo);
    return pool_.Find(ListFamily::kObjects, s, p);
  }
  /// Predicate list p(s,o) — terminal list shared by sop and osp.
  const IdVec* predicates(Id s, Id o) const {
    Touch(Permutation::kSop);
    return pool_.Find(ListFamily::kPredicates, s, o);
  }
  /// Subject list s(p,o) — terminal list shared by pos and ops.
  const IdVec* subjects(Id p, Id o) const {
    Touch(Permutation::kPos);
    return pool_.Find(ListFamily::kSubjects, p, o);
  }

  /// Property vector p(s) of the spo index.
  const IdVec* predicates_of_subject(Id s) const {
    Touch(Permutation::kSpo);
    return index(Permutation::kSpo).Find(s);
  }
  /// Object vector o(s) of the sop index.
  const IdVec* objects_of_subject(Id s) const {
    Touch(Permutation::kSop);
    return index(Permutation::kSop).Find(s);
  }
  /// Subject vector s(p) of the pso index.
  const IdVec* subjects_of_predicate(Id p) const {
    Touch(Permutation::kPso);
    return index(Permutation::kPso).Find(p);
  }
  /// Object vector o(p) of the pos index.
  const IdVec* objects_of_predicate(Id p) const {
    Touch(Permutation::kPos);
    return index(Permutation::kPos).Find(p);
  }
  /// Subject vector s(o) of the osp index.
  const IdVec* subjects_of_object(Id o) const {
    Touch(Permutation::kOsp);
    return index(Permutation::kOsp).Find(o);
  }
  /// Property vector p(o) of the ops index.
  const IdVec* predicates_of_object(Id o) const {
    Touch(Permutation::kOps);
    return index(Permutation::kOps).Find(o);
  }

  // -- Workload introspection (paper §6 future work) -----------------------

  /// Number of header-vector lookups served by a permutation index since
  /// construction or the last ResetAccessCounts(). Terminal-list lookups
  /// for bound pairs are attributed to the index that owns the pair's
  /// natural order ((s,p)->spo, (s,o)->sop, (p,o)->pos). Feeds the index
  /// advisor (paper §6: some indexes may not contribute to query
  /// efficiency under a given workload — e.g. ops was seldom used in the
  /// paper's experiments).
  std::uint64_t access_count(Permutation perm) const {
    return access_counts_[static_cast<int>(perm)].load(
        std::memory_order_relaxed);
  }

  /// Resets all access counters to zero.
  void ResetAccessCounts() {
    for (auto& c : access_counts_) {
      c.store(0, std::memory_order_relaxed);
    }
  }

  /// Number of distinct subjects (spo header count).
  std::size_t DistinctSubjects() const {
    return index(Permutation::kSpo).HeaderCount();
  }
  /// Number of distinct predicates (pso header count).
  std::size_t DistinctPredicates() const {
    return index(Permutation::kPso).HeaderCount();
  }
  /// Number of distinct objects (osp header count).
  std::size_t DistinctObjects() const {
    return index(Permutation::kOsp).HeaderCount();
  }

  /// Direct read access to one permutation index.
  const PermIndex& index(Permutation perm) const {
    return indexes_[static_cast<int>(perm)];
  }

  /// Direct read access to the terminal-list pool.
  const TerminalListPool& pool() const { return pool_; }

  /// Per-structure memory breakdown (Figure 15 / space-bound ablation).
  MemoryStats Stats() const;

  /// Verifies the cross-index invariants (all six views agree, everything
  /// sorted, sharing consistent). O(size); intended for tests.
  bool CheckInvariants(std::string* error = nullptr) const;

 private:
  PermIndex& index(Permutation perm) {
    return indexes_[static_cast<int>(perm)];
  }

  // Bumps the access counter of `perm`; const because reads are logically
  // const and the counters are observational metadata. Relaxed atomics so
  // concurrent readers of an immutable store stay race-free.
  void Touch(Permutation perm) const {
    access_counts_[static_cast<int>(perm)].fetch_add(
        1, std::memory_order_relaxed);
  }

  PermIndex indexes_[6];
  TerminalListPool pool_;
  std::size_t size_ = 0;
  mutable std::atomic<std::uint64_t> access_counts_[6] = {};
};

}  // namespace hexastore

#endif  // HEXASTORE_CORE_HEXASTORE_H_
