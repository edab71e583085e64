// Leveled delta runs: the sealed hierarchy between the active staging
// buffer and the compacted base (the LSM discipline — small sorted runs
// promoted level-by-level instead of monolithic rebuilds).
//
// When the active buffer of a leveled DeltaHexastore reaches its
// threshold it is sealed into an immutable **L0 run** (two pointer
// swaps; nothing merges). Once `DeltaOptions::l0_run_limit` runs have
// accumulated, the compactor folds them — newest over older — together
// with the current L1 run into a single fresh **L1 run** (cost
// proportional to the staged ops, never to the base). Only when L1
// crosses `DeltaOptions::l1_base_fraction` of the base does the
// expensive L1→base merge rebuild the six permutation indexes.
//
// The read chain is therefore  active ▷ L0 (newest first) ▷ L1 ▷ base,
// each layer applying its point and pattern tombstones to everything
// beneath it (see docs/delta-levels.md for the verdict table).
//
// Every run in a DeltaLevels is frozen: once a DeltaStore enters the
// hierarchy it is never mutated again. Its lazy read caches may still be
// built on first use — DeltaStore serializes that internally — so mutex
// readers, lock-free snapshot readers and the off-thread fold merges can
// all read the same run concurrently.
#ifndef HEXASTORE_DELTA_LEVEL_H_
#define HEXASTORE_DELTA_LEVEL_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "delta/delta_store.h"

namespace hexastore {

/// The immutable sealed-run hierarchy of a leveled DeltaHexastore:
/// any number of L0 runs over at most one L1 run. `l0` is ordered
/// oldest-first, so the bottom-up layer chain is simply
/// `l1, l0[0], …, l0.back()` (the newest run sits directly beneath the
/// active buffer).
struct DeltaLevels {
  /// Sealed staging buffers awaiting an L0→L1 fold, oldest first.
  std::vector<std::shared_ptr<const DeltaStore>> l0;
  /// The single folded run beneath L0; null when empty.
  std::shared_ptr<const DeltaStore> l1;

  /// True iff no sealed run exists at any level.
  bool empty() const { return l0.empty() && l1 == nullptr; }
  /// Number of sealed runs across both levels.
  std::size_t run_count() const { return l0.size() + (l1 == nullptr ? 0 : 1); }
  /// Total staged point ops across all runs.
  std::size_t op_count() const;
  /// Staged point ops in the L0 runs alone.
  std::size_t l0_op_count() const;
  /// Approximate heap bytes across all runs.
  std::size_t MemoryBytes() const;
  /// Appends the runs bottom-up (L1 first, then L0 oldest→newest).
  void AppendBottomUp(std::vector<const DeltaStore*>* chain) const;
  /// Drops every run.
  void clear() {
    l0.clear();
    l1.reset();
  }
};

/// Merges `upper` onto `lower`, both staged relative to the same
/// beneath-state: returns the single run R with
///   layer(S, R) == layer(layer(S, lower), upper)
/// for every store S the pair was consistent with. Point ops on the
/// same triple annihilate or combine (insert-over-tombstone of a base
/// triple cancels both; tombstone-over-insert drops both), upper
/// pattern tombstones subsume lower point ops on their predicate, and
/// the pattern-predicate sets union. Reads both inputs only through
/// pure accessors, so it is safe to run off-thread on frozen runs.
std::shared_ptr<DeltaStore> MergeDeltaLayers(const DeltaStore& lower,
                                             const DeltaStore& upper);

/// Folds L0 runs (oldest-first, as stored in DeltaLevels::l0) onto an
/// optional L1 run into one run, merging adjacent layers pairwise in a
/// balanced order. When the fold is a single run over no L1 the run is
/// returned as-is (no copy); with no layers at all, null.
/// `merged_ops_out`, when non-null, accumulates the staged ops written
/// by the pairwise merges (write-amplification accounting).
std::shared_ptr<const DeltaStore> FoldRuns(
    const std::shared_ptr<const DeltaStore>& l1,
    const std::vector<std::shared_ptr<const DeltaStore>>& l0_oldest_first,
    std::uint64_t* merged_ops_out = nullptr);

}  // namespace hexastore

#endif  // HEXASTORE_DELTA_LEVEL_H_
