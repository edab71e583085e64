// Per-structure memory statistics of a Hexastore, used by the Figure 15
// reproduction and by the worst-case-5x space-bound ablation, plus the
// delta-layer counters reported by DeltaHexastore.
#ifndef HEXASTORE_CORE_STATS_H_
#define HEXASTORE_CORE_STATS_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace hexastore {

/// Byte-level breakdown of a Hexastore's index structures.
struct MemoryStats {
  /// Header maps + second-level sorted vectors, per permutation
  /// (indexed by static_cast<int>(Permutation)).
  std::size_t perm_index_bytes[6] = {0, 0, 0, 0, 0, 0};
  /// Shared terminal lists, per family (objects, predicates, subjects).
  std::size_t terminal_bytes[3] = {0, 0, 0};

  /// Sum of all components.
  std::size_t Total() const;

  /// Number of id *entries* (not bytes) across headers, vectors and lists;
  /// used to verify the paper's worst-case 5x bound, which is stated in
  /// key-entry counts relative to the 3n entries of a triples table.
  std::size_t key_entries = 0;

  /// Multi-line human-readable report.
  std::string ToString() const;
};

/// Counters of a DeltaHexastore's staging layer: how much is buffered,
/// how often it has been drained, and where the memory sits.
struct DeltaStats {
  std::size_t staged_inserts = 0;     ///< ops staged as inserts
  std::size_t staged_tombstones = 0;  ///< ops staged as tombstones
  std::size_t pattern_tombstones = 0;  ///< predicate-level pattern erases
  std::size_t compact_threshold = 0;  ///< auto-compaction trigger
  std::uint64_t compactions = 0;      ///< compaction jobs (drains + folds)
  std::uint64_t epoch = 0;            ///< generation counter
  std::size_t base_triples = 0;       ///< triples in the compacted base
  std::size_t base_bytes = 0;         ///< base index heap bytes
  std::size_t delta_bytes = 0;        ///< staging-buffer heap bytes

  // Compaction-engine counters (see docs/delta-levels.md). Every mode
  // seals; background_merges and merge_discards stay zero unless the
  // jobs run on the compactor thread.
  bool background = false;        ///< jobs run on the compactor thread
  std::uint64_t seals = 0;        ///< staging buffers sealed into L0 runs
  std::uint64_t background_merges = 0;  ///< drains the thread completed
  std::uint64_t merge_discards = 0;  ///< jobs invalidated (Clear/BulkLoad)
  std::uint64_t seal_overflows = 0;  ///< seals that found the compactor
                                     ///< behind (L0 already full)
  std::size_t sealed_ops = 0;     ///< ops across the currently sealed runs

  // Level counters. On a flat store every seal is drained at once, so
  // l1_ops and l0_merges stay zero (L0 holds a run only while a drain
  // on the compactor thread is behind).
  std::size_t l0_run_limit = 0;  ///< runs triggering a fold (0 = flat)
  std::size_t l0_runs = 0;       ///< sealed runs currently in L0
  std::size_t l0_ops = 0;        ///< staged ops across the L0 runs
  std::size_t l1_ops = 0;        ///< staged ops in the L1 run
  std::uint64_t l0_merges = 0;   ///< L0→L1 folds completed
  std::uint64_t base_merges = 0;  ///< drains into the base
  std::uint64_t base_rebuilds = 0;  ///< drains that found no free base
                                    ///< and rebuilt it
  std::uint64_t merge_run_ops = 0;  ///< ops written building folded runs
  std::uint64_t base_rebuild_triples = 0;  ///< triples drains wrote into a
                                           ///< base (rebuilt triples, or
                                           ///< ops applied in place)
  std::uint64_t staged_ops_total = 0;  ///< ops ever staged (write-amp denom)

  // Prefix-filter counters (zero until a run is sealed with filters
  // armed; see docs/delta-levels.md "Filter semantics").
  std::size_t filter_bits_per_key = 0;   ///< L0 sizing (0 = disabled)
  std::uint64_t filter_probes = 0;       ///< point + prefix filter checks
  std::uint64_t filter_skips = 0;        ///< runs proven key-free, skipped
  std::uint64_t filter_false_positives = 0;  ///< passes with no table hit
  std::uint64_t filters_dropped = 0;  ///< seals that skipped the filter
                                      ///< (budget pressure)

  // Memory-budget counters (zero without memory_budget_bytes).
  std::size_t memory_budget_bytes = 0;  ///< hard budget (0 = unlimited)
  std::size_t resident_bytes = 0;  ///< tracked runs + filters + active table
  std::uint64_t budget_seals = 0;  ///< seals forced by the budget
  std::uint64_t budget_folds = 0;  ///< L0→L1 folds forced by the budget
  std::uint64_t budget_base_merges = 0;  ///< drains forced by the budget

  /// Bytes-of-merge-work per staged op:
  /// (merge_run_ops + base_rebuild_triples) / staged_ops_total. Leveling
  /// exists to push this toward 1 + 1/l0_run_limit × (base rebuild share).
  double WriteAmplification() const;

  /// Multi-line human-readable report.
  std::string ToString() const;
};

/// Counters of the RCU-style generation gate: how many immutable
/// generations were published, how reclamation is keeping up, and how
/// many wait-free read handles were taken. retire_queue_depth staying
/// near zero shows grace periods expiring promptly; it grows only while
/// readers sit inside the (microsecond) acquire window.
struct EpochStats {
  std::uint64_t global_epoch = 0;           ///< current writer epoch
  std::uint64_t generations_published = 0;  ///< Publish calls
  std::uint64_t generations_retired = 0;    ///< superseded generations
  std::uint64_t generations_reclaimed = 0;  ///< grace periods completed
  std::size_t retire_queue_depth = 0;       ///< retired, not yet reclaimed
  std::uint64_t handles_acquired = 0;       ///< wait-free Acquire calls
  int active_reader_sections = 0;           ///< readers mid-acquire now

  /// Multi-line human-readable report.
  std::string ToString() const;
};

/// Counters of the write-ahead log: append volume, how often the log
/// actually hit the platter (fsync), and the checkpoint cadence. The
/// commit_requests / fsyncs ratio shows group commit working: in
/// per-commit mode many concurrent committers share one fsync.
struct WalStats {
  std::uint64_t records_appended = 0;  ///< log records written
  std::uint64_t bytes_appended = 0;    ///< bytes written (frames + headers)
  std::uint64_t commit_requests = 0;   ///< Commit() calls
  std::uint64_t fsyncs = 0;            ///< fsync(2) calls issued
  std::uint64_t rotations = 0;         ///< segment files started
  std::uint64_t checkpoints = 0;       ///< snapshot + truncate cycles

  /// Multi-line human-readable report.
  std::string ToString() const;
};

/// One coherent bundle of every stats struct a store reports, produced
/// by the owning store's GatherStats() — the single snapshot path for
/// DeltaStats/EpochStats/WalStats.
///
/// Memory-ordering contract (see docs/observability.md "Snapshot
/// consistency"): GatherStats() reads every field while holding the
/// owning store's writer mutex, so all writer-maintained fields
/// (staged sizes, level shapes, epoch, base size) form one consistent
/// cut. Reader-side and compactor-side counters (filter probes, handle
/// acquisitions, merge totals) are relaxed atomics read tear-free at
/// that moment; they are exact individually but may be mid-flight
/// relative to each other — e.g. `filter_probes` can already include a
/// probe whose `filter_skips` increment lands a nanosecond after the
/// gather.
struct StatsSnapshot {
  DeltaStats delta;
  EpochStats epoch;
  WalStats wal;
  bool has_wal = false;  ///< wal is meaningful (durable store)

  /// Concatenated human-readable report (delta, epoch, and — when
  /// has_wal — WAL sections).
  std::string ToString() const;
};

}  // namespace hexastore

#endif  // HEXASTORE_CORE_STATS_H_
