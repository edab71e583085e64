// DeltaHexastore: an LSM-style update-friendly TripleStore layering
// hash-backed DeltaStore runs (staged inserts + tombstones) over a base
// Hexastore.
//
// Write path: Insert/Erase stage O(1)-ish edits in the active delta
// instead of mutating all six sorted views of the base (the §4.2 update
// deficiency). What happens when the buffer reaches
// `DeltaOptions::compact_threshold` depends on the configuration:
//
//   * flat, synchronous (the default): the buffer drains into the base
//     in one sorted BulkLoad-style merge on the writer thread.
//   * flat, background: the buffer is sealed (two pointer swaps) and a
//     dedicated compactor thread merges it into a fresh base while
//     writers keep staging into a new buffer.
//   * leveled (`l0_run_limit > 0`, either mode): the sealed buffer
//     becomes an immutable **L0 run** and nothing merges yet. Once
//     `l0_run_limit` runs accumulate they fold into a single **L1 run**
//     (cost proportional to the staged ops), and only when L1 reaches
//     `l1_base_fraction` of the base does the expensive L1→base merge
//     rebuild the permutation indexes — so drain cost is bounded and
//     write amplification drops with the run limit (see
//     docs/delta-levels.md for the full policy).
//
// Read path: Contains, Scan and the merged accessor views always expose
// the consistent union across the whole chain
//   active ▷ L0 runs (newest first) ▷ L1 ▷ base
// with each layer applying its point and pattern tombstones to
// everything beneath it. Accessor views come back as MergedList so merge
// joins keep their linear-merge guarantee mid-delta.
//
// Concurrent reads: two kinds of handle, both materialized as Snapshot.
//
//   * GetSnapshot() — linearizable: takes the store mutex briefly,
//     freezes and publishes the current {base, levels, active}
//     generation, and returns a handle to exactly the current contents.
//   * AcquireReadHandle() — wait-free: returns the most recently
//     *published* generation through an RCU-style epoch-protected
//     pointer (see generation.h) without ever touching the store mutex.
//     It may trail the live store by the ops staged since the last
//     publication (a publication happens at every snapshot/merged-view
//     exposure, every background-merge completion, and Clear/BulkLoad in
//     background mode).
//
// Either handle pins its generation for its whole lifetime — a BGP
// evaluated against a Snapshot (it is a read-only TripleStore) plans and
// joins against one frozen view no matter how many merges complete
// meanwhile — and never blocks writers: superseded generations go onto
// the gate's retire list and are reclaimed after a grace period.
//
// docs/architecture.md maps this subsystem into the whole system;
// docs/delta-levels.md specifies the verdict chain and merge policy.
#ifndef HEXASTORE_DELTA_DELTA_HEXASTORE_H_
#define HEXASTORE_DELTA_DELTA_HEXASTORE_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/hexastore.h"
#include "core/stats.h"
#include "core/store_interface.h"
#include "delta/delta_store.h"
#include "delta/generation.h"
#include "delta/level.h"
#include "delta/merged_list.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/trace_ring.h"
#include "rdf/triple.h"
#include "util/common.h"

namespace hexastore {

/// Default number of staged operations that triggers auto-compaction.
inline constexpr std::size_t kDeltaCompactThresholdDefault = 64 * 1024;

/// Construction-time configuration of a DeltaHexastore.
struct DeltaOptions {
  /// Staged operations that trigger a drain (a seal, in background or
  /// leveled mode).
  std::size_t compact_threshold = kDeltaCompactThresholdDefault;
  /// Merge sealed runs on a dedicated compactor thread instead of
  /// draining on the writer thread at the threshold.
  bool background_compaction = false;
  /// Leveled deltas: number of sealed L0 runs that triggers an L0→L1
  /// fold. 0 disables leveling (every seal merges straight into the
  /// base, the pre-level behavior).
  std::size_t l0_run_limit = 0;
  /// Leveled deltas: L1 merges into the base once its op count reaches
  /// this fraction of the base size (but never before it holds at least
  /// one compact_threshold of ops). Must be finite and > 0; the store
  /// clamps invalid values (0, negative, NaN, inf) back to the default
  /// rather than silently degrading to always-base-merge.
  double l1_base_fraction = 0.25;
  /// Hard budget for tracked delta memory (sealed runs + their filters +
  /// the active op table). 0 = unlimited. When tracked bytes cross the
  /// budget the store seals/folds/base-merges regardless of
  /// l0_run_limit, and stops building filters for new runs until back
  /// under.
  std::size_t memory_budget_bytes = 0;
  /// Prefix-filter sizing for sealed L0 runs, in bits per indexed key
  /// class (Monkey-style: the colder, bigger L1 run gets half). 0
  /// disables filters.
  std::size_t filter_bits_per_key = 10;
  /// Capacity (in events) of the lifecycle trace ring (see
  /// obs/trace_ring.h); rounded up to a power of two, minimum 8.
  std::size_t trace_capacity = 1024;

  /// Clamps every field to its documented domain in place. Returns an
  /// empty string when nothing was wrong, else a description of the
  /// first repaired field (the DeltaHexastore constructor logs it).
  std::string Normalize();
};

/// Update-optimized Hexastore with a staging delta, leveled sealed runs
/// and tombstones.
///
/// Thread-safety: every public member is safe to call from any thread.
/// Mutators serialize on an internal mutex; reads through Snapshot
/// handles never block writers. Blocking behavior is called out per
/// member below.
class DeltaHexastore : public TripleStore {
 public:
  /// Default number of staged operations that triggers auto-compaction.
  static constexpr std::size_t kDefaultCompactThreshold =
      kDeltaCompactThresholdDefault;

  explicit DeltaHexastore(const DeltaOptions& options = {});

  DeltaHexastore(const DeltaHexastore&) = delete;
  DeltaHexastore& operator=(const DeltaHexastore&) = delete;

  /// Waits for any in-flight background merge, then joins the compactor.
  ~DeltaHexastore() override;

  // -- TripleStore interface ----------------------------------------------

  /// Stages the insert in the delta; auto-compacts (or seals, in
  /// background/leveled mode) at the threshold. O(1) except at a
  /// synchronous drain boundary.
  bool Insert(const IdTriple& t) override;
  /// Stages a tombstone (or cancels a staged insert). Same cost model as
  /// Insert.
  bool Erase(const IdTriple& t) override;
  /// Merged membership test: the newest layer's verdict wins. Never
  /// blocks on merges.
  bool Contains(const IdTriple& t) const override;
  std::size_t size() const override;
  /// Emits the merged view: base matches minus every layer's tombstones
  /// (in the base index's natural order), then each layer's staged
  /// inserts bottom-up, filtered by the layers above it (range scans of
  /// the layers' sorted runs).
  void Scan(const IdPattern& pattern, const TripleSink& sink) const override;
  std::size_t MemoryBytes() const override;
  std::string name() const override { return "DeltaHexastore"; }

  /// Delta-aware planner estimate: the base index count adjusted by the
  /// staged ops of each layer bottom-up — exact staged-insert counts
  /// (sorted-run range scans), tombstones scaled by the pattern's
  /// selectivity, pattern tombstones applied exactly. Never pays a full
  /// merged scan.
  std::uint64_t EstimateMatches(const IdPattern& pattern) const override;

  /// Erases every triple matching `pattern`; returns how many logical
  /// triples were removed. Fast paths: the all-wildcard pattern is a
  /// Clear, and a predicate-only pattern (?, p, ?) stages ONE
  /// pattern-level tombstone instead of one per match. Other shapes fall
  /// back to staging a point tombstone per match. In flat background
  /// mode the predicate fast path drains an in-flight merge first (its
  /// exact erase count is defined against the merged base); in leveled
  /// mode it counts by one merged scan instead and never waits on the
  /// compactor.
  std::size_t ErasePattern(const IdPattern& pattern);

  /// Compacts every staged layer, then merges `triples` straight into
  /// the base via its sorted BulkLoad path. Blocks until any in-flight
  /// background merge has drained.
  void BulkLoad(const IdTripleVec& triples) override;

  /// Removes all triples (base, sealed runs and staged); an in-flight
  /// background merge is invalidated, not waited for.
  void Clear();

  // -- Delta management ---------------------------------------------------

  /// Drains every staged op into the base. Synchronous mode: the whole
  /// hierarchy (L1, L0 runs, active) collapses in one sorted merge on
  /// this thread. Background mode: seals the staging buffer and blocks
  /// until the compactor has merged everything present at the call
  /// (writers on other threads stay unblocked throughout; their
  /// concurrent seals may leave new runs behind). No-op when nothing is
  /// staged.
  void Compact();

  /// Operations staged and not yet merged into the base (active plus
  /// every sealed run).
  std::size_t StagedOps() const;
  /// Merges (synchronous drains, background merges and L0→L1 folds)
  /// since construction.
  std::uint64_t CompactionCount() const;
  std::size_t compact_threshold() const { return compact_threshold_; }
  /// True when a dedicated compactor thread runs the merges.
  bool background() const { return background_; }
  /// True when sealed buffers accumulate as leveled runs
  /// (l0_run_limit > 0) instead of merging straight into the base.
  bool leveled() const { return l0_run_limit_ > 0; }
  std::size_t l0_run_limit() const { return l0_run_limit_; }
  /// Post-validation L1→base trigger fraction (tests the Normalize
  /// clamping of bad option values).
  double l1_base_fraction() const { return l1_base_fraction_; }
  std::size_t memory_budget_bytes() const { return memory_budget_; }
  std::size_t filter_bits_per_key() const { return filter_bits_l0_; }

  /// The resident-memory tracker every sealed run registers with (tests
  /// assert `balanced()` after the store and all snapshots are gone).
  std::shared_ptr<MemoryTracker> memory_tracker() const { return tracker_; }

  /// Delta-layer counters for reports and the stats subsystem. View
  /// over GatherStats().delta.
  DeltaStats Stats() const;
  /// Generation-gate counters (publications, reclamation, handles).
  /// View over GatherStats().epoch.
  EpochStats EpochCounters() const;

  // -- Observability (see docs/observability.md) --------------------------

  /// The single snapshot path for every stats struct: one hold of the
  /// store mutex reads all writer-maintained fields as a consistent cut
  /// and the registry counters as tear-free relaxed loads (the ordering
  /// contract is documented on StatsSnapshot). Also refreshes the
  /// registry gauges, so an export right after GatherStats is coherent.
  StatsSnapshot GatherStats() const;

  /// The store's metrics registry (counters, gauges, histograms, trace
  /// ring attached). Valid exactly as long as the store; exports taken
  /// through MetricsText/MetricsJson refresh gauges first, reads through
  /// this reference see the last refreshed values.
  obs::MetricsRegistry& metrics_registry() const { return registry_; }

  /// Lifecycle event ring (seal, fold, base merge, budget trigger,
  /// filter drop, publish/reclaim; the WAL layer adds checkpoint and
  /// recovery events on a durable store).
  obs::TraceRing& trace_ring() const { return trace_; }

  /// Prometheus text exposition of every registered instrument.
  std::string MetricsText() const;
  /// JSON metrics dump (schema of scripts/check_metrics_json.py).
  std::string MetricsJson() const;
  /// Writes MetricsJson() to `path` atomically; false on I/O failure.
  /// This is the SIGUSR1-safe explicit export: a handler thread may call
  /// it at any time (it takes only the store mutex and the registry
  /// registration mutex, never blocks on the compactor).
  bool DumpMetricsJson(const std::string& path) const;

  // -- Pinned-generation reads --------------------------------------------

  /// An immutable view of one published {base, levels, active}
  /// generation. It is a read-only TripleStore (mutators are no-ops that
  /// return false), so planners, BGP evaluation and merge joins run
  /// entirely against the pinned generation; it also mirrors the merged
  /// accessor views. Cheap to copy and safe to read from any thread
  /// while writers keep inserting and merging.
  class Snapshot final : public TripleStore {
   public:
    /// Empty view (no generation).
    Snapshot() = default;

    // Read-only view: mutators are documented no-ops.
    bool Insert(const IdTriple&) override { return false; }
    bool Erase(const IdTriple&) override { return false; }
    void BulkLoad(const IdTripleVec&) override {}

    bool Contains(const IdTriple& t) const override;
    std::size_t size() const override;
    void Scan(const IdPattern& pattern,
              const TripleSink& sink) const override;
    std::size_t MemoryBytes() const override;
    std::string name() const override { return "DeltaHexastore::Snapshot"; }
    std::uint64_t EstimateMatches(const IdPattern& pattern) const override;

    /// Store epoch the generation was published at (bumps on every
    /// merge and Clear).
    std::uint64_t epoch() const;

    /// Total staged ops (inserts + tombstones + pattern tombstones)
    /// across this generation's delta chain. Together with epoch() this
    /// forms a cheap freshness stamp: equal (epoch, staged_ops) pairs
    /// mean no mutation or merge landed in between (ops never leave a
    /// published layer except via a merge, which bumps the epoch). The
    /// plan cache keys validity fast-paths on it.
    std::uint64_t staged_ops() const;

    // Merged accessor views over the pinned generation (see the
    // DeltaHexastore accessors below for semantics).
    MergedList objects(Id s, Id p) const;
    MergedList predicates(Id s, Id o) const;
    MergedList subjects(Id p, Id o) const;
    IdVec predicates_of_subject(Id s) const;
    IdVec objects_of_subject(Id s) const;
    IdVec subjects_of_predicate(Id p) const;
    IdVec objects_of_predicate(Id p) const;
    IdVec subjects_of_object(Id o) const;
    IdVec predicates_of_object(Id o) const;

   private:
    friend class DeltaHexastore;
    explicit Snapshot(std::shared_ptr<const DeltaGeneration> gen)
        : gen_(std::move(gen)) {}

    std::shared_ptr<const DeltaGeneration> gen_;
  };

  /// Takes a consistent, up-to-date point-in-time handle (linearizable;
  /// briefly takes the store mutex to freeze and publish the current
  /// generation).
  Snapshot GetSnapshot() const;

  /// Wait-free handle to the most recently published generation. Never
  /// touches the store mutex; may trail the live store by the ops staged
  /// since the last publication (see the file comment).
  Snapshot AcquireReadHandle() const;

  /// kWaitFree runs `fn` on AcquireReadHandle(), kLinearizable on
  /// GetSnapshot(), each stamped (epoch, staged_ops); kNone reads the
  /// live store (TripleStore::Pin).
  bool Pin(PinPolicy policy, const PinnedFn& fn) const override;

  // -- Merged accessor views (the paper's vectors and lists) --------------
  // Mirror Hexastore's accessors but return merging views instead of raw
  // vector pointers, so callers see staged edits. Views stay valid across
  // later mutations and merges (they pin the generation they were taken
  // from). With sealed runs present the view is materialized (owns its
  // ids); with only the active layer it is the zero-copy cursor pair.

  /// Merged object list o(s,p).
  MergedList objects(Id s, Id p) const;
  /// Merged predicate list p(s,o).
  MergedList predicates(Id s, Id o) const;
  /// Merged subject list s(p,o).
  MergedList subjects(Id p, Id o) const;

  // Header-level merged vectors (materialized: membership of a header id
  // depends on whether any merged terminal list under it is non-empty).

  /// Merged property vector p(s) of the spo index.
  IdVec predicates_of_subject(Id s) const;
  /// Merged object vector o(s) of the sop index.
  IdVec objects_of_subject(Id s) const;
  /// Merged subject vector s(p) of the pso index.
  IdVec subjects_of_predicate(Id p) const;
  /// Merged object vector o(p) of the pos index.
  IdVec objects_of_predicate(Id p) const;
  /// Merged subject vector s(o) of the osp index.
  IdVec subjects_of_object(Id o) const;
  /// Merged property vector p(o) of the ops index.
  IdVec predicates_of_object(Id o) const;

  // -- Introspection -------------------------------------------------------

  /// The compacted base store (test/bench access; reflects the state as
  /// of the last base merge). Shared ownership keeps the generation
  /// alive across later merges.
  std::shared_ptr<const Hexastore> base() const;

  /// Verifies base invariants plus the delta-layer contract for every
  /// layer of the chain (staged inserts absent from the layers beneath,
  /// tombstones present in them, size bookkeeping).
  bool CheckInvariants(std::string* error = nullptr) const;

 private:
  // All private helpers expect mu_ to be held unless noted.
  //
  // Publication protocol: internal reads happen under mu_, so they are
  // ordered against writers by the mutex alone. The moment a generation
  // escapes — GetSnapshot, a MergedList accessor, base(), a seal, or a
  // background-merge completion — the objects it references are marked
  // exposed and NEVER mutated in place again: writers clone the delta
  // (copy-on-write) and merges rebuild-and-swap the base. Lock-free
  // readers therefore only ever dereference frozen objects; the epoch
  // gate (generation.h) keeps them allocated.

  // Publishes the current {base_, levels_, delta_} through the gate.
  // `logical_size` is the triple count of the published view;
  // `include_active` controls whether the staging buffer is frozen into
  // it (excluding it keeps the buffer writer-private — no copy-on-write
  // on the next op).
  void PublishLocked(std::size_t logical_size, bool include_active) const;
  // Marks the current generation escaped and publishes it if dirty.
  void ExposeLocked() const;
  // Clones the delta iff it ever escaped (copy-on-write), so staged
  // mutations never alter a published generation.
  void EnsureDeltaWritableLocked();
  // Rebuilds the cached bottom-up layer chain (L1, L0 runs, active)
  // after any pointer in it changed.
  void RebuildChainLocked();
  // Threshold trigger: synchronous drain / leveled seal sequence, or
  // seal + wake the compactor. Also fires on memory-budget pressure.
  void MaybeCompactLocked();
  // True when a budget is set and tracked run memory plus the active
  // table exceeds it.
  bool OverBudgetLocked() const;
  // Opens a fresh staging buffer wired to the shared filter counters.
  std::shared_ptr<DeltaStore> FreshDeltaLocked() const;
  // Arms the filter on a store being sealed/adopted as a run (or counts
  // a drop under budget pressure) and registers it with the tracker.
  void ConfigureRunLocked(const DeltaStore& run, std::size_t bits_per_key);
  // Synchronous full drain: collapses L1 + L0 runs + active into the
  // base (in place when no generation references the base, otherwise
  // rebuild-and-swap). Invalidates any in-flight background merge.
  void CompactLocked();
  // Closes the staging buffer as the newest L0 run and opens a fresh
  // one.
  void SealLocked();
  // Folds every L0 run (+ current L1) into a fresh L1 run, on this
  // thread (synchronous leveled mode).
  void FoldLocked();
  // Applies one collapsed run to the base: in place when the base never
  // escaped the mutex, otherwise rebuild-and-swap.
  void ApplyRunToBaseLocked(const DeltaStore& run);
  // True when L1 is big enough (vs the base) to pay the base rebuild.
  bool L1MergeDueLocked() const;
  // True when the compactor has a job to pick up.
  bool HasCompactorWorkLocked() const;
  // Blocks until no sealed run is pending (background mode); sets the
  // drain request so the leveled compactor merges all the way down. May
  // chase re-seals by concurrent writers; used only by the rare bulk
  // paths that need a sealed-free state (BulkLoad).
  void WaitForMergeLocked(std::unique_lock<std::mutex>& lock);
  // Blocks until one more merge completes or its inputs are wiped —
  // bounded even under sustained concurrent writes (Compact's wait).
  void AwaitOneMergeLocked(std::unique_lock<std::mutex>& lock);
  // Clear body (shared by Clear and the all-wildcard ErasePattern).
  void ClearLocked();
  // Compactor thread body (owns no lock between merges).
  void MergerLoop();
  // Registers every meter, the filter counters and the gate counters
  // into registry_ (constructor only; no lock needed).
  void RegisterMeters();
  // Pushes the writer-maintained level shapes and sizes into the
  // registry gauges (GatherStats and the exports call it so a dump is
  // coherent with the stats cut).
  void RefreshGaugesLocked() const;

  mutable std::mutex mu_;
  std::shared_ptr<Hexastore> base_;
  DeltaLevels levels_;                 // sealed L0/L1 runs being merged
  std::shared_ptr<DeltaStore> delta_;  // open staging buffer
  // Cached bottom-up delta-layer chain: L1, L0 oldest→newest, delta_.
  // Rebuilt whenever any of those pointers changes; the hot paths read
  // it instead of re-deriving the chain per op.
  std::vector<const DeltaStore*> chain_;
  // True once a pointer to the current base_/delta_ object left the
  // mutex scope; cleared only when the pointer is replaced.
  mutable bool base_exposed_ = false;
  mutable bool delta_exposed_ = false;
  // Set by every mutation/structure change; cleared by PublishLocked —
  // lets repeated exposures (accessor loops) skip redundant publishes.
  mutable bool dirty_ = true;
  // Ops of delta_ included in the last publication (0 when the active
  // buffer was excluded); a merge-completion publish must re-include the
  // buffer iff this is non-zero, to keep published views monotonic.
  mutable std::size_t published_active_ops_ = 0;

  std::size_t compact_threshold_ = kDeltaCompactThresholdDefault;
  bool background_ = false;
  std::size_t l0_run_limit_ = 0;
  double l1_base_fraction_ = 0.25;
  std::size_t memory_budget_ = 0;
  // Monkey-style per-level filter sizing: hot, small L0 runs get the
  // full bit budget; the cold, big L1 run gets half (never below 2
  // bits/key once enabled).
  std::size_t filter_bits_l0_ = 0;
  std::size_t filter_bits_l1_ = 0;
  std::size_t size_ = 0;
  // Logical triples in base ∪ levels (size_ minus the active buffer's
  // net contribution): the exact size of a publication that excludes
  // the staging buffer. Updated at every seal, drain and Clear.
  std::size_t levels_size_ = 0;
  std::uint64_t epoch_ = 0;

  // Background-compaction machinery.
  std::thread merger_;
  std::condition_variable work_cv_;   // compactor waits for a seal
  std::condition_variable drain_cv_;  // waiters wait for levels_.empty()
  bool stop_ = false;
  bool drain_requested_ = false;  // leveled compactor: merge all the way down
  std::uint64_t merge_ticket_ = 0;  // bumped to invalidate in-flight merges

  // Filter + budget accounting.
  std::shared_ptr<MemoryTracker> tracker_;
  std::shared_ptr<RunFilterCounters> filter_counters_;

  // Registry-registered instruments (hexa_delta_* names; see
  // RegisterMeters in delta_hexastore.cc). The counters ARE the store's
  // bookkeeping — DeltaStats is a view over them — so they are always
  // maintained; only the latency histograms honor the HEXA_METRICS
  // toggle (via ScopedTimer). Mutable because const read paths
  // (Contains, AcquireReadHandle) time themselves.
  struct Meters {
    obs::Counter compactions;       // every merge (drain, bg merge, fold)
    obs::Counter seals;
    obs::Counter background_merges;
    obs::Counter merge_discards;
    obs::Counter seal_overflows;
    obs::Counter l0_merges;
    obs::Counter base_merges;
    obs::Counter merge_run_ops;
    obs::Counter base_rebuild_triples;
    obs::Counter staged_ops_total;
    obs::Counter filters_dropped;
    obs::Counter budget_seals;
    obs::Counter budget_folds;
    obs::Counter budget_base_merges;
    // Hot-path histograms sample 1-in-2^kHotPathSampleShift to keep
    // insert overhead minimal (pinned by bench/abl_obs_overhead.cc);
    // merge-phase histograms record every occurrence.
    obs::LatencyHistogram insert_ns{obs::kHotPathSampleShift};
    obs::LatencyHistogram erase_ns{obs::kHotPathSampleShift};
    obs::LatencyHistogram contains_ns{obs::kHotPathSampleShift};
    obs::LatencyHistogram handle_acquire_ns{obs::kHotPathSampleShift};
    obs::LatencyHistogram seal_ns{0};
    obs::LatencyHistogram fold_ns{0};
    obs::LatencyHistogram base_merge_ns{0};
    // Gauges refreshed by RefreshGaugesLocked (level shapes + sizes).
    obs::Gauge staged_ops;
    obs::Gauge l0_runs;
    obs::Gauge l1_ops;
    obs::Gauge base_triples;
    obs::Gauge resident_bytes;
    obs::Gauge size_triples;
    obs::Gauge retire_queue_depth;
  };
  mutable obs::MetricsRegistry registry_;
  mutable obs::TraceRing trace_;
  mutable Meters meters_;

  // Declared after the instruments it points at (destroyed first).
  mutable GenerationGate gate_;
};

}  // namespace hexastore

#endif  // HEXASTORE_DELTA_DELTA_HEXASTORE_H_
