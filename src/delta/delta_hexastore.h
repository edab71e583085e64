// DeltaHexastore: an LSM-style update-friendly TripleStore layering
// hash-backed DeltaStore runs (staged inserts + tombstones) over a base
// Hexastore.
//
// Write path: Insert/Erase stage O(1)-ish edits in the active delta
// instead of mutating all six sorted views of the base (the §4.2 update
// deficiency). When the buffer reaches `DeltaOptions::compact_threshold`
// it is sealed (two pointer swaps) into an immutable **L0 run**, and one
// compaction engine decides what merges next. Its policy picks one job
// at a time:
//
//   * flat (`l0_run_limit == 0`, the default): every seal is followed
//     by a full **drain** of the sealed runs into the base (one sorted
//     BulkLoad-style merge).
//   * leveled (`l0_run_limit > 0`): nothing merges at the seal. Once
//     `l0_run_limit` runs accumulate they **fold** into a single
//     **L1 run** (cost proportional to the staged ops), and only when
//     L1 reaches `l1_base_fraction` of the base does a drain rebuild
//     the permutation indexes — so drain cost is bounded and write
//     amplification drops with the run limit.
//
// Explicit drains (Compact) ask either policy for a full drain, and
// memory pressure makes a leveled store fold and drain early. The jobs
// run in one of two placements:
//
//   * inline (the default): on the writer, right after the seal, under
//     the store mutex.
//   * compactor thread (`background_compaction`): off the mutex, while
//     writers keep sealing new L0 runs; the result commits only if no
//     Clear/BulkLoad replaced its inputs meanwhile.
//
// Either placement drains into a base no reader holds, in place
// (O(run · log)), instead of rebuilding all six indexes: the current
// base while it was never exposed, else a *spare* — the base the last
// drain replaced — once its pin is released, after it replays the runs
// drained since (the left-right pattern). Only when neither is free
// does a drain rebuild the base; the old one then becomes the spare.
//
// docs/delta-levels.md specifies the policy.
//
// Read path: the TripleStore interface (Contains, Scan, EstimateMatches)
// always exposes the consistent union across the whole chain
//   active ▷ L0 runs (newest first) ▷ L1 ▷ base
// with each layer applying its point and pattern tombstones to
// everything beneath it. The paper's sorted vectors and lists are the
// base Hexastore's own accessors; the store does not mirror them.
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
//     publication (a publication happens at every GetSnapshot, every
//     job the compactor thread commits, and Clear/BulkLoad when that
//     thread runs).
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
  /// Staged operations that seal the active buffer into an L0 run.
  std::size_t compact_threshold = kDeltaCompactThresholdDefault;
  /// Run the compaction jobs on a dedicated compactor thread instead of
  /// inline on the writer right after each seal.
  bool background_compaction = false;
  /// Leveled deltas: number of sealed L0 runs that triggers an L0→L1
  /// fold. 0 disables leveling ("flat": every seal is followed by a
  /// full drain, so every seal merges straight into the base).
  std::size_t l0_run_limit = 0;
  /// Leveled deltas: L1 merges into the base once its op count reaches
  /// this fraction of the base size (but never before it holds at least
  /// one compact_threshold of ops). Must be finite and > 0; the store
  /// clamps invalid values (0, negative, NaN, inf) back to the default
  /// rather than silently degrading to always-base-merge.
  double l1_base_fraction = 0.25;
  /// Hard budget for tracked delta memory (sealed runs + their filters +
  /// the active op table). 0 = unlimited. While tracked bytes exceed the
  /// budget the store seals early, folds and drains regardless of
  /// l0_run_limit and l1_base_fraction, and stops building filters for
  /// new runs until back under.
  std::size_t memory_budget_bytes = 0;
  /// Prefix-filter sizing for sealed L0 runs, in bits per indexed key
  /// class (Monkey-style: the colder, bigger L1 run gets half). 0
  /// disables filters.
  std::size_t filter_bits_per_key = 10;
  /// Capacity (in events) of the lifecycle trace ring (see
  /// obs/trace_ring.h); rounded up to a power of two, minimum 8.
  std::size_t trace_capacity = 1024;

  /// Clamps every field to its documented domain in place. Returns an
  /// empty string when nothing was wrong, else every repair joined by
  /// "; " (the DeltaHexastore constructor logs it).
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

  /// Stages the insert in the delta; seals at the threshold and runs
  /// the compaction jobs that fall due (inline placement) or wakes the
  /// compactor. O(1) except where an inline job runs.
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
  /// the layers' sorted insert chunks).
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
  /// Clear, and a predicate-only pattern (?, p, ?) counts its matches by
  /// one merged scan and stages ONE pattern-level tombstone instead of
  /// one per match (it never waits on the compactor). Other shapes fall
  /// back to staging a point tombstone per match.
  std::size_t ErasePattern(const IdPattern& pattern);

  /// Drains every staged layer into the base on the calling thread (an
  /// in-flight compactor job is invalidated, not waited for), then
  /// merges `triples` straight into the base via its sorted BulkLoad
  /// path.
  void BulkLoad(const IdTripleVec& triples) override;

  /// Removes all triples (base, sealed runs and staged); an in-flight
  /// background merge is invalidated, not waited for.
  void Clear();

  // -- Delta management ---------------------------------------------------

  /// Drains every op staged at the call into the base: seals the
  /// staging buffer and runs (inline) or waits for (compactor thread)
  /// one full drain. The wait is bounded even under sustained concurrent
  /// writes: their later seals may leave new runs behind and are not
  /// chased. No-op when nothing is staged.
  void Compact();

  /// Operations staged and not yet merged into the base (active plus
  /// every sealed run).
  std::size_t StagedOps() const;
  /// Compaction jobs (drains into the base and L0→L1 folds) completed
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
  /// return false), so planners and BGP evaluation run entirely against
  /// the pinned generation. Cheap to copy and safe to read from any
  /// thread while writers keep inserting and merging.
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

  // -- Introspection -------------------------------------------------------

  /// The compacted base store (test/bench access; reflects the state as
  /// of the last base merge). The handle pins that base: no drain writes
  /// into it while the handle lives.
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
  // escapes — GetSnapshot, base(), or a compactor-thread job's commit —
  // the objects it references are marked exposed and not mutated in
  // place while anything outside the writer holds them: writers clone
  // the delta (copy-on-write), and drains write into a base nobody pins
  // (see BaseCell). Lock-free readers therefore only ever dereference
  // frozen objects; the epoch gate (generation.h) keeps them allocated.

  // Publishes the current {base_, levels_, delta_} through the gate.
  // `logical_size` is the triple count of the published view;
  // `include_active` controls whether the staging buffer is frozen into
  // it (excluding it keeps the buffer writer-private — no copy-on-write
  // on the next op). An included buffer is settled first, so readers of
  // the generation never sort it.
  void PublishLocked(std::size_t logical_size, bool include_active) const;
  // The pin of the current base every holder outside the writer shares;
  // minted on first exposure (see BaseCell).
  std::shared_ptr<const Hexastore> PinBaseLocked() const;
  // Forgets the spare base and the runs it lags.
  void DropSpareLocked();
  // Clones the delta iff it ever escaped (copy-on-write), so staged
  // mutations never alter a published generation.
  void EnsureDeltaWritableLocked();
  // Rebuilds the cached bottom-up layer chain (L1, L0 runs, active)
  // after any pointer in it changed.
  void RebuildChainLocked();
  // Threshold trigger: seals the staging buffer at compact_threshold (or
  // early under memory pressure), then schedules the due jobs.
  void MaybeCompactLocked();
  // True when a budget is set and tracked run memory plus the active
  // table exceeds it.
  bool OverBudgetLocked() const;
  // Opens a fresh staging buffer wired to the shared filter counters.
  std::shared_ptr<DeltaStore> FreshDeltaLocked() const;
  // Arms the filter on a store being sealed/adopted as a run (or counts
  // a drop under budget pressure) and registers it with the tracker.
  void ConfigureRunLocked(const DeltaStore& run, std::size_t bits_per_key);
  // Closes the staging buffer as the newest L0 run and opens a fresh
  // one.
  void SealLocked();

  // One compaction job. Either kind consumes every sealed run present
  // when it is picked: a fold turns them (L1 included) into a fresh L1
  // run, a drain merges them into the base.
  struct Job {
    enum Kind { kNone, kFold, kDrain };
    Kind kind = kNone;
    bool budget = false;  // only memory pressure made it due
  };
  // The compaction policy, for every mode: the next job due, if any.
  Job NextJobLocked() const;
  // Runs one job. With `lock` (the compactor thread) the job builds off
  // the mutex and commits only if no Clear/BulkLoad bumped the ticket
  // meanwhile, then publishes; without it (inline) it holds the mutex
  // throughout.
  void RunJobLocked(Job job, std::unique_lock<std::mutex>* lock);
  // The placement decision: runs every due job inline, or wakes the
  // compactor thread.
  void ScheduleJobsLocked();
  // Clear body (shared by Clear and the all-wildcard ErasePattern).
  void ClearLocked();
  // Compactor thread body (owns no lock while a job builds).
  void MergerLoop();
  // Registers every meter, the filter counters and the gate counters
  // into registry_ (constructor only; no lock needed).
  void RegisterMeters();
  // Pushes the writer-maintained level shapes and sizes into the
  // registry gauges (GatherStats and the exports call it so a dump is
  // coherent with the stats cut).
  void RefreshGaugesLocked() const;

  // A base the writer owns, with the flag its pin's deleter sets, and
  // one drained run as a base applies it (both defined in
  // delta_hexastore.cc).
  struct BaseCell;
  struct DrainedRun;

  mutable std::mutex mu_;
  std::shared_ptr<BaseCell> base_;
  // The writer's copy of base_'s pin; null while base_ was never exposed
  // since it became current (a drain may then write base_ in place).
  mutable std::shared_ptr<const Hexastore> base_pin_;
  // The base the last drain replaced, kept to absorb the next drain in
  // place once its pin is released; null when dropped (Clear, BulkLoad,
  // or a lag costlier than a rebuild) or while a compactor job owns it.
  std::shared_ptr<BaseCell> spare_;
  // The runs drained since the spare was current, oldest first.
  std::vector<DrainedRun> spare_lag_;
  DeltaLevels levels_;                 // sealed L0/L1 runs being merged
  std::shared_ptr<DeltaStore> delta_;  // open staging buffer
  // Cached bottom-up delta-layer chain: L1, L0 oldest→newest, delta_.
  // Rebuilt whenever any of those pointers changes; the hot paths read
  // it instead of re-deriving the chain per op.
  std::vector<const DeltaStore*> chain_;
  // True once a pointer to the current delta_ object left the mutex
  // scope; cleared only when the pointer is replaced.
  mutable bool delta_exposed_ = false;
  // Set by every mutation/structure change; cleared by PublishLocked —
  // lets repeated GetSnapshot calls skip redundant publishes.
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
  // the staging buffer. Updated at every seal, Clear and BulkLoad; a
  // job only moves ops between the levels and the base.
  std::size_t levels_size_ = 0;
  std::uint64_t epoch_ = 0;

  // Compaction machinery.
  std::thread merger_;
  std::condition_variable work_cv_;   // compactor waits for a due job
  std::condition_variable drain_cv_;  // Compact waits for its drain
  bool stop_ = false;
  // Drains are tracked by the seal count they cover: the last drain (or
  // Clear) covered every run up to seal drained_seals_, and Compact asks
  // for one covering drain_target_ seals — owed while the target is
  // ahead.
  std::uint64_t drain_target_ = 0;
  std::uint64_t drained_seals_ = 0;
  std::uint64_t merge_ticket_ = 0;  // bumped to invalidate in-flight jobs

  // Filter + budget accounting.
  std::shared_ptr<MemoryTracker> tracker_;
  std::shared_ptr<RunFilterCounters> filter_counters_;
  // Shared with every DeltaStore the store creates, so sorts on reader
  // threads (lazy settles of sealed runs) count too.
  std::shared_ptr<obs::Counter> run_sort_triples_;

  // Registry-registered instruments (hexa_delta_* names; see
  // RegisterMeters in delta_hexastore.cc). The counters ARE the store's
  // bookkeeping — DeltaStats is a view over them — so they are always
  // maintained; only the latency histograms honor the HEXA_METRICS
  // toggle (via ScopedTimer). Mutable because const read paths
  // (Contains, AcquireReadHandle) time themselves.
  struct Meters {
    obs::Counter compactions;       // every job (drain or fold)
    obs::Counter seals;
    obs::Counter background_merges;
    obs::Counter merge_discards;
    obs::Counter seal_overflows;
    obs::Counter l0_merges;
    obs::Counter base_merges;
    obs::Counter base_rebuilds;     // drains that found no free base
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
