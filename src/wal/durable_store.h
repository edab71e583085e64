// Durable DeltaHexastore: the PR-2 staging store wrapped in a
// write-ahead log, so a crash loses at most the ops the configured
// durability mode had not yet fsynced (nothing in per-commit mode).
//
// Write path (the WAL rule — log, then apply):
//
//   1. append the op to the active segment (assigns a sequence number)
//   2. apply it to the in-memory DeltaHexastore
//   3. commit per DurabilityMode — per-commit fsync is a group commit:
//      concurrent writers share one fsync(2)
//
// Checkpoints ride the delta's compaction cadence: when a compaction
// completes, the store pins an immutable generation handle of the
// current state (snapshot isolation, no drain required), rotates to a
// fresh segment — the only step writers wait on — and then serializes
// the id-level "HXT1" snapshot from the pinned generation *off the
// store lock*: concurrent writers keep appending while the snapshot is
// written, and with DurabilityOptions::background_checkpoints the whole
// checkpoint runs on a dedicated thread so no writer pays for it at
// all. The MANIFEST is pointed at the (snapshot, segment, sequence)
// triple once the file is durable, and obsolete segments are deleted —
// so the WAL never holds more than roughly one compaction threshold of
// records.
//
// Recovery (Open) is deterministic: load the manifest's snapshot, replay
// every live segment in order skipping records the snapshot covers,
// tolerating a torn tail only in the newest segment, then start a fresh
// segment for new writes. The recovered store is exactly the committed
// prefix of the log.
//
// Reads (Contains/Scan/size/merged views) go straight to the inner
// DeltaHexastore and never touch the log — durability does not tax the
// read path. AcquireReadHandle() additionally exposes the inner store's
// wait-free pinned-generation handle.
//
// Thread-safety: every public member is safe from any thread. Mutators
// block on the internal (append, apply) mutex and on the configured
// durability barrier; Checkpoint() blocks its caller for the whole
// checkpoint but stalls concurrent writers only during pin + rotation.
// The full contracts live in docs/durability.md.
#ifndef HEXASTORE_WAL_DURABLE_STORE_H_
#define HEXASTORE_WAL_DURABLE_STORE_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "core/stats.h"
#include "core/store_interface.h"
#include "delta/delta_hexastore.h"
#include "util/status.h"
#include "wal/wal_format.h"
#include "wal/wal_writer.h"

namespace hexastore {

/// Configuration of a DurableDeltaHexastore.
struct DurabilityOptions {
  /// Directory holding segments, snapshots and the MANIFEST. Created if
  /// missing.
  std::string dir;
  DurabilityMode mode = DurabilityMode::kBatched;
  /// The inner store's configuration. Checkpoints ride its merge
  /// cadence: every drain, fold or base merge triggers one, and recovery
  /// replays the log into the same configuration, so the WAL stays
  /// bounded by roughly one compaction threshold of records whatever
  /// the leveling.
  DeltaOptions delta;
  /// WAL segment rotation size.
  std::size_t segment_bytes = 4u << 20;
  /// kBatched: unsynced bytes that trigger an fsync.
  std::size_t batch_bytes = 256u << 10;
  /// Run compaction-triggered checkpoints on a dedicated thread instead
  /// of inline on the committing writer. (Even inline, only segment
  /// rotation happens under the store lock; the snapshot itself is
  /// always serialized from a pinned generation off the lock.)
  bool background_checkpoints = false;
  /// Cross-store group commit in kBatched mode (see
  /// WalWriterOptions::commit_group): ShardedHexastore hands every
  /// shard the same group so one leader fsyncs all shard WALs.
  /// Borrowed; must outlive the store. Null = per-store batching.
  WalCommitGroup* commit_group = nullptr;
};

/// What recovery found in the WAL directory.
struct RecoveryInfo {
  bool loaded_snapshot = false;      ///< a checkpoint snapshot was loaded
  std::uint64_t segments_scanned = 0;
  std::uint64_t replayed_records = 0;
  std::uint64_t skipped_records = 0;  ///< already covered by the snapshot
  bool torn_tail = false;             ///< newest segment ended mid-record
};

/// Write-ahead-logged TripleStore over a DeltaHexastore.
class DurableDeltaHexastore : public TripleStore {
 public:
  /// Opens (creating or recovering) the store in `options.dir`.
  static Result<std::unique_ptr<DurableDeltaHexastore>> Open(
      const DurabilityOptions& options);

  DurableDeltaHexastore(const DurableDeltaHexastore&) = delete;
  DurableDeltaHexastore& operator=(const DurableDeltaHexastore&) = delete;
  /// Joins the checkpointer, then flushes the log tail (best effort).
  ~DurableDeltaHexastore() override;

  // -- TripleStore interface ----------------------------------------------
  // Mutators return false (and leave the store untouched) when the op is
  // a logical no-op, exactly like DeltaHexastore, or when the WAL append
  // fails (the append error poisons the writer, so every later mutation
  // fails too; status() reports it). A failed durability *barrier* — the
  // per-commit/batched fsync after a successful append — cannot be
  // rolled back from memory: the op stays applied, the return value
  // still reflects the logical outcome, the error is sticky in status()
  // and no later commit will be acknowledged past it. Callers that need
  // strict per-commit guarantees must treat a non-OK status() as "recent
  // acknowledgments may not be durable".

  bool Insert(const IdTriple& t) override;
  bool Erase(const IdTriple& t) override;
  bool Contains(const IdTriple& t) const override {
    return store_.Contains(t);
  }
  std::size_t size() const override { return store_.size(); }
  void Scan(const IdPattern& pattern, const TripleSink& sink) const override {
    store_.Scan(pattern, sink);
  }
  std::size_t MemoryBytes() const override { return store_.MemoryBytes(); }
  std::string name() const override { return "DurableDeltaHexastore"; }
  /// Planner estimates use the inner store's delta-aware fast path.
  std::uint64_t EstimateMatches(const IdPattern& pattern) const override {
    return store_.EstimateMatches(pattern);
  }

  /// Bulk loads are not logged record-by-record; the load is made
  /// durable by the immediate checkpoint that follows it (atomic at
  /// checkpoint completion).
  void BulkLoad(const IdTripleVec& triples) override;

  /// Logged pattern erase (one record regardless of match count; the
  /// delta's pattern-tombstone fast path applies underneath).
  std::size_t ErasePattern(const IdPattern& pattern);

  /// Logged Clear.
  void Clear();

  // -- Durability management ----------------------------------------------

  /// Forces a checkpoint now: pin a generation, rotate, serialize the
  /// snapshot off-lock, commit the manifest, prune.
  Status Checkpoint();

  /// Fsyncs everything appended so far (a durability barrier stronger
  /// than the configured mode).
  Status Flush();

  /// First WAL I/O error encountered, sticky; OK while healthy.
  Status status() const;

  /// Snapshot-isolated read handle of the inner store (linearizable).
  DeltaHexastore::Snapshot GetSnapshot() const {
    return store_.GetSnapshot();
  }

  /// Wait-free pinned-generation handle of the inner store (may trail
  /// the live store; see DeltaHexastore::AcquireReadHandle).
  DeltaHexastore::Snapshot AcquireReadHandle() const {
    return store_.AcquireReadHandle();
  }

  /// Pins the inner store (DeltaHexastore::Pin); reads never touch the
  /// log.
  bool Pin(PinPolicy policy, const PinnedFn& fn) const override {
    return store_.Pin(policy, fn);
  }

  /// The wrapped in-memory store. Read-only: mutating through it would
  /// bypass the WAL (hence const).
  const DeltaHexastore& delta() const { return store_; }

  const RecoveryInfo& recovery_info() const { return recovery_; }
  DeltaStats delta_stats() const { return store_.Stats(); }
  EpochStats epoch_stats() const { return store_.EpochCounters(); }
  WalStats wal_stats() const;
  /// One coherent delta + epoch + WAL snapshot (has_wal set; see the
  /// StatsSnapshot memory-ordering contract in core/stats.h).
  StatsSnapshot GatherStats() const;
  const DurabilityOptions& options() const { return options_; }

  // -- Observability exports ----------------------------------------------
  // All WAL-layer instruments are registered into the inner store's
  // registry (hexa_wal_* names), so these delegate to it and every
  // export carries core, delta, epoch, filter and WAL series together.

  obs::MetricsRegistry& metrics_registry() const {
    return store_.metrics_registry();
  }
  obs::TraceRing& trace_ring() const { return store_.trace_ring(); }
  std::string MetricsText() const { return store_.MetricsText(); }
  std::string MetricsJson() const { return store_.MetricsJson(); }
  /// Explicit JSON dump (async-signal-unsafe work done here, not in a
  /// handler; safe to call from a SIGUSR1-woken thread). The inner
  /// store's destructor additionally honors $HEXA_METRICS_JSON.
  bool DumpMetricsJson(const std::string& path) const {
    return store_.DumpMetricsJson(path);
  }

  /// Inner-store invariants (test hook).
  bool CheckInvariants(std::string* error = nullptr) const {
    return store_.CheckInvariants(error);
  }

 private:
  explicit DurableDeltaHexastore(const DurabilityOptions& options)
      : options_(options), store_(options.delta) {
    RegisterWalMeters();
  }

  // Registers wal_meters_ into store_'s registry (hexa_wal_* names).
  void RegisterWalMeters();

  // Post-append tail of every mutator: group commit outside mu_, then a
  // checkpoint (inline or handed to the checkpointer) if a compaction
  // completed since the last one.
  void FinishCommit(std::uint64_t sequence, bool need_checkpoint);

  // Full checkpoint body; takes checkpoint_mu_ (one checkpoint at a
  // time) and mu_ only for the pin+rotate and manifest-commit steps.
  // With `only_if_stale`, returns OK without work when no compaction
  // completed since the last checkpoint (trigger dedupe).
  Status RunCheckpoint(bool only_if_stale);

  // Checkpointer-thread body (background_checkpoints mode).
  void CheckpointerLoop();

  const DurabilityOptions options_;

  // WAL-layer instruments. Owned here rather than by the WalWriter (the
  // writer records into them by pointer, see WalInstruments) and
  // declared before store_, so they are still alive when the inner
  // store's destructor runs the $HEXA_METRICS_JSON registry dump.
  struct WalMeters {
    obs::Counter records_appended;
    obs::Counter fsyncs;
    obs::Counter rotations;
    obs::Counter commit_requests;
    obs::Counter checkpoints;
    obs::Gauge appended_bytes;
    obs::LatencyHistogram append_ns{obs::kHotPathSampleShift};
    obs::LatencyHistogram fsync_ns;
    obs::LatencyHistogram checkpoint_ns;
  };
  mutable WalMeters wal_meters_;

  // Orders (append, apply) pairs so replay order equals apply order.
  mutable std::mutex mu_;
  DeltaHexastore store_;
  std::unique_ptr<WalWriter> wal_;
  RecoveryInfo recovery_;
  Status io_status_;
  std::uint64_t last_sequence_ = 0;       // last op logged and applied
  std::uint64_t checkpoint_sequence_ = 0;  // covered by the snapshot
  std::uint64_t first_live_segment_ = 1;
  std::uint64_t last_compaction_count_ = 0;

  // Serializes whole checkpoints against each other (writers are only
  // ever blocked by the short mu_ sections inside).
  std::mutex checkpoint_mu_;

  // Background checkpointer (background_checkpoints mode).
  std::thread checkpointer_;
  std::mutex checkpoint_request_mu_;
  std::condition_variable checkpoint_cv_;
  bool checkpoint_requested_ = false;
  bool stop_checkpointer_ = false;
};

}  // namespace hexastore

#endif  // HEXASTORE_WAL_DURABLE_STORE_H_
