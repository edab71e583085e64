// ShardedHexastore: N independent DeltaHexastore shards behind one
// TripleStore facade, partitioned by subject hash.
//
// Write path: Insert/Erase/Contains route to the shard owning the
// triple's subject without any facade-level lock — each shard keeps its
// own writer mutex, staging delta, compactor thread and memory-budget
// slice, so writers on different shards never contend. In durable mode
// every shard owns a WAL directory (`shard-NNN/` under the root) and a
// shared WalCommitGroup batches fsyncs across shard WALs in kBatched
// mode (one leader syncs every member once the group's unsynced bytes
// cross the batch threshold).
//
// One shard is the single store: its WAL lives in the root itself (the
// single-store layout), no commit group is built and bulk loads pass
// straight through — hexastore_server always serves this facade.
//
// Read path: scatter-gather. A pattern with a bound subject routes to
// one shard; anything else fans out across all shards and merges. The
// merged accessor views (objects/predicates/subjects and the six header
// vectors) k-way merge the per-shard sorted lists, so the result is
// byte-identical to a single store over the same triples — the
// sharded-vs-single oracle in store_equivalence_test pins this.
// ShardedSnapshot pins one generation per shard (in shard order) and is
// itself a read-only TripleStore, so BGP evaluation, the plan cache
// (whose stamp is the concatenation of the per-shard stamps) and
// EXPLAIN ANALYZE run unchanged against it.
//
// Semantics vs a single DeltaHexastore (docs/sharding.md):
//  * Contents, Scan/Match results, ErasePattern counts: identical.
//    Subject-hash partitioning is disjoint, so fan-out ErasePattern
//    counts sum without double-counting.
//  * EstimateMatches: exact (hence identical) for fully-bound patterns
//    and for quiescent stores (post-Compact); mid-churn partial-pattern
//    estimates apply each shard's tombstone-scaling model to its own
//    slice, which is not bit-identical to the single store's global
//    scaling (both stay within the same q-error envelope).
//  * A ShardedSnapshot is per-shard snapshot-isolated: each shard's view
//    is immutable and consistent, but the shards are pinned in sequence,
//    so a cross-shard writer racing the pin may land in a later shard's
//    view and not an earlier one's. With quiesced writers (and in every
//    single-writer test) the pin is exact.
#ifndef HEXASTORE_SHARD_SHARDED_HEXASTORE_H_
#define HEXASTORE_SHARD_SHARDED_HEXASTORE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/stats.h"
#include "core/store_interface.h"
#include "delta/delta_hexastore.h"
#include "delta/merged_list.h"
#include "util/status.h"
#include "wal/durable_store.h"
#include "wal/wal_writer.h"

namespace hexastore {

/// Construction-time configuration of a ShardedHexastore.
struct ShardedOptions {
  /// Number of independent shards. Clamped to >= 1.
  std::size_t shards = 1;
  /// Every shard's delta configuration, in both modes. The memory budget
  /// is the TOTAL across shards; each shard gets an equal slice.
  DeltaOptions delta;
  /// True: every shard is a DurableDeltaHexastore configured by
  /// `durability` (the facade fills in each shard's `dir`, `delta` and
  /// `commit_group`). False: plain in-memory shards.
  bool durable = false;
  DurabilityOptions durability;

  /// Clamps fields to their documented domains in place; returns "" or
  /// the repairs made, one per line (the shard count's, then
  /// `delta`'s).
  std::string Normalize();
};

/// A pinned per-shard generation vector: one immutable
/// DeltaHexastore::Snapshot per shard, exposed as a read-only
/// TripleStore with the same scatter-gather semantics as the facade.
class ShardedSnapshot final : public TripleStore {
 public:
  ShardedSnapshot() = default;

  // Read-only view: mutators are documented no-ops.
  bool Insert(const IdTriple&) override { return false; }
  bool Erase(const IdTriple&) override { return false; }
  void BulkLoad(const IdTripleVec&) override {}

  bool Contains(const IdTriple& t) const override;
  std::size_t size() const override;
  void Scan(const IdPattern& pattern, const TripleSink& sink) const override;
  std::size_t MemoryBytes() const override;
  std::string name() const override { return "ShardedSnapshot"; }
  std::uint64_t EstimateMatches(const IdPattern& pattern) const override;

  /// Per-shard freshness stamps, concatenated in shard order as
  /// (epoch, staged_ops) pairs — the plan-cache stamp of this view.
  /// Equal stamp vectors mean no shard mutated or merged in between.
  std::vector<std::uint64_t> StampVector() const;

  std::size_t shard_count() const { return shards_.size(); }
  const DeltaHexastore::Snapshot& shard(std::size_t i) const {
    return shards_[i];
  }

  // Merged accessor views over the pinned shard generations (same
  // contracts as DeltaHexastore::Snapshot; scatter results are k-way
  // merged so orders match the single-store views byte-for-byte).
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
  friend class ShardedHexastore;
  explicit ShardedSnapshot(std::vector<DeltaHexastore::Snapshot> shards)
      : shards_(std::move(shards)) {}

  std::vector<DeltaHexastore::Snapshot> shards_;
};

/// Subject-hash-partitioned TripleStore facade over N DeltaHexastore
/// (or DurableDeltaHexastore) shards. Thread-safety: every public
/// member is safe from any thread; the facade itself holds no lock —
/// mutators serialize per shard, scatter reads see each shard's own
/// consistent view.
class ShardedHexastore : public TripleStore {
 public:
  /// In-memory facade (options.durable must be false).
  explicit ShardedHexastore(const ShardedOptions& options);

  /// Opens (creating or recovering) the facade. Durable mode opens one
  /// DurableDeltaHexastore per shard under `durability.dir/shard-NNN/`
  /// and records the shard count in a `SHARDS` manifest at the root. A
  /// single shard keeps the single-store layout instead: its WAL and
  /// MANIFEST sit in the root and no SHARDS file is written, so a root
  /// MANIFEST without SHARDS records one shard. Reopening with a
  /// different count fails with InvalidArgument (the partition function
  /// would misroute every triple, so this is a config error, never
  /// silent corruption).
  static Result<std::unique_ptr<ShardedHexastore>> Open(
      const ShardedOptions& options);

  ShardedHexastore(const ShardedHexastore&) = delete;
  ShardedHexastore& operator=(const ShardedHexastore&) = delete;
  ~ShardedHexastore() override;

  /// The routing function: which shard owns subject `s` out of `n`.
  /// A 64-bit finalizer hash, NOT `s % n` — dictionary ids are dense and
  /// sequential, so modulo would stripe correlated subjects together.
  static std::size_t ShardOf(Id s, std::size_t n);

  // -- TripleStore interface ----------------------------------------------

  bool Insert(const IdTriple& t) override;
  bool Erase(const IdTriple& t) override;
  bool Contains(const IdTriple& t) const override;
  std::size_t size() const override;
  void Scan(const IdPattern& pattern, const TripleSink& sink) const override;
  std::size_t MemoryBytes() const override;
  std::string name() const override { return "ShardedHexastore"; }
  std::uint64_t EstimateMatches(const IdPattern& pattern) const override;
  /// Partitions by subject and bulk-loads every shard (one shard takes
  /// `triples` as they are).
  void BulkLoad(const IdTripleVec& triples) override;
  /// Pins a ShardedSnapshot stamped with its StampVector.
  bool Pin(PinPolicy policy, const PinnedFn& fn) const override;

  /// Pattern erase. Bound subject routes to one shard; the all-wildcard
  /// pattern clears every shard; every other shape fans out and SUMS the
  /// per-shard counts — exact, because the subject partition is
  /// disjoint (each erased triple is counted by exactly one shard).
  std::size_t ErasePattern(const IdPattern& pattern);

  /// Clears every shard.
  void Clear();

  /// Compacts every shard (drains all staged ops).
  void Compact();

  /// Total staged ops across shards.
  std::size_t StagedOps() const;

  // -- Pinned reads --------------------------------------------------------

  /// Linearizable per shard: GetSnapshot() on each shard in shard
  /// order. See the class comment for the cross-shard contract.
  ShardedSnapshot GetSnapshot() const;
  /// Wait-free: AcquireReadHandle() on each shard in shard order.
  ShardedSnapshot AcquireReadHandle() const;
  /// Publishes every shard's current generation (GetSnapshot without
  /// keeping the handles), so wait-free reads see every write so far.
  void Publish() const;

  // -- Merged accessor views (scatter-gather; see ShardedSnapshot) --------

  MergedList objects(Id s, Id p) const;
  MergedList predicates(Id s, Id o) const;
  MergedList subjects(Id p, Id o) const;
  IdVec predicates_of_subject(Id s) const;
  IdVec objects_of_subject(Id s) const;
  IdVec subjects_of_predicate(Id p) const;
  IdVec objects_of_predicate(Id p) const;
  IdVec subjects_of_object(Id o) const;
  IdVec predicates_of_object(Id o) const;

  // -- Shard access --------------------------------------------------------

  std::size_t shard_count() const { return shards_.size(); }
  /// The in-memory delta store of shard `i` (the durable wrapper's inner
  /// store in durable mode).
  const DeltaHexastore& shard(std::size_t i) const { return *shards_[i]; }
  /// The durable wrapper of shard `i`; null in in-memory mode.
  DurableDeltaHexastore* durable_shard(std::size_t i) const {
    return durables_.empty() ? nullptr : durables_[i].get();
  }

  // -- Durability management (durable mode; no-ops / OK otherwise) --------

  /// First sticky WAL error across shards; OK while all healthy.
  Status status() const;
  /// Fsyncs every shard's log tail.
  Status Flush();
  /// Forces a checkpoint on every shard.
  Status Checkpoint();

  // -- Stats + observability ----------------------------------------------

  /// Aggregated delta counters (field-wise sum across shards).
  DeltaStats Stats() const;

  /// Verifies every shard's invariants AND the routing invariant: every
  /// triple lives in the shard its subject hashes to.
  bool CheckInvariants(std::string* error = nullptr) const;

  /// The facade's primary registry (shard 0's): hexa_shard_* facade
  /// instruments and the per-shard gauges are registered here, next to
  /// shard 0's hexa_delta_*/hexa_epoch_* families, so one export serves
  /// scrapes of the whole facade. Shards 1..N-1 keep their own
  /// registries (reachable via shard(i).metrics_registry()).
  obs::MetricsRegistry& metrics_registry() const {
    return shards_[0]->metrics_registry();
  }
  obs::TraceRing& trace_ring() const { return shards_[0]->trace_ring(); }
  /// Prometheus text of the primary registry (shard gauges refreshed).
  std::string MetricsText() const;
  /// JSON export of the primary registry (schema v2).
  std::string MetricsJson() const;
  bool DumpMetricsJson(const std::string& path) const;

 private:
  ShardedHexastore() = default;

  std::size_t Route(Id s) const { return ShardOf(s, shards_.size()); }
  // Registers the facade meters into shard 0's registry.
  void RegisterShardMeters();
  // Pushes per-shard sizes/staged-ops into the facade gauges.
  void RefreshShardGauges() const;
  // Sorted-unique k-way union of one accessor across all shards.
  template <typename Fn>
  IdVec GatherUnion(Fn&& per_shard) const;

  // Cross-shard group-commit coordinator (durable kBatched mode, more
  // than one shard). Declared before the shards so it outlives their
  // WalWriters.
  std::unique_ptr<WalCommitGroup> commit_group_;

  // Durable wrappers (empty in in-memory mode) and the plain stores
  // owned directly (empty in durable mode).
  std::vector<std::unique_ptr<DurableDeltaHexastore>> durables_;
  std::vector<std::unique_ptr<DeltaHexastore>> plains_;
  // Uniform views over the per-shard stores: shards_[i] is the delta
  // store (plain, or the durable wrapper's inner store — non-const
  // access is confined to Compact(), which is WAL-safe: it only drains
  // staged state the log already covers); writers_[i] is the mutation
  // target the WAL rule requires (the wrapper in durable mode).
  std::vector<DeltaHexastore*> shards_;
  std::vector<TripleStore*> writers_;

  // Facade instruments (registered into shard 0's registry).
  struct ShardMeters {
    obs::Counter routed_writes;    // Insert/Erase routed to one shard
    obs::Counter routed_reads;     // bound-subject reads (one shard)
    obs::Counter scatter_reads;    // fan-out reads (all shards)
    obs::Counter fanout_erases;    // ErasePattern fan-outs
    obs::Gauge shard_count;
    obs::Gauge min_shard_triples;  // balance: smallest shard
    obs::Gauge max_shard_triples;  // balance: largest shard
    obs::Gauge staged_ops_total;
  };
  mutable ShardMeters meters_;
  // Per-shard size gauges (hexa_shard_<i>_size_triples), heap-allocated
  // so registered pointers stay stable.
  std::vector<std::unique_ptr<obs::Gauge>> shard_size_gauges_;
};

}  // namespace hexastore

#endif  // HEXASTORE_SHARD_SHARDED_HEXASTORE_H_
