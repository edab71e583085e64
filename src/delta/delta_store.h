// Hash-backed staging buffer of pending mutations over a base Hexastore
// (LSM-style write path; cf. the RocksDB memtable + tombstone design).
//
// Point writes land here in O(1) instead of paying the O(log + shift)
// mutation in all six sorted views of the base store. Inserts are staged
// as positive entries, erases of base-resident triples as tombstones; a
// compaction later drains both into the base in one sorted merge.
//
// Besides point ops the store holds predicate-level *pattern tombstones*
// (StagePatternErase): one O(1) entry erases every base triple with that
// predicate, the fast path for bulk "erase all (?, p, ?)" deletes that
// would otherwise stage one tombstone per match.
//
// The invariants that keep the merged read path simple, relied on by
// DeltaHexastore (P = pattern-erased preds):
//
//   * a staged insert whose predicate is not in P is never present in
//     the base (adds disjoint); an insert with predicate in P may be a
//     re-insert of a pattern-suppressed base triple
//   * a point tombstone is always present in the base and its predicate
//     is never in P (removes subset, pattern subsumes points)
//
// so the logical contents are always
//   (base ∖ {t : t.p ∈ P} ∖ tombstones) ∪ adds
// with no overlap ambiguity (op-table entries win over P in Lookup).
//
// Write path: ops live in a flat open-addressing table (one linear-probe
// access, no per-op node allocation) so staging stays allocation-free in
// steady state — this is where the insert-throughput win over the
// sextuple-indexed base comes from.
//
// Read path, sorted inserts: range scans need the staged inserts sorted
// three ways, (s,p,o), (p,o,s) and (o,s,p). They are held as a short
// list of immutable sorted *chunks* plus an unsorted tail of the inserts
// staged since the last Settle. Settle (the owner calls it before a
// buffer is published) sorts only the tail into a new chunk and merges
// chunks binary-counter style, so chunk sizes at least double going
// older and a store holds O(log n) of them. Chunks are shared by
// copy-on-write clones, so a published generation is never re-sorted:
// the next clone keeps its chunks and sorts only what it stages itself.
// A cancelled insert whose copy sits in a chunk stays recorded in the op
// table (scans skip it, the next merge of its chunk drops it, a
// re-insert revives it). Sealed and folded runs may still carry a tail;
// readers sort it lazily, once per run.
#ifndef HEXASTORE_DELTA_DELTA_STORE_H_
#define HEXASTORE_DELTA_DELTA_STORE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "delta/run_filter.h"
#include "index/sorted_vec.h"
#include "obs/metrics.h"
#include "rdf/triple.h"
#include "util/common.h"
#include "util/memory_tracker.h"

namespace hexastore {

/// Hash for IdTriple (splitmix64-style mix of all three ids).
struct IdTripleHash {
  std::size_t operator()(const IdTriple& t) const {
    std::uint64_t x = t.s * 0x9e3779b97f4a7c15ULL ^
                      (t.p + 0x7f4a7c15ULL) * 0xbf58476d1ce4e5b9ULL ^
                      (t.o + 0x94d049bb133111ebULL);
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<std::size_t>(x ^ (x >> 31));
  }
};

/// Kind of a staged operation.
enum class DeltaOp : std::uint8_t {
  kInsert = 0,     ///< triple added on top of the base
  kTombstone = 1,  ///< base-resident triple deleted
};

/// Unsorted staging buffer of inserts and tombstones.
///
/// Copyable on purpose: DeltaHexastore clones it (copy-on-write) when a
/// snapshot handle still references the pre-mutation state.
///
/// Thread-safety: mutators (Settle included) must be externally
/// serialized against everything else (DeltaHexastore calls them under
/// its mutex). On a frozen (never-again-mutated) instance every read is
/// safe from any thread: Lookup and ForEachOp are pure, and the
/// lazily-caching read helpers (ScanInserts, SortedInserts, MaybeFilter)
/// serialize their one-off cache build internally (double-checked under
/// cache_mu_), so sealed runs can be read concurrently by mutex readers,
/// lock-free snapshot readers and the compactor without any
/// pre-freezing.
class DeltaStore {
 public:
  DeltaStore() = default;
  ~DeltaStore();

  /// Copies the op table, pattern tombstones, counters, the unsorted
  /// tail and the shared counter sinks, and shares the settled chunks
  /// (read under the source's cache_mu_). The sorted tail and any built
  /// filter are left invalid on the copy (the cloning writer mutates
  /// next, which would discard them anyway).
  DeltaStore(const DeltaStore& other);
  DeltaStore& operator=(const DeltaStore&) = delete;

  /// Stages `t` as an insert; `base_present` says whether the base store
  /// already contains `t`. Returns true iff the logical store gains the
  /// triple (mirrors TripleStore::Insert).
  bool StageInsert(const IdTriple& t, bool base_present);

  /// Stages `t` as a tombstone; returns true iff the logical store loses
  /// the triple (mirrors TripleStore::Erase).
  bool StageErase(const IdTriple& t, bool base_present);

  /// Stages a predicate-level pattern tombstone: every base triple with
  /// predicate `p` becomes logically absent, and every staged point op
  /// with that predicate is dropped (inserts erased, tombstones
  /// subsumed). O(op table), independent of how many base triples match.
  void StagePatternErase(Id p);

  /// True iff predicate `p` is pattern-tombstoned.
  bool PatternErased(Id p) const { return SortedContains(pattern_preds_, p); }
  /// True iff any pattern tombstone is staged.
  bool HasPatternErases() const { return !pattern_preds_.empty(); }
  /// The pattern-tombstoned predicates, sorted ascending.
  const IdVec& pattern_erased_predicates() const { return pattern_preds_; }

  /// Overlay verdict for a membership test.
  enum class Presence : std::uint8_t {
    kInserted,  ///< staged insert: logically present
    kErased,    ///< tombstoned: logically absent
    kUnknown,   ///< not staged: defer to the base store
  };
  Presence Lookup(const IdTriple& t) const;

  /// Lookup that consults the run's prefix Bloom filter first (when one
  /// is enabled and built): a filter miss proves there is no op-table
  /// entry for `t`, so the verdict short-circuits to the pattern-erase
  /// check without probing the table. NOTE the semantics: a filter skip
  /// means "no point op", never "no pattern tombstone" — pattern
  /// tombstones live outside the filtered key space and are always
  /// consulted. Identical observable results to Lookup.
  Presence FilteredLookup(const IdTriple& t) const;

  /// Raw op-table probe, ignoring pattern tombstones (unlike Lookup,
  /// which folds them into the verdict). Used by the level-merge to
  /// resolve op pairs on the same triple.
  enum class OpLookup : std::uint8_t { kNone, kInsert, kTombstone };
  OpLookup LookupOp(const IdTriple& t) const;
  /// True iff the op table holds an entry for `t`.
  bool HasOp(const IdTriple& t) const { return LookupOp(t) != OpLookup::kNone; }

  // -- Merge-construction primitives (level.cc) ---------------------------
  // Bypass the staging rules: callers (MergeDeltaLayers) guarantee the
  // layer invariants hold for the finished store. Both must only be used
  // while building a store no reader has seen yet.

  /// Installs `op` for `t` directly; `t` must not already be staged.
  void AdoptOp(const IdTriple& t, DeltaOp op);
  /// Adds a pattern tombstone without subsuming any staged point op.
  void AdoptPatternErase(Id p) { SortedInsert(&pattern_preds_, p); }

  /// Emits every staged insert matching `pattern` to `sink`, grouped by
  /// the pattern's bound prefix: O(log + matches) per chunk (instead of
  /// a full op-table walk per scan). Sorts the unsorted tail first if a
  /// Settle has not.
  void ScanInserts(const IdPattern& pattern,
                   const std::function<void(const IdTriple&)>& sink) const;

  /// Number of staged inserts matching `pattern` (planner estimates).
  std::uint64_t CountInserts(const IdPattern& pattern) const;

  /// Sorts the unsorted tail into a new chunk and merges chunks
  /// binary-counter style (dropping cancelled entries on the way), so
  /// no reader of this buffer sorts. A mutator: the owner calls it on a
  /// buffer no reader has seen yet, right before publishing it. Costs
  /// O(tail · log tail) plus amortized O(log n) rewrites per insert.
  void Settle();

  /// Pre-builds every lazy cache (sorted tail + filter).
  /// Purely an optimization — the builds are internally synchronized,
  /// so readers of a frozen instance are safe either way; the compactor
  /// calls this off the store mutex to spare the first reader the build
  /// cost.
  void Freeze() const;

  /// Calls `fn(triple, op)` for every staged operation (table order).
  template <typename Fn>
  void ForEachOp(Fn&& fn) const {
    for (const Slot& slot : slots_) {
      if (slot.state == SlotState::kFull) {
        fn(slot.triple, slot.op);
      }
    }
  }

  /// Staged inserts, sorted in (s, p, o) order (compaction input): a
  /// merge of the chunks' and the sorted tail's (s, p, o) orders.
  IdTripleVec SortedInserts() const;
  /// Staged tombstones, sorted in (s, p, o) order (compaction input).
  IdTripleVec SortedTombstones() const;

  std::size_t insert_count() const { return inserts_; }
  std::size_t tombstone_count() const { return tombstones_; }
  /// Total staged operations (compaction-threshold metric).
  std::size_t op_count() const { return inserts_ + tombstones_; }
  /// Net triple-count contribution of the point ops: inserts minus
  /// tombstones (pattern tombstones are accounted by the owner, which
  /// knows the base).
  std::ptrdiff_t size_delta() const {
    return static_cast<std::ptrdiff_t>(inserts_) -
           static_cast<std::ptrdiff_t>(tombstones_);
  }
  /// True iff nothing is staged — no point ops and no pattern
  /// tombstones. Compaction may only be skipped when this holds.
  bool empty() const { return op_count() == 0 && pattern_preds_.empty(); }

  /// Approximate heap bytes (op table + insert orders + filter). Chunks
  /// shared with a copy count in both.
  std::size_t MemoryBytes() const;

  /// Heap bytes of just the op table — O(1), callable without locks by
  /// the owner's budget checks on the active (unfrozen) buffer.
  std::size_t TableBytes() const { return slots_.capacity() * sizeof(Slot); }

  // -- Prefix filter (sealed runs) ----------------------------------------

  /// Arms the lazy prefix Bloom filter at `bits_per_key` bits per key
  /// class. Called by the owner when sealing this store into a run (or
  /// adopting a merge result); the filter itself is built alongside the
  /// sorted caches on first probe (or by Freeze). Never called on a
  /// buffer that will be mutated again — a mutation drops the filter.
  void EnableFilter(std::size_t bits_per_key) const;

  /// The built filter, or nullptr when disabled / not yet built. Builds
  /// lazily (double-checked under cache_mu_) when armed.
  const RunFilter* MaybeFilter() const;

  /// Shared sink for probe/skip/false-positive counts; propagated to
  /// copies and (by the owner) to merge results.
  void set_filter_counters(std::shared_ptr<RunFilterCounters> counters) {
    filter_counters_ = std::move(counters);
  }
  const std::shared_ptr<RunFilterCounters>& filter_counters() const {
    return filter_counters_;
  }

  /// Shared sink counting the triples written into sorted insert chunks
  /// (each settled insert once, plus every chunk-merge rewrite), wherever
  /// the sort runs; propagated like the filter counters.
  void set_sort_counter(std::shared_ptr<obs::Counter> counter) {
    sort_counter_ = std::move(counter);
  }
  const std::shared_ptr<obs::Counter>& sort_counter() const {
    return sort_counter_;
  }

  // -- Resident-memory tracking -------------------------------------------

  /// Registers this store's analytic footprint with `tracker` and keeps
  /// it current as lazy caches build. The destructor returns every
  /// tracked byte, so accounting stays balanced even when the last
  /// reference dies on a deferred-reclaim path off the owner's mutex.
  /// Idempotent; a second tracker is ignored.
  void TrackMemory(std::shared_ptr<MemoryTracker> tracker) const;

  /// Drops every staged operation.
  void Clear();

 private:
  enum class SlotState : std::uint8_t {
    kEmpty = 0,  ///< never used on this probe chain
    kFull,       ///< holds a staged op
    kDead,       ///< held an op that was cancelled (probe chains continue)
  };

  struct Slot {
    IdTriple triple;
    SlotState state = SlotState::kEmpty;
    DeltaOp op = DeltaOp::kInsert;
    // A chunk holds a copy of `triple`. The slot then keeps `triple`
    // even once its op is cancelled (a kDead slot with this flag is
    // never reused): it tells scans the copy is dead and lets a
    // re-insert revive it, until a chunk merge drops the copy.
    bool in_chunk = false;
    // Unsettled insert: its index in tail_.
    std::uint32_t tail_index = 0;
  };

  // One settled chunk: the same inserts sorted (s,p,o), (p,o,s) and
  // (o,s,p), so every bound-prefix shape of IdPattern has an order it
  // can range-scan. Immutable once built; shared by copies.
  struct Chunk {
    IdTripleVec spo;
    IdTripleVec pos;
    IdTripleVec osp;
  };

  // Probe for `t`: the slot holding it (a live op, or a dead one whose
  // chunk copy is still there), or nullptr. `insert_at` (when non-null)
  // receives the slot a new entry for `t` should occupy.
  Slot* Probe(const IdTriple& t, Slot** insert_at) const;
  // The slot of `t`'s live op, or nullptr.
  const Slot* FindOp(const IdTriple& t) const;
  // Grows/rehashes the table so one more op always fits.
  void ReserveForOneMore();
  // Cancels the staged insert in `slot`: its chunk copy goes dead, or it
  // leaves the unsorted tail.
  void CancelInsert(Slot* slot);
  // Drops every chunk once no insert is live (all their entries dead).
  void DropChunks();
  // Sorts `spo` (and copies of it) into a chunk; counts the triples.
  std::shared_ptr<const Chunk> SortChunk(IdTripleVec spo) const;
  // Merges two chunks, dropping dead entries and releasing their slots.
  std::shared_ptr<const Chunk> MergeChunks(const Chunk& older,
                                           const Chunk& newer);
  // Range-scans one chunk for `pattern`; `check_live` skips dead entries.
  void ScanChunk(const Chunk& chunk, const IdPattern& pattern,
                 bool check_live,
                 const std::function<void(const IdTriple&)>& sink) const;
  // Sorts the unsorted tail into sorted_tail_ (double-checked under
  // cache_mu_; safe from any thread on a frozen instance): the lazy
  // settle of a sealed or folded run, or of the live buffer under its
  // owner's mutex.
  void EnsureSortedTail() const;
  // Drops all lazy caches after a mutation (mutator context: externally
  // serialized against every reader). A built filter is dropped too —
  // it only ever exists on sealed runs, so this is a safety net for the
  // clone-then-mutate path, not a hot one.
  void InvalidateCaches() {
    sorted_tail_valid_.store(false, std::memory_order_release);
    filter_ptr_.store(nullptr, std::memory_order_relaxed);
    filter_bits_.store(0, std::memory_order_relaxed);
  }
  // Re-registers the current footprint with the tracker (caller holds
  // cache_mu_); no-op without a tracker.
  void SyncTrackedBytesLocked() const;
  // MemoryBytes body; caller holds cache_mu_.
  std::size_t MemoryBytesLocked() const;

  std::shared_ptr<RunFilterCounters> filter_counters_;
  std::shared_ptr<obs::Counter> sort_counter_;

  mutable std::vector<Slot> slots_;  // power-of-two size; empty at start
  std::size_t used_ = 0;             // kFull + kDead slots
  std::size_t inserts_ = 0;
  std::size_t tombstones_ = 0;
  IdVec pattern_preds_;  // sorted predicates with a pattern tombstone

  // Sorted insert orders (see the file comment). Writer state: changed
  // only by mutators and Settle, never once the buffer is published.
  std::vector<std::shared_ptr<const Chunk>> chunks_;  // oldest first
  std::size_t chunk_triples_ = 0;       // entries across chunks_
  std::size_t dead_chunk_triples_ = 0;  // of those, not a live insert
  IdTripleVec tail_;  // live inserts staged since the last Settle

  // Serializes the one-off lazy cache builds below; the valid flag and
  // the filter pointer are acquire/release so a reader that observes
  // them set sees what was built.
  mutable std::mutex cache_mu_;

  // tail_ sorted three ways (null when empty).
  mutable std::shared_ptr<const Chunk> sorted_tail_;
  mutable std::atomic<bool> sorted_tail_valid_{true};

  // Prefix filter state: `filter_bits_` arms the lazy build (0 =
  // disabled), `filter_owner_` owns the built filter (under cache_mu_),
  // and `filter_ptr_` is the lock-free fast-path publication of it.
  mutable std::atomic<std::size_t> filter_bits_{0};
  mutable std::atomic<const RunFilter*> filter_ptr_{nullptr};
  mutable std::shared_ptr<const RunFilter> filter_owner_;

  // Resident-bytes accounting (under cache_mu_ except the destructor,
  // which runs unshared by definition).
  mutable std::shared_ptr<MemoryTracker> tracker_;
  mutable std::size_t tracked_bytes_ = 0;
};

}  // namespace hexastore

#endif  // HEXASTORE_DELTA_DELTA_STORE_H_
