#include "delta/delta_hexastore.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <utility>
#include <vector>

#include "delta/level.h"
#include "obs/scoped_timer.h"

namespace hexastore {

// One drained run as a base applies it: the run's sorted staged inserts
// and tombstones and its pattern-erased predicates, as the drain that
// first applied it computed them. A spare base replays the runs drained
// since it was current; the run itself (op table, filter) is freed at
// the drain.
struct DeltaHexastore::DrainedRun {
  IdTripleVec inserts;
  IdTripleVec tombstones;
  IdVec erased_predicates;

  // Ops the run applies to a base.
  std::size_t ops() const {
    return inserts.size() + tombstones.size() + erased_predicates.size();
  }

  // In-place apply to a base nothing else reads: one BulkErase of the
  // pattern tombstones' base matches (where a pattern erase finally pays
  // O(matches), amortized into the drain) together with the point
  // tombstones, then one BulkLoad merge of the staged inserts.
  // O(run · log) plus one linear pass per touched list.
  void ApplyInPlace(Hexastore* base) const {
    IdTripleVec erased = tombstones;
    for (Id p : erased_predicates) {
      base->Scan(IdPattern{0, p, 0},
                 [&erased](const IdTriple& t) { erased.push_back(t); });
    }
    base->BulkErase(erased);
    base->BulkLoad(inserts);
  }

  // Rebuild, for when no base is free: materializes base ∖ pattern-erased
  // ∖ tombstones ∪ inserts into the empty store `out`. Reads `base`
  // only, so it runs off the mutex while readers share that base.
  void MergeOffline(const Hexastore& base, Hexastore* out) const {
    // Match() materializes in (s, p, o) order, so the tombstone cursor
    // advances in lock-step.
    const IdTripleVec existing = base.Match(IdPattern{});
    IdTripleVec merged;
    merged.reserve(existing.size() + inserts.size());
    std::size_t ti = 0;
    for (const IdTriple& t : existing) {
      if (!erased_predicates.empty() &&
          SortedContains(erased_predicates, t.p)) {
        continue;  // pattern-suppressed (re-inserts arrive via `inserts`)
      }
      while (ti < tombstones.size() && tombstones[ti] < t) {
        ++ti;
      }
      if (ti < tombstones.size() && tombstones[ti] == t) {
        ++ti;
        continue;
      }
      merged.push_back(t);
    }
    IdTripleVec all;
    all.reserve(merged.size() + inserts.size());
    std::merge(merged.begin(), merged.end(), inserts.begin(), inserts.end(),
               std::back_inserter(all));
    out->BulkLoad(all);
  }
};

// A base the writer owns. Everything outside the writer — generations,
// snapshots, base() results, a compactor job's rebuild source — holds it
// through one shared pin whose deleter sets `released` with a release
// store. The writer writes a base that was ever pinned only after an
// acquire load sees the flag set, which orders every holder's last read
// before the first write (a relaxed use_count() would order nothing).
struct DeltaHexastore::BaseCell {
  Hexastore store;
  std::atomic<bool> released{true};
};

namespace {

// One read view over the delta-layer chain of a DeltaHexastore: the base
// plus `count` DeltaStore layers ordered bottom-up (L1, L0 oldest→
// newest, active). Semantics are layer(…layer(base, layers[0])…,
// layers[count-1]) where each DeltaStore applies its tombstones and
// pattern erases to everything beneath it and contributes its staged
// inserts.
//
// Raw pointers: the hot paths (every Insert/Erase/Contains) build one of
// these per call under the store mutex, where the owners are guaranteed
// alive — shared_ptr members would add refcount traffic to exactly the
// write path this subsystem exists to keep flat. A Snapshot builds one
// over the generation it pins, which owns every layer.
struct LayerRefs {
  const Hexastore* base = nullptr;
  const DeltaStore* const* layers = nullptr;
  std::size_t count = 0;
};

// The layers *beneath* the topmost one — what the staging invariants of
// the active buffer are defined against.
LayerRefs Beneath(const LayerRefs& v) {
  return {v.base, v.layers, v.count == 0 ? 0 : v.count - 1};
}

// Merged membership test across the chain: the newest layer's verdict
// wins, the base answers only when no layer staged anything for `t`.
bool LayeredContains(const LayerRefs& v, const IdTriple& t) {
  for (std::size_t i = v.count; i-- > 0;) {
    switch (v.layers[i]->FilteredLookup(t)) {
      case DeltaStore::Presence::kInserted:
        return true;
      case DeltaStore::Presence::kErased:
        return false;
      case DeltaStore::Presence::kUnknown:
        break;
    }
  }
  return v.base != nullptr && v.base->Contains(t);
}

// Merged pattern scan: base matches with every layer's point and pattern
// tombstones filtered out (one hash probe per layer per emitted triple),
// then each layer's staged inserts bottom-up via bound-prefix range
// scans of its sorted insert chunks. A non-kUnknown verdict from a layer
// above means that layer owns the triple's fate (its own insert scan
// emits a re-staged copy), so lower copies are skipped — no duplicates.
void LayeredScan(const LayerRefs& v, const IdPattern& pattern,
                 const TripleSink& sink) {
  auto unknown_above = [&v](std::size_t from, const IdTriple& t) {
    for (std::size_t i = from; i < v.count; ++i) {
      if (v.layers[i]->FilteredLookup(t) != DeltaStore::Presence::kUnknown) {
        return false;
      }
    }
    return true;
  };
  if (v.base != nullptr) {
    v.base->Scan(pattern, [&](const IdTriple& t) {
      if (unknown_above(0, t)) {
        sink(t);
      }
    });
  }
  for (std::size_t i = 0; i < v.count; ++i) {
    v.layers[i]->ScanInserts(pattern, [&](const IdTriple& t) {
      if (unknown_above(i + 1, t)) {
        sink(t);
      }
    });
  }
}

// Planner estimate of `pattern` over the base plus the first `n` layers
// of the chain: the base index count, then each layer's adjustments
// bottom-up — pattern erases suppress the estimate of the *whole stack
// beneath the layer* (recursing with the predicate bound, so staged
// inserts in lower runs are deduplicated, not just base matches), point
// tombstones are scaled by the pattern's selectivity in the layers
// beneath, staged inserts are counted exactly. Fully-bound patterns are
// answered exactly through the verdict chain instead of the scaling
// model (which could leave a fractional tombstone as weight 1).
std::uint64_t EstimateUpTo(const LayerRefs& v, std::size_t n,
                           const IdPattern& pattern) {
  if (pattern.has_s() && pattern.has_p() && pattern.has_o()) {
    const IdTriple t{pattern.s, pattern.p, pattern.o};
    for (std::size_t i = n; i-- > 0;) {
      switch (v.layers[i]->FilteredLookup(t)) {
        case DeltaStore::Presence::kInserted:
          return 1;
        case DeltaStore::Presence::kErased:
          return 0;
        case DeltaStore::Presence::kUnknown:
          break;
      }
    }
    return v.base != nullptr && v.base->Contains(t) ? 1 : 0;
  }
  std::uint64_t count =
      v.base == nullptr ? 0 : v.base->CountMatches(pattern);
  std::size_t beneath_size = v.base == nullptr ? 0 : v.base->size();
  for (std::size_t i = 0; i < n; ++i) {
    const DeltaStore* layer = v.layers[i];
    if (layer->HasPatternErases()) {
      if (pattern.has_p()) {
        if (layer->PatternErased(pattern.p)) {
          count = 0;
        }
      } else {
        for (Id p : layer->pattern_erased_predicates()) {
          IdPattern bound = pattern;
          bound.p = p;
          // Everything the stack beneath this layer would contribute
          // for the suppressed predicate disappears — including staged
          // inserts in lower runs, which the pre-filter estimate missed
          // (it subtracted base matches only and double-counted an
          // insert re-staged above the pattern).
          const std::uint64_t suppressed = EstimateUpTo(v, i, bound);
          count -= std::min(count, suppressed);
        }
      }
      for (Id p : layer->pattern_erased_predicates()) {
        const std::uint64_t dropped =
            EstimateUpTo(v, i, IdPattern{0, p, 0});
        beneath_size -= std::min<std::size_t>(beneath_size, dropped);
      }
    }
    if (beneath_size > 0) {
      const std::uint64_t expected_tombstoned = static_cast<std::uint64_t>(
          static_cast<double>(count) *
          static_cast<double>(layer->tombstone_count()) /
          static_cast<double>(beneath_size));
      count -= std::min(count, expected_tombstoned);
    }
    count += layer->CountInserts(pattern);
    beneath_size = static_cast<std::size_t>(std::max<std::ptrdiff_t>(
        0, static_cast<std::ptrdiff_t>(beneath_size) + layer->size_delta()));
  }
  return count;
}

std::uint64_t LayeredEstimate(const LayerRefs& v, const IdPattern& pattern) {
  return EstimateUpTo(v, v.count, pattern);
}

LayerRefs GenRefs(const DeltaGeneration& gen) {
  return {gen.base.get(), gen.chain.data(), gen.chain.size()};
}

}  // namespace

std::string DeltaOptions::Normalize() {
  std::string repaired;
  auto note = [&repaired](const std::string& what) {
    if (!repaired.empty()) {
      repaired += "; ";
    }
    repaired += what;
  };
  if (compact_threshold == 0) {
    compact_threshold = 1;
    note("compact_threshold 0 is invalid, clamped to 1");
  }
  if (!std::isfinite(l1_base_fraction) || l1_base_fraction <= 0.0) {
    // 0, negative, NaN and inf all used to slip through a max(0.0, f)
    // clamp (NaN propagates to 0.0 there) and silently degrade the store
    // to always-base-merge; reset to the documented default instead.
    std::ostringstream os;
    os << "l1_base_fraction " << l1_base_fraction
       << " is invalid (must be finite and > 0), reset to 0.25";
    note(os.str());
    l1_base_fraction = 0.25;
  }
  if (filter_bits_per_key > 64) {
    filter_bits_per_key = 64;
    note("filter_bits_per_key clamped to 64");
  }
  return repaired;
}

DeltaHexastore::DeltaHexastore(const DeltaOptions& options)
    : base_(std::make_shared<BaseCell>()), trace_(options.trace_capacity) {
  DeltaOptions normalized = options;
  const std::string repaired = normalized.Normalize();
  if (!repaired.empty()) {
    std::fprintf(stderr, "DeltaHexastore options: %s\n", repaired.c_str());
  }
  compact_threshold_ = normalized.compact_threshold;
  background_ = normalized.background_compaction;
  l0_run_limit_ = normalized.l0_run_limit;
  l1_base_fraction_ = normalized.l1_base_fraction;
  memory_budget_ = normalized.memory_budget_bytes;
  filter_bits_l0_ = normalized.filter_bits_per_key;
  // Monkey-style sizing: the few hot L0 runs take most point probes and
  // get the full bit budget; the one cold L1 run holds far more keys, so
  // halving its bits saves most of the filter memory for a modest
  // false-positive increase.
  filter_bits_l1_ = filter_bits_l0_ == 0
                        ? 0
                        : std::max<std::size_t>(2, filter_bits_l0_ / 2);
  tracker_ = std::make_shared<MemoryTracker>();
  filter_counters_ = std::make_shared<RunFilterCounters>();
  run_sort_triples_ = std::make_shared<obs::Counter>();
  RegisterMeters();
  delta_ = FreshDeltaLocked();
  RebuildChainLocked();
  if (background_) {
    // The compactor drains reclaimed generations off the mutex, so
    // freeing a superseded base or folded run never stalls writers.
    gate_.set_deferred_reclaim(true);
    merger_ = std::thread(&DeltaHexastore::MergerLoop, this);
  }
}

DeltaHexastore::~DeltaHexastore() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  if (merger_.joinable()) {
    merger_.join();
  }
  // Final export while every instrument is still alive (members are
  // destroyed after this body). $HEXA_METRICS_JSON unset ⇒ no-op.
  {
    std::lock_guard<std::mutex> lock(mu_);
    RefreshGaugesLocked();
  }
  registry_.DumpToEnvPathIfSet();
}

void DeltaHexastore::RegisterMeters() {
  registry_.RegisterCounter("hexa_delta_compactions_total",
                            "compaction jobs completed (drains and folds)",
                            &meters_.compactions);
  registry_.RegisterCounter("hexa_delta_seals_total",
                            "staging buffers sealed into L0 runs",
                            &meters_.seals);
  registry_.RegisterCounter("hexa_delta_background_merges_total",
                            "base merges completed on the compactor thread",
                            &meters_.background_merges);
  registry_.RegisterCounter("hexa_delta_merge_discards_total",
                            "in-flight merges invalidated by Clear/BulkLoad",
                            &meters_.merge_discards);
  registry_.RegisterCounter("hexa_delta_seal_overflows_total",
                            "seals that found the compactor behind",
                            &meters_.seal_overflows);
  registry_.RegisterCounter("hexa_delta_l0_merges_total",
                            "L0 to L1 folds completed", &meters_.l0_merges);
  registry_.RegisterCounter("hexa_delta_base_merges_total",
                            "drains into the base (in place or rebuilt)",
                            &meters_.base_merges);
  registry_.RegisterCounter("hexa_delta_base_rebuilds_total",
                            "drains that rebuilt the base because no base "
                            "was free",
                            &meters_.base_rebuilds);
  registry_.RegisterCounter("hexa_delta_merge_run_ops_total",
                            "ops written while building folded runs",
                            &meters_.merge_run_ops);
  registry_.RegisterCounter("hexa_delta_base_rebuild_triples_total",
                            "triples written into a base by drains "
                            "(rebuilt triples, or ops applied in place)",
                            &meters_.base_rebuild_triples);
  registry_.RegisterCounter("hexa_delta_staged_ops_total",
                            "ops ever staged (write-amplification base)",
                            &meters_.staged_ops_total);
  registry_.RegisterCounter("hexa_delta_filters_dropped_total",
                            "seals that skipped their Bloom filter "
                            "(budget pressure)",
                            &meters_.filters_dropped);
  registry_.RegisterCounter("hexa_delta_budget_seals_total",
                            "seals forced by the memory budget",
                            &meters_.budget_seals);
  registry_.RegisterCounter("hexa_delta_budget_folds_total",
                            "L0 folds forced by the memory budget",
                            &meters_.budget_folds);
  registry_.RegisterCounter("hexa_delta_budget_base_merges_total",
                            "base merges forced by the memory budget",
                            &meters_.budget_base_merges);
  registry_.RegisterCounter("hexa_delta_run_sort_triples_total",
                            "triples written into sorted insert chunks "
                            "(settles and chunk merges)",
                            run_sort_triples_.get());
  registry_.RegisterCounter("hexa_filter_probes_total",
                            "point and prefix Bloom-filter checks",
                            &filter_counters_->probes);
  registry_.RegisterCounter("hexa_filter_skips_total",
                            "runs proven key-free and skipped",
                            &filter_counters_->skips);
  registry_.RegisterCounter("hexa_filter_false_positives_total",
                            "filter passes with no op-table hit",
                            &filter_counters_->false_positives);
  registry_.RegisterHistogram("hexa_insert_latency_ns",
                              "Insert latency (1-in-128 sampled)",
                              &meters_.insert_ns);
  registry_.RegisterHistogram("hexa_erase_latency_ns",
                              "Erase latency (1-in-128 sampled)",
                              &meters_.erase_ns);
  registry_.RegisterHistogram("hexa_contains_latency_ns",
                              "point-verdict latency (1-in-128 sampled)",
                              &meters_.contains_ns);
  registry_.RegisterHistogram("hexa_handle_acquire_latency_ns",
                              "wait-free read-handle acquisition latency "
                              "(1-in-128 sampled)",
                              &meters_.handle_acquire_ns);
  registry_.RegisterHistogram("hexa_seal_latency_ns", "seal duration",
                              &meters_.seal_ns);
  registry_.RegisterHistogram("hexa_fold_latency_ns",
                              "L0 to L1 fold duration", &meters_.fold_ns);
  registry_.RegisterHistogram("hexa_base_merge_latency_ns",
                              "drain duration (in place or rebuilt)",
                              &meters_.base_merge_ns);
  registry_.RegisterGauge("hexa_delta_staged_ops",
                          "ops staged and not yet merged into the base",
                          &meters_.staged_ops);
  registry_.RegisterGauge("hexa_delta_l0_runs", "sealed runs currently in L0",
                          &meters_.l0_runs);
  registry_.RegisterGauge("hexa_delta_l1_ops", "staged ops in the L1 run",
                          &meters_.l1_ops);
  registry_.RegisterGauge("hexa_delta_base_triples",
                          "triples in the compacted base",
                          &meters_.base_triples);
  registry_.RegisterGauge("hexa_delta_resident_bytes",
                          "tracked runs + filters + active table bytes",
                          &meters_.resident_bytes);
  registry_.RegisterGauge("hexa_delta_size_triples",
                          "logical triples in the merged view",
                          &meters_.size_triples);
  registry_.RegisterGauge("hexa_epoch_retire_queue_depth",
                          "generations retired but not yet reclaimed",
                          &meters_.retire_queue_depth);
  gate_.BindObservability(&registry_, &trace_);
  registry_.AttachTraceRing(&trace_);
}

void DeltaHexastore::RefreshGaugesLocked() const {
  meters_.staged_ops.Set(static_cast<std::int64_t>(delta_->op_count() +
                                                   levels_.op_count()));
  meters_.l0_runs.Set(static_cast<std::int64_t>(levels_.l0.size()));
  meters_.l1_ops.Set(static_cast<std::int64_t>(
      levels_.l1 == nullptr ? 0 : levels_.l1->op_count()));
  meters_.base_triples.Set(static_cast<std::int64_t>(base_->store.size()));
  meters_.resident_bytes.Set(static_cast<std::int64_t>(
      (tracker_ == nullptr ? 0 : tracker_->resident()) +
      delta_->TableBytes()));
  meters_.size_triples.Set(static_cast<std::int64_t>(size_));
  meters_.retire_queue_depth.Set(
      static_cast<std::int64_t>(gate_.Stats().retire_queue_depth));
}

void DeltaHexastore::RebuildChainLocked() {
  chain_.clear();
  levels_.AppendBottomUp(&chain_);
  chain_.push_back(delta_.get());
}

bool DeltaHexastore::Insert(const IdTriple& t) {
  obs::ScopedTimer timer(&meters_.insert_ns);
  std::lock_guard<std::mutex> lock(mu_);
  const LayerRefs refs{&base_->store, chain_.data(), chain_.size()};
  // Read-only no-op check first: a duplicate insert must not pay the
  // copy-on-write clone an exposed delta would otherwise trigger.
  const bool beneath = LayeredContains(Beneath(refs), t);
  const DeltaStore::Presence staged = delta_->Lookup(t);
  if (staged == DeltaStore::Presence::kInserted ||
      (staged == DeltaStore::Presence::kUnknown && beneath)) {
    return false;
  }
  EnsureDeltaWritableLocked();
  delta_->StageInsert(t, beneath);
  ++size_;
  meters_.staged_ops_total.Add();
  dirty_ = true;
  MaybeCompactLocked();
  return true;
}

bool DeltaHexastore::Erase(const IdTriple& t) {
  obs::ScopedTimer timer(&meters_.erase_ns);
  std::lock_guard<std::mutex> lock(mu_);
  const LayerRefs refs{&base_->store, chain_.data(), chain_.size()};
  const bool beneath = LayeredContains(Beneath(refs), t);
  const DeltaStore::Presence staged = delta_->Lookup(t);
  if (staged == DeltaStore::Presence::kErased ||
      (staged == DeltaStore::Presence::kUnknown && !beneath)) {
    return false;
  }
  EnsureDeltaWritableLocked();
  delta_->StageErase(t, beneath);
  --size_;
  meters_.staged_ops_total.Add();
  dirty_ = true;
  MaybeCompactLocked();
  return true;
}

bool DeltaHexastore::Contains(const IdTriple& t) const {
  obs::ScopedTimer timer(&meters_.contains_ns);
  std::lock_guard<std::mutex> lock(mu_);
  return LayeredContains({&base_->store, chain_.data(), chain_.size()}, t);
}

std::size_t DeltaHexastore::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return size_;
}

void DeltaHexastore::Scan(const IdPattern& pattern,
                          const TripleSink& sink) const {
  // Materialize under the mutex, emit outside it: the merged walk reads
  // base and delta internals (kept writer-ordered by mu_), while the
  // sink runs unlocked so it may re-enter the store (index-nested-loop
  // joins do) without deadlocking.
  IdTripleVec matches;
  {
    std::lock_guard<std::mutex> lock(mu_);
    LayeredScan({&base_->store, chain_.data(), chain_.size()}, pattern,
                [&matches](const IdTriple& t) { matches.push_back(t); });
  }
  for (const IdTriple& t : matches) {
    sink(t);
  }
}

std::size_t DeltaHexastore::MemoryBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t spare =
      spare_ == nullptr ? 0 : spare_->store.MemoryBytes();
  return base_->store.MemoryBytes() + spare + delta_->MemoryBytes() +
         levels_.MemoryBytes();
}

void DeltaHexastore::BulkLoad(const IdTripleVec& triples) {
  std::lock_guard<std::mutex> lock(mu_);
  // The load must leave nothing staged above the base, so the drain runs
  // right here in either placement: waiting on the compactor instead
  // could chase the seals of concurrent writers. The ticket bump voids
  // an in-flight compactor job, whose inputs this drain consumes.
  ++merge_ticket_;
  if (!delta_->empty()) {
    SealLocked();
  }
  if (!levels_.empty()) {
    RunJobLocked({Job::kDrain}, /*lock=*/nullptr);
  }
  // The spare would have to replay the load as well: drop it.
  DropSpareLocked();
  if (base_pin_ != nullptr) {
    // A generation reads the base: load into a rebuilt copy instead.
    auto fresh = std::make_shared<BaseCell>();
    fresh->store.BulkLoad(base_->store.Match(IdPattern{}));
    base_ = std::move(fresh);
    base_pin_.reset();
  }
  base_->store.BulkLoad(triples);
  trace_.Record(obs::TraceEvent::kBulkLoad, "writer", 0, triples.size());
  size_ = base_->store.size();
  levels_size_ = size_;
  ++epoch_;
  dirty_ = true;
  if (background_) {
    PublishLocked(size_, /*include_active=*/false);
  }
}

void DeltaHexastore::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  ClearLocked();
}

void DeltaHexastore::ClearLocked() {
  // Invalidate any in-flight merge: its inputs are gone, its result must
  // be discarded at commit time.
  trace_.Record(obs::TraceEvent::kClear, "writer", 0, size_);
  ++merge_ticket_;
  levels_.clear();
  drained_seals_ = meters_.seals.Value();  // as a drain would have
  DropSpareLocked();
  if (base_pin_ != nullptr) {
    base_ = std::make_shared<BaseCell>();
    base_pin_.reset();
  } else {
    base_->store.Clear();
  }
  if (delta_exposed_) {
    delta_ = FreshDeltaLocked();
    delta_exposed_ = false;
  } else {
    delta_->Clear();
  }
  RebuildChainLocked();
  published_active_ops_ = 0;
  size_ = 0;
  levels_size_ = 0;
  ++epoch_;
  dirty_ = true;
  if (background_) {
    PublishLocked(0, /*include_active=*/false);
  }
  drain_cv_.notify_all();
}

std::size_t DeltaHexastore::ErasePattern(const IdPattern& pattern) {
  std::lock_guard<std::mutex> lock(mu_);
  if (pattern.bound_count() == 0) {
    // Erase everything == Clear.
    const std::size_t erased = size_;
    ClearLocked();
    return erased;
  }
  if (pattern.has_p() && !pattern.has_s() && !pattern.has_o()) {
    // ONE merged scan counts the pattern's logical matches across every
    // layer (O(matches + log)), then one pattern tombstone staged in the
    // active buffer suppresses matching triples in every run and the
    // base alike — no level is drained and the compactor is never waited
    // on.
    std::size_t matches = 0;
    LayeredScan({&base_->store, chain_.data(), chain_.size()},
                IdPattern{0, pattern.p, 0},
                [&matches](const IdTriple&) { ++matches; });
    EnsureDeltaWritableLocked();
    delta_->StagePatternErase(pattern.p);
    meters_.staged_ops_total.Add();
    size_ -= matches;
    dirty_ = true;
    return matches;
  }
  // General shape: the point-tombstone path, one staged op per match.
  const LayerRefs refs{&base_->store, chain_.data(), chain_.size()};
  IdTripleVec matches;
  LayeredScan(refs, pattern,
              [&matches](const IdTriple& t) { matches.push_back(t); });
  if (matches.empty()) {
    return 0;
  }
  EnsureDeltaWritableLocked();
  for (const IdTriple& t : matches) {
    delta_->StageErase(
        t, LayeredContains({&base_->store, chain_.data(), chain_.size() - 1},
                           t));
  }
  meters_.staged_ops_total.Add(matches.size());
  size_ -= matches.size();
  dirty_ = true;
  MaybeCompactLocked();
  return matches.size();
}

std::uint64_t DeltaHexastore::EstimateMatches(const IdPattern& pattern) const {
  std::lock_guard<std::mutex> lock(mu_);
  return LayeredEstimate({&base_->store, chain_.data(), chain_.size()},
                         pattern);
}

void DeltaHexastore::Compact() {
  std::unique_lock<std::mutex> lock(mu_);
  if (!delta_->empty()) {
    SealLocked();
  }
  if (levels_.empty()) {
    return;
  }
  // Every run sealed so far must reach the base. The first drain picked
  // from here on covers them all (an in-flight one may already), so the
  // wait is bounded: later seals by concurrent writers are not chased.
  const std::uint64_t target = meters_.seals.Value();
  drain_target_ = target;
  ScheduleJobsLocked();
  drain_cv_.wait(lock, [this, target] { return drained_seals_ >= target; });
}

std::size_t DeltaHexastore::StagedOps() const {
  std::lock_guard<std::mutex> lock(mu_);
  return delta_->op_count() + levels_.op_count();
}

std::uint64_t DeltaHexastore::CompactionCount() const {
  return meters_.compactions.Value();
}

StatsSnapshot DeltaHexastore::GatherStats() const {
  // One mutex hold produces the whole snapshot: the mutex-guarded
  // structural fields form a consistent cut, while the obs::Counter
  // reads are individually tear-free relaxed loads (see the
  // StatsSnapshot contract in core/stats.h). Gauges are refreshed here
  // so a registry export right after GatherStats() is coherent with it.
  std::lock_guard<std::mutex> lock(mu_);
  StatsSnapshot snap;
  DeltaStats& stats = snap.delta;
  stats.staged_inserts = delta_->insert_count();
  stats.staged_tombstones = delta_->tombstone_count();
  stats.pattern_tombstones = delta_->pattern_erased_predicates().size();
  stats.compact_threshold = compact_threshold_;
  stats.compactions = meters_.compactions.Value();
  stats.epoch = epoch_;
  stats.base_triples = base_->store.size();
  stats.base_bytes = base_->store.MemoryBytes();
  stats.delta_bytes = delta_->MemoryBytes() + levels_.MemoryBytes();
  stats.background = background_;
  stats.seals = meters_.seals.Value();
  stats.background_merges = meters_.background_merges.Value();
  stats.merge_discards = meters_.merge_discards.Value();
  stats.seal_overflows = meters_.seal_overflows.Value();
  stats.sealed_ops = levels_.op_count();
  stats.l0_run_limit = l0_run_limit_;
  stats.l0_runs = levels_.l0.size();
  stats.l0_ops = levels_.l0_op_count();
  stats.l1_ops = levels_.l1 == nullptr ? 0 : levels_.l1->op_count();
  stats.l0_merges = meters_.l0_merges.Value();
  stats.base_merges = meters_.base_merges.Value();
  stats.base_rebuilds = meters_.base_rebuilds.Value();
  stats.merge_run_ops = meters_.merge_run_ops.Value();
  stats.base_rebuild_triples = meters_.base_rebuild_triples.Value();
  stats.staged_ops_total = meters_.staged_ops_total.Value();
  stats.filter_bits_per_key = filter_bits_l0_;
  if (filter_counters_ != nullptr) {
    stats.filter_probes = filter_counters_->probes.Value();
    stats.filter_skips = filter_counters_->skips.Value();
    stats.filter_false_positives = filter_counters_->false_positives.Value();
  }
  stats.filters_dropped = meters_.filters_dropped.Value();
  stats.memory_budget_bytes = memory_budget_;
  stats.resident_bytes =
      (tracker_ == nullptr ? 0 : tracker_->resident()) + delta_->TableBytes();
  stats.budget_seals = meters_.budget_seals.Value();
  stats.budget_folds = meters_.budget_folds.Value();
  stats.budget_base_merges = meters_.budget_base_merges.Value();
  snap.epoch = gate_.Stats();
  RefreshGaugesLocked();
  return snap;
}

DeltaStats DeltaHexastore::Stats() const { return GatherStats().delta; }

EpochStats DeltaHexastore::EpochCounters() const {
  return GatherStats().epoch;
}

// The exports refresh only the gauges under the mutex: GatherStats would
// also walk every list of the base for base_bytes, stalling writers for
// the whole walk on every scrape.
std::string DeltaHexastore::MetricsText() const {
  {
    std::lock_guard<std::mutex> lock(mu_);
    RefreshGaugesLocked();
  }
  return registry_.RenderPrometheus();
}

std::string DeltaHexastore::MetricsJson() const {
  {
    std::lock_guard<std::mutex> lock(mu_);
    RefreshGaugesLocked();
  }
  return registry_.RenderJson();
}

bool DeltaHexastore::DumpMetricsJson(const std::string& path) const {
  {
    std::lock_guard<std::mutex> lock(mu_);
    RefreshGaugesLocked();
  }
  return registry_.WriteJsonFile(path);
}

DeltaHexastore::Snapshot DeltaHexastore::GetSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Unless dirty, the current generation already covers exactly the live
  // contents (and pins the base).
  if (dirty_) {
    PublishLocked(size_, /*include_active=*/true);
  }
  return Snapshot(gate_.Acquire());
}

DeltaHexastore::Snapshot DeltaHexastore::AcquireReadHandle() const {
  obs::ScopedTimer timer(&meters_.handle_acquire_ns);
  return Snapshot(gate_.Acquire());
}

bool DeltaHexastore::Pin(PinPolicy policy, const PinnedFn& fn) const {
  if (policy == PinPolicy::kNone) {
    return TripleStore::Pin(policy, fn);
  }
  const Snapshot snap =
      policy == PinPolicy::kLinearizable ? GetSnapshot() : AcquireReadHandle();
  fn(snap, {snap.epoch(), snap.staged_ops()});
  return true;
}

// -- Snapshot -------------------------------------------------------------

bool DeltaHexastore::Snapshot::Contains(const IdTriple& t) const {
  if (gen_ == nullptr) {
    return false;
  }
  return LayeredContains(GenRefs(*gen_), t);
}

std::size_t DeltaHexastore::Snapshot::size() const {
  return gen_ == nullptr ? 0 : gen_->size;
}

void DeltaHexastore::Snapshot::Scan(const IdPattern& pattern,
                                    const TripleSink& sink) const {
  if (gen_ == nullptr) {
    return;
  }
  LayeredScan(GenRefs(*gen_), pattern, sink);
}

std::size_t DeltaHexastore::Snapshot::MemoryBytes() const {
  if (gen_ == nullptr) {
    return 0;
  }
  std::size_t bytes = gen_->base == nullptr ? 0 : gen_->base->MemoryBytes();
  bytes += gen_->levels.MemoryBytes();
  bytes += gen_->active == nullptr ? 0 : gen_->active->MemoryBytes();
  return bytes;
}

std::uint64_t DeltaHexastore::Snapshot::EstimateMatches(
    const IdPattern& pattern) const {
  if (gen_ == nullptr) {
    return 0;
  }
  return LayeredEstimate(GenRefs(*gen_), pattern);
}

std::uint64_t DeltaHexastore::Snapshot::epoch() const {
  return gen_ == nullptr ? 0 : gen_->epoch;
}

std::uint64_t DeltaHexastore::Snapshot::staged_ops() const {
  if (gen_ == nullptr) {
    return 0;
  }
  std::uint64_t ops = 0;
  for (const DeltaStore* layer : gen_->chain) {
    // Pattern tombstones count separately: an ErasePattern subsumes (and
    // removes) staged point ops, so op_count alone could stay flat
    // across one.
    ops += layer->op_count() + layer->pattern_erased_predicates().size();
  }
  return ops;
}

std::shared_ptr<const Hexastore> DeltaHexastore::base() const {
  std::lock_guard<std::mutex> lock(mu_);
  return PinBaseLocked();
}

bool DeltaHexastore::CheckInvariants(std::string* error) const {
  // Runs entirely under the mutex (test path): no generation escapes, so
  // the in-place compaction fast path stays available afterwards.
  std::lock_guard<std::mutex> lock(mu_);
  auto fail = [error](const std::string& msg) {
    if (error != nullptr) {
      *error = msg;
    }
    return false;
  };
  if (!base_->store.CheckInvariants(error)) {
    return false;
  }
  if (spare_ != nullptr) {
    // The spare with its lag replayed must hold exactly the base.
    Hexastore replayed;
    replayed.BulkLoad(spare_->store.Match(IdPattern{}));
    for (const DrainedRun& run : spare_lag_) {
      run.ApplyInPlace(&replayed);
    }
    if (!replayed.CheckInvariants(error)) {
      return false;
    }
    if (replayed.Match(IdPattern{}) != base_->store.Match(IdPattern{})) {
      return fail("the spare base with its lag replayed differs from the "
                  "base");
    }
  }
  // Per-layer contract, bottom-up: staged inserts are disjoint from the
  // layers beneath, and tombstones are a subset of them.
  const std::size_t l1_count = levels_.l1 == nullptr ? 0 : 1;
  for (std::size_t li = 0; li < chain_.size(); ++li) {
    const DeltaStore* layer = chain_[li];
    const LayerRefs beneath{&base_->store, chain_.data(), li};
    std::string label;
    if (li < l1_count) {
      label = "L1";
    } else if (li + 1 < chain_.size()) {
      label = "L0 run #" + std::to_string(li - l1_count);
    } else {
      label = "active";
    }
    bool ok = true;
    std::string msg;
    layer->ForEachOp([&](const IdTriple& t, DeltaOp op) {
      if (!ok) {
        return;
      }
      const bool beneath_present = LayeredContains(beneath, t);
      if (op == DeltaOp::kInsert && beneath_present &&
          !layer->PatternErased(t.p)) {
        // (Adds may coincide with a beneath triple only when the pattern
        // tombstone suppresses the lower copy.)
        ok = false;
        msg = label + ": staged insert already present beneath";
        return;
      }
      if (op == DeltaOp::kTombstone &&
          (!beneath_present || layer->PatternErased(t.p))) {
        ok = false;
        msg = label +
              ": tombstone absent beneath or subsumed by a pattern erase";
      }
    });
    if (!ok) {
      return fail(msg);
    }
    // The sorted insert orders hold exactly the live staged inserts:
    // no cancelled copy, no duplicate, none missing.
    IdTripleVec scanned;
    layer->ScanInserts(IdPattern{}, [&scanned](const IdTriple& t) {
      scanned.push_back(t);
    });
    std::sort(scanned.begin(), scanned.end());
    IdTripleVec staged;
    layer->ForEachOp([&staged](const IdTriple& t, DeltaOp op) {
      if (op == DeltaOp::kInsert) {
        staged.push_back(t);
      }
    });
    std::sort(staged.begin(), staged.end());
    if (scanned != staged || layer->SortedInserts() != staged) {
      return fail(label + ": sorted insert orders disagree with the op table");
    }
  }
  // Size bookkeeping: the full merged scan must see exactly size_
  // triples (this also exercises the cross-layer tombstone math).
  std::size_t merged_size = 0;
  LayeredScan({&base_->store, chain_.data(), chain_.size()}, IdPattern{},
              [&merged_size](const IdTriple&) { ++merged_size; });
  if (merged_size != size_) {
    std::ostringstream os;
    os << "merged size " << merged_size << " != tracked size " << size_;
    return fail(os.str());
  }
  return true;
}

// -- Locked helpers -------------------------------------------------------

void DeltaHexastore::PublishLocked(std::size_t logical_size,
                                   bool include_active) const {
  auto gen = std::make_shared<DeltaGeneration>();
  gen->base = PinBaseLocked();
  gen->levels = levels_;
  // The staging buffer is settled before it escapes: Settle sorts only
  // what was staged since the last publication, so no reader of any
  // generation sorts it, and the next copy-on-write clone shares its
  // chunks. (An exposed buffer was settled when it was first published
  // and has not changed since.) Sealed and folded runs are not touched
  // here: their lazy read caches are built on first use under
  // DeltaStore's internal cache mutex, so publication stays O(runs).
  if (include_active && !delta_->empty()) {
    if (!delta_exposed_) {
      delta_->Settle();
    }
    gen->active = delta_;
    delta_exposed_ = true;
    published_active_ops_ = delta_->op_count();
  } else {
    published_active_ops_ = 0;
  }
  gen->levels.AppendBottomUp(&gen->chain);
  if (gen->active != nullptr) {
    gen->chain.push_back(gen->active.get());
  }
  gen->size = logical_size;
  gen->epoch = epoch_;
  // dirty_ means "the published generation does not cover the live
  // contents". A publication that excludes a non-empty staging buffer
  // (a merge-completion publish) must leave it set, or GetSnapshot's
  // fast path would hand out a view missing the staged ops.
  dirty_ = gen->active == nullptr && !delta_->empty();
  gate_.Publish(std::move(gen));
}

std::shared_ptr<const Hexastore> DeltaHexastore::PinBaseLocked() const {
  if (base_pin_ == nullptr) {
    // The flag was set by the last pin's deleter (or never cleared), and
    // nothing outside the writer reaches this base yet.
    base_->released.store(false, std::memory_order_relaxed);
    std::shared_ptr<BaseCell> cell = base_;
    base_pin_ = std::shared_ptr<const Hexastore>(
        &cell->store, [cell](const Hexastore*) {
          cell->released.store(true, std::memory_order_release);
        });
  }
  return base_pin_;
}

void DeltaHexastore::DropSpareLocked() {
  spare_.reset();
  spare_lag_.clear();
}

void DeltaHexastore::EnsureDeltaWritableLocked() {
  if (delta_exposed_) {
    delta_ = std::make_shared<DeltaStore>(*delta_);
    delta_exposed_ = false;
    chain_.back() = delta_.get();
  }
}

std::shared_ptr<DeltaStore> DeltaHexastore::FreshDeltaLocked() const {
  auto fresh = std::make_shared<DeltaStore>();
  fresh->set_filter_counters(filter_counters_);
  fresh->set_sort_counter(run_sort_triples_);
  return fresh;
}

bool DeltaHexastore::OverBudgetLocked() const {
  if (memory_budget_ == 0) {
    return false;
  }
  // Tracked bytes cover every sealed run (table + caches + filter); the
  // open buffer registers only at its seal, so its table is added here.
  return tracker_->resident() + delta_->TableBytes() > memory_budget_;
}

void DeltaHexastore::ConfigureRunLocked(const DeltaStore& run,
                                        std::size_t bits_per_key) {
  if (bits_per_key > 0) {
    if (OverBudgetLocked()) {
      // Graceful degradation under pressure: the run keeps working
      // through plain probes, we just don't spend budget on its filter.
      meters_.filters_dropped.Add();
      trace_.Record(obs::TraceEvent::kFilterDrop, "over_budget", 0,
                    run.op_count());
    } else {
      run.EnableFilter(bits_per_key);
    }
  }
  run.TrackMemory(tracker_);
}

void DeltaHexastore::MaybeCompactLocked() {
  // A seal is forced by the op-count threshold, or early by memory
  // pressure — but never for a near-empty buffer (a budget pinned by
  // snapshot readers must not shatter the delta into one-op runs).
  constexpr std::size_t kBudgetMinSealOps = 64;
  const bool due = delta_->op_count() >= compact_threshold_;
  const bool pressure = !due && OverBudgetLocked() &&
                        delta_->op_count() >= kBudgetMinSealOps;
  if (!due && !pressure) {
    return;
  }
  if (pressure) {
    meters_.budget_seals.Add();
    trace_.Record(obs::TraceEvent::kBudgetTrigger, "seal", 0,
                  delta_->op_count());
  }
  SealLocked();
  ScheduleJobsLocked();
}

void DeltaHexastore::SealLocked() {
  // Two pointer swaps: the open buffer becomes the newest immutable L0
  // run, writers get a fresh one. No publication and no cache build —
  // mutex readers reach the sealed runs under mu_, and lock-free
  // readers keep the previous generation until the next publication.
  // The sealing buffer is armed with the L0 filter (built lazily with
  // its sorted caches) and registered with the memory tracker.
  const bool timed = obs::MetricsEnabled();
  const std::uint64_t t0 = timed ? obs::NowNanos() : 0;
  const std::uint64_t sealed_ops = delta_->op_count();
  // The policy lets L0 hold l0_run_limit runs (flat: the one being
  // drained) before it consumes them. A seal past that finds the
  // compactor behind; the run is still absorbed.
  if (levels_.l0.size() >= std::max<std::size_t>(l0_run_limit_, 1)) {
    meters_.seal_overflows.Add();
  }
  ConfigureRunLocked(*delta_, filter_bits_l0_);
  levels_.l0.push_back(std::move(delta_));
  delta_ = FreshDeltaLocked();
  delta_exposed_ = false;
  published_active_ops_ = 0;
  levels_size_ = size_;
  meters_.seals.Add();
  dirty_ = true;
  RebuildChainLocked();
  if (timed) {
    const std::uint64_t dur = obs::NowNanos() - t0;
    meters_.seal_ns.Record(dur);
    trace_.Record(obs::TraceEvent::kSeal, "threshold", dur, sealed_ops);
  }
}

DeltaHexastore::Job DeltaHexastore::NextJobLocked() const {
  if (levels_.empty()) {
    return {};
  }
  // Flat drains after every seal; a requested drain goes first in
  // either policy.
  if (l0_run_limit_ == 0 || drain_target_ > drained_seals_) {
    return {Job::kDrain};
  }
  const bool l0_full = levels_.l0.size() >= l0_run_limit_;
  // L1 earns the base rebuild once it reaches l1_base_fraction of the
  // base, and never before it holds one compact_threshold of ops.
  bool l1_due = false;
  if (levels_.l1 != nullptr) {
    const std::size_t fraction = static_cast<std::size_t>(
        l1_base_fraction_ * static_cast<double>(base_->store.size()));
    l1_due = levels_.l1->op_count() >= std::max(compact_threshold_, fraction);
  }
  // Memory pressure overrides both triggers and pushes the hierarchy
  // down one level per job: L1 drains into the base, or else L0 folds.
  // Draining first keeps a writer that seals during every fold from
  // growing L1 without bound.
  if (OverBudgetLocked()) {
    return levels_.l1 != nullptr ? Job{Job::kDrain, !l1_due}
                                 : Job{Job::kFold, !l0_full};
  }
  if (l0_full) {
    return {Job::kFold};
  }
  return l1_due ? Job{Job::kDrain} : Job{};
}

void DeltaHexastore::ScheduleJobsLocked() {
  if (background_) {
    work_cv_.notify_one();
    return;
  }
  for (Job job = NextJobLocked(); job.kind != Job::kNone;
       job = NextJobLocked()) {
    RunJobLocked(job, /*lock=*/nullptr);
  }
}

void DeltaHexastore::RunJobLocked(Job job, std::unique_lock<std::mutex>* lock) {
  const bool drain = job.kind == Job::kDrain;
  const bool on_thread = lock != nullptr;
  // Pick: the job consumes every sealed run present now. While it
  // builds off the mutex, writers only append newer L0 runs, and a
  // Clear/BulkLoad bumps the ticket to void the result.
  const std::uint64_t ticket = merge_ticket_;
  const std::uint64_t sealed = meters_.seals.Value();
  std::shared_ptr<const DeltaStore> l1 = levels_.l1;
  std::vector<std::shared_ptr<const DeltaStore>> runs = levels_.l0;
  const bool over = OverBudgetLocked();
  // The drain's target, one decision for both placements: a base that
  // nothing outside the writer reads takes the run in place — base_
  // itself while it was never exposed (inline only: on the thread,
  // writers read base_ meanwhile), else the spare once its pin is
  // released, after it replays the runs it lags. Otherwise the drain
  // rebuilds from a pin of base_, which also makes a concurrent
  // Clear/BulkLoad swap base_ out instead of mutating it.
  std::shared_ptr<BaseCell> target;
  std::vector<DrainedRun> lag;
  std::shared_ptr<const Hexastore> source;
  if (drain) {
    if (!on_thread && base_pin_ == nullptr) {
      target = base_;
    } else if (spare_ != nullptr &&
               spare_->released.load(std::memory_order_acquire)) {
      target = std::move(spare_);
      lag = std::exchange(spare_lag_, {});
    } else {
      source = PinBaseLocked();
    }
  }
  if (on_thread) {
    lock->unlock();
  }

  // Build. The runs are frozen and read only through pure accessors; a
  // target base is the job's alone.
  const bool timed = obs::MetricsEnabled();
  const std::uint64_t t0 = timed ? obs::NowNanos() : 0;
  std::uint64_t fold_ops = 0;
  std::shared_ptr<const DeltaStore> folded = FoldRuns(l1, runs, &fold_ops);
  DrainedRun drained;
  std::uint64_t base_written = 0;
  if (!drain) {
    // The new L1 run gets the colder filter budget, except under memory
    // pressure (the drop is counted at commit). TrackMemory is
    // idempotent, covering an adopted single run; a voided result
    // balances through the run's destructor. The thread also pre-builds
    // the read caches while the run is private, so no reader pays for
    // them; inline, readers build them lazily instead of stalling the
    // writer.
    if (filter_bits_l1_ > 0 && !over) {
      folded->EnableFilter(filter_bits_l1_);
    }
    if (on_thread) {
      folded->Freeze();
    }
    folded->TrackMemory(tracker_);
  } else {
    // SortedInserts may sort the run's tail, internally synchronized like
    // every lazy build, so this is safe off the mutex.
    drained = {folded->SortedInserts(), folded->SortedTombstones(),
               folded->pattern_erased_predicates()};
    if (source != nullptr) {
      target = std::make_shared<BaseCell>();
      drained.MergeOffline(*source, &target->store);
      base_written = target->store.size();
    } else {
      for (const DrainedRun& run : lag) {
        run.ApplyInPlace(&target->store);
        base_written += run.ops();
      }
      drained.ApplyInPlace(&target->store);
      base_written += drained.ops();
    }
  }
  const std::uint64_t dur = timed ? obs::NowNanos() - t0 : 0;
  if (on_thread) {
    lock->lock();
    if (ticket != merge_ticket_) {
      // The inputs were replaced; a half-applied spare goes with the
      // result (Clear/BulkLoad already dropped the spare's lag).
      meters_.merge_discards.Add();
      return;
    }
  }

  // Commit.
  const char* where = on_thread ? "background" : "sync";
  levels_.l0.erase(
      levels_.l0.begin(),
      levels_.l0.begin() + static_cast<std::ptrdiff_t>(runs.size()));
  // Spares the writer lets go: freed off the mutex on the thread.
  std::vector<std::shared_ptr<BaseCell>> let_go;
  if (drain) {
    levels_.l1.reset();
    if (target != base_) {
      // The replaced base becomes the spare, one run behind. A spare
      // still pinned (this drain rebuilt) is let go.
      let_go.push_back(std::exchange(spare_, std::move(base_)));
      spare_lag_.clear();
      base_ = std::move(target);
      base_pin_.reset();
    }
    if (spare_ != nullptr) {
      spare_lag_.push_back(std::move(drained));
      std::size_t lag_ops = 0;
      for (const DrainedRun& run : spare_lag_) {
        lag_ops += run.ops();
      }
      // Past the base's size, catching up would cost more than the
      // rebuild it saves (a store draining in place unpublished, or a
      // run of mostly tombstones).
      if (lag_ops > base_->store.size()) {
        let_go.push_back(std::move(spare_));
        spare_lag_.clear();
      }
    }
    if (source != nullptr) {
      meters_.base_rebuilds.Add();
    }
    meters_.base_rebuild_triples.Add(base_written);
    meters_.base_merges.Add();
    if (on_thread) {
      meters_.background_merges.Add();
    }
    if (leveled() && !runs.empty()) {
      meters_.l0_merges.Add();  // folded its L0 runs onto L1 on the way
    }
    if (job.budget) {
      meters_.budget_base_merges.Add();
      trace_.Record(obs::TraceEvent::kBudgetTrigger, "base_merge");
    }
    drained_seals_ = sealed;
    if (timed) {
      meters_.base_merge_ns.Record(dur);
      trace_.Record(obs::TraceEvent::kBaseMerge, where, dur, base_written);
    }
  } else {
    levels_.l1 = folded;
    if (filter_bits_l1_ > 0 && over) {
      meters_.filters_dropped.Add();
      trace_.Record(obs::TraceEvent::kFilterDrop, "over_budget", 0,
                    folded->op_count());
    }
    meters_.l0_merges.Add();
    if (job.budget) {
      meters_.budget_folds.Add();
      trace_.Record(obs::TraceEvent::kBudgetTrigger, "fold");
    }
    if (timed) {
      meters_.fold_ns.Record(dur);
      trace_.Record(obs::TraceEvent::kFold, where, dur, fold_ops);
    }
  }
  meters_.merge_run_ops.Add(fold_ops);
  meters_.compactions.Add();
  ++epoch_;
  dirty_ = true;
  RebuildChainLocked();
  drain_cv_.notify_all();
  if (!on_thread) {
    return;
  }
  // Publish so lock-free readers advance. The staging buffer is
  // re-included only if a previous publication exposed it — dropping it
  // would make published views non-monotonic; including it otherwise
  // would force a needless copy-on-write.
  const bool include_active = published_active_ops_ > 0;
  PublishLocked(include_active ? size_ : levels_size_, include_active);
  // Destroy superseded generations, this job's inputs and pins, and a
  // let-go spare outside the mutex: freeing them under mu_ would stall
  // writers for the whole teardown.
  auto garbage = gate_.TakeReclaimed();
  lock->unlock();
  garbage.clear();
  runs.clear();
  l1.reset();
  folded.reset();
  lag.clear();
  source.reset();
  let_go.clear();
  lock->lock();
}

void DeltaHexastore::MergerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    Job job;
    work_cv_.wait(lock, [this, &job] {
      job = NextJobLocked();
      return stop_ || job.kind != Job::kNone;
    });
    if (stop_) {
      return;
    }
    RunJobLocked(job, &lock);
  }
}

}  // namespace hexastore
