#include "delta/delta_hexastore.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <utility>
#include <vector>

#include "delta/level.h"
#include "obs/scoped_timer.h"

namespace hexastore {

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
// write path this subsystem exists to keep flat. The accessor helpers
// that hand out views outliving the call take OverlayView instead.
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

// Shared-ownership variant for helpers whose result (a MergedList) must
// keep its generation alive after the mutex is released. `overlay` is
// the sole delta layer when refs.count <= 1 (the zero-copy fast path);
// with more layers the accessors materialize and own their ids.
struct OverlayView {
  std::shared_ptr<const Hexastore> base;
  std::shared_ptr<const DeltaStore> overlay;
  LayerRefs refs;
};

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
// scans of its sorted runs. A non-kUnknown verdict from a layer above
// means that layer owns the triple's fate (its own insert scan emits a
// re-staged copy), so lower copies are skipped — no duplicates.
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

// Size of the base terminal list under `key` after the delta's pattern
// tombstones are applied: an o(s,p) or s(p,o) list dies wholesale when
// its predicate key side is pattern-erased, while a p(s,o) list loses
// exactly its pattern-erased members.
std::size_t EffectiveBaseListSize(const Hexastore* base,
                                  const DeltaStore& delta,
                                  ListFamily family, const IdPair& key) {
  const IdVec* list =
      base == nullptr ? nullptr : base->pool().Find(family, key.a, key.b);
  if (list == nullptr) {
    return 0;
  }
  if (!delta.HasPatternErases()) {
    return list->size();
  }
  switch (family) {
    case ListFamily::kObjects:  // key (s, p)
      return delta.PatternErased(key.b) ? 0 : list->size();
    case ListFamily::kSubjects:  // key (p, o)
      return delta.PatternErased(key.a) ? 0 : list->size();
    case ListFamily::kPredicates: {  // key (s, o); members are predicates
      std::size_t n = 0;
      for (Id p : *list) {
        if (!delta.PatternErased(p)) {
          ++n;
        }
      }
      return n;
    }
  }
  return list->size();
}

// Merged header vector: the base index's sorted header-member vector
// adjusted by one delta layer's touched terminal lists. A second-level id
// stays in (or joins) the vector iff the merged terminal list under the
// (header, id) pair is non-empty — exactly the rule Hexastore::Erase uses
// to drop emptied pairs.
//
// `match_a` selects which side of the family's (a, b) key is the header
// role; the other side is the second-level id. `base_member_alive` is
// the pattern-tombstone filter for untouched base members (only
// consulted when the delta has pattern erases — the common path copies
// the base vector untouched).
template <typename AliveFn>
IdVec MergedHeaderVec(const Hexastore* base, const DeltaStore* delta,
                      ListFamily family, bool match_a, Id header,
                      const IdVec* base_vec, AliveFn&& base_member_alive) {
  IdVec out;
  if (base_vec != nullptr) {
    if (delta == nullptr || !delta->HasPatternErases()) {
      out = *base_vec;
    } else {
      out.reserve(base_vec->size());
      for (Id member : *base_vec) {
        if (base_member_alive(member)) {
          out.push_back(member);
        }
      }
    }
  }
  if (delta == nullptr) {
    return out;
  }
  delta->ForEachList(
      family, [&](const IdPair& key, const DeltaList& lists) {
        if ((match_a ? key.a : key.b) != header) {
          return;
        }
        const Id other = match_a ? key.b : key.a;
        const std::size_t merged_size =
            EffectiveBaseListSize(base, *delta, family, key) +
            lists.adds.size() - lists.removes.size();
        if (merged_size > 0) {
          SortedInsert(&out, other);
        } else {
          SortedErase(&out, other);
        }
      });
  return out;
}

// Materialized terminal-list fallback for multi-layer views (taken
// whenever sealed runs exist under the active buffer): scan the bound
// pair and collect the third role. The result vector is owned by the
// returned MergedList, so nothing points into any run.
MergedList MaterializedList(const OverlayView& v, const IdPattern& pattern,
                            Id IdTriple::*third) {
  auto owned = std::make_shared<IdVec>();
  LayeredScan(v.refs, pattern, [&owned, third](const IdTriple& t) {
    owned->push_back(t.*third);
  });
  SortUnique(owned.get());
  return MergedList(nullptr, nullptr, std::move(owned), nullptr, nullptr);
}

// Materialized header-vector fallback for multi-layer views: scan the
// single bound role and collect the distinct values of `member`.
IdVec MaterializedHeaderVec(const LayerRefs& v, const IdPattern& pattern,
                            Id IdTriple::*member) {
  IdVec out;
  LayeredScan(v, pattern,
              [&out, member](const IdTriple& t) { out.push_back(t.*member); });
  SortUnique(&out);
  return out;
}

// -- Single-overlay (base + one layer) accessor bodies --------------------
// The zero-copy fast paths, valid whenever at most one delta layer
// exists (v.overlay — usually the active buffer; for a generation whose
// only layer is an L1 run, that run).

MergedList LayeredObjects(const OverlayView& v, Id s, Id p) {
  if (v.refs.count > 1) {
    return MaterializedList(v, IdPattern{s, p, 0}, &IdTriple::o);
  }
  const DeltaStore* delta = v.overlay.get();
  const DeltaList* lists =
      delta == nullptr ? nullptr : delta->FindLists(ListFamily::kObjects, s, p);
  const IdVec* adds = lists == nullptr ? nullptr : &lists->adds;
  const IdVec* base_list =
      v.base == nullptr ? nullptr : v.base->objects(s, p);
  if (delta != nullptr && delta->PatternErased(p)) {
    // The whole base o(s,p) list is pattern-tombstoned; only staged
    // (re-)inserts survive. Point removes cannot exist for this p.
    return MergedList(v.base, v.overlay, static_cast<const IdVec*>(nullptr),
                      adds, nullptr);
  }
  return MergedList(v.base, v.overlay, base_list, adds,
                    lists == nullptr ? nullptr : &lists->removes);
}

MergedList LayeredPredicates(const OverlayView& v, Id s, Id o) {
  if (v.refs.count > 1) {
    return MaterializedList(v, IdPattern{s, 0, o}, &IdTriple::p);
  }
  const DeltaStore* delta = v.overlay.get();
  const DeltaList* lists =
      delta == nullptr ? nullptr
                       : delta->FindLists(ListFamily::kPredicates, s, o);
  const IdVec* adds = lists == nullptr ? nullptr : &lists->adds;
  const IdVec* removes = lists == nullptr ? nullptr : &lists->removes;
  const IdVec* base_list =
      v.base == nullptr ? nullptr : v.base->predicates(s, o);
  if (delta != nullptr && delta->HasPatternErases() && base_list != nullptr) {
    // Members of p(s,o) are predicates: drop the pattern-erased ones
    // from the base side (the view owns the filtered copy).
    auto filtered = std::make_shared<IdVec>();
    filtered->reserve(base_list->size());
    for (Id p : *base_list) {
      if (!delta->PatternErased(p)) {
        filtered->push_back(p);
      }
    }
    return MergedList(v.base, v.overlay, std::move(filtered), adds, removes);
  }
  return MergedList(v.base, v.overlay, base_list, adds, removes);
}

MergedList LayeredSubjects(const OverlayView& v, Id p, Id o) {
  if (v.refs.count > 1) {
    return MaterializedList(v, IdPattern{0, p, o}, &IdTriple::s);
  }
  const DeltaStore* delta = v.overlay.get();
  const DeltaList* lists =
      delta == nullptr ? nullptr
                       : delta->FindLists(ListFamily::kSubjects, p, o);
  const IdVec* adds = lists == nullptr ? nullptr : &lists->adds;
  const IdVec* base_list =
      v.base == nullptr ? nullptr : v.base->subjects(p, o);
  if (delta != nullptr && delta->PatternErased(p)) {
    return MergedList(v.base, v.overlay, static_cast<const IdVec*>(nullptr),
                      adds, nullptr);
  }
  return MergedList(v.base, v.overlay, base_list, adds,
                    lists == nullptr ? nullptr : &lists->removes);
}

IdVec LayeredPredicatesOfSubject(const LayerRefs& v, Id s) {
  if (v.count > 1) {
    return MaterializedHeaderVec(v, IdPattern{s, 0, 0}, &IdTriple::p);
  }
  const DeltaStore* delta = v.count == 1 ? v.layers[0] : nullptr;
  return MergedHeaderVec(
      v.base, delta, ListFamily::kObjects, /*match_a=*/true, s,
      v.base == nullptr ? nullptr : v.base->predicates_of_subject(s),
      [delta](Id p) { return !delta->PatternErased(p); });
}

IdVec LayeredObjectsOfSubject(const LayerRefs& v, Id s) {
  if (v.count > 1) {
    return MaterializedHeaderVec(v, IdPattern{s, 0, 0}, &IdTriple::o);
  }
  const DeltaStore* delta = v.count == 1 ? v.layers[0] : nullptr;
  const Hexastore* base = v.base;
  return MergedHeaderVec(
      base, delta, ListFamily::kPredicates, /*match_a=*/true, s,
      base == nullptr ? nullptr : base->objects_of_subject(s),
      [base, delta, s](Id o) {
        return EffectiveBaseListSize(base, *delta, ListFamily::kPredicates,
                                     IdPair{s, o}) > 0;
      });
}

IdVec LayeredSubjectsOfPredicate(const LayerRefs& v, Id p) {
  if (v.count > 1) {
    return MaterializedHeaderVec(v, IdPattern{0, p, 0}, &IdTriple::s);
  }
  const DeltaStore* delta = v.count == 1 ? v.layers[0] : nullptr;
  const bool erased = delta != nullptr && delta->PatternErased(p);
  return MergedHeaderVec(
      v.base, delta, ListFamily::kObjects, /*match_a=*/false, p,
      v.base == nullptr ? nullptr : v.base->subjects_of_predicate(p),
      [erased](Id) { return !erased; });
}

IdVec LayeredObjectsOfPredicate(const LayerRefs& v, Id p) {
  if (v.count > 1) {
    return MaterializedHeaderVec(v, IdPattern{0, p, 0}, &IdTriple::o);
  }
  const DeltaStore* delta = v.count == 1 ? v.layers[0] : nullptr;
  const bool erased = delta != nullptr && delta->PatternErased(p);
  return MergedHeaderVec(
      v.base, delta, ListFamily::kSubjects, /*match_a=*/true, p,
      v.base == nullptr ? nullptr : v.base->objects_of_predicate(p),
      [erased](Id) { return !erased; });
}

IdVec LayeredSubjectsOfObject(const LayerRefs& v, Id o) {
  if (v.count > 1) {
    return MaterializedHeaderVec(v, IdPattern{0, 0, o}, &IdTriple::s);
  }
  const DeltaStore* delta = v.count == 1 ? v.layers[0] : nullptr;
  const Hexastore* base = v.base;
  return MergedHeaderVec(
      base, delta, ListFamily::kPredicates, /*match_a=*/false, o,
      base == nullptr ? nullptr : base->subjects_of_object(o),
      [base, delta, o](Id s) {
        return EffectiveBaseListSize(base, *delta, ListFamily::kPredicates,
                                     IdPair{s, o}) > 0;
      });
}

IdVec LayeredPredicatesOfObject(const LayerRefs& v, Id o) {
  if (v.count > 1) {
    return MaterializedHeaderVec(v, IdPattern{0, 0, o}, &IdTriple::p);
  }
  const DeltaStore* delta = v.count == 1 ? v.layers[0] : nullptr;
  return MergedHeaderVec(
      v.base, delta, ListFamily::kSubjects, /*match_a=*/false, o,
      v.base == nullptr ? nullptr : v.base->predicates_of_object(o),
      [delta](Id p) { return !delta->PatternErased(p); });
}

// Off-thread merge of one delta run into a base: materializes
// base ∖ pattern-erased ∖ tombstones ∪ inserts into a fresh store. Reads
// only immutable state and the run's pure (non-caching) accessors, so it
// is safe to run without the store mutex while mutex readers lazily
// build the run's caches.
std::shared_ptr<Hexastore> MergeOffline(const Hexastore* base,
                                        const DeltaStore& run) {
  IdTripleVec merged;
  const IdTripleVec tombstones = run.SortedTombstones();
  const IdTripleVec inserts = run.SortedInserts();
  const IdVec& erased_preds = run.pattern_erased_predicates();
  if (base != nullptr) {
    // Match() materializes in (s, p, o) order, so the tombstone cursor
    // advances in lock-step.
    const IdTripleVec existing = base->Match(IdPattern{});
    merged.reserve(existing.size() + inserts.size());
    std::size_t ti = 0;
    for (const IdTriple& t : existing) {
      if (!erased_preds.empty() && SortedContains(erased_preds, t.p)) {
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
  }
  IdTripleVec all;
  all.reserve(merged.size() + inserts.size());
  std::merge(merged.begin(), merged.end(), inserts.begin(), inserts.end(),
             std::back_inserter(all));
  auto fresh = std::make_shared<Hexastore>();
  fresh->BulkLoad(all);
  return fresh;
}

// The sole delta layer's shared owner within a generation, for the
// zero-copy accessor fast path; null when the chain is empty or has
// more than one layer.
std::shared_ptr<const DeltaStore> SoleLayerOwner(const DeltaGeneration& gen) {
  if (gen.chain.size() != 1) {
    return nullptr;
  }
  const DeltaStore* sole = gen.chain[0];
  if (gen.active.get() == sole) {
    return gen.active;
  }
  if (gen.levels.l1.get() == sole) {
    return gen.levels.l1;
  }
  for (const auto& run : gen.levels.l0) {
    if (run.get() == sole) {
      return run;
    }
  }
  return nullptr;
}

LayerRefs GenRefs(const DeltaGeneration& gen) {
  return {gen.base.get(), gen.chain.data(), gen.chain.size()};
}

OverlayView GenView(const DeltaGeneration& gen) {
  return {gen.base, SoleLayerOwner(gen), GenRefs(gen)};
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
    : base_(std::make_shared<Hexastore>()), trace_(options.trace_capacity) {
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
                            "merges completed (drains, folds, base merges)",
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
                            "threshold hits no level could absorb",
                            &meters_.seal_overflows);
  registry_.RegisterCounter("hexa_delta_l0_merges_total",
                            "L0 to L1 folds completed", &meters_.l0_merges);
  registry_.RegisterCounter("hexa_delta_base_merges_total",
                            "merges drained into or rebuilding the base",
                            &meters_.base_merges);
  registry_.RegisterCounter("hexa_delta_merge_run_ops_total",
                            "ops written while building folded runs",
                            &meters_.merge_run_ops);
  registry_.RegisterCounter("hexa_delta_base_rebuild_triples_total",
                            "triples written by base merges",
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
                              "base merge/rebuild duration",
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
  meters_.base_triples.Set(static_cast<std::int64_t>(base_->size()));
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
  const LayerRefs refs{base_.get(), chain_.data(), chain_.size()};
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
  const LayerRefs refs{base_.get(), chain_.data(), chain_.size()};
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
  return LayeredContains({base_.get(), chain_.data(), chain_.size()}, t);
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
    LayeredScan({base_.get(), chain_.data(), chain_.size()}, pattern,
                [&matches](const IdTriple& t) { matches.push_back(t); });
  }
  for (const IdTriple& t : matches) {
    sink(t);
  }
}

std::size_t DeltaHexastore::MemoryBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return base_->MemoryBytes() + delta_->MemoryBytes() +
         levels_.MemoryBytes();
}

void DeltaHexastore::BulkLoad(const IdTripleVec& triples) {
  std::unique_lock<std::mutex> lock(mu_);
  WaitForMergeLocked(lock);
  CompactLocked();
  if (base_exposed_) {
    // A generation reads the base: load into a rebuilt copy instead.
    auto fresh = std::make_shared<Hexastore>();
    fresh->BulkLoad(base_->Match(IdPattern{}));
    base_ = std::move(fresh);
    base_exposed_ = false;
  }
  base_->BulkLoad(triples);
  trace_.Record(obs::TraceEvent::kBulkLoad, "writer", 0, triples.size());
  size_ = base_->size();
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
  drain_requested_ = false;
  if (base_exposed_) {
    base_ = std::make_shared<Hexastore>();
    base_exposed_ = false;
  } else {
    base_->Clear();
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
  std::unique_lock<std::mutex> lock(mu_);
  if (pattern.bound_count() == 0) {
    // Erase everything == Clear.
    const std::size_t erased = size_;
    ClearLocked();
    return erased;
  }
  if (pattern.has_p() && !pattern.has_s() && !pattern.has_o()) {
    if (leveled()) {
      // Leveled fast path: ONE merged scan counts the pattern's logical
      // matches across every layer (O(matches + log)), then one pattern
      // tombstone staged in the active buffer suppresses matching
      // triples in every run and the base alike — no level is drained
      // and the compactor is never waited on.
      std::size_t matches = 0;
      LayeredScan({base_.get(), chain_.data(), chain_.size()},
                  IdPattern{0, pattern.p, 0},
                  [&matches](const IdTriple&) { ++matches; });
      EnsureDeltaWritableLocked();
      delta_->StagePatternErase(pattern.p);
      meters_.staged_ops_total.Add();
      size_ -= matches;
      dirty_ = true;
      return matches;
    }
    // Flat fast path: one pattern-level tombstone instead of one point
    // tombstone per match. Its exact erase count is defined against the
    // merged base, so an in-flight background merge is drained first
    // (bulk erases are rare; point ops never wait).
    WaitForMergeLocked(lock);
    // Count the base's contribution before staging (staging drops the
    // point ops whose counts correct it).
    const bool already = delta_->PatternErased(pattern.p);
    const std::uint64_t base_matches =
        already ? 0 : base_->CountMatches(IdPattern{0, pattern.p, 0});
    EnsureDeltaWritableLocked();
    const DeltaStore::PatternEraseEffect effect =
        delta_->StagePatternErase(pattern.p);
    meters_.staged_ops_total.Add();
    // Base triples already point-tombstoned were logically absent, and
    // dropped staged inserts were logically present on top of the base.
    const std::size_t erased =
        static_cast<std::size_t>(base_matches) - effect.dropped_tombstones +
        effect.dropped_inserts;
    size_ -= erased;
    dirty_ = true;
    return erased;
  }
  // General shape: the point-tombstone path, one staged op per match.
  const LayerRefs refs{base_.get(), chain_.data(), chain_.size()};
  IdTripleVec matches;
  LayeredScan(refs, pattern,
              [&matches](const IdTriple& t) { matches.push_back(t); });
  if (matches.empty()) {
    return 0;
  }
  EnsureDeltaWritableLocked();
  for (const IdTriple& t : matches) {
    delta_->StageErase(
        t, LayeredContains({base_.get(), chain_.data(), chain_.size() - 1},
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
  return LayeredEstimate({base_.get(), chain_.data(), chain_.size()},
                         pattern);
}

void DeltaHexastore::Compact() {
  std::unique_lock<std::mutex> lock(mu_);
  if (!background_) {
    CompactLocked();
    return;
  }
  if (!leveled()) {
    // Drain what is staged *now* — at most the in-flight merge plus one
    // seal of the current buffer. Bounded on purpose: waiting for
    // delta_->empty() would chase ops concurrent writers keep staging
    // and might never return under sustained load.
    if (!levels_.empty()) {
      AwaitOneMergeLocked(lock);
    }
    if (levels_.empty() && !delta_->empty()) {
      SealLocked();
    }
    if (!levels_.empty()) {
      AwaitOneMergeLocked(lock);
    }
    return;
  }
  // Leveled: seal the buffer and ask the compactor to merge all the way
  // down to the base. Each wait completes one merge, so the loop makes
  // global progress; under sustained concurrent writes it may chase new
  // seals (same caveat as above, accepted for the explicit-drain path).
  if (!delta_->empty()) {
    SealLocked();
  }
  const std::uint64_t ticket = merge_ticket_;
  while (!levels_.empty() && merge_ticket_ == ticket) {
    drain_requested_ = true;
    work_cv_.notify_one();
    AwaitOneMergeLocked(lock);
  }
  // Done (or the inputs were wiped): don't leave a stale full-depth
  // drain request behind — it would turn the next routine seal into an
  // immediate fold + base rebuild. A concurrent Compact still in its
  // loop simply re-sets the flag on its next iteration.
  drain_requested_ = false;
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
  stats.base_triples = base_->size();
  stats.base_bytes = base_->MemoryBytes();
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

std::string DeltaHexastore::MetricsText() const {
  GatherStats();  // refresh gauges under the mutex
  return registry_.RenderPrometheus();
}

std::string DeltaHexastore::MetricsJson() const {
  GatherStats();
  return registry_.RenderJson();
}

bool DeltaHexastore::DumpMetricsJson(const std::string& path) const {
  GatherStats();
  return registry_.WriteJsonFile(path);
}

DeltaHexastore::Snapshot DeltaHexastore::GetSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  ExposeLocked();
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

MergedList DeltaHexastore::Snapshot::objects(Id s, Id p) const {
  if (gen_ == nullptr) {
    return MergedList();
  }
  return LayeredObjects(GenView(*gen_), s, p);
}

MergedList DeltaHexastore::Snapshot::predicates(Id s, Id o) const {
  if (gen_ == nullptr) {
    return MergedList();
  }
  return LayeredPredicates(GenView(*gen_), s, o);
}

MergedList DeltaHexastore::Snapshot::subjects(Id p, Id o) const {
  if (gen_ == nullptr) {
    return MergedList();
  }
  return LayeredSubjects(GenView(*gen_), p, o);
}

IdVec DeltaHexastore::Snapshot::predicates_of_subject(Id s) const {
  if (gen_ == nullptr) {
    return IdVec();
  }
  return LayeredPredicatesOfSubject(GenRefs(*gen_), s);
}

IdVec DeltaHexastore::Snapshot::objects_of_subject(Id s) const {
  if (gen_ == nullptr) {
    return IdVec();
  }
  return LayeredObjectsOfSubject(GenRefs(*gen_), s);
}

IdVec DeltaHexastore::Snapshot::subjects_of_predicate(Id p) const {
  if (gen_ == nullptr) {
    return IdVec();
  }
  return LayeredSubjectsOfPredicate(GenRefs(*gen_), p);
}

IdVec DeltaHexastore::Snapshot::objects_of_predicate(Id p) const {
  if (gen_ == nullptr) {
    return IdVec();
  }
  return LayeredObjectsOfPredicate(GenRefs(*gen_), p);
}

IdVec DeltaHexastore::Snapshot::subjects_of_object(Id o) const {
  if (gen_ == nullptr) {
    return IdVec();
  }
  return LayeredSubjectsOfObject(GenRefs(*gen_), o);
}

IdVec DeltaHexastore::Snapshot::predicates_of_object(Id o) const {
  if (gen_ == nullptr) {
    return IdVec();
  }
  return LayeredPredicatesOfObject(GenRefs(*gen_), o);
}

// -- Live merged accessor views -------------------------------------------

MergedList DeltaHexastore::objects(Id s, Id p) const {
  std::lock_guard<std::mutex> lock(mu_);
  ExposeLocked();
  return LayeredObjects(
      {base_, delta_, {base_.get(), chain_.data(), chain_.size()}}, s, p);
}

MergedList DeltaHexastore::predicates(Id s, Id o) const {
  std::lock_guard<std::mutex> lock(mu_);
  ExposeLocked();
  return LayeredPredicates(
      {base_, delta_, {base_.get(), chain_.data(), chain_.size()}}, s, o);
}

MergedList DeltaHexastore::subjects(Id p, Id o) const {
  std::lock_guard<std::mutex> lock(mu_);
  ExposeLocked();
  return LayeredSubjects(
      {base_, delta_, {base_.get(), chain_.data(), chain_.size()}}, p, o);
}

IdVec DeltaHexastore::predicates_of_subject(Id s) const {
  std::lock_guard<std::mutex> lock(mu_);
  return LayeredPredicatesOfSubject(
      {base_.get(), chain_.data(), chain_.size()}, s);
}

IdVec DeltaHexastore::objects_of_subject(Id s) const {
  std::lock_guard<std::mutex> lock(mu_);
  return LayeredObjectsOfSubject(
      {base_.get(), chain_.data(), chain_.size()}, s);
}

IdVec DeltaHexastore::subjects_of_predicate(Id p) const {
  std::lock_guard<std::mutex> lock(mu_);
  return LayeredSubjectsOfPredicate(
      {base_.get(), chain_.data(), chain_.size()}, p);
}

IdVec DeltaHexastore::objects_of_predicate(Id p) const {
  std::lock_guard<std::mutex> lock(mu_);
  return LayeredObjectsOfPredicate(
      {base_.get(), chain_.data(), chain_.size()}, p);
}

IdVec DeltaHexastore::subjects_of_object(Id o) const {
  std::lock_guard<std::mutex> lock(mu_);
  return LayeredSubjectsOfObject(
      {base_.get(), chain_.data(), chain_.size()}, o);
}

IdVec DeltaHexastore::predicates_of_object(Id o) const {
  std::lock_guard<std::mutex> lock(mu_);
  return LayeredPredicatesOfObject(
      {base_.get(), chain_.data(), chain_.size()}, o);
}

std::shared_ptr<const Hexastore> DeltaHexastore::base() const {
  std::lock_guard<std::mutex> lock(mu_);
  base_exposed_ = true;
  return base_;
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
  if (!base_->CheckInvariants(error)) {
    return false;
  }
  // Per-layer contract, bottom-up: staged inserts are disjoint from the
  // layers beneath, tombstones are a subset of them, and every op is
  // mirrored in all three side-list families of its own layer.
  const std::size_t l1_count = levels_.l1 == nullptr ? 0 : 1;
  for (std::size_t li = 0; li < chain_.size(); ++li) {
    const DeltaStore* layer = chain_[li];
    const LayerRefs beneath{base_.get(), chain_.data(), li};
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
        return;
      }
      const DeltaList* objects =
          layer->FindLists(ListFamily::kObjects, t.s, t.p);
      const DeltaList* predicates =
          layer->FindLists(ListFamily::kPredicates, t.s, t.o);
      const DeltaList* subjects =
          layer->FindLists(ListFamily::kSubjects, t.p, t.o);
      const bool is_add = op == DeltaOp::kInsert;
      auto in = [is_add](const DeltaList* lists, Id third) {
        return lists != nullptr &&
               SortedContains(is_add ? lists->adds : lists->removes, third);
      };
      if (!in(objects, t.o) || !in(predicates, t.p) || !in(subjects, t.s)) {
        ok = false;
        msg = label + ": staged op missing from a delta side list";
      }
    });
    if (!ok) {
      return fail(msg);
    }
    // Side-list totals match the op counters in every family.
    for (int f = 0; f < 3; ++f) {
      std::size_t adds = 0;
      std::size_t removes = 0;
      layer->ForEachList(static_cast<ListFamily>(f),
                         [&](const IdPair&, const DeltaList& lists) {
                           adds += lists.adds.size();
                           removes += lists.removes.size();
                         });
      if (adds != layer->insert_count() ||
          removes != layer->tombstone_count()) {
        std::ostringstream os;
        os << label << ": delta side-list family " << f << " totals ("
           << adds << ", " << removes << ") disagree with op counters ("
           << layer->insert_count() << ", " << layer->tombstone_count()
           << ")";
        return fail(os.str());
      }
    }
  }
  // Size bookkeeping: the full merged scan must see exactly size_
  // triples (this also exercises the cross-layer tombstone math).
  std::size_t merged_size = 0;
  LayeredScan({base_.get(), chain_.data(), chain_.size()}, IdPattern{},
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
  gen->base = base_;
  gen->levels = levels_;
  // No cache pre-building here: a run's lazy read caches are built
  // on first use under DeltaStore's internal cache mutex, so lock-free
  // readers of the published generation are safe — and publication
  // stays O(runs) instead of paying an O(run size) freeze under mu_.
  if (include_active && !delta_->empty()) {
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
  base_exposed_ = true;
  // dirty_ means "the published generation does not cover the live
  // contents". A publication that excludes a non-empty staging buffer
  // (a merge-completion publish) must leave it set, or ExposeLocked's
  // fast path would hand snapshots/accessors a view missing the staged
  // ops — and hand out delta_ list pointers without the exposure mark.
  dirty_ = gen->active == nullptr && !delta_->empty();
  gate_.Publish(std::move(gen));
}

void DeltaHexastore::ExposeLocked() const {
  if (dirty_) {
    PublishLocked(size_, /*include_active=*/true);
  } else {
    // Already published and unchanged since; the current generation
    // covers exactly the live contents.
    base_exposed_ = true;
  }
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
  if (leveled()) {
    if (levels_.l0.size() >= l0_run_limit_) {
      // The compactor (or the fold below) is behind; the run is still
      // absorbed — this only marks that L0 grew past its limit.
      meters_.seal_overflows.Add();
    }
    SealLocked();
    const bool over = OverBudgetLocked();
    if (background_) {
      if (over) {
        // Budget pressure overrides l0_run_limit: ask the compactor to
        // merge all the way down so memory actually comes back.
        drain_requested_ = true;
        meters_.budget_folds.Add();
        trace_.Record(obs::TraceEvent::kBudgetTrigger, "fold");
        work_cv_.notify_one();
      }
      return;  // the compactor folds and merges from here
    }
    // Synchronous leveling: fold on this thread when L0 is full (or the
    // budget demands it), and pay the base rebuild only when L1 has
    // earned it — or when memory pressure persists after the fold.
    if (levels_.l0.size() >= l0_run_limit_ || over) {
      if (over && levels_.l0.size() < l0_run_limit_) {
        meters_.budget_folds.Add();
        trace_.Record(obs::TraceEvent::kBudgetTrigger, "fold");
      }
      FoldLocked();
    }
    const bool base_due = L1MergeDueLocked();
    if (levels_.l1 != nullptr && (base_due || OverBudgetLocked())) {
      if (!base_due) {
        meters_.budget_base_merges.Add();
        trace_.Record(obs::TraceEvent::kBudgetTrigger, "base_merge");
      }
      ApplyRunToBaseLocked(*levels_.l1);
      levels_.l1.reset();
      meters_.base_merges.Add();
      meters_.compactions.Add();
      ++epoch_;
      dirty_ = true;
      RebuildChainLocked();
    }
    return;
  }
  if (!background_) {
    CompactLocked();
    return;
  }
  if (!levels_.empty()) {
    // A merge is still in flight; keep staging (the buffer may overshoot
    // the threshold) rather than stall the writer.
    meters_.seal_overflows.Add();
    return;
  }
  SealLocked();
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
  work_cv_.notify_one();
}

void DeltaHexastore::FoldLocked() {
  const bool timed = obs::MetricsEnabled();
  const std::uint64_t t0 = timed ? obs::NowNanos() : 0;
  std::uint64_t fold_ops = 0;
  levels_.l1 = FoldRuns(levels_.l1, levels_.l0, &fold_ops);
  levels_.l0.clear();
  if (levels_.l1 != nullptr) {
    // Idempotent for an adopted single run (already filtered/tracked at
    // its seal); a freshly merged run gets the colder L1 bit budget.
    ConfigureRunLocked(*levels_.l1, filter_bits_l1_);
  }
  meters_.merge_run_ops.Add(fold_ops);
  meters_.l0_merges.Add();
  meters_.compactions.Add();
  ++epoch_;
  dirty_ = true;
  RebuildChainLocked();
  if (timed) {
    const std::uint64_t dur = obs::NowNanos() - t0;
    meters_.fold_ns.Record(dur);
    trace_.Record(obs::TraceEvent::kFold, "sync", dur, fold_ops);
  }
}

bool DeltaHexastore::L1MergeDueLocked() const {
  if (levels_.l1 == nullptr) {
    return false;
  }
  const std::size_t fraction = static_cast<std::size_t>(
      l1_base_fraction_ * static_cast<double>(base_->size()));
  return levels_.l1->op_count() >= std::max(compact_threshold_, fraction);
}

bool DeltaHexastore::HasCompactorWorkLocked() const {
  if (levels_.empty()) {
    return false;
  }
  if (!leveled()) {
    return true;  // flat: the single sealed run is always mergeable
  }
  if (!levels_.l0.empty() &&
      (levels_.l0.size() >= l0_run_limit_ || drain_requested_)) {
    return true;
  }
  return levels_.l1 != nullptr && (L1MergeDueLocked() || drain_requested_);
}

void DeltaHexastore::ApplyRunToBaseLocked(const DeltaStore& run) {
  const bool timed = obs::MetricsEnabled();
  const std::uint64_t t0 = timed ? obs::NowNanos() : 0;
  if (!base_exposed_) {
    // The base never escaped the mutex: drain in place. Pattern
    // tombstones purge their base matches first (this is where the bulk
    // erase finally pays O(matches), amortized into the drain), then the
    // point tombstones (each an O(log + shift) point erase), then one
    // sorted merge of the staged inserts through the non-empty BulkLoad
    // path.
    for (Id p : run.pattern_erased_predicates()) {
      for (const IdTriple& t : base_->Match(IdPattern{0, p, 0})) {
        base_->Erase(t);
      }
    }
    for (const IdTriple& t : run.SortedTombstones()) {
      base_->Erase(t);
    }
    base_->BulkLoad(run.SortedInserts());
    meters_.base_rebuild_triples.Add(run.op_count());
  } else {
    // A generation may still read the base: rebuild the merged state
    // into a fresh store and swap, leaving the old one untouched for
    // its readers.
    base_ = MergeOffline(base_.get(), run);
    base_exposed_ = false;
    meters_.base_rebuild_triples.Add(base_->size());
  }
  if (timed) {
    const std::uint64_t dur = obs::NowNanos() - t0;
    meters_.base_merge_ns.Record(dur);
    trace_.Record(obs::TraceEvent::kBaseMerge, "sync", dur, run.op_count());
  }
}

void DeltaHexastore::WaitForMergeLocked(std::unique_lock<std::mutex>& lock) {
  if (!background_) {
    return;  // no compactor; sync callers collapse the levels inline
  }
  drain_requested_ = true;  // leveled compactor: merge all the way down
  work_cv_.notify_one();
  drain_cv_.wait(lock, [this] { return levels_.empty(); });
  // The hierarchy is empty: the request is satisfied. Leaving the flag
  // set would make the compactor treat the very next seal as a
  // full-depth drain and pay a spurious base rebuild.
  drain_requested_ = false;
}

void DeltaHexastore::AwaitOneMergeLocked(std::unique_lock<std::mutex>& lock) {
  // Bounded wait: one merge completing (or a Clear/BulkLoad wiping the
  // inputs, which bumps the ticket) satisfies it — later seals by
  // concurrent writers are deliberately not chased.
  const std::uint64_t target = meters_.compactions.Value() + 1;
  const std::uint64_t ticket = merge_ticket_;
  drain_cv_.wait(lock, [this, target, ticket] {
    return meters_.compactions.Value() >= target || merge_ticket_ != ticket;
  });
}

void DeltaHexastore::CompactLocked() {
  // Synchronous full drain: collapse the whole hierarchy (L1, L0 runs,
  // active) into the base. Background callers first wait for the
  // compactor (WaitForMergeLocked), so levels are normally empty there;
  // the ticket bump invalidates any merge that still races this.
  if (delta_->empty() && levels_.empty()) {
    return;
  }
  ++merge_ticket_;
  std::shared_ptr<const DeltaStore> all;
  if (levels_.empty()) {
    all = delta_;
  } else {
    std::uint64_t fold_ops = 0;
    std::shared_ptr<const DeltaStore> folded =
        FoldRuns(levels_.l1, levels_.l0, &fold_ops);
    if (!delta_->empty()) {
      std::shared_ptr<DeltaStore> merged =
          MergeDeltaLayers(*folded, *delta_);
      fold_ops += merged->op_count();
      folded = std::move(merged);
    }
    meters_.merge_run_ops.Add(fold_ops);
    all = std::move(folded);
  }
  ApplyRunToBaseLocked(*all);
  levels_.clear();
  drain_requested_ = false;
  if (delta_exposed_) {
    delta_ = FreshDeltaLocked();
    delta_exposed_ = false;
  } else {
    delta_->Clear();
  }
  RebuildChainLocked();
  published_active_ops_ = 0;
  meters_.compactions.Add();
  meters_.base_merges.Add();
  ++epoch_;
  size_ = base_->size();
  levels_size_ = size_;
  dirty_ = true;
  drain_cv_.notify_all();
}

void DeltaHexastore::MergerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    work_cv_.wait(lock, [this] { return stop_ || HasCompactorWorkLocked(); });
    if (stop_) {
      return;
    }
    const std::uint64_t ticket = merge_ticket_;
    const bool fold_job =
        leveled() && !levels_.l0.empty() &&
        (levels_.l0.size() >= l0_run_limit_ || drain_requested_);
    if (fold_job) {
      // Fold every current L0 run (+ the L1 run) into a fresh L1 run,
      // off the mutex: the runs are frozen and the fold reads them only
      // through pure accessors.
      std::shared_ptr<const DeltaStore> l1 = levels_.l1;
      std::vector<std::shared_ptr<const DeltaStore>> runs = levels_.l0;
      const bool over = OverBudgetLocked();
      lock.unlock();
      const bool timed = obs::MetricsEnabled();
      const std::uint64_t t0 = timed ? obs::NowNanos() : 0;
      std::uint64_t fold_ops = 0;
      std::shared_ptr<const DeltaStore> folded =
          FoldRuns(l1, runs, &fold_ops);
      // Arm the folded run's L1 filter (skipped under budget pressure —
      // the drop is counted at commit), then pre-build its lazy read
      // caches and the filter while it is still thread-private: the
      // post-commit publish freezes every run under mu_, and paying an
      // O(L1) cache build there would stall writers for the whole fold
      // size. TrackMemory is idempotent, covering the adopted-single-run
      // case; a discarded result balances through the run's destructor.
      if (filter_bits_l1_ > 0 && !over) {
        folded->EnableFilter(filter_bits_l1_);
      }
      folded->Freeze();
      folded->TrackMemory(tracker_);
      const std::uint64_t fold_dur = timed ? obs::NowNanos() - t0 : 0;
      lock.lock();
      if (filter_bits_l1_ > 0 && over) {
        meters_.filters_dropped.Add();
        trace_.Record(obs::TraceEvent::kFilterDrop, "over_budget", 0,
                      fold_ops);
      }
      if (ticket != merge_ticket_) {
        // Clear/BulkLoad/CompactLocked replaced the inputs mid-fold.
        meters_.merge_discards.Add();
        drain_cv_.notify_all();
        continue;
      }
      // Writers may have sealed more runs meanwhile; they are strictly
      // newer than every consumed run, so drop exactly the consumed
      // oldest prefix.
      levels_.l0.erase(levels_.l0.begin(),
                       levels_.l0.begin() +
                           static_cast<std::ptrdiff_t>(runs.size()));
      levels_.l1 = std::move(folded);
      meters_.merge_run_ops.Add(fold_ops);
      meters_.l0_merges.Add();
      meters_.compactions.Add();
      if (timed) {
        meters_.fold_ns.Record(fold_dur);
        trace_.Record(obs::TraceEvent::kFold, "background", fold_dur,
                      fold_ops);
      }
      ++epoch_;
      dirty_ = true;
      RebuildChainLocked();
      const bool include_active = published_active_ops_ > 0;
      PublishLocked(include_active ? size_ : levels_size_, include_active);
      drain_cv_.notify_all();
      // Destroy superseded generations and this fold's input references
      // outside the mutex: freeing a large run under mu_ would stall
      // writers for the whole teardown.
      auto garbage = gate_.TakeReclaimed();
      lock.unlock();
      garbage.clear();
      runs.clear();
      l1.reset();
      lock.lock();
      continue;
    }
    // Base merge: the single sealed run (flat) or the L1 run (leveled).
    std::shared_ptr<const DeltaStore> input =
        leveled() ? levels_.l1
                  : (levels_.l0.empty() ? nullptr : levels_.l0.front());
    if (input == nullptr) {
      drain_requested_ = false;
      continue;
    }
    // Pin the inputs, then merge without the mutex: the run is closed to
    // writers, and marking the base exposed here keeps it immutable
    // too — a concurrent Clear() must swap in a fresh object rather than
    // clearing the one this thread is scanning.
    base_exposed_ = true;
    std::shared_ptr<const Hexastore> base = base_;
    lock.unlock();
    const bool timed = obs::MetricsEnabled();
    const std::uint64_t t0 = timed ? obs::NowNanos() : 0;
    std::shared_ptr<Hexastore> fresh = MergeOffline(base.get(), *input);
    const std::uint64_t merge_dur = timed ? obs::NowNanos() - t0 : 0;
    lock.lock();
    if (ticket != merge_ticket_) {
      // Clear/BulkLoad replaced the inputs mid-merge; the result
      // describes a state that no longer exists.
      meters_.merge_discards.Add();
      drain_cv_.notify_all();
      continue;
    }
    base_ = std::move(fresh);
    if (leveled()) {
      levels_.l1.reset();
    } else {
      levels_.l0.clear();
      levels_size_ = base_->size();
    }
    if (levels_.empty()) {
      drain_requested_ = false;
    }
    meters_.base_rebuild_triples.Add(base_->size());
    meters_.compactions.Add();
    meters_.background_merges.Add();
    meters_.base_merges.Add();
    if (timed) {
      meters_.base_merge_ns.Record(merge_dur);
      trace_.Record(obs::TraceEvent::kBaseMerge, "background", merge_dur,
                    base_->size());
    }
    ++epoch_;
    dirty_ = true;
    RebuildChainLocked();
    // Publish the post-merge generation so lock-free readers advance.
    // The staging buffer is re-included only if a previous publication
    // exposed it — dropping it would make published views non-monotonic;
    // including it otherwise would force a needless copy-on-write.
    const bool include_active = published_active_ops_ > 0;
    PublishLocked(include_active ? size_ : levels_size_, include_active);
    drain_cv_.notify_all();
    // As in the fold branch: drop the old base, the merged run and any
    // reclaimed generations without holding the mutex.
    auto garbage = gate_.TakeReclaimed();
    lock.unlock();
    garbage.clear();
    base.reset();
    input.reset();
    lock.lock();
  }
}

}  // namespace hexastore
