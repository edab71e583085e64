#include "delta/delta_store.h"

#include <algorithm>
#include <functional>
#include <tuple>

#include "util/memory_tracker.h"

namespace hexastore {

namespace {

// Load factor cap for the open-addressing table: grow once used slots
// (live + dead) exceed 7/8 of capacity, so probe chains stay short.
constexpr std::size_t kMinCapacity = 64;

bool OverLoaded(std::size_t used, std::size_t capacity) {
  return (used + 1) * 8 > capacity * 7;
}

}  // namespace

DeltaStore::~DeltaStore() {
  // Runs unshared by definition, including on the deferred-reclaim path
  // where the compactor destroys retired runs off the owner's mutex —
  // returning the tracked bytes here is what keeps the resident-memory
  // accounting balanced across folds.
  if (tracker_ != nullptr) {
    tracker_->Sub(tracked_bytes_);
  }
}

DeltaStore::Slot* DeltaStore::Probe(const IdTriple& t,
                                    Slot** insert_at) const {
  if (insert_at != nullptr) {
    *insert_at = nullptr;
  }
  if (slots_.empty()) {
    return nullptr;
  }
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = IdTripleHash()(t) & mask;
  while (true) {
    Slot& slot = slots_[i];
    if (slot.state == SlotState::kEmpty) {
      if (insert_at != nullptr && *insert_at == nullptr) {
        *insert_at = &slot;
      }
      return nullptr;
    }
    if (slot.state == SlotState::kDead) {
      // Reusable, but the probe chain continues: `t` may sit further on.
      if (insert_at != nullptr && *insert_at == nullptr) {
        *insert_at = &slot;
      }
    } else if (slot.triple == t) {
      return &slot;
    }
    i = (i + 1) & mask;
  }
}

void DeltaStore::ReserveForOneMore() {
  if (!slots_.empty() && !OverLoaded(used_, slots_.size())) {
    return;
  }
  // Size for the live ops only: rehashing drops dead slots.
  std::size_t capacity = kMinCapacity;
  while (OverLoaded(op_count() * 2, capacity)) {
    capacity <<= 1;
  }
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(capacity, Slot{});
  used_ = 0;
  const std::size_t mask = capacity - 1;
  for (const Slot& slot : old) {
    if (slot.state != SlotState::kFull) {
      continue;
    }
    std::size_t i = IdTripleHash()(slot.triple) & mask;
    while (slots_[i].state == SlotState::kFull) {
      i = (i + 1) & mask;
    }
    slots_[i] = slot;
    ++used_;
  }
}

bool DeltaStore::StageInsert(const IdTriple& t, bool base_present) {
  Slot* hit = Probe(t, nullptr);
  if (hit != nullptr) {
    if (hit->op == DeltaOp::kInsert) {
      return false;  // already staged as present
    }
    // Tombstone of a base triple being re-inserted: the two ops cancel
    // (the base copy shows through again).
    hit->state = SlotState::kDead;
    --tombstones_;
    InvalidateCaches();
    return true;
  }
  if (base_present && !PatternErased(t.p)) {
    return false;  // base already has it, nothing to stage
  }
  // Note: when the predicate is pattern-erased the base copy (if any) is
  // logically gone, so the insert is staged even if base_present — the
  // one case where an add may coincide with a base triple.
  ReserveForOneMore();
  Slot* at = nullptr;
  Probe(t, &at);
  if (at->state == SlotState::kEmpty) {
    ++used_;
  }
  *at = Slot{t, SlotState::kFull, DeltaOp::kInsert};
  ++inserts_;
  InvalidateCaches();
  return true;
}

bool DeltaStore::StageErase(const IdTriple& t, bool base_present) {
  Slot* hit = Probe(t, nullptr);
  if (hit != nullptr) {
    if (hit->op == DeltaOp::kTombstone) {
      return false;  // already logically absent
    }
    // Erasing a staged insert just drops the staged op.
    hit->state = SlotState::kDead;
    --inserts_;
    InvalidateCaches();
    return true;
  }
  if (!base_present || PatternErased(t.p)) {
    return false;  // absent, or already gone via the pattern tombstone
  }
  ReserveForOneMore();
  Slot* at = nullptr;
  Probe(t, &at);
  if (at->state == SlotState::kEmpty) {
    ++used_;
  }
  *at = Slot{t, SlotState::kFull, DeltaOp::kTombstone};
  ++tombstones_;
  InvalidateCaches();
  return true;
}

void DeltaStore::StagePatternErase(Id p) {
  // Point ops on the predicate are subsumed: staged inserts die with the
  // pattern, tombstones become redundant (keeping them would violate the
  // "tombstone predicate never pattern-erased" invariant).
  for (Slot& slot : slots_) {
    if (slot.state == SlotState::kFull && slot.triple.p == p) {
      slot.state = SlotState::kDead;
      if (slot.op == DeltaOp::kInsert) {
        --inserts_;
      } else {
        --tombstones_;
      }
    }
  }
  SortedInsert(&pattern_preds_, p);
  InvalidateCaches();
}

DeltaStore::Presence DeltaStore::Lookup(const IdTriple& t) const {
  const Slot* hit = Probe(t, nullptr);
  if (hit != nullptr) {
    return hit->op == DeltaOp::kInsert ? Presence::kInserted
                                       : Presence::kErased;
  }
  // Op-table entries win over the pattern: an insert staged after the
  // pattern erase is present even though its predicate is in P.
  if (PatternErased(t.p)) {
    return Presence::kErased;
  }
  return Presence::kUnknown;
}

DeltaStore::Presence DeltaStore::FilteredLookup(const IdTriple& t) const {
  const RunFilter* f = MaybeFilter();
  if (f == nullptr) {
    return Lookup(t);
  }
  RunFilterCounters* c = filter_counters_.get();
  if (c != nullptr) {
    c->probes.Add();
  }
  if (!f->MayContain(t)) {
    if (c != nullptr) {
      c->skips.Add();
    }
    // A filter miss proves "no op-table entry" — it says nothing about
    // pattern tombstones, which are checked unconditionally so a skipped
    // run never loses its erase verdicts.
    return PatternErased(t.p) ? Presence::kErased : Presence::kUnknown;
  }
  const Slot* hit = Probe(t, nullptr);
  if (hit != nullptr) {
    return hit->op == DeltaOp::kInsert ? Presence::kInserted
                                       : Presence::kErased;
  }
  if (c != nullptr) {
    c->false_positives.Add();
  }
  return PatternErased(t.p) ? Presence::kErased : Presence::kUnknown;
}

DeltaStore::OpLookup DeltaStore::LookupOp(const IdTriple& t) const {
  const Slot* hit = Probe(t, nullptr);
  if (hit == nullptr) {
    return OpLookup::kNone;
  }
  return hit->op == DeltaOp::kInsert ? OpLookup::kInsert
                                     : OpLookup::kTombstone;
}

void DeltaStore::AdoptOp(const IdTriple& t, DeltaOp op) {
  ReserveForOneMore();
  Slot* at = nullptr;
  Probe(t, &at);
  if (at->state == SlotState::kEmpty) {
    ++used_;
  }
  *at = Slot{t, SlotState::kFull, op};
  if (op == DeltaOp::kInsert) {
    ++inserts_;
  } else {
    ++tombstones_;
  }
  InvalidateCaches();
}

const DeltaList* DeltaStore::FindLists(ListFamily family, Id a, Id b) const {
  EnsureSideLists();
  const ListMap& m = lists_[static_cast<int>(family)];
  auto it = m.find(IdPair{a, b});
  return it == m.end() ? nullptr : &it->second;
}

void DeltaStore::EnsureSideLists() const {
  if (lists_valid_.load(std::memory_order_acquire)) {
    return;
  }
  std::lock_guard<std::mutex> lock(cache_mu_);
  if (lists_valid_.load(std::memory_order_relaxed)) {
    return;  // another reader built them while we waited
  }
  for (auto& m : lists_) {
    m.clear();
  }
  // Append unsorted, then one sort+dedup pass per list: linearithmic in
  // the list size instead of the quadratic shifts repeated SortedInsert
  // would pay on lists with many staged ops.
  ForEachOp([this](const IdTriple& t, DeltaOp op) {
    // The three (key-pair, value) projections of the triple, matching
    // TerminalListPool's keying: o(s,p), p(s,o), s(p,o).
    const struct {
      ListFamily family;
      Id a, b, third;
    } views[3] = {{ListFamily::kObjects, t.s, t.p, t.o},
                  {ListFamily::kPredicates, t.s, t.o, t.p},
                  {ListFamily::kSubjects, t.p, t.o, t.s}};
    for (const auto& v : views) {
      DeltaList& lists =
          lists_[static_cast<int>(v.family)][IdPair{v.a, v.b}];
      (op == DeltaOp::kInsert ? lists.adds : lists.removes)
          .push_back(v.third);
    }
  });
  for (auto& m : lists_) {
    for (auto& [key, lists] : m) {
      (void)key;
      SortUnique(&lists.adds);
      SortUnique(&lists.removes);
    }
  }
  lists_valid_.store(true, std::memory_order_release);
  SyncTrackedBytesLocked();
}

void DeltaStore::EnsureSortedRuns() const {
  if (runs_valid_.load(std::memory_order_acquire)) {
    return;
  }
  std::lock_guard<std::mutex> lock(cache_mu_);
  if (runs_valid_.load(std::memory_order_relaxed)) {
    return;
  }
  run_spo_.clear();
  run_spo_.reserve(inserts_);
  ForEachOp([this](const IdTriple& t, DeltaOp op) {
    if (op == DeltaOp::kInsert) {
      run_spo_.push_back(t);
    }
  });
  std::sort(run_spo_.begin(), run_spo_.end());
  run_pos_ = run_spo_;
  std::sort(run_pos_.begin(), run_pos_.end(),
            [](const IdTriple& a, const IdTriple& b) {
              return std::tie(a.p, a.o, a.s) < std::tie(b.p, b.o, b.s);
            });
  run_osp_ = run_spo_;
  std::sort(run_osp_.begin(), run_osp_.end(),
            [](const IdTriple& a, const IdTriple& b) {
              return std::tie(a.o, a.s, a.p) < std::tie(b.o, b.s, b.p);
            });
  runs_valid_.store(true, std::memory_order_release);
  SyncTrackedBytesLocked();
}

void DeltaStore::EnableFilter(std::size_t bits_per_key) const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  if (filter_ptr_.load(std::memory_order_relaxed) != nullptr) {
    return;  // already built at some earlier arming
  }
  filter_bits_.store(bits_per_key, std::memory_order_release);
}

const RunFilter* DeltaStore::MaybeFilter() const {
  const RunFilter* f = filter_ptr_.load(std::memory_order_acquire);
  if (f != nullptr) {
    return f;
  }
  if (filter_bits_.load(std::memory_order_acquire) == 0) {
    return nullptr;  // not armed (active buffer, or filters dropped)
  }
  std::lock_guard<std::mutex> lock(cache_mu_);
  f = filter_ptr_.load(std::memory_order_relaxed);
  if (f != nullptr) {
    return f;  // another reader built it while we waited
  }
  const std::size_t bits = filter_bits_.load(std::memory_order_relaxed);
  if (bits == 0) {
    return nullptr;  // disarmed between the fast path and the lock
  }
  auto built = std::make_shared<RunFilter>(op_count(), bits);
  ForEachOp(
      [&built](const IdTriple& t, DeltaOp) { built->AddTriple(t); });
  filter_owner_ = std::move(built);
  filter_ptr_.store(filter_owner_.get(), std::memory_order_release);
  SyncTrackedBytesLocked();
  return filter_owner_.get();
}

void DeltaStore::ScanInserts(
    const IdPattern& q, const std::function<void(const IdTriple&)>& sink)
    const {
  if (inserts_ == 0) {
    return;
  }
  if (q.bound_count() > 0) {
    if (const RunFilter* f = MaybeFilter()) {
      RunFilterCounters* c = filter_counters_.get();
      if (c != nullptr) {
        c->probes.Add();
      }
      if (!f->MayContainPrefix(q)) {
        // No op in this run carries the bound prefix, so in particular
        // no insert does — skip the range scan entirely.
        if (c != nullptr) {
          c->skips.Add();
        }
        return;
      }
    }
  }
  EnsureSortedRuns();
  constexpr Id kMax = ~Id{0};
  auto emit = [&q, &sink](IdTripleVec::const_iterator lo,
                          IdTripleVec::const_iterator hi) {
    for (auto it = lo; it != hi; ++it) {
      if (q.Matches(*it)) {
        sink(*it);
      }
    }
  };
  if (q.has_s()) {
    // Prefix (s) or (s, p) on the (s, p, o) run; remaining bound
    // positions are filtered by Matches.
    const IdTriple lo{q.s, q.has_p() ? q.p : Id{0}, 0};
    const IdTriple hi{q.s, q.has_p() ? q.p : kMax, kMax};
    emit(std::lower_bound(run_spo_.begin(), run_spo_.end(), lo),
         std::upper_bound(run_spo_.begin(), run_spo_.end(), hi));
    return;
  }
  auto pos_less = [](const IdTriple& a, const IdTriple& b) {
    return std::tie(a.p, a.o, a.s) < std::tie(b.p, b.o, b.s);
  };
  if (q.has_p()) {
    // Prefix (p) or (p, o) on the (p, o, s) run.
    const IdTriple lo{0, q.p, q.has_o() ? q.o : Id{0}};
    const IdTriple hi{kMax, q.p, q.has_o() ? q.o : kMax};
    emit(std::lower_bound(run_pos_.begin(), run_pos_.end(), lo, pos_less),
         std::upper_bound(run_pos_.begin(), run_pos_.end(), hi, pos_less));
    return;
  }
  auto osp_less = [](const IdTriple& a, const IdTriple& b) {
    return std::tie(a.o, a.s, a.p) < std::tie(b.o, b.s, b.p);
  };
  if (q.has_o()) {
    // Prefix (o) on the (o, s, p) run.
    const IdTriple lo{0, 0, q.o};
    const IdTriple hi{kMax, kMax, q.o};
    emit(std::lower_bound(run_osp_.begin(), run_osp_.end(), lo, osp_less),
         std::upper_bound(run_osp_.begin(), run_osp_.end(), hi, osp_less));
    return;
  }
  emit(run_spo_.begin(), run_spo_.end());
}

std::uint64_t DeltaStore::CountInserts(const IdPattern& pattern) const {
  std::uint64_t count = 0;
  ScanInserts(pattern, [&count](const IdTriple&) { ++count; });
  return count;
}

void DeltaStore::Freeze() const {
  EnsureSortedRuns();
  EnsureSideLists();
  (void)MaybeFilter();  // builds the filter too when one is armed
}

IdTripleVec DeltaStore::SortedInserts() const {
  IdTripleVec out;
  out.reserve(inserts_);
  ForEachOp([&out](const IdTriple& t, DeltaOp op) {
    if (op == DeltaOp::kInsert) {
      out.push_back(t);
    }
  });
  std::sort(out.begin(), out.end());
  return out;
}

IdTripleVec DeltaStore::SortedTombstones() const {
  IdTripleVec out;
  out.reserve(tombstones_);
  ForEachOp([&out](const IdTriple& t, DeltaOp op) {
    if (op == DeltaOp::kTombstone) {
      out.push_back(t);
    }
  });
  std::sort(out.begin(), out.end());
  return out;
}

std::size_t DeltaStore::MemoryBytes() const {
  // Cold path: take the cache mutex so a concurrent lazy build on a
  // frozen instance cannot race the container reads below.
  std::lock_guard<std::mutex> lock(cache_mu_);
  return MemoryBytesLocked();
}

std::size_t DeltaStore::MemoryBytesLocked() const {
  std::size_t bytes = slots_.capacity() * sizeof(Slot);
  bytes += VectorHeapBytes(pattern_preds_);
  for (const auto& m : lists_) {
    bytes += HashMapHeapBytes(m);
    for (const auto& [key, lists] : m) {
      (void)key;
      bytes += VectorHeapBytes(lists.adds) + VectorHeapBytes(lists.removes);
    }
  }
  bytes += VectorHeapBytes(run_spo_) + VectorHeapBytes(run_pos_) +
           VectorHeapBytes(run_osp_);
  if (filter_owner_ != nullptr) {
    bytes += filter_owner_->MemoryBytes();
  }
  return bytes;
}

void DeltaStore::SyncTrackedBytesLocked() const {
  if (tracker_ == nullptr) {
    return;
  }
  const std::size_t now = MemoryBytesLocked();
  if (now > tracked_bytes_) {
    tracker_->Add(now - tracked_bytes_);
  } else if (now < tracked_bytes_) {
    tracker_->Sub(tracked_bytes_ - now);
  }
  tracked_bytes_ = now;
}

void DeltaStore::TrackMemory(std::shared_ptr<MemoryTracker> tracker) const {
  if (tracker == nullptr) {
    return;
  }
  std::lock_guard<std::mutex> lock(cache_mu_);
  if (tracker_ != nullptr) {
    return;  // already registered (e.g. a run adopted through a fold)
  }
  tracker_ = std::move(tracker);
  SyncTrackedBytesLocked();
}

void DeltaStore::Clear() {
  slots_.clear();
  used_ = 0;
  inserts_ = 0;
  tombstones_ = 0;
  pattern_preds_.clear();
  std::lock_guard<std::mutex> lock(cache_mu_);
  for (auto& m : lists_) {
    m.clear();
  }
  lists_valid_ = true;
  run_spo_.clear();
  run_pos_.clear();
  run_osp_.clear();
  runs_valid_ = true;
  filter_ptr_.store(nullptr, std::memory_order_relaxed);
  filter_bits_.store(0, std::memory_order_relaxed);
  filter_owner_.reset();
  SyncTrackedBytesLocked();
}

}  // namespace hexastore
