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

// The three insert orders. (s, p, o) is IdTriple's own operator<.
bool PosLess(const IdTriple& a, const IdTriple& b) {
  return std::tie(a.p, a.o, a.s) < std::tie(b.p, b.o, b.s);
}
bool OspLess(const IdTriple& a, const IdTriple& b) {
  return std::tie(a.o, a.s, a.p) < std::tie(b.o, b.s, b.p);
}

}  // namespace

DeltaStore::DeltaStore(const DeltaStore& other)
    : filter_counters_(other.filter_counters_),
      sort_counter_(other.sort_counter_),
      slots_(other.slots_),
      used_(other.used_),
      inserts_(other.inserts_),
      tombstones_(other.tombstones_),
      pattern_preds_(other.pattern_preds_),
      chunk_triples_(other.chunk_triples_),
      dead_chunk_triples_(other.dead_chunk_triples_),
      tail_(other.tail_) {
  {
    std::lock_guard<std::mutex> lock(other.cache_mu_);
    chunks_ = other.chunks_;
  }
  sorted_tail_valid_.store(tail_.empty(), std::memory_order_relaxed);
}

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
    if (slot.state == SlotState::kDead && !slot.in_chunk) {
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

const DeltaStore::Slot* DeltaStore::FindOp(const IdTriple& t) const {
  const Slot* hit = Probe(t, nullptr);
  return hit != nullptr && hit->state == SlotState::kFull ? hit : nullptr;
}

void DeltaStore::ReserveForOneMore() {
  if (!slots_.empty() && !OverLoaded(used_, slots_.size())) {
    return;
  }
  // Size for the live ops and the slots of dead chunk entries only:
  // rehashing drops every other dead slot.
  std::size_t capacity = kMinCapacity;
  while (OverLoaded((op_count() + dead_chunk_triples_) * 2, capacity)) {
    capacity <<= 1;
  }
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(capacity, Slot{});
  used_ = 0;
  const std::size_t mask = capacity - 1;
  for (const Slot& slot : old) {
    if (slot.state != SlotState::kFull && !slot.in_chunk) {
      continue;
    }
    std::size_t i = IdTripleHash()(slot.triple) & mask;
    while (slots_[i].state != SlotState::kEmpty) {
      i = (i + 1) & mask;
    }
    slots_[i] = slot;
    ++used_;
  }
}

bool DeltaStore::StageInsert(const IdTriple& t, bool base_present) {
  Slot* hit = Probe(t, nullptr);
  if (hit != nullptr && hit->state == SlotState::kFull) {
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
  if (hit != nullptr) {
    // A cancelled insert whose chunk copy is still there: revive the
    // copy instead of staging a second one.
    hit->state = SlotState::kFull;
    hit->op = DeltaOp::kInsert;
    --dead_chunk_triples_;
  } else {
    ReserveForOneMore();
    Slot* at = nullptr;
    Probe(t, &at);
    if (at->state == SlotState::kEmpty) {
      ++used_;
    }
    *at = Slot{t, SlotState::kFull, DeltaOp::kInsert, /*in_chunk=*/false,
               static_cast<std::uint32_t>(tail_.size())};
    tail_.push_back(t);
  }
  ++inserts_;
  InvalidateCaches();
  return true;
}

bool DeltaStore::StageErase(const IdTriple& t, bool base_present) {
  Slot* hit = Probe(t, nullptr);
  if (hit != nullptr && hit->state == SlotState::kFull) {
    if (hit->op == DeltaOp::kTombstone) {
      return false;  // already logically absent
    }
    // Erasing a staged insert just drops the staged op.
    CancelInsert(hit);
    if (inserts_ == 0) {
      DropChunks();
    }
    InvalidateCaches();
    return true;
  }
  if (!base_present || PatternErased(t.p)) {
    return false;  // absent, or already gone via the pattern tombstone
  }
  if (hit != nullptr) {
    // A dead slot whose chunk copy is still there: the copy stays dead.
    hit->state = SlotState::kFull;
    hit->op = DeltaOp::kTombstone;
  } else {
    ReserveForOneMore();
    Slot* at = nullptr;
    Probe(t, &at);
    if (at->state == SlotState::kEmpty) {
      ++used_;
    }
    *at = Slot{t, SlotState::kFull, DeltaOp::kTombstone};
  }
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
      if (slot.op == DeltaOp::kInsert) {
        CancelInsert(&slot);
      } else {
        slot.state = SlotState::kDead;
        --tombstones_;
      }
    }
  }
  if (inserts_ == 0) {
    DropChunks();
  }
  SortedInsert(&pattern_preds_, p);
  InvalidateCaches();
}

void DeltaStore::CancelInsert(Slot* slot) {
  slot->state = SlotState::kDead;
  --inserts_;
  if (slot->in_chunk) {
    // Scans skip the dead copy; the next merge of its chunk drops it.
    ++dead_chunk_triples_;
    return;
  }
  // Unsettled: swap-remove it from the tail.
  const std::uint32_t i = slot->tail_index;
  const IdTriple moved = tail_.back();
  tail_.pop_back();
  if (i < tail_.size()) {
    tail_[i] = moved;
    Probe(moved, nullptr)->tail_index = i;
  }
}

void DeltaStore::DropChunks() {
  // No insert is live, so every chunk entry is dead: drop them all now
  // rather than carry them into the next settle, and free their slots.
  for (const auto& chunk : chunks_) {
    for (const IdTriple& t : chunk->spo) {
      Probe(t, nullptr)->in_chunk = false;
    }
  }
  chunks_.clear();
  chunk_triples_ = 0;
  dead_chunk_triples_ = 0;
}

DeltaStore::Presence DeltaStore::Lookup(const IdTriple& t) const {
  const Slot* hit = FindOp(t);
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
  const Slot* hit = FindOp(t);
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
  const Slot* hit = FindOp(t);
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
  *at = Slot{t, SlotState::kFull, op, /*in_chunk=*/false,
             static_cast<std::uint32_t>(tail_.size())};
  if (op == DeltaOp::kInsert) {
    tail_.push_back(t);
    ++inserts_;
  } else {
    ++tombstones_;
  }
  InvalidateCaches();
}

void DeltaStore::EnsureSortedTail() const {
  if (sorted_tail_valid_.load(std::memory_order_acquire)) {
    return;
  }
  std::lock_guard<std::mutex> lock(cache_mu_);
  if (sorted_tail_valid_.load(std::memory_order_relaxed)) {
    return;  // another reader sorted it while we waited
  }
  sorted_tail_ = tail_.empty() ? nullptr : SortChunk(tail_);
  sorted_tail_valid_.store(true, std::memory_order_release);
  SyncTrackedBytesLocked();
}

std::shared_ptr<const DeltaStore::Chunk> DeltaStore::SortChunk(
    IdTripleVec spo) const {
  auto chunk = std::make_shared<Chunk>();
  chunk->spo = std::move(spo);
  std::sort(chunk->spo.begin(), chunk->spo.end());
  // The other two orders by stable sorts on one field each: (s,p,o)
  // stably sorted by o is (o,s,p), and that stably sorted by p is
  // (p,o,s). About half the cost of two full sorts on RDF batches,
  // whose few distinct predicates make three-field comparisons tie.
  chunk->osp = chunk->spo;
  std::stable_sort(chunk->osp.begin(), chunk->osp.end(),
                   [](const IdTriple& a, const IdTriple& b) {
                     return a.o < b.o;
                   });
  chunk->pos = chunk->osp;
  std::stable_sort(chunk->pos.begin(), chunk->pos.end(),
                   [](const IdTriple& a, const IdTriple& b) {
                     return a.p < b.p;
                   });
  if (sort_counter_ != nullptr) {
    sort_counter_->Add(chunk->spo.size());
  }
  return chunk;
}

std::shared_ptr<const DeltaStore::Chunk> DeltaStore::MergeChunks(
    const Chunk& older, const Chunk& newer) {
  auto merge = [](const IdTripleVec& a, const IdTripleVec& b, auto less) {
    IdTripleVec merged(a.size() + b.size());
    std::merge(a.begin(), a.end(), b.begin(), b.end(), merged.begin(), less);
    return merged;
  };
  auto out = std::make_shared<Chunk>();
  out->spo = merge(older.spo, newer.spo, std::less<IdTriple>());
  out->pos = merge(older.pos, newer.pos, PosLess);
  out->osp = merge(older.osp, newer.osp, OspLess);
  if (dead_chunk_triples_ > 0) {
    // Drop the dead entries: probe each once in the (s,p,o) pass, then
    // filter the other two orders against that (usually short) sorted
    // list, and free the dropped entries' slots.
    IdTripleVec dead;
    std::erase_if(out->spo, [this, &dead](const IdTriple& t) {
      if (LookupOp(t) == OpLookup::kInsert) {
        return false;
      }
      dead.push_back(t);
      return true;
    });
    auto is_dead = [&dead](const IdTriple& t) {
      return std::binary_search(dead.begin(), dead.end(), t);
    };
    std::erase_if(out->pos, is_dead);
    std::erase_if(out->osp, is_dead);
    for (const IdTriple& t : dead) {
      Probe(t, nullptr)->in_chunk = false;
    }
    chunk_triples_ -= dead.size();
    dead_chunk_triples_ -= dead.size();
  }
  if (sort_counter_ != nullptr) {
    sort_counter_->Add(out->spo.size());
  }
  return out;
}

void DeltaStore::Settle() {
  // The tail moves into a chunk, leaving the sorted tail empty and valid
  // (also when cancels emptied the tail after a reader had sorted it).
  sorted_tail_.reset();
  sorted_tail_valid_.store(true, std::memory_order_release);
  if (tail_.empty()) {
    return;
  }
  for (const IdTriple& t : tail_) {
    Probe(t, nullptr)->in_chunk = true;
  }
  chunk_triples_ += tail_.size();
  chunks_.push_back(SortChunk(std::move(tail_)));
  tail_.clear();
  // Binary counter: merge the newest two while the older is less than
  // twice the newer, so sizes at least double going older. When most
  // entries are dead, keep merging to drop them.
  while (chunks_.size() >= 2) {
    const Chunk& newer = *chunks_.back();
    const Chunk& older = *chunks_[chunks_.size() - 2];
    if (older.spo.size() >= 2 * newer.spo.size() &&
        dead_chunk_triples_ * 2 <= chunk_triples_) {
      break;
    }
    std::shared_ptr<const Chunk> merged = MergeChunks(older, newer);
    chunks_.pop_back();
    chunks_.back() = std::move(merged);
  }
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
  EnsureSortedTail();
  const bool check_live = dead_chunk_triples_ > 0;
  for (const auto& chunk : chunks_) {
    ScanChunk(*chunk, q, check_live, sink);
  }
  if (sorted_tail_ != nullptr) {
    ScanChunk(*sorted_tail_, q, /*check_live=*/false, sink);
  }
}

void DeltaStore::ScanChunk(
    const Chunk& chunk, const IdPattern& q, bool check_live,
    const std::function<void(const IdTriple&)>& sink) const {
  constexpr Id kMax = ~Id{0};
  auto emit = [this, &q, check_live, &sink](IdTripleVec::const_iterator lo,
                                            IdTripleVec::const_iterator hi) {
    for (auto it = lo; it != hi; ++it) {
      if (q.Matches(*it) &&
          (!check_live || LookupOp(*it) == OpLookup::kInsert)) {
        sink(*it);
      }
    }
  };
  if (q.has_s()) {
    // Prefix (s) or (s, p) on the (s, p, o) order; remaining bound
    // positions are filtered by Matches.
    const IdTriple lo{q.s, q.has_p() ? q.p : Id{0}, 0};
    const IdTriple hi{q.s, q.has_p() ? q.p : kMax, kMax};
    emit(std::lower_bound(chunk.spo.begin(), chunk.spo.end(), lo),
         std::upper_bound(chunk.spo.begin(), chunk.spo.end(), hi));
    return;
  }
  if (q.has_p()) {
    // Prefix (p) or (p, o) on the (p, o, s) order.
    const IdTriple lo{0, q.p, q.has_o() ? q.o : Id{0}};
    const IdTriple hi{kMax, q.p, q.has_o() ? q.o : kMax};
    emit(std::lower_bound(chunk.pos.begin(), chunk.pos.end(), lo, PosLess),
         std::upper_bound(chunk.pos.begin(), chunk.pos.end(), hi, PosLess));
    return;
  }
  if (q.has_o()) {
    // Prefix (o) on the (o, s, p) order.
    const IdTriple lo{0, 0, q.o};
    const IdTriple hi{kMax, kMax, q.o};
    emit(std::lower_bound(chunk.osp.begin(), chunk.osp.end(), lo, OspLess),
         std::upper_bound(chunk.osp.begin(), chunk.osp.end(), hi, OspLess));
    return;
  }
  emit(chunk.spo.begin(), chunk.spo.end());
}

std::uint64_t DeltaStore::CountInserts(const IdPattern& pattern) const {
  std::uint64_t count = 0;
  ScanInserts(pattern, [&count](const IdTriple&) { ++count; });
  return count;
}

void DeltaStore::Freeze() const {
  EnsureSortedTail();
  (void)MaybeFilter();  // builds the filter too when one is armed
}

IdTripleVec DeltaStore::SortedInserts() const {
  EnsureSortedTail();
  // Merge newest (smallest) first, so the running merge stays linear
  // overall: chunk sizes at least double going older.
  IdTripleVec out;
  auto merge_in = [&out](const IdTripleVec& spo) {
    IdTripleVec merged(out.size() + spo.size());
    std::merge(out.begin(), out.end(), spo.begin(), spo.end(),
               merged.begin());
    out = std::move(merged);
  };
  if (sorted_tail_ != nullptr) {
    merge_in(sorted_tail_->spo);
  }
  for (auto it = chunks_.rbegin(); it != chunks_.rend(); ++it) {
    if (dead_chunk_triples_ == 0) {
      merge_in((*it)->spo);
      continue;
    }
    IdTripleVec live;
    std::copy_if((*it)->spo.begin(), (*it)->spo.end(),
                 std::back_inserter(live),
                 [this](const IdTriple& t) {
                   return LookupOp(t) == OpLookup::kInsert;
                 });
    merge_in(live);
  }
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
  auto chunk_bytes = [](const Chunk& c) {
    return VectorHeapBytes(c.spo) + VectorHeapBytes(c.pos) +
           VectorHeapBytes(c.osp);
  };
  for (const auto& chunk : chunks_) {
    bytes += chunk_bytes(*chunk);
  }
  if (sorted_tail_ != nullptr) {
    bytes += chunk_bytes(*sorted_tail_);
  }
  bytes += VectorHeapBytes(tail_);
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
  chunks_.clear();
  chunk_triples_ = 0;
  dead_chunk_triples_ = 0;
  tail_.clear();
  std::lock_guard<std::mutex> lock(cache_mu_);
  sorted_tail_.reset();
  sorted_tail_valid_ = true;
  filter_ptr_.store(nullptr, std::memory_order_relaxed);
  filter_bits_.store(0, std::memory_order_relaxed);
  filter_owner_.reset();
  SyncTrackedBytesLocked();
}

}  // namespace hexastore
