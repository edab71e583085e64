// Merging iterator over a base sorted list plus staged delta edits.
//
// A MergedListCursor walks  base ∪ adds ∖ removes  in one linear pass and
// yields ids in strictly ascending order, so every consumer that merge-
// joined two base lists can merge-join two merged views with the same
// linear-time guarantee (paper §4.2) — this is the read-path contract the
// delta subsystem must preserve.
//
// Preconditions (maintained by DeltaStore):  adds ∩ base = ∅  and
// removes ⊆ base; all three inputs sorted strictly ascending.
#ifndef HEXASTORE_DELTA_MERGED_LIST_H_
#define HEXASTORE_DELTA_MERGED_LIST_H_

#include <cstddef>
#include <memory>
#include <utility>

#include "index/sorted_vec.h"
#include "util/common.h"

namespace hexastore {

class Hexastore;
class DeltaStore;

/// Cursor over the sorted union-minus-tombstones of one terminal list.
/// Null inputs mean "empty".
class MergedListCursor {
 public:
  MergedListCursor(const IdVec* base, const IdVec* adds,
                   const IdVec* removes)
      : base_(base), adds_(adds), removes_(removes) {
    Settle();
  }

  /// True when the merged list is exhausted.
  bool done() const { return !has_value_; }
  /// Current id; only valid while !done().
  Id value() const { return value_; }
  /// Advances to the next merged id.
  void next() { Settle(); }

 private:
  static std::size_t SizeOf(const IdVec* v) {
    return v == nullptr ? 0 : v->size();
  }
  Id At(const IdVec* v, std::size_t i) const { return (*v)[i]; }

  // Computes the next surviving id into value_/has_value_.
  void Settle() {
    has_value_ = false;
    while (bi_ < SizeOf(base_) || ai_ < SizeOf(adds_)) {
      const bool have_base = bi_ < SizeOf(base_);
      const bool have_add = ai_ < SizeOf(adds_);
      Id candidate;
      // adds are disjoint from base, so strict comparison picks one side.
      if (have_base && (!have_add || At(base_, bi_) < At(adds_, ai_))) {
        candidate = At(base_, bi_++);
        // removes ⊆ base and both are sorted: advance the tombstone
        // cursor in lock-step and drop the id on a hit.
        while (ri_ < SizeOf(removes_) && At(removes_, ri_) < candidate) {
          ++ri_;
        }
        if (ri_ < SizeOf(removes_) && At(removes_, ri_) == candidate) {
          ++ri_;
          continue;
        }
      } else {
        candidate = At(adds_, ai_++);
      }
      value_ = candidate;
      has_value_ = true;
      return;
    }
  }

  const IdVec* base_;
  const IdVec* adds_;
  const IdVec* removes_;
  std::size_t bi_ = 0;
  std::size_t ai_ = 0;
  std::size_t ri_ = 0;
  Id value_ = kInvalidId;
  bool has_value_ = false;
};

/// A merged terminal-list view handed out by DeltaHexastore accessors.
///
/// Keeps the pre-compaction base store and the delta generation alive via
/// shared ownership, so the raw list pointers stay valid even if the
/// owning store compacts or mutates after this view was taken (the store
/// copy-on-writes the delta and swaps — never mutates — a shared base).
class MergedList {
 public:
  MergedList() = default;
  MergedList(std::shared_ptr<const Hexastore> base_owner,
             std::shared_ptr<const DeltaStore> delta_owner,
             const IdVec* base, const IdVec* adds, const IdVec* removes)
      : base_owner_(std::move(base_owner)),
        delta_owner_(std::move(delta_owner)),
        base_(base),
        adds_(adds),
        removes_(removes) {}

  /// Variant whose base side is a materialized vector owned by the view
  /// itself — used when pattern tombstones force filtering the raw base
  /// list (the common pointer-only path stays copy-free).
  MergedList(std::shared_ptr<const Hexastore> base_owner,
             std::shared_ptr<const DeltaStore> delta_owner,
             std::shared_ptr<const IdVec> owned_base, const IdVec* adds,
             const IdVec* removes)
      : base_owner_(std::move(base_owner)),
        delta_owner_(std::move(delta_owner)),
        owned_base_(std::move(owned_base)),
        base_(owned_base_.get()),
        adds_(adds),
        removes_(removes) {}

  /// Linear-merge cursor over the view.
  MergedListCursor cursor() const {
    return MergedListCursor(base_, adds_, removes_);
  }

  /// Number of merged ids: |base| + |adds| − |removes| (O(1) thanks to
  /// the disjoint/subset invariants).
  std::size_t size() const {
    std::size_t n = base_ == nullptr ? 0 : base_->size();
    n += adds_ == nullptr ? 0 : adds_->size();
    n -= removes_ == nullptr ? 0 : removes_->size();
    return n;
  }
  bool empty() const { return size() == 0; }

  /// Materializes the merged list as a sorted IdVec.
  IdVec Materialize() const {
    IdVec out;
    out.reserve(size());
    for (MergedListCursor c = cursor(); !c.done(); c.next()) {
      out.push_back(c.value());
    }
    return out;
  }

 private:
  std::shared_ptr<const Hexastore> base_owner_;
  std::shared_ptr<const DeltaStore> delta_owner_;
  std::shared_ptr<const IdVec> owned_base_;
  const IdVec* base_ = nullptr;
  const IdVec* adds_ = nullptr;
  const IdVec* removes_ = nullptr;
};

}  // namespace hexastore

#endif  // HEXASTORE_DELTA_MERGED_LIST_H_
