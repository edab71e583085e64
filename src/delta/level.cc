#include "delta/level.h"

#include <algorithm>

namespace hexastore {

std::size_t DeltaLevels::op_count() const {
  std::size_t n = l1 == nullptr ? 0 : l1->op_count();
  return n + l0_op_count();
}

std::size_t DeltaLevels::l0_op_count() const {
  std::size_t n = 0;
  for (const auto& run : l0) {
    n += run->op_count();
  }
  return n;
}

std::size_t DeltaLevels::MemoryBytes() const {
  std::size_t bytes = l1 == nullptr ? 0 : l1->MemoryBytes();
  for (const auto& run : l0) {
    bytes += run->MemoryBytes();
  }
  return bytes;
}

void DeltaLevels::AppendBottomUp(std::vector<const DeltaStore*>* chain) const {
  if (l1 != nullptr) {
    chain->push_back(l1.get());
  }
  for (const auto& run : l0) {
    chain->push_back(run.get());
  }
}

std::shared_ptr<DeltaStore> MergeDeltaLayers(const DeltaStore& lower,
                                             const DeltaStore& upper) {
  auto merged = std::make_shared<DeltaStore>();
  // The merged run reports filter effectiveness and sort work to the
  // same sinks as its inputs (the owner arms its filter after adopting
  // the result).
  merged->set_filter_counters(upper.filter_counters() != nullptr
                                  ? upper.filter_counters()
                                  : lower.filter_counters());
  merged->set_sort_counter(upper.sort_counter() != nullptr
                               ? upper.sort_counter()
                               : lower.sort_counter());

  // Pattern predicates union: an upper pattern erases lower staged state
  // and beneath-state alike; a lower pattern keeps suppressing whatever
  // the upper layer did not explicitly re-stage.
  for (Id p : lower.pattern_erased_predicates()) {
    merged->AdoptPatternErase(p);
  }
  for (Id p : upper.pattern_erased_predicates()) {
    merged->AdoptPatternErase(p);
  }

  // Lower ops survive unless the upper layer staged a verdict for the
  // same triple (resolved in the upper pass below) or pattern-erased the
  // predicate (inserts die, tombstones are subsumed — the beneath copy
  // is suppressed by the pattern either way).
  lower.ForEachOp([&](const IdTriple& t, DeltaOp op) {
    if (upper.HasOp(t)) {
      return;
    }
    if (upper.PatternErased(t.p)) {
      return;
    }
    merged->AdoptOp(t, op);
  });

  // Upper ops, combined with the lower op on the same triple when one
  // exists. The layer invariants (staged inserts absent beneath unless
  // pattern-re-inserted; tombstones present beneath and never under a
  // pattern) make each pairing unambiguous:
  //   lower insert + upper tombstone → annihilate (the triple was never
  //       in the beneath-state, or its copy is pattern-suppressed)
  //   lower tombstone + upper insert → annihilate (the beneath copy
  //       shows through again) — unless the upper layer pattern-erased
  //       the predicate, in which case the insert is a re-insert that
  //       must survive above the pattern
  //   lower insert + upper insert → the upper re-insert wins
  upper.ForEachOp([&](const IdTriple& t, DeltaOp op) {
    switch (lower.LookupOp(t)) {
      case DeltaStore::OpLookup::kNone:
        merged->AdoptOp(t, op);
        return;
      case DeltaStore::OpLookup::kInsert:
        if (op == DeltaOp::kInsert) {
          merged->AdoptOp(t, op);
        }
        return;
      case DeltaStore::OpLookup::kTombstone:
        if (op == DeltaOp::kInsert && upper.PatternErased(t.p)) {
          merged->AdoptOp(t, op);
        }
        return;
    }
  });
  return merged;
}

std::shared_ptr<const DeltaStore> FoldRuns(
    const std::shared_ptr<const DeltaStore>& l1,
    const std::vector<std::shared_ptr<const DeltaStore>>& l0_oldest_first,
    std::uint64_t* merged_ops_out) {
  // Merge adjacent layers pairwise, bottom-up, until one is left. The
  // layer algebra is associative, and this balanced order writes each op
  // O(log runs) times — folding onto one growing run would rewrite it
  // once per run above it. A lone layer is adopted as-is.
  std::vector<std::shared_ptr<const DeltaStore>> layers;
  if (l1 != nullptr) {
    layers.push_back(l1);
  }
  layers.insert(layers.end(), l0_oldest_first.begin(), l0_oldest_first.end());
  while (layers.size() > 1) {
    std::vector<std::shared_ptr<const DeltaStore>> merged;
    for (std::size_t i = 0; i + 1 < layers.size(); i += 2) {
      merged.push_back(MergeDeltaLayers(*layers[i], *layers[i + 1]));
      if (merged_ops_out != nullptr) {
        *merged_ops_out += merged.back()->op_count();
      }
    }
    if (layers.size() % 2 == 1) {
      merged.push_back(layers.back());
    }
    layers = std::move(merged);
  }
  return layers.empty() ? nullptr : layers.front();
}

}  // namespace hexastore
