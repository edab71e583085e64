#include "core/stats.h"

#include <sstream>

#include "index/perm_index.h"

namespace hexastore {

std::size_t MemoryStats::Total() const {
  std::size_t total = 0;
  for (std::size_t b : perm_index_bytes) {
    total += b;
  }
  for (std::size_t b : terminal_bytes) {
    total += b;
  }
  return total;
}

std::string MemoryStats::ToString() const {
  std::ostringstream os;
  os << "Hexastore memory breakdown:\n";
  for (int i = 0; i < 6; ++i) {
    os << "  index " << PermutationName(static_cast<Permutation>(i))
       << ": " << perm_index_bytes[i] << " bytes\n";
  }
  static const char* kFamilyNames[3] = {"o(s,p)", "p(s,o)", "s(p,o)"};
  for (int i = 0; i < 3; ++i) {
    os << "  terminal " << kFamilyNames[i] << ": " << terminal_bytes[i]
       << " bytes\n";
  }
  os << "  total: " << Total() << " bytes, key entries: " << key_entries
     << "\n";
  return os.str();
}

double DeltaStats::WriteAmplification() const {
  if (staged_ops_total == 0) {
    return 0.0;
  }
  return static_cast<double>(merge_run_ops + base_rebuild_triples) /
         static_cast<double>(staged_ops_total);
}

std::string DeltaStats::ToString() const {
  std::ostringstream os;
  os << "DeltaHexastore delta layer:\n"
     << "  staged: " << staged_inserts << " inserts, " << staged_tombstones
     << " tombstones, " << pattern_tombstones
     << " pattern tombstones (threshold " << compact_threshold << ")\n"
     << "  compactions: " << compactions << ", epoch: " << epoch << "\n"
     << "  base: " << base_triples << " triples, " << base_bytes
     << " bytes; delta: " << delta_bytes << " bytes\n";
  // Every placement seals (inline too, before each drain), and flat
  // stores drain into the base, so these lines print whenever the
  // counters moved, not only for background or leveled stores.
  if (background || seals > 0) {
    os << "  " << (background ? "background" : "inline") << ": " << seals
       << " seals, ";
    if (background) {
      os << background_merges << " merges (" << merge_discards
         << " discarded), ";
    }
    os << seal_overflows << " overflows, " << sealed_ops
       << " ops sealed now\n";
  }
  if (l0_run_limit > 0) {
    os << "  levels: L0 " << l0_runs << " runs / " << l0_ops
       << " ops (fold at " << l0_run_limit << "), L1 " << l1_ops
       << " ops\n";
  }
  if (l0_run_limit > 0 || base_merges > 0) {
    os << "  merges: " << l0_merges << " L0->L1 folds, " << base_merges
       << " base merges";
    if (base_rebuilds > 0) {
      os << " (" << base_rebuilds << " rebuilt)";
    }
    os << "; write amplification " << WriteAmplification()
       << " (" << merge_run_ops << " run ops + " << base_rebuild_triples
       << " rebuilt triples over " << staged_ops_total << " staged)\n";
  }
  if (filter_bits_per_key > 0 || filter_probes > 0) {
    os << "  filters: " << filter_bits_per_key << " bits/key; "
       << filter_probes << " probes, " << filter_skips << " skips, "
       << filter_false_positives << " false positives, "
       << filters_dropped << " dropped\n";
  }
  if (memory_budget_bytes > 0) {
    os << "  budget: " << resident_bytes << " / " << memory_budget_bytes
       << " bytes resident; forced " << budget_seals << " seals, "
       << budget_folds << " folds, " << budget_base_merges
       << " base merges\n";
  }
  return os.str();
}

std::string EpochStats::ToString() const {
  std::ostringstream os;
  os << "generation gate:\n"
     << "  epoch: " << global_epoch << ", published: "
     << generations_published << ", retired: " << generations_retired
     << ", reclaimed: " << generations_reclaimed << "\n"
     << "  retire queue: " << retire_queue_depth << ", handles acquired: "
     << handles_acquired << ", readers mid-acquire: "
     << active_reader_sections << "\n";
  return os.str();
}

std::string WalStats::ToString() const {
  std::ostringstream os;
  os << "write-ahead log:\n"
     << "  appended: " << records_appended << " records, " << bytes_appended
     << " bytes\n"
     << "  commits: " << commit_requests << ", fsyncs: " << fsyncs
     << ", rotations: " << rotations << ", checkpoints: " << checkpoints
     << "\n";
  return os.str();
}

std::string StatsSnapshot::ToString() const {
  std::string out = delta.ToString() + epoch.ToString();
  if (has_wal) {
    out += wal.ToString();
  }
  return out;
}

}  // namespace hexastore
