// Abstract id-level triple store interface.
//
// The Hexastore and both baselines (triples table, COVP1/COVP2) implement
// this interface, so workload queries, integration tests and benchmarks
// can be written once and cross-checked for identical answers.
//
// Stores operate purely on dictionary-encoded ids; the Dictionary is owned
// by the caller (benchmarks share one dictionary across all stores so ids
// are comparable).
#ifndef HEXASTORE_CORE_STORE_INTERFACE_H_
#define HEXASTORE_CORE_STORE_INTERFACE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "rdf/triple.h"
#include "util/common.h"

namespace hexastore {

/// Callback receiving one matching triple during a scan. Returning is
/// unconditional (no early termination); use CountMatches/Exists for
/// cheaper predicates.
using TripleSink = std::function<void(const IdTriple&)>;

class TripleStore;

/// How a read isolates itself from concurrent writers (see
/// TripleStore::Pin).
enum class PinPolicy : std::uint8_t {
  kNone = 0,          ///< read the live store directly
  kWaitFree = 1,      ///< the last published generation; never blocks
  kLinearizable = 2,  ///< the current generation (briefly takes the
                      ///< writer mutex)
};

/// Receives the read view a TripleStore::Pin chose and the view's
/// plan-cache freshness stamp parts (see PlanCacheStamp).
using PinnedFn = std::function<void(const TripleStore& view,
                                    std::vector<std::uint64_t> stamp)>;

/// Common interface of all triple stores in this library.
class TripleStore {
 public:
  virtual ~TripleStore();

  /// Adds a triple. Returns false if it was already present.
  virtual bool Insert(const IdTriple& t) = 0;

  /// Removes a triple. Returns false if it was absent.
  virtual bool Erase(const IdTriple& t) = 0;

  /// Membership test.
  virtual bool Contains(const IdTriple& t) const = 0;

  /// Number of distinct triples stored.
  virtual std::size_t size() const = 0;

  /// Emits every triple matching `pattern` to `sink`. Triples are emitted
  /// in the natural order of the index the store chooses; callers that
  /// need a specific order must sort.
  virtual void Scan(const IdPattern& pattern, const TripleSink& sink)
      const = 0;

  /// Approximate heap bytes held by the store's index structures
  /// (excludes the shared dictionary).
  virtual std::size_t MemoryBytes() const = 0;

  /// Store name for reports ("Hexastore", "COVP1", ...).
  virtual std::string name() const = 0;

  // -- Convenience helpers built on the virtual core ----------------------

  /// Materializes all matches of `pattern`, sorted in (s, p, o) order.
  IdTripleVec Match(const IdPattern& pattern) const;

  /// Number of matches of `pattern`.
  std::uint64_t CountMatches(const IdPattern& pattern) const;

  /// Estimated number of matches of `pattern`, for the query planner.
  /// The default is the exact CountMatches; layered stores may override
  /// with a cheaper (or staged-edit-aware) estimate — DeltaHexastore
  /// folds its delta's staged-op counts in without paying a full merged
  /// scan.
  virtual std::uint64_t EstimateMatches(const IdPattern& pattern) const;

  /// True iff at least one triple matches.
  bool MatchesAny(const IdPattern& pattern) const;

  /// Bulk-insert; default loops over Insert, stores may override with a
  /// faster path.
  virtual void BulkLoad(const IdTripleVec& triples);

  /// Runs `fn` once against a read view chosen by `policy`; returns true
  /// when that view is a pinned generation. The default (stores with no
  /// generation gate, and every store under kNone) hands `fn` the store
  /// itself with the stamp {0, size()} and returns false. The delta
  /// stores and the sharded facade pin one generation (per shard) for
  /// the whole call, so planning and evaluation inside `fn` never see a
  /// merge move underneath them.
  virtual bool Pin(PinPolicy policy, const PinnedFn& fn) const;
};

}  // namespace hexastore

#endif  // HEXASTORE_CORE_STORE_INTERFACE_H_
