#include "core/store_interface.h"

#include <algorithm>

namespace hexastore {

TripleStore::~TripleStore() = default;

IdTripleVec TripleStore::Match(const IdPattern& pattern) const {
  IdTripleVec out;
  Scan(pattern, [&out](const IdTriple& t) { out.push_back(t); });
  std::sort(out.begin(), out.end());
  return out;
}

std::uint64_t TripleStore::CountMatches(const IdPattern& pattern) const {
  std::uint64_t count = 0;
  Scan(pattern, [&count](const IdTriple&) { ++count; });
  return count;
}

bool TripleStore::MatchesAny(const IdPattern& pattern) const {
  return CountMatches(pattern) > 0;
}

std::uint64_t TripleStore::EstimateMatches(const IdPattern& pattern) const {
  return CountMatches(pattern);
}

void TripleStore::BulkLoad(const IdTripleVec& triples) {
  for (const auto& t : triples) {
    Insert(t);
  }
}

bool TripleStore::Pin(PinPolicy, const PinnedFn& fn) const {
  // Unpinned stores have no epoch; the size doubles as a weak staged-ops
  // stamp (the plan cache's estimate probes catch what it misses).
  fn(*this, {0, size()});
  return false;
}

}  // namespace hexastore
