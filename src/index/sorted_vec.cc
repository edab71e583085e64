#include "index/sorted_vec.h"

#include <algorithm>

namespace hexastore {

bool SortedInsert(IdVec* vec, Id id) {
  auto it = std::lower_bound(vec->begin(), vec->end(), id);
  if (it != vec->end() && *it == id) {
    return false;
  }
  vec->insert(it, id);
  return true;
}

bool SortedErase(IdVec* vec, Id id) {
  auto it = std::lower_bound(vec->begin(), vec->end(), id);
  if (it == vec->end() || *it != id) {
    return false;
  }
  vec->erase(it);
  return true;
}

std::size_t SortedEraseAll(IdVec* vec, const IdVec& ids) {
  if (ids.empty()) {
    return 0;
  }
  // Entries below the first id to remove stay where they are; the rest
  // are compacted forward past every match.
  auto out = std::lower_bound(vec->begin(), vec->end(), ids.front());
  auto next = ids.begin();
  for (auto in = out; in != vec->end(); ++in) {
    while (next != ids.end() && *next < *in) {
      ++next;
    }
    if (next == ids.end()) {
      out = out == in ? vec->end() : std::move(in, vec->end(), out);
      break;
    }
    if (*next != *in) {
      *out++ = *in;
    }
  }
  const auto removed = static_cast<std::size_t>(vec->end() - out);
  vec->erase(out, vec->end());
  return removed;
}

bool SortedContains(const IdVec& vec, Id id) {
  return std::binary_search(vec.begin(), vec.end(), id);
}

void SortUnique(IdVec* vec) {
  std::sort(vec->begin(), vec->end());
  vec->erase(std::unique(vec->begin(), vec->end()), vec->end());
}

void SortedMergeTail(IdVec* vec, std::size_t sorted_prefix) {
  const auto mid =
      vec->begin() + static_cast<std::ptrdiff_t>(sorted_prefix);
  std::sort(mid, vec->end());
  std::inplace_merge(vec->begin(), mid, vec->end());
  vec->erase(std::unique(vec->begin(), vec->end()), vec->end());
}

std::size_t GallopLowerBound(const IdVec& vec, std::size_t start,
                             Id target) {
  std::size_t lo = start;
  if (lo >= vec.size() || vec[lo] >= target) {
    return lo;
  }
  std::size_t step = 1;
  std::size_t hi = lo + step;
  while (hi < vec.size() && vec[hi] < target) {
    lo = hi;
    step <<= 1;
    hi = lo + step;
  }
  if (hi > vec.size()) {
    hi = vec.size();
  }
  auto it = std::lower_bound(vec.begin() + static_cast<std::ptrdiff_t>(lo),
                             vec.begin() + static_cast<std::ptrdiff_t>(hi),
                             target);
  return static_cast<std::size_t>(it - vec.begin());
}

IdVec Intersect(const IdVec& a, const IdVec& b) {
  IdVec out;
  out.reserve(std::min(a.size(), b.size()));
  MergeJoin(a, b, [&out](Id id) { out.push_back(id); });
  return out;
}

IdVec IntersectGalloping(const IdVec& small, const IdVec& large) {
  IdVec out;
  out.reserve(small.size());
  std::size_t j = 0;
  for (Id id : small) {
    j = GallopLowerBound(large, j, id);
    if (j >= large.size()) {
      break;
    }
    if (large[j] == id) {
      out.push_back(id);
      ++j;
    }
  }
  return out;
}

IdVec Union(const IdVec& a, const IdVec& b) {
  IdVec out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

IdVec Difference(const IdVec& a, const IdVec& b) {
  IdVec out;
  out.reserve(a.size());
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(out));
  return out;
}

bool IsStrictlySorted(const IdVec& vec) {
  for (std::size_t i = 1; i < vec.size(); ++i) {
    if (vec[i - 1] >= vec[i]) {
      return false;
    }
  }
  return true;
}

}  // namespace hexastore
