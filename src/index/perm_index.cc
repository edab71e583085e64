#include "index/perm_index.h"

#include <algorithm>

#include "util/memory_tracker.h"

namespace hexastore {

const char* PermutationName(Permutation perm) {
  switch (perm) {
    case Permutation::kSpo:
      return "spo";
    case Permutation::kSop:
      return "sop";
    case Permutation::kPso:
      return "pso";
    case Permutation::kPos:
      return "pos";
    case Permutation::kOsp:
      return "osp";
    case Permutation::kOps:
      return "ops";
  }
  return "???";
}

PermutationRoles RolesOf(Permutation perm) {
  switch (perm) {
    case Permutation::kSpo:
      return {Role::kSubject, Role::kPredicate, Role::kObject};
    case Permutation::kSop:
      return {Role::kSubject, Role::kObject, Role::kPredicate};
    case Permutation::kPso:
      return {Role::kPredicate, Role::kSubject, Role::kObject};
    case Permutation::kPos:
      return {Role::kPredicate, Role::kObject, Role::kSubject};
    case Permutation::kOsp:
      return {Role::kObject, Role::kSubject, Role::kPredicate};
    case Permutation::kOps:
      return {Role::kObject, Role::kPredicate, Role::kSubject};
  }
  return {Role::kSubject, Role::kPredicate, Role::kObject};
}

bool PermIndex::Insert(Id first, Id second) {
  return SortedInsert(&headers_[first], second);
}

bool PermIndex::Erase(Id first, Id second) {
  auto it = headers_.find(first);
  if (it == headers_.end()) {
    return false;
  }
  if (!SortedErase(&it->second, second)) {
    return false;
  }
  if (it->second.empty()) {
    headers_.erase(it);
  }
  return true;
}

void PermIndex::EraseAll(Id first, const IdVec& seconds) {
  auto it = headers_.find(first);
  if (it == headers_.end()) {
    return;
  }
  SortedEraseAll(&it->second, seconds);
  if (it->second.empty()) {
    headers_.erase(it);
  }
}

const IdVec* PermIndex::Find(Id first) const {
  auto it = headers_.find(first);
  return it == headers_.end() ? nullptr : &it->second;
}

bool PermIndex::Contains(Id first, Id second) const {
  const IdVec* vec = Find(first);
  return vec != nullptr && SortedContains(*vec, second);
}

std::size_t PermIndex::EntryCount() const {
  std::size_t total = 0;
  for (const auto& [first, vec] : headers_) {
    (void)first;
    total += vec.size();
  }
  return total;
}

std::vector<Id> PermIndex::SortedHeaders() const {
  std::vector<Id> keys;
  keys.reserve(headers_.size());
  for (const auto& [first, vec] : headers_) {
    (void)vec;
    keys.push_back(first);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

std::size_t PermIndex::MemoryBytes() const {
  std::size_t bytes = HashMapHeapBytes(headers_);
  for (const auto& [first, vec] : headers_) {
    (void)first;
    bytes += VectorHeapBytes(vec);
  }
  return bytes;
}

void PermIndex::Clear() { headers_.clear(); }

void PermIndex::Reserve(std::size_t headers) { headers_.reserve(headers); }

IdVec* PermIndex::GetOrCreate(Id first) { return &headers_[first]; }

void PermIndex::SortUniqueAll() {
  for (auto& [first, vec] : headers_) {
    (void)first;
    SortUnique(&vec);
  }
}

}  // namespace hexastore
