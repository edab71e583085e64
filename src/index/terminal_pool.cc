#include "index/terminal_pool.h"

#include "util/memory_tracker.h"

namespace hexastore {

bool TerminalListPool::Insert(ListFamily family, Id a, Id b, Id third) {
  return SortedInsert(&map(family)[IdPair{a, b}], third);
}

bool TerminalListPool::Erase(ListFamily family, Id a, Id b, Id third) {
  auto& m = map(family);
  auto it = m.find(IdPair{a, b});
  if (it == m.end()) {
    return false;
  }
  if (!SortedErase(&it->second, third)) {
    return false;
  }
  if (it->second.empty()) {
    m.erase(it);
  }
  return true;
}

std::size_t TerminalListPool::EraseAll(ListFamily family, Id a, Id b,
                                       const IdVec& thirds, bool* emptied) {
  *emptied = false;
  auto& m = map(family);
  auto it = m.find(IdPair{a, b});
  if (it == m.end()) {
    return 0;
  }
  const std::size_t removed = SortedEraseAll(&it->second, thirds);
  if (it->second.empty()) {
    m.erase(it);
    *emptied = true;
  }
  return removed;
}

const IdVec* TerminalListPool::Find(ListFamily family, Id a, Id b) const {
  const auto& m = map(family);
  auto it = m.find(IdPair{a, b});
  return it == m.end() ? nullptr : &it->second;
}

bool TerminalListPool::Contains(ListFamily family, Id a, Id b,
                                Id third) const {
  const IdVec* list = Find(family, a, b);
  return list != nullptr && SortedContains(*list, third);
}

std::size_t TerminalListPool::ListCount(ListFamily family) const {
  return map(family).size();
}

std::size_t TerminalListPool::EntryCount(ListFamily family) const {
  std::size_t total = 0;
  for (const auto& [key, list] : map(family)) {
    (void)key;
    total += list.size();
  }
  return total;
}

std::size_t TerminalListPool::MemoryBytes(ListFamily family) const {
  const auto& m = map(family);
  std::size_t bytes = HashMapHeapBytes(m);
  for (const auto& [key, list] : m) {
    (void)key;
    bytes += VectorHeapBytes(list);
  }
  return bytes;
}

std::size_t TerminalListPool::MemoryBytes() const {
  return MemoryBytes(ListFamily::kObjects) +
         MemoryBytes(ListFamily::kPredicates) +
         MemoryBytes(ListFamily::kSubjects);
}

void TerminalListPool::Clear() {
  for (auto& m : maps_) {
    m.clear();
  }
}

void TerminalListPool::Reserve(std::size_t lists_per_family) {
  for (auto& m : maps_) {
    m.reserve(lists_per_family);
  }
}

IdVec* TerminalListPool::GetOrCreate(ListFamily family, Id a, Id b) {
  return &map(family)[IdPair{a, b}];
}

void TerminalListPool::SortUniqueAll() {
  for (auto& m : maps_) {
    for (auto& [key, list] : m) {
      (void)key;
      SortUnique(&list);
    }
  }
}

}  // namespace hexastore
