#include "core/hexastore.h"

#include <algorithm>
#include <sstream>
#include <tuple>
#include <vector>

namespace hexastore {

namespace {

// Calls fn(begin, end) for each maximal run of `eq`-equal triples.
template <typename It, typename Eq, typename Fn>
void ForEachRun(It begin, It end, Eq eq, Fn fn) {
  while (begin != end) {
    It run_end = begin + 1;
    while (run_end != end && eq(*begin, *run_end)) {
      ++run_end;
    }
    fn(begin, run_end);
    begin = run_end;
  }
}

// Appends one projected field of [begin, end) to `vec` and merges the
// appended tail into the sorted prefix (duplicates — within the run and
// against the prefix — are dropped by the merge).
template <typename It, typename Proj>
void MergeAppend(IdVec* vec, It begin, It end, Proj proj) {
  const std::size_t prefix = vec->size();
  for (It it = begin; it != end; ++it) {
    vec->push_back(proj(*it));
  }
  SortedMergeTail(vec, prefix);
}

// Refills `ids` with one projected field of [begin, end) (sorted when
// the run is sorted by that field) and returns it.
template <typename It, typename Proj>
const IdVec& Project(IdVec* ids, It begin, It end, Proj proj) {
  ids->clear();
  for (It it = begin; it != end; ++it) {
    ids->push_back(proj(*it));
  }
  return *ids;
}

}  // namespace

bool Hexastore::Insert(const IdTriple& t) {
  // The o(s,p) insertion doubles as the duplicate check: a triple is
  // present iff its object is in the shared object list.
  if (!pool_.Insert(ListFamily::kObjects, t.s, t.p, t.o)) {
    return false;
  }
  pool_.Insert(ListFamily::kPredicates, t.s, t.o, t.p);
  pool_.Insert(ListFamily::kSubjects, t.p, t.o, t.s);

  index(Permutation::kSpo).Insert(t.s, t.p);
  index(Permutation::kSop).Insert(t.s, t.o);
  index(Permutation::kPso).Insert(t.p, t.s);
  index(Permutation::kPos).Insert(t.p, t.o);
  index(Permutation::kOsp).Insert(t.o, t.s);
  index(Permutation::kOps).Insert(t.o, t.p);

  ++size_;
  return true;
}

bool Hexastore::Erase(const IdTriple& t) {
  if (!pool_.Erase(ListFamily::kObjects, t.s, t.p, t.o)) {
    return false;
  }
  pool_.Erase(ListFamily::kPredicates, t.s, t.o, t.p);
  pool_.Erase(ListFamily::kSubjects, t.p, t.o, t.s);

  // A second-level pair leaves an index only when its terminal list is
  // gone; e.g. (s, p) leaves spo when o(s,p) no longer exists.
  if (objects(t.s, t.p) == nullptr) {
    index(Permutation::kSpo).Erase(t.s, t.p);
    index(Permutation::kPso).Erase(t.p, t.s);
  }
  if (predicates(t.s, t.o) == nullptr) {
    index(Permutation::kSop).Erase(t.s, t.o);
    index(Permutation::kOsp).Erase(t.o, t.s);
  }
  if (subjects(t.p, t.o) == nullptr) {
    index(Permutation::kPos).Erase(t.p, t.o);
    index(Permutation::kOps).Erase(t.o, t.p);
  }

  --size_;
  return true;
}

bool Hexastore::Contains(const IdTriple& t) const {
  return pool_.Contains(ListFamily::kObjects, t.s, t.p, t.o);
}

void Hexastore::Scan(const IdPattern& q, const TripleSink& sink) const {
  const bool bs = q.has_s();
  const bool bp = q.has_p();
  const bool bo = q.has_o();

  if (bs && bp && bo) {
    if (Contains(IdTriple{q.s, q.p, q.o})) {
      sink(IdTriple{q.s, q.p, q.o});
    }
    return;
  }
  if (bs && bp) {  // (s, p, ?) via o(s,p)
    if (const IdVec* os = objects(q.s, q.p)) {
      for (Id o : *os) {
        sink(IdTriple{q.s, q.p, o});
      }
    }
    return;
  }
  if (bs && bo) {  // (s, ?, o) via p(s,o)
    if (const IdVec* ps = predicates(q.s, q.o)) {
      for (Id p : *ps) {
        sink(IdTriple{q.s, p, q.o});
      }
    }
    return;
  }
  if (bp && bo) {  // (?, p, o) via s(p,o)
    if (const IdVec* ss = subjects(q.p, q.o)) {
      for (Id s : *ss) {
        sink(IdTriple{s, q.p, q.o});
      }
    }
    return;
  }
  if (bs) {  // (s, ?, ?) via spo
    if (const IdVec* ps = predicates_of_subject(q.s)) {
      for (Id p : *ps) {
        const IdVec* os = objects(q.s, p);
        for (Id o : *os) {
          sink(IdTriple{q.s, p, o});
        }
      }
    }
    return;
  }
  if (bp) {  // (?, p, ?) via pso
    if (const IdVec* ss = subjects_of_predicate(q.p)) {
      for (Id s : *ss) {
        const IdVec* os = objects(s, q.p);
        for (Id o : *os) {
          sink(IdTriple{s, q.p, o});
        }
      }
    }
    return;
  }
  if (bo) {  // (?, ?, o) via osp
    if (const IdVec* ss = subjects_of_object(q.o)) {
      for (Id s : *ss) {
        const IdVec* ps = predicates(s, q.o);
        for (Id p : *ps) {
          sink(IdTriple{s, p, q.o});
        }
      }
    }
    return;
  }
  // Full scan via spo.
  index(Permutation::kSpo).ForEachHeader([&](Id s, const IdVec& ps) {
    for (Id p : ps) {
      const IdVec* os = objects(s, p);
      for (Id o : *os) {
        sink(IdTriple{s, p, o});
      }
    }
  });
}

std::size_t Hexastore::MemoryBytes() const {
  std::size_t bytes = pool_.MemoryBytes();
  for (const auto& idx : indexes_) {
    bytes += idx.MemoryBytes();
  }
  return bytes;
}

void Hexastore::BulkLoad(const IdTripleVec& triples) {
  if (triples.empty()) {
    return;
  }
  // Sort the batch once per key grouping and walk the runs: each touched
  // header vector / terminal list gets exactly one hash lookup, one
  // append of its run, and one linear tail merge into its (still sorted)
  // existing prefix. Loading into a non-empty store therefore merges
  // with — and dedups against — the existing contents while visiting
  // only the lists the batch lands in. This is the drain path
  // DeltaHexastore compaction leans on.
  IdTripleVec batch(triples);
  auto by_s = [](const IdTriple& a, const IdTriple& b) {
    return a.s == b.s;
  };
  auto by_p = [](const IdTriple& a, const IdTriple& b) {
    return a.p == b.p;
  };
  auto by_o = [](const IdTriple& a, const IdTriple& b) {
    return a.o == b.o;
  };

  // (s, p, o) grouping: spo header vectors and the shared o(s,p) lists.
  std::sort(batch.begin(), batch.end());
  ForEachRun(batch.begin(), batch.end(), by_s, [&](auto s_begin, auto s_end) {
    MergeAppend(index(Permutation::kSpo).GetOrCreate(s_begin->s), s_begin,
                s_end, [](const IdTriple& t) { return t.p; });
    ForEachRun(s_begin, s_end, by_p, [&](auto sp_begin, auto sp_end) {
      IdVec* objects =
          pool_.GetOrCreate(ListFamily::kObjects, sp_begin->s, sp_begin->p);
      const std::size_t before = objects->size();
      MergeAppend(objects, sp_begin, sp_end,
                  [](const IdTriple& t) { return t.o; });
      // Each o(s,p) entry is one distinct triple: what the merges add is
      // what the store gains.
      size_ += objects->size() - before;
    });
  });

  // (s, o, p) grouping: sop header vectors and the shared p(s,o) lists.
  std::sort(batch.begin(), batch.end(),
            [](const IdTriple& a, const IdTriple& b) {
              return std::tie(a.s, a.o, a.p) < std::tie(b.s, b.o, b.p);
            });
  ForEachRun(batch.begin(), batch.end(), by_s, [&](auto s_begin, auto s_end) {
    MergeAppend(index(Permutation::kSop).GetOrCreate(s_begin->s), s_begin,
                s_end, [](const IdTriple& t) { return t.o; });
    ForEachRun(s_begin, s_end, by_o, [&](auto so_begin, auto so_end) {
      MergeAppend(pool_.GetOrCreate(ListFamily::kPredicates, so_begin->s,
                                    so_begin->o),
                  so_begin, so_end, [](const IdTriple& t) { return t.p; });
    });
  });

  // (p, o, s) grouping: pso + pos header vectors and the s(p,o) lists.
  std::sort(batch.begin(), batch.end(),
            [](const IdTriple& a, const IdTriple& b) {
              return std::tie(a.p, a.o, a.s) < std::tie(b.p, b.o, b.s);
            });
  ForEachRun(batch.begin(), batch.end(), by_p, [&](auto p_begin, auto p_end) {
    MergeAppend(index(Permutation::kPso).GetOrCreate(p_begin->p), p_begin,
                p_end, [](const IdTriple& t) { return t.s; });
    MergeAppend(index(Permutation::kPos).GetOrCreate(p_begin->p), p_begin,
                p_end, [](const IdTriple& t) { return t.o; });
    ForEachRun(p_begin, p_end, by_o, [&](auto po_begin, auto po_end) {
      MergeAppend(
          pool_.GetOrCreate(ListFamily::kSubjects, po_begin->p, po_begin->o),
          po_begin, po_end, [](const IdTriple& t) { return t.s; });
    });
  });

  // (o, s, p) grouping: osp + ops header vectors.
  std::sort(batch.begin(), batch.end(),
            [](const IdTriple& a, const IdTriple& b) {
              return std::tie(a.o, a.s, a.p) < std::tie(b.o, b.s, b.p);
            });
  ForEachRun(batch.begin(), batch.end(), by_o, [&](auto o_begin, auto o_end) {
    MergeAppend(index(Permutation::kOsp).GetOrCreate(o_begin->o), o_begin,
                o_end, [](const IdTriple& t) { return t.s; });
    MergeAppend(index(Permutation::kOps).GetOrCreate(o_begin->o), o_begin,
                o_end, [](const IdTriple& t) { return t.p; });
  });
}

void Hexastore::BulkErase(const IdTripleVec& triples) {
  if (triples.empty() || size_ == 0) {
    return;
  }
  IdTripleVec batch(triples);
  IdVec ids;
  std::vector<IdPair> emptied_keys;
  // One pass per terminal family: sort the batch by the family's key and
  // third role, set-difference each touched list once, then drop the
  // emptied lists' keys from the two header indexes that hold them
  // (`by_a` lists b under header a, `by_b` lists a under header b).
  // Returns how many entries the family lost.
  auto erase_family = [&](ListFamily family, Id IdTriple::*a,
                          Id IdTriple::*b, Id IdTriple::*third,
                          Permutation by_a, Permutation by_b) {
    std::sort(batch.begin(), batch.end(),
              [=](const IdTriple& x, const IdTriple& y) {
                return std::tie(x.*a, x.*b, x.*third) <
                       std::tie(y.*a, y.*b, y.*third);
              });
    std::size_t removed = 0;
    emptied_keys.clear();
    ForEachRun(
        batch.begin(), batch.end(),
        [=](const IdTriple& x, const IdTriple& y) {
          return x.*a == y.*a && x.*b == y.*b;
        },
        [&](auto begin, auto end) {
          const IdPair key{(*begin).*a, (*begin).*b};
          bool emptied = false;
          removed += pool_.EraseAll(
              family, key.a, key.b,
              Project(&ids, begin, end,
                      [third](const IdTriple& t) { return t.*third; }),
              &emptied);
          if (emptied) {
            emptied_keys.push_back(key);
          }
        });
    // The keys arrive sorted by (a, b); the transposed index needs them
    // by (b, a).
    auto same_a = [](const IdPair& x, const IdPair& y) { return x.a == y.a; };
    auto same_b = [](const IdPair& x, const IdPair& y) { return x.b == y.b; };
    ForEachRun(emptied_keys.begin(), emptied_keys.end(), same_a,
               [&](auto begin, auto end) {
                 index(by_a).EraseAll(
                     begin->a, Project(&ids, begin, end,
                                       [](const IdPair& k) { return k.b; }));
               });
    std::sort(emptied_keys.begin(), emptied_keys.end(),
              [](const IdPair& x, const IdPair& y) {
                return std::tie(x.b, x.a) < std::tie(y.b, y.a);
              });
    ForEachRun(emptied_keys.begin(), emptied_keys.end(), same_b,
               [&](auto begin, auto end) {
                 index(by_b).EraseAll(
                     begin->b, Project(&ids, begin, end,
                                       [](const IdPair& k) { return k.a; }));
               });
    return removed;
  };
  // Each o(s,p) entry is one distinct triple: what those lists lose is
  // what the store loses.
  size_ -= erase_family(ListFamily::kObjects, &IdTriple::s, &IdTriple::p,
                        &IdTriple::o, Permutation::kSpo, Permutation::kPso);
  erase_family(ListFamily::kPredicates, &IdTriple::s, &IdTriple::o,
               &IdTriple::p, Permutation::kSop, Permutation::kOsp);
  erase_family(ListFamily::kSubjects, &IdTriple::p, &IdTriple::o,
               &IdTriple::s, Permutation::kPos, Permutation::kOps);
}

void Hexastore::Clear() {
  for (auto& idx : indexes_) {
    idx.Clear();
  }
  pool_.Clear();
  size_ = 0;
}

MemoryStats Hexastore::Stats() const {
  MemoryStats stats;
  for (int i = 0; i < 6; ++i) {
    stats.perm_index_bytes[i] = indexes_[i].MemoryBytes();
  }
  for (int f = 0; f < 3; ++f) {
    stats.terminal_bytes[f] =
        pool_.MemoryBytes(static_cast<ListFamily>(f));
  }
  // Key entries: each header counts 1, each vector entry 1, each terminal
  // entry 1. This is the quantity the paper's 5x bound speaks about.
  for (const auto& idx : indexes_) {
    stats.key_entries += idx.HeaderCount() + idx.EntryCount();
  }
  for (int f = 0; f < 3; ++f) {
    stats.key_entries += pool_.EntryCount(static_cast<ListFamily>(f));
  }
  return stats;
}

bool Hexastore::CheckInvariants(std::string* error) const {
  auto fail = [error](const std::string& msg) {
    if (error != nullptr) {
      *error = msg;
    }
    return false;
  };

  // 1. Every vector and list is strictly sorted; headers never map to
  //    empty vectors.
  for (Permutation perm : kAllPermutations) {
    bool ok = true;
    std::string msg;
    index(perm).ForEachHeader([&](Id first, const IdVec& vec) {
      if (vec.empty()) {
        ok = false;
        msg = std::string("empty vector in ") + PermutationName(perm) +
              " under header " + std::to_string(first);
      } else if (!IsStrictlySorted(vec)) {
        ok = false;
        msg = std::string("unsorted vector in ") + PermutationName(perm);
      }
    });
    if (!ok) {
      return fail(msg);
    }
  }

  // 2. Each pair of same-first-role indexes has identical header sets.
  auto same_headers = [&](Permutation a, Permutation b) {
    return index(a).SortedHeaders() == index(b).SortedHeaders();
  };
  if (!same_headers(Permutation::kSpo, Permutation::kSop)) {
    return fail("spo and sop disagree on subject headers");
  }
  if (!same_headers(Permutation::kPso, Permutation::kPos)) {
    return fail("pso and pos disagree on predicate headers");
  }
  if (!same_headers(Permutation::kOsp, Permutation::kOps)) {
    return fail("osp and ops disagree on object headers");
  }

  // 3. Second-level pairs exist iff their terminal list exists, and the
  //    transposed index contains the mirrored pair. Checked from spo/sop/
  //    pos which covers all three families.
  std::size_t spo_triples = 0;
  {
    bool ok = true;
    std::string msg;
    index(Permutation::kSpo).ForEachHeader([&](Id s, const IdVec& ps) {
      for (Id p : ps) {
        const IdVec* os = objects(s, p);
        if (os == nullptr || os->empty()) {
          ok = false;
          msg = "spo pair without o(s,p) list";
          return;
        }
        if (!index(Permutation::kPso).Contains(p, s)) {
          ok = false;
          msg = "spo pair missing from pso";
          return;
        }
        spo_triples += os->size();
        for (Id o : *os) {
          if (!pool_.Contains(ListFamily::kPredicates, s, o, p)) {
            ok = false;
            msg = "triple missing from p(s,o)";
            return;
          }
          if (!pool_.Contains(ListFamily::kSubjects, p, o, s)) {
            ok = false;
            msg = "triple missing from s(p,o)";
            return;
          }
          if (!index(Permutation::kSop).Contains(s, o) ||
              !index(Permutation::kOsp).Contains(o, s) ||
              !index(Permutation::kPos).Contains(p, o) ||
              !index(Permutation::kOps).Contains(o, p)) {
            ok = false;
            msg = "second-level pair missing from a sibling index";
            return;
          }
        }
      }
    });
    if (!ok) {
      return fail(msg);
    }
  }

  // 4. All three families carry exactly `size_` entries.
  for (int f = 0; f < 3; ++f) {
    if (pool_.EntryCount(static_cast<ListFamily>(f)) != size_) {
      std::ostringstream os;
      os << "terminal family " << f << " entry count "
         << pool_.EntryCount(static_cast<ListFamily>(f))
         << " != size " << size_;
      return fail(os.str());
    }
  }
  if (spo_triples != size_) {
    return fail("spo triple walk disagrees with size");
  }
  return true;
}

}  // namespace hexastore
