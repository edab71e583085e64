#include "query/merge_join.h"

#include <algorithm>

#include "obs/metrics.h"

namespace hexastore {

namespace {

const IdVec kEmpty;

const IdVec& OrEmpty(const IdVec* v) { return v == nullptr ? kEmpty : *v; }

// Runs `fn` and, when profiling, appends its outcome as one operator and
// folds the wall time into the eval/total phases. The unprofiled call is
// exactly `fn()` — no clock reads.
template <typename F>
auto Profiled(QueryProfile* profile, const char* name, F&& fn) {
  if (profile == nullptr) {
    return fn();
  }
  const std::uint64_t start = obs::NowNanos();
  auto out = fn();
  OperatorProfile op;
  op.name = name;
  op.rows_out = out.size();
  op.wall_ns = obs::NowNanos() - start;
  profile->eval_ns += op.wall_ns;
  profile->rows_out += out.size();
  profile->total_ns = profile->parse_ns + profile->plan_ns +
                      profile->eval_ns + profile->pin_ns;
  profile->operators.push_back(op);
  return out;
}

}  // namespace

IdVec JoinSubjectsByObjects(const Hexastore& store, Id p1, Id o1, Id p2,
                            Id o2, QueryProfile* profile) {
  return Profiled(profile, "join_subjects_by_objects", [&] {
    return Intersect(OrEmpty(store.subjects(p1, o1)),
                     OrEmpty(store.subjects(p2, o2)));
  });
}

IdVec JoinObjectsBySubjects(const Hexastore& store, Id s1, Id p1, Id s2,
                            Id p2, QueryProfile* profile) {
  return Profiled(profile, "join_objects_by_subjects", [&] {
    return Intersect(OrEmpty(store.objects(s1, p1)),
                     OrEmpty(store.objects(s2, p2)));
  });
}

IdVec JoinSubjectsOfObjects(const Hexastore& store, Id o1, Id o2,
                            QueryProfile* profile) {
  return Profiled(profile, "join_subjects_of_objects", [&] {
    return Intersect(OrEmpty(store.subjects_of_object(o1)),
                     OrEmpty(store.subjects_of_object(o2)));
  });
}

IdVec JoinPredicatesByPairs(const Hexastore& store, Id s1, Id o1, Id s2,
                            Id o2, QueryProfile* profile) {
  return Profiled(profile, "join_predicates_by_pairs", [&] {
    return Intersect(OrEmpty(store.predicates(s1, o1)),
                     OrEmpty(store.predicates(s2, o2)));
  });
}

std::vector<std::pair<Id, Id>> JoinChain(const Hexastore& store, Id p1,
                                         Id p2, QueryProfile* profile) {
  return Profiled(profile, "join_chain", [&] {
    std::vector<std::pair<Id, Id>> out;
    const IdVec& mids_from_p1 = OrEmpty(store.objects_of_predicate(p1));
    const IdVec& mids_to_p2 = OrEmpty(store.subjects_of_predicate(p2));
    MergeJoin(mids_from_p1, mids_to_p2, [&](Id mid) {
      const IdVec& starts = OrEmpty(store.subjects(p1, mid));
      const IdVec& ends = OrEmpty(store.objects(mid, p2));
      for (Id s : starts) {
        for (Id e : ends) {
          out.emplace_back(s, e);
        }
      }
    });
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  });
}

}  // namespace hexastore
