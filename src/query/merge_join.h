// Dedicated merge-join operators over Hexastore sorted vectors.
//
// These implement the paper's §4.2 claim directly: "a sorted order of all
// resources associated to any other single resource, or pair of
// resources, is materialized in a Hexastore. In consequence, every
// pairwise join that needs to be performed during the first step of query
// processing in a Hexastore is a fast, linear-time merge-join."
//
// The generic BGP evaluator reaches the same answers via index-nested
// loops; these operators are the explicit merge-join physical plans for
// the common two-pattern shapes, used by applications that want the
// guaranteed linear behaviour (and by tests that verify the equivalence).
#ifndef HEXASTORE_QUERY_MERGE_JOIN_H_
#define HEXASTORE_QUERY_MERGE_JOIN_H_

#include <utility>
#include <vector>

#include "core/hexastore.h"
#include "index/sorted_vec.h"
#include "query/profile.h"

namespace hexastore {

// Every join takes an optional trailing `QueryProfile*`. When non-null,
// the join appends one OperatorProfile (name, rows_out, wall time; the
// merged input sizes are not separately tracked, so rows_in stays 0) and
// folds its wall time into the profile's eval/total phases. With nullptr
// no timing code runs.

/// ?x with (?x, p1, o1) and (?x, p2, o2): one linear merge of two shared
/// s(p, o) subject lists (e.g. "all people involved in both of two
/// particular university courses", §4.2).
IdVec JoinSubjectsByObjects(const Hexastore& store, Id p1, Id o1, Id p2,
                            Id o2,
                            QueryProfile* profile = nullptr);

/// ?x with (s1, p1, ?x) and (s2, p2, ?x): merge of two o(s, p) object
/// lists.
IdVec JoinObjectsBySubjects(const Hexastore& store, Id s1, Id p1, Id s2,
                            Id p2,
                            QueryProfile* profile = nullptr);

/// ?x related to both o1 and o2 by *any* property: merge of two osp
/// subject vectors (the paper's flagship example of a query that
/// property-oriented stores cannot serve without touching every table).
IdVec JoinSubjectsOfObjects(const Hexastore& store, Id o1, Id o2,
                            QueryProfile* profile = nullptr);

/// ?p with (s1, ?p, o1) and (s2, ?p, o2): merge of two p(s, o) predicate
/// lists — "people who have the same relationship to Stanford as a
/// certain person has to Yale" (Figure 1b) factors through this join.
IdVec JoinPredicatesByPairs(const Hexastore& store, Id s1, Id o1, Id s2,
                            Id o2,
                            QueryProfile* profile = nullptr);

/// (?x, ?y) with (?x, p1, ?y-ish) chain (?x, p1, ?m), (?m, p2, ?y): the
/// subject-object join at the heart of path expressions; first join is a
/// linear merge of the pos object vector of p1 with the pso subject
/// vector of p2 (§4.3).
std::vector<std::pair<Id, Id>> JoinChain(const Hexastore& store, Id p1,
                                         Id p2,
                                         QueryProfile* profile = nullptr);

}  // namespace hexastore

#endif  // HEXASTORE_QUERY_MERGE_JOIN_H_
