// perfbench_tool: seeded inputs, hand-coded oracles and the traced
// per-layer probes behind perfbench/run.py (README.md in this directory
// describes the workloads and metrics).
//
//   perfbench_tool gen   --workload W --seed N --out DIR
//   perfbench_tool trace --workload W --seed N --out DIR
//
// gen writes DIR/data.nt (the file hexastore_server loads), DIR/pool.nt
// (the write pool) and DIR/inputs.json (the paper queries as SPARQL with
// the workload::*Hexa result of each decoded to terms, plus the constants
// the served workloads draw from).
//
// trace rebuilds the same inputs from the seed, calls each layer's public
// functions (ParseNTriplesDocument, Dictionary::Encode, BulkLoad,
// TripleStore::Insert/Erase, GetSnapshot, Session::Query,
// ResultSetToJson, the hand-coded plans) inside spans kept in memory,
// writes the spans to DIR/spans.json and prints one JSON object of
// per-layer metrics.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <variant>
#include <vector>

#include "core/hexastore.h"
#include "data/barton_generator.h"
#include "data/lubm_generator.h"
#include "delta/delta_hexastore.h"
#include "dict/dictionary.h"
#include "query/plan_cache.h"
#include "query/profile.h"
#include "query/result_json.h"
#include "query/session.h"
#include "rdf/ntriples.h"
#include "server/store_options.h"
#include "wal/durable_store.h"
#include "workload/barton_queries.h"
#include "workload/lubm_queries.h"

namespace {

using namespace hexastore;

// Dataset sizes (triples). Kept in step with run.py.
constexpr std::size_t kBartonTriples = 200000;
constexpr std::size_t kLubmTriples = 200000;
constexpr std::size_t kPoolTriples = 153600;  // 600 batches of 256
constexpr std::size_t kBatch = 256;

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---------------------------------------------------------------------
// Inputs.

// The LUBM generator seed for a benchmark seed: the first of
// seed * 2^64/phi + k, k = 0, 1, ..., whose preload holds the constants
// LubmIds::Resolve names (Department0.University0's Course10 and
// AssociateProfessor10) with AssociateProfessor10 holding a degree from
// a loaded University, so LQ1 and LQ3-LQ5 all have answers. Faculty
// counts and degree targets are themselves drawn from the seed.
std::uint64_t LubmSeed(std::uint64_t seed) {
  using data::LubmGenerator;
  const Term prof = LubmGenerator::AssociateProfessorUri(0, 0, 10);
  const Term course = LubmGenerator::CourseUri(0, 0, 10);
  const std::set<Term> degrees = {
      LubmGenerator::PropUndergraduateDegreeFrom(),
      LubmGenerator::PropMastersDegreeFrom(),
      LubmGenerator::PropDoctoralDegreeFrom()};
  for (std::uint64_t k = 0;; ++k) {
    const std::uint64_t s = seed * 0x9E3779B97F4A7C15ull + k;
    data::LubmOptions options;
    options.seed = s;
    bool has_course = false;
    std::set<Term> universities;
    std::vector<Term> prof_degrees;
    for (const Triple& t : LubmGenerator(options).Generate(kLubmTriples)) {
      has_course = has_course || t.subject == course;
      if (t.object == LubmGenerator::ClassUniversity()) {
        universities.insert(t.subject);
      }
      if (t.subject == prof && degrees.count(t.predicate) != 0) {
        prof_degrees.push_back(t.object);
      }
    }
    for (const Term& u : prof_degrees) {
      if (has_course && universities.count(u) != 0) {
        return s;
      }
    }
  }
}

std::vector<Triple> BartonTriples(std::uint64_t seed) {
  data::BartonOptions options;
  options.seed = seed;
  return data::BartonGenerator(options).Generate(kBartonTriples);
}

// LUBM triples [0, kLubmTriples) as the preload; with `pool` the
// kPoolTriples generated after them instead (prefix-stable generator).
std::vector<Triple> LubmTriples(std::uint64_t seed, bool pool) {
  data::LubmOptions options;
  options.seed = LubmSeed(seed);
  std::vector<Triple> all =
      data::LubmGenerator(options).Generate(kLubmTriples +
                                            (pool ? kPoolTriples : 0));
  if (!pool) {
    return all;
  }
  return std::vector<Triple>(all.begin() + kLubmTriples, all.end());
}

std::vector<Triple> LoadTriples(const std::string& workload,
                                std::uint64_t seed) {
  std::vector<Triple> out = LubmTriples(seed, /*pool=*/false);
  if (workload == "paper_queries") {
    std::vector<Triple> barton = BartonTriples(seed);
    out.insert(out.begin(), barton.begin(), barton.end());
  }
  return out;
}

// ---------------------------------------------------------------------
// The twelve paper queries as SPARQL requests plus their oracle rows.
//
// The SPARQL subset has no UNION, HAVING or subqueries, so some queries
// take several requests; `combine` names how run.py folds the decoded
// rows into the canonical result (README.md, "Paper queries").

using Cell = std::variant<std::string, std::uint64_t>;
using Row = std::vector<Cell>;

struct Request {
  std::string sparql;
  std::vector<std::string> row;  // "?var" or a constant N-Triples term
};

struct PaperQuery {
  std::string name;
  std::string combine;  // union | popular | freq_union
  std::vector<Request> requests;
  std::vector<Row> oracle;
};

std::string Nt(const Term& t) { return t.ToNTriples(); }

std::vector<PaperQuery> BuildPaperQueries(const Hexastore& store,
                                          const Dictionary& dict,
                                          bool with_oracle) {
  using data::BartonGenerator;
  using data::LubmGenerator;
  const workload::BartonIds b = workload::BartonIds::Resolve(dict);
  const workload::LubmIds l = workload::LubmIds::Resolve(dict);
  auto term = [&dict](Id id) -> Cell { return Nt(dict.term(id)); };

  const std::string type = Nt(BartonGenerator::PropType());
  const std::string text = Nt(BartonGenerator::TypeText());
  const std::string lang = Nt(BartonGenerator::PropLanguage());
  const std::string french = Nt(BartonGenerator::LangFrench());
  const std::string origin = Nt(BartonGenerator::PropOrigin());
  const std::string dlc = Nt(BartonGenerator::OriginDlc());
  const std::string records = Nt(BartonGenerator::PropRecords());
  const std::string point = Nt(BartonGenerator::PropPoint());
  const std::string end = Nt(BartonGenerator::PointEnd());
  const std::string encoding = Nt(BartonGenerator::PropEncoding());
  const std::string course10 = Nt(dict.term(l.course10));
  const std::string univ0 = Nt(dict.term(l.university0));
  const std::string ap10 = Nt(dict.term(l.assoc_prof10));
  const std::string teacher_of = Nt(LubmGenerator::PropTeacherOf());
  const std::string ub_type = Nt(LubmGenerator::PropType());
  const std::string university = Nt(LubmGenerator::ClassUniversity());
  // Store-wide popularity of every (p, o) carried by a Barton-typed
  // subject (each such subject has exactly one Barton type).
  const std::string popularity =
      "SELECT ?p ?o (COUNT(*) AS ?n) WHERE { ?x " + type +
      " ?t . ?x ?p ?o } GROUP BY ?p ?o";
  const std::string text_freq = "SELECT ?p (COUNT(*) AS ?n) WHERE { ?s " +
                                type + " " + text + " . ?s ?p ?o } GROUP BY ?p";
  const std::string inferred = "?s " + origin + " " + dlc + " . ?s " +
                               records + " ?x . ?x " + type + " " + text;

  std::vector<PaperQuery> qs;
  qs.push_back({"BQ1", "union",
                {{"SELECT ?o (COUNT(*) AS ?n) WHERE { ?s " + type +
                      " ?o } GROUP BY ?o",
                  {"?o", "?n"}}},
                {}});
  qs.push_back({"BQ2", "union", {{text_freq, {"?p", "?n"}}}, {}});
  qs.push_back({"BQ3", "popular",
                {{"SELECT DISTINCT ?p ?o WHERE { ?s " + type + " " + text +
                      " . ?s ?p ?o }",
                  {"?p", "?o"}},
                 {popularity, {"?p", "?o", "?n"}}},
                {}});
  qs.push_back({"BQ4", "popular",
                {{"SELECT DISTINCT ?p ?o WHERE { ?s " + type + " " + text +
                      " . ?s " + lang + " " + french + " . ?s ?p ?o }",
                  {"?p", "?o"}},
                 {popularity, {"?p", "?o", "?n"}}},
                {}});
  qs.push_back({"BQ5", "union",
                {{"SELECT DISTINCT ?s ?t WHERE { ?s " + origin + " " + dlc +
                      " . ?s " + records + " ?x . ?x " + type +
                      " ?t . FILTER(?t != " + text + ") }",
                  {"?s", "?t"}}},
                {}});
  qs.push_back({"BQ6", "freq_union",
                {{text_freq, {"?p", "?n"}},
                 {"SELECT ?s ?p (COUNT(DISTINCT ?o) AS ?n) WHERE { " +
                      inferred + " . ?s ?p ?o } GROUP BY ?s ?p",
                  {"?s", "?p", "?n"}},
                 {"SELECT DISTINCT ?s WHERE { " + inferred + " . ?s " + type +
                      " " + text + " }",
                  {"?s"}}},
                {}});
  qs.push_back({"BQ7", "union",
                {{"SELECT ?s ?o WHERE { ?s " + point + " " + end + " . ?s " +
                      encoding + " ?o }",
                  {"?s", encoding, "?o"}},
                 {"SELECT ?s ?o WHERE { ?s " + point + " " + end + " . ?s " +
                      type + " ?o }",
                  {"?s", type, "?o"}}},
                {}});
  qs.push_back({"LQ1", "union",
                {{"SELECT ?s ?p WHERE { ?s ?p " + course10 + " }",
                  {"?s", "?p"}}},
                {}});
  qs.push_back({"LQ2", "union",
                {{"SELECT ?s ?p WHERE { ?s ?p " + univ0 + " }",
                  {"?s", "?p"}}},
                {}});
  qs.push_back({"LQ3", "union",
                {{"SELECT ?p ?o WHERE { " + ap10 + " ?p ?o }",
                  {ap10, "?p", "?o"}},
                 {"SELECT ?s ?p WHERE { ?s ?p " + ap10 + " }",
                  {"?s", "?p", ap10}}},
                {}});
  qs.push_back({"LQ4", "union",
                {{"SELECT ?c ?s ?p WHERE { " + ap10 + " " + teacher_of +
                      " ?c . ?s ?p ?c }",
                  {"?c", "?s", "?p"}}},
                {}});
  PaperQuery lq5{"LQ5", "union", {}, {}};
  for (const Term& degree : {LubmGenerator::PropUndergraduateDegreeFrom(),
                             LubmGenerator::PropMastersDegreeFrom(),
                             LubmGenerator::PropDoctoralDegreeFrom()}) {
    lq5.requests.push_back(
        {"SELECT DISTINCT ?u ?x WHERE { " + ap10 + " ?r ?u . ?u " + ub_type +
             " " + university + " . ?x " + Nt(degree) + " ?u }",
         {"?u", "?x"}});
  }
  qs.push_back(lq5);
  if (!with_oracle) {
    return qs;
  }

  auto& o = qs;
  for (const auto& [id, n] : workload::BartonQ1Hexa(store, b)) {
    o[0].oracle.push_back({term(id), n});
  }
  for (const auto& [id, n] : workload::BartonQ2Hexa(store, b, nullptr)) {
    o[1].oracle.push_back({term(id), n});
  }
  for (const auto& [po, n] : workload::BartonQ3Hexa(store, b, nullptr)) {
    o[2].oracle.push_back({term(po.first), term(po.second), n});
  }
  for (const auto& [po, n] : workload::BartonQ4Hexa(store, b, nullptr)) {
    o[3].oracle.push_back({term(po.first), term(po.second), n});
  }
  for (const auto& [s, t] : workload::BartonQ5Hexa(store, b)) {
    o[4].oracle.push_back({term(s), term(t)});
  }
  for (const auto& [id, n] : workload::BartonQ6Hexa(store, b, nullptr)) {
    o[5].oracle.push_back({term(id), n});
  }
  for (const IdTriple& t : workload::BartonQ7Hexa(store, b)) {
    o[6].oracle.push_back({term(t.s), term(t.p), term(t.o)});
  }
  for (const auto& [s, p] : workload::LubmRelatedToHexa(store, l.course10)) {
    o[7].oracle.push_back({term(s), term(p)});
  }
  for (const auto& [s, p] :
       workload::LubmRelatedToHexa(store, l.university0)) {
    o[8].oracle.push_back({term(s), term(p)});
  }
  for (const IdTriple& t : workload::LubmQ3Hexa(store, l.assoc_prof10)) {
    o[9].oracle.push_back({term(t.s), term(t.p), term(t.o)});
  }
  for (const auto& [c, rows] : workload::LubmQ4Hexa(store, l)) {
    for (const auto& [s, p] : rows) {
      o[10].oracle.push_back({term(c), term(s), term(p)});
    }
  }
  for (const auto& [u, people] : workload::LubmQ5Hexa(store, l)) {
    for (Id x : people) {
      o[11].oracle.push_back({term(u), term(x)});
    }
  }
  return qs;
}

// Runs one paper query's hand-coded plan (result discarded); the
// workload::*Hexa control row of the traced run.
std::size_t RunHand(std::size_t q, const Hexastore& store,
                    const workload::BartonIds& b,
                    const workload::LubmIds& l) {
  switch (q) {
    case 0: return workload::BartonQ1Hexa(store, b).size();
    case 1: return workload::BartonQ2Hexa(store, b, nullptr).size();
    case 2: return workload::BartonQ3Hexa(store, b, nullptr).size();
    case 3: return workload::BartonQ4Hexa(store, b, nullptr).size();
    case 4: return workload::BartonQ5Hexa(store, b).size();
    case 5: return workload::BartonQ6Hexa(store, b, nullptr).size();
    case 6: return workload::BartonQ7Hexa(store, b).size();
    case 7: return workload::LubmRelatedToHexa(store, l.course10).size();
    case 8: return workload::LubmRelatedToHexa(store, l.university0).size();
    case 9: return workload::LubmQ3Hexa(store, l.assoc_prof10).size();
    case 10: return workload::LubmQ4Hexa(store, l).size();
    default: return workload::LubmQ5Hexa(store, l).size();
  }
}

// ---------------------------------------------------------------------
// JSON output.

std::string JsonString(const std::string& s) {
  std::string out;
  AppendJsonEscaped(s, &out);
  return "\"" + out + "\"";
}

std::string JsonCell(const Cell& c) {
  if (const auto* s = std::get_if<std::string>(&c)) {
    return JsonString(*s);
  }
  return std::to_string(std::get<std::uint64_t>(c));
}

std::string JsonStrings(const std::vector<std::string>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) {
      out += ',';
    }
    out += JsonString(v[i]);
  }
  return out + "]";
}

std::string QueriesJson(const std::vector<PaperQuery>& qs) {
  std::string out = "[";
  for (std::size_t i = 0; i < qs.size(); ++i) {
    const PaperQuery& q = qs[i];
    out += i == 0 ? "\n" : ",\n";
    out += "{\"name\":" + JsonString(q.name) +
           ",\"combine\":" + JsonString(q.combine) + ",\"requests\":[";
    for (std::size_t r = 0; r < q.requests.size(); ++r) {
      out += (r == 0 ? "" : ",");
      out += "{\"sparql\":" + JsonString(q.requests[r].sparql) +
             ",\"row\":" + JsonStrings(q.requests[r].row) + "}";
    }
    out += "],\"oracle\":[";
    for (std::size_t r = 0; r < q.oracle.size(); ++r) {
      out += (r == 0 ? "[" : ",[");
      for (std::size_t c = 0; c < q.oracle[r].size(); ++c) {
        if (c != 0) {
          out += ',';
        }
        out += JsonCell(q.oracle[r][c]);
      }
      out += "]";
    }
    out += "]}";
  }
  return out + "]";
}

bool WriteFile(const std::filesystem::path& path, const std::string& body) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << body;
  return out.good();
}

// Subjects typed `cls` (generation order) and the faculty who teach.
std::vector<std::string> SubjectsOfType(const std::vector<Triple>& triples,
                                        const Term& cls) {
  const Term type = data::LubmGenerator::PropType();
  std::vector<std::string> out;
  for (const Triple& t : triples) {
    if (t.predicate == type && t.object == cls) {
      out.push_back(Nt(t.subject));
    }
  }
  return out;
}

std::vector<std::string> Teachers(const std::vector<Triple>& triples) {
  const Term teacher_of = data::LubmGenerator::PropTeacherOf();
  std::vector<std::string> out;
  std::set<std::string> seen;
  for (const Triple& t : triples) {
    if (t.predicate == teacher_of && seen.insert(Nt(t.subject)).second) {
      out.push_back(Nt(t.subject));
    }
  }
  return out;
}

int Gen(const std::string& workload, std::uint64_t seed,
        const std::filesystem::path& dir) {
  std::filesystem::create_directories(dir);
  const std::vector<Triple> load = LoadTriples(workload, seed);
  const std::vector<Triple> pool = LubmTriples(seed, /*pool=*/true);
  if (!WriteFile(dir / "data.nt", ToNTriplesString(load)) ||
      !WriteFile(dir / "pool.nt", ToNTriplesString(pool))) {
    std::fprintf(stderr, "perfbench_tool: cannot write to %s\n",
                 dir.c_str());
    return 1;
  }
  std::string json = "{\"workload\":" + JsonString(workload) +
                     ",\"seed\":" + std::to_string(seed) +
                     ",\"load_triples\":" + std::to_string(load.size()) +
                     ",\"pool_triples\":" + std::to_string(pool.size());
  if (workload == "paper_queries") {
    Dictionary dict;
    IdTripleVec ids;
    ids.reserve(load.size());
    for (const Triple& t : load) {
      ids.push_back(dict.Encode(t));
    }
    Hexastore store;
    store.BulkLoad(ids);
    json += ",\"queries\":" +
            QueriesJson(BuildPaperQueries(store, dict, /*with_oracle=*/true));
  }
  const Term course = data::LubmGenerator::ClassCourse();
  json += ",\"courses\":" + JsonStrings(SubjectsOfType(load, course)) +
          ",\"professors\":" + JsonStrings(Teachers(load)) +
          ",\"pool_courses\":" + JsonStrings(SubjectsOfType(pool, course)) +
          ",\"pool_professors\":" + JsonStrings(Teachers(pool)) + "}\n";
  if (!WriteFile(dir / "inputs.json", json)) {
    return 1;
  }
  return 0;
}

// ---------------------------------------------------------------------
// Traced run.

// Spans kept in memory: name, start, end, parent (index, -1 = root);
// all spans of one request share `request`.
struct Span {
  std::uint64_t request;
  std::string name;
  std::uint64_t start_ns;
  std::uint64_t end_ns;
  int parent;
};

class Tracer {
 public:
  std::uint64_t NewRequest() { return next_request_++; }
  int Add(std::uint64_t request, std::string name, std::uint64_t start,
          std::uint64_t end, int parent) {
    spans_.push_back(Span{request, std::move(name), start, end, parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  int Begin(std::uint64_t request, std::string name, int parent) {
    return Add(request, std::move(name), NowNs(), 0, parent);
  }
  void End(int span) {
    spans_[static_cast<std::size_t>(span)].end_ns = NowNs();
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::uint64_t next_request_ = 1;
  std::vector<Span> spans_;
};

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

class Metrics {
 public:
  void Set(const std::string& name, double value) { values_[name] = value; }
  std::string Json() const {
    std::string out = "{";
    bool first = true;
    for (const auto& [name, value] : values_) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.9g", value);
      if (!first) {
        out += ',';
      }
      out += JsonString(name) + ":" + buf;
      first = false;
    }
    return out + "}";
  }

 private:
  std::map<std::string, double> values_;
};

// The served store as hexastore_server builds it from the environment:
// in-memory by default, durable when HEXA_WAL_DIR is set.
struct ServedStore {
  StoreOptions options;
  std::unique_ptr<DeltaHexastore> plain;
  std::unique_ptr<DurableDeltaHexastore> durable;

  TripleStore& writer() {
    return durable ? static_cast<TripleStore&>(*durable) : *plain;
  }
  const DeltaHexastore& reader() const {
    return durable ? durable->delta() : *plain;
  }
};

bool OpenServed(ServedStore* out) {
  out->options = StoreOptions::FromEnv();
  if (out->options.durable) {
    auto opened = DurableDeltaHexastore::Open(out->options.durability);
    if (!opened.ok()) {
      std::fprintf(stderr, "perfbench_tool: %s\n",
                   opened.status().ToString().c_str());
      return false;
    }
    out->durable = std::move(opened).value();
  } else {
    out->plain = std::make_unique<DeltaHexastore>(out->options.delta);
  }
  return true;
}

// Load phase: parse, intern, bulk load, each in its own span.
void TraceLoad(const std::vector<Triple>& triples, Dictionary* dict,
               ServedStore* served, Tracer* tracer, Metrics* m) {
  const std::string text = ToNTriplesString(triples);
  const std::uint64_t req = tracer->NewRequest();
  const int root = tracer->Begin(req, "load", -1);
  int span = tracer->Begin(req, "rdf.parse", root);
  auto parsed = ParseNTriplesDocument(text, /*strict=*/false);
  tracer->End(span);
  const Span& ps = tracer->spans()[static_cast<std::size_t>(span)];
  const double n = static_cast<double>(parsed.value().size());
  const double parse_ns = static_cast<double>(ps.end_ns - ps.start_ns);
  span = tracer->Begin(req, "dict.encode", root);
  IdTripleVec ids;
  ids.reserve(parsed.value().size());
  for (const Triple& t : parsed.value()) {
    ids.push_back(dict->Encode(t));
  }
  tracer->End(span);
  const Span& es = tracer->spans()[static_cast<std::size_t>(span)];
  const double encode_ns = static_cast<double>(es.end_ns - es.start_ns);
  span = tracer->Begin(req, "core.bulk_load", root);
  served->writer().BulkLoad(ids);
  served->reader().GetSnapshot();
  tracer->End(span);
  tracer->End(root);
  const Span& bs = tracer->spans()[static_cast<std::size_t>(span)];
  m->Set("rdf.parse_ns_per_triple", parse_ns / n);
  m->Set("dict.encode_ns_per_triple", encode_ns / n);
  m->Set("core.bulk_load_s",
         static_cast<double>(bs.end_ns - bs.start_ns) / 1e9);
  m->Set("core.bytes_per_triple",
         static_cast<double>(served->writer().MemoryBytes()) /
             static_cast<double>(served->writer().size()));
}

// Write probes: 256-triple N-Triples bodies from the pool, parsed,
// interned and inserted one triple at a time, then published; batches
// older than `window` are erased the same way.
void TraceWrites(const std::vector<Triple>& pool, Dictionary* dict,
                 ServedStore* served, Tracer* tracer, Metrics* m) {
  constexpr std::size_t kBatches = 400;
  constexpr std::size_t kWindow = 200;
  std::vector<std::string> bodies;
  for (std::size_t b = 0; b < kBatches; ++b) {
    const std::size_t first = (b * kBatch) % pool.size();
    std::vector<Triple> batch(pool.begin() + first,
                              pool.begin() + first + kBatch);
    bodies.push_back(ToNTriplesString(batch));
  }
  std::vector<double> insert_ns;
  std::vector<double> publish_us;
  double parse_ns = 0.0;
  double parsed_triples = 0.0;
  auto run = [&](const std::string& body, bool insert) {
    const std::uint64_t req = tracer->NewRequest();
    const int root = tracer->Begin(req, "write.request", -1);
    int span = tracer->Begin(req, "rdf.parse", root);
    auto parsed = ParseNTriplesDocument(body, /*strict=*/true);
    tracer->End(span);
    const Span& ps = tracer->spans()[static_cast<std::size_t>(span)];
    parse_ns += static_cast<double>(ps.end_ns - ps.start_ns);
    parsed_triples += static_cast<double>(parsed.value().size());
    span = tracer->Begin(req, "dict.encode", root);
    std::vector<std::optional<IdTriple>> ids;
    for (const Triple& t : parsed.value()) {
      ids.push_back(insert ? std::optional<IdTriple>(dict->Encode(t))
                           : dict->TryEncode(t));
    }
    tracer->End(span);
    span = tracer->Begin(req, insert ? "delta.insert" : "delta.erase", root);
    for (const std::optional<IdTriple>& id : ids) {
      if (!id.has_value()) {
        continue;
      }
      const std::uint64_t start = NowNs();
      if (insert) {
        served->writer().Insert(*id);
        insert_ns.push_back(static_cast<double>(NowNs() - start));
      } else {
        served->writer().Erase(*id);
      }
    }
    tracer->End(span);
    span = tracer->Begin(req, "delta.publish", root);
    served->reader().GetSnapshot();
    tracer->End(span);
    tracer->End(root);
    const Span& pub = tracer->spans()[static_cast<std::size_t>(span)];
    publish_us.push_back(static_cast<double>(pub.end_ns - pub.start_ns) /
                         1e3);
  };
  for (std::size_t b = 0; b < kBatches; ++b) {
    run(bodies[b], /*insert=*/true);
    if (b >= kWindow) {
      run(bodies[b - kWindow], /*insert=*/false);
    }
  }
  m->Set("rdf.parse_insert_ns_per_triple", parse_ns / parsed_triples);
  m->Set("delta.insert_ns_p50", Median(insert_ns));
  m->Set("delta.insert_ns_max",
         *std::max_element(insert_ns.begin(), insert_ns.end()));
  m->Set("delta.publish_us_p50", Median(publish_us));
}

// Query probes: every paper query, hand-coded on a plain Hexastore and
// as SPARQL through Session::Query (wait-free pin, plan cache) on the
// served store type, with ResultSetToJson rendering.
void TraceQueries(const std::vector<Triple>& paper, Tracer* tracer,
                  Metrics* m) {
  constexpr int kPasses = 5;
  Dictionary dict;
  IdTripleVec ids;
  ids.reserve(paper.size());
  for (const Triple& t : paper) {
    ids.push_back(dict.Encode(t));
  }
  std::vector<PaperQuery> queries;
  std::vector<double> hand_us(12);
  {
    Hexastore plain;
    plain.BulkLoad(ids);
    queries = BuildPaperQueries(plain, dict, /*with_oracle=*/false);
    const workload::BartonIds b = workload::BartonIds::Resolve(dict);
    const workload::LubmIds l = workload::LubmIds::Resolve(dict);
    for (std::size_t q = 0; q < queries.size(); ++q) {
      std::vector<double> times;
      for (int pass = 0; pass <= kPasses; ++pass) {
        const std::uint64_t start = NowNs();
        RunHand(q, plain, b, l);
        if (pass > 0) {  // pass 0 warms caches
          times.push_back(static_cast<double>(NowNs() - start) / 1e3);
        }
      }
      hand_us[q] = Median(times);
    }
  }
  DeltaHexastore store(StoreOptions().delta);
  store.BulkLoad(ids);
  store.GetSnapshot();
  ProfileSink sink;
  PlanCache cache;
  query::SessionOptions sopts;
  sopts.pin = query::PinPolicy::kWaitFree;
  sopts.sink = &sink;
  sopts.plan_cache = &cache;
  query::Session session(store, dict, sopts);

  std::vector<std::vector<double>> query_us(queries.size());
  std::vector<double> parse_us, plan_us, pin_us, eval_us, render_us;
  double rows_scanned = 0.0;
  double rows_out = 0.0;
  for (int pass = 0; pass <= kPasses; ++pass) {
    double parse = 0, plan = 0, pin = 0, eval = 0, render = 0;
    for (std::size_t q = 0; q < queries.size(); ++q) {
      double total_us = 0.0;
      for (const Request& r : queries[q].requests) {
        const std::uint64_t req = tracer->NewRequest();
        const int root = tracer->Begin(req, "query.request", -1);
        const int sspan = tracer->Begin(req, "query.session", root);
        auto result = session.Query(r.sparql);
        tracer->End(sspan);
        if (!result.ok()) {
          std::fprintf(stderr, "perfbench_tool: %s: %s\n",
                       queries[q].name.c_str(),
                       result.status().ToString().c_str());
          std::exit(1);
        }
        const QueryProfile& p = result.value().profile;
        // The profile's phases as child spans laid out in order inside
        // the session span: parse, then pin holding plan and eval.
        const std::uint64_t s0 =
            tracer->spans()[static_cast<std::size_t>(sspan)].start_ns;
        tracer->Add(req, "query.parse", s0, s0 + p.parse_ns, sspan);
        const std::uint64_t pin_start = s0 + p.parse_ns;
        const int pspan = tracer->Add(req, "query.pin", pin_start,
                                      pin_start + p.pin_ns, sspan);
        tracer->Add(req, "query.plan", pin_start, pin_start + p.plan_ns,
                    pspan);
        tracer->Add(req, "query.eval", pin_start + p.plan_ns,
                    pin_start + p.plan_ns + p.eval_ns, pspan);
        const int rspan = tracer->Begin(req, "query.render", root);
        const std::string body = ResultSetToJson(result.value().set, dict);
        tracer->End(rspan);
        tracer->End(root);
        const Span& rs = tracer->spans()[static_cast<std::size_t>(root)];
        const Span& rr = tracer->spans()[static_cast<std::size_t>(rspan)];
        total_us += static_cast<double>(rs.end_ns - rs.start_ns) / 1e3;
        parse += static_cast<double>(p.parse_ns) / 1e3;
        plan += static_cast<double>(p.plan_ns) / 1e3;
        pin += static_cast<double>(p.pin_ns) / 1e3;
        eval += static_cast<double>(p.eval_ns) / 1e3;
        render += static_cast<double>(rr.end_ns - rr.start_ns) / 1e3;
        if (pass > 0) {
          rows_scanned += static_cast<double>(p.TotalRowsScanned());
          rows_out += static_cast<double>(p.rows_out);
        }
      }
      if (pass > 0) {  // pass 0 warms the plan cache
        query_us[q].push_back(total_us);
      }
    }
    if (pass > 0) {
      parse_us.push_back(parse);
      plan_us.push_back(plan);
      pin_us.push_back(pin);
      eval_us.push_back(eval);
      render_us.push_back(render);
    }
  }
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const std::string& name = queries[q].name;
    const double p50 = Median(query_us[q]);
    m->Set("workload." + name + ".hand_us", hand_us[q]);
    m->Set("query." + name + ".p50_us", p50);
    m->Set("query." + name + ".served_over_hand",
           p50 / std::max(hand_us[q], 1e-3));
  }
  m->Set("query.parse_us", Median(parse_us));
  m->Set("query.plan_us", Median(plan_us));
  m->Set("query.pin_us", Median(pin_us));
  m->Set("query.eval_us", Median(eval_us));
  m->Set("query.render_us", Median(render_us));
  m->Set("query.rows_scanned_per_row_out",
         rows_scanned / std::max(rows_out, 1.0));
}

// Per request kind: each span name's median self time (duration minus
// the part its children cover) and the share of the root span that no
// child covers.
void SpanMetrics(const Tracer& tracer, Metrics* m) {
  const std::vector<Span>& spans = tracer.spans();
  std::vector<std::uint64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, std::vector<double>> self_us;
  std::map<std::string, std::vector<double>> uncovered;
  std::vector<std::string> root_of(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    root_of[i] = s.parent < 0 ? s.name
                              : root_of[static_cast<std::size_t>(s.parent)];
    const std::string kind = root_of[i].substr(0, root_of[i].find('.'));
    if (kind == "load") {
      continue;  // one-off set-up, reported as load metrics
    }
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    const double covered =
        std::min(dur, static_cast<double>(child_ns[i]));
    const std::string name = s.parent < 0 ? kind + ".request" : s.name;
    self_us["span." + name + ".self_us"].push_back(
        (dur - covered) / 1e3);
    if (s.parent < 0 && dur > 0) {
      uncovered[kind + ".unaccounted"].push_back(1.0 - covered / dur);
    }
  }
  for (const auto& [name, v] : self_us) {
    m->Set(name, Median(v));
  }
  for (const auto& [name, v] : uncovered) {
    m->Set(name, Median(v));
  }
}

bool WriteSpans(const Tracer& tracer, const std::filesystem::path& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << "[";
  bool first = true;
  for (const Span& s : tracer.spans()) {
    out << (first ? "\n" : ",\n") << "{\"id\":" << s.request
        << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent << "}";
    first = false;
  }
  out << "]\n";
  return out.good();
}

int Trace(const std::string& workload, std::uint64_t seed,
          const std::filesystem::path& dir) {
  std::filesystem::create_directories(dir);
  if (workload == "ingest_churn") {
    const std::filesystem::path wal = dir / "trace-wal";
    std::filesystem::remove_all(wal);
    ::setenv("HEXA_WAL_DIR", wal.c_str(), 1);
  }
  Tracer tracer;
  Metrics m;
  {
    Dictionary dict;
    ServedStore served;
    if (!OpenServed(&served)) {
      return 1;
    }
    TraceLoad(LoadTriples(workload, seed), &dict, &served, &tracer, &m);
    TraceWrites(LubmTriples(seed, /*pool=*/true), &dict, &served, &tracer,
                &m);
  }
  if (workload == "ingest_churn") {
    std::filesystem::remove_all(dir / "trace-wal");
  }
  TraceQueries(LoadTriples("paper_queries", seed), &tracer, &m);
  SpanMetrics(tracer, &m);
  if (!WriteSpans(tracer, dir / "spans.json")) {
    return 1;
  }
  std::printf("%s\n", m.Json().c_str());
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_tool gen|trace --workload W --seed N "
               "--out DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  const std::string command = argv[1];
  std::string workload;
  std::string out;
  std::uint64_t seed = 0;
  bool have_seed = false;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag == "--workload") {
      workload = argv[i + 1];
    } else if (flag == "--seed") {
      seed = std::strtoull(argv[i + 1], nullptr, 10);
      have_seed = true;
    } else if (flag == "--out") {
      out = argv[i + 1];
    } else {
      return Usage();
    }
  }
  if (workload != "paper_queries" && workload != "served_mixed" &&
      workload != "ingest_churn") {
    return Usage();
  }
  if (!have_seed || out.empty()) {
    return Usage();
  }
  if (command == "gen") {
    return Gen(workload, seed, out);
  }
  if (command == "trace") {
    return Trace(workload, seed, out);
  }
  return Usage();
}
