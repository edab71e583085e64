// Command-line front end: load RDF data (N-Triples or a binary
// snapshot), optionally save a snapshot, and run SPARQL queries.
//
// Usage:
//   hexastore_cli --load-nt FILE [--save-snapshot FILE] [QUERY]
//   hexastore_cli --load-snapshot FILE [QUERY]
//   hexastore_cli --demo [QUERY]          (generated LUBM data)
//
// With no QUERY argument, queries are read from stdin (one per line or
// separated by blank lines). `--stats` prints index statistics instead;
// `--metrics` prints the graph's Prometheus-style metric exposition
// (see docs/observability.md). `--slow-queries` prints, after the
// queries ran, the slow-query log — queries whose end-to-end time
// crossed HEXA_SLOW_QUERY_US microseconds (0 = log everything,
// default 10ms). `--json` renders results as W3C SPARQL 1.1 JSON
// (application/sparql-results+json) instead of the ASCII table.
// Queries support EXPLAIN / EXPLAIN ANALYZE prefixes. All queries run
// through one query::Session sharing a plan cache and profile sink.
#include <algorithm>
#include <cctype>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/graph.h"
#include "data/lubm_generator.h"
#include "io/snapshot.h"
#include "query/operators.h"
#include "query/profile.h"
#include "query/result_json.h"
#include "query/session.h"

namespace {

int Fail(const std::string& message) {
  std::cerr << "error: " << message << "\n";
  return 1;
}

// True when `*text` starts with `word` followed by whitespace; consumes it.
bool ConsumeKeyword(std::string_view* text, std::string_view word) {
  if (text->size() <= word.size()) {
    return false;
  }
  for (std::size_t i = 0; i < word.size(); ++i) {
    if (std::toupper(static_cast<unsigned char>((*text)[i])) != word[i]) {
      return false;
    }
  }
  std::string_view rest = text->substr(word.size());
  if (!std::isspace(static_cast<unsigned char>(rest.front()))) {
    return false;
  }
  while (!rest.empty() &&
         std::isspace(static_cast<unsigned char>(rest.front()))) {
    rest.remove_prefix(1);
  }
  *text = rest;
  return true;
}

void RunQuery(const hexastore::Graph& graph, hexastore::query::Session* session,
              const std::string& query, bool json) {
  std::string_view text = query;
  while (!text.empty() &&
         std::isspace(static_cast<unsigned char>(text.front()))) {
    text.remove_prefix(1);
  }
  if (ConsumeKeyword(&text, "EXPLAIN")) {
    auto report = ConsumeKeyword(&text, "ANALYZE")
                      ? session->ExplainAnalyze(text)
                      : session->Explain(text);
    if (!report.ok()) {
      std::cout << "error: " << report.status().ToString() << "\n";
      return;
    }
    std::cout << report.value();
    return;
  }
  auto result = session->Query(query);
  if (!result.ok()) {
    std::cout << "error: " << result.status().ToString() << "\n";
    return;
  }
  if (json) {
    std::cout << hexastore::ResultSetToJson(result.value().set, graph.dict())
              << "\n";
    return;
  }
  std::cout << hexastore::FormatResultSet(result.value().set, graph.dict(),
                                          /*max_rows=*/50);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hexastore;  // NOLINT

  // Sink before graph: it must outlive the registry that renders it.
  ProfileSink sink;
  Graph graph;
  sink.RegisterWith(&graph.metrics_registry());
  PlanCache plan_cache;
  plan_cache.RegisterWith(&graph.metrics_registry());
  query::SessionOptions session_options;
  session_options.sink = &sink;
  session_options.plan_cache = &plan_cache;
  // Plain in-memory Hexastore: no generation gate, so every query reads
  // the store itself whatever the pin policy.
  query::Session session(graph.store(), graph.dict(), session_options);
  bool loaded = false;
  bool show_stats = false;
  bool show_metrics = false;
  bool show_slow_queries = false;
  bool json = false;
  std::string query;

  std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--load-nt" && i + 1 < args.size()) {
      std::ifstream in(args[++i]);
      if (!in) {
        return Fail("cannot open " + args[i]);
      }
      std::stringstream buffer;
      buffer << in.rdbuf();
      auto r = graph.LoadNTriples(buffer.str());
      if (!r.ok()) {
        return Fail(r.status().ToString());
      }
      std::cerr << "loaded " << r.value() << " triples from " << args[i]
                << "\n";
      loaded = true;
    } else if (arg == "--load-snapshot" && i + 1 < args.size()) {
      Status s = LoadSnapshotFile(args[++i], &graph);
      if (!s.ok()) {
        return Fail(s.ToString());
      }
      std::cerr << "loaded " << graph.size() << " triples from snapshot\n";
      loaded = true;
    } else if (arg == "--save-snapshot" && i + 1 < args.size()) {
      Status s = SaveSnapshotFile(graph, args[++i]);
      if (!s.ok()) {
        return Fail(s.ToString());
      }
      std::cerr << "snapshot written to " << args[i] << "\n";
    } else if (arg == "--demo") {
      graph.BulkLoad(data::LubmGenerator().Generate(20000));
      std::cerr << "loaded " << graph.size() << " generated triples\n";
      loaded = true;
    } else if (arg == "--stats") {
      show_stats = true;
    } else if (arg == "--metrics") {
      show_metrics = true;
    } else if (arg == "--slow-queries") {
      show_slow_queries = true;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--help") {
      std::cout << "usage: hexastore_cli (--load-nt FILE | "
                   "--load-snapshot FILE | --demo) [--save-snapshot FILE] "
                   "[--stats] [--metrics] [--slow-queries] [--json] "
                   "[QUERY]\n";
      return 0;
    } else {
      query = arg;
    }
  }

  if (!loaded) {
    return Fail("no data source; use --load-nt, --load-snapshot or --demo");
  }
  if (show_stats) {
    std::cout << graph.store().Stats().ToString();
    std::cout << "distinct subjects:   "
              << graph.store().DistinctSubjects() << "\n"
              << "distinct predicates: "
              << graph.store().DistinctPredicates() << "\n"
              << "distinct objects:    "
              << graph.store().DistinctObjects() << "\n";
    return 0;
  }
  if (show_metrics) {
    std::cout << graph.MetricsText();
    return 0;
  }
  if (!query.empty()) {
    RunQuery(graph, &session, query, json);
    if (show_slow_queries) {
      std::cout << FormatSlowQueries(sink.slow_queries());
    }
    return 0;
  }
  // Interactive: blank line or balanced braces execute the buffer.
  std::string line;
  std::string buffer;
  while (std::getline(std::cin, line)) {
    if (line == "quit" || line == "exit") {
      break;
    }
    buffer += line + "\n";
    auto opens = std::count(buffer.begin(), buffer.end(), '{');
    auto closes = std::count(buffer.begin(), buffer.end(), '}');
    if ((line.empty() || (opens > 0 && opens == closes)) &&
        buffer.find_first_not_of(" \t\n") != std::string::npos) {
      RunQuery(graph, &session, buffer, json);
      buffer.clear();
    }
  }
  if (show_slow_queries) {
    std::cout << FormatSlowQueries(sink.slow_queries());
  }
  return 0;
}
