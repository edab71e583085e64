// Closed-loop multi-client driver for hexastore_server: N concurrent
// HTTP clients (readers cycling SPARQL templates, one writer staging
// N-Triples churn) against either an in-process Server or an external
// one, reporting throughput, tail latency and plan-cache behaviour.
//
// Two modes:
//   - HEXA_SERVER_ADDR=host:port  drive an already-running server (the
//     CI smoke job starts hexastore_server and points this at it).
//   - unset                       start an in-process Server over a
//     generated LUBM store (a 1-shard ShardedHexastore, as
//     hexastore_server serves by default) on an ephemeral loopback
//     port.
//
// Every response is oracle-checked, not just timed:
//   - Stable templates touch predicates the writer never mutates; their
//     W3C JSON bodies must be byte-identical across the whole run.
//   - The hot template counts rows over the writer's insert-only
//     predicate; each client issues requests sequentially and published
//     generations are monotone, so its observed row counts must be
//     non-decreasing.
//   - In in-process mode the run additionally requires plan-cache
//     hit rate > 0.9 and, when the writer ran, invalidations > 0
//     (estimate drift on the hot predicate must cross the q-error
//     threshold eventually).
//
// Environment knobs:
//   HEXA_SERVER_ADDR    host:port of an external server (else in-process)
//   HEXA_BENCH_CLIENTS  total concurrent clients       (default 8)
//   HEXA_BENCH_SECONDS  measured wall time             (default 5)
//   HEXA_BENCH_TRIPLES  in-process LUBM preload size   (default 20000)
//   HEXA_BENCH_READONLY set to 1 to disable the writer client
//
// Exits nonzero on any oracle violation or HTTP-level wrong answer.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "data/lubm_generator.h"
#include "dict/dictionary.h"
#include "server/server.h"
#include "server/store_options.h"

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t EnvU64(const char* name, std::uint64_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') {
    return fallback;
  }
  char* end = nullptr;
  unsigned long long v = std::strtoull(raw, &end, 10);
  return (end != nullptr && *end == '\0') ? v : fallback;
}

// ---------------------------------------------------------------------
// Minimal blocking HTTP/1.1 client with keep-alive and reconnect.
class HttpClient {
 public:
  HttpClient(std::string host, std::uint16_t port)
      : host_(std::move(host)), port_(port) {}
  ~HttpClient() { Close(); }

  /// One request/response round trip. Returns the HTTP status code, or
  /// -1 on a transport error (the connection is reset for retry).
  int Request(const char* method, const std::string& target,
              const std::string& body, std::string* response_body) {
    if (fd_ < 0 && !Connect()) {
      return -1;
    }
    std::string req;
    req.reserve(128 + target.size() + body.size());
    req.append(method).append(" ").append(target).append(" HTTP/1.1\r\n");
    req.append("Host: ").append(host_).append("\r\n");
    req.append("Content-Length: ")
        .append(std::to_string(body.size()))
        .append("\r\n\r\n");
    req.append(body);
    if (!WriteAll(req)) {
      Close();
      return -1;
    }
    return ReadResponse(response_body);
  }

 private:
  bool Connect() {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) {
      return false;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port_);
    if (::inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1 ||
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
            0) {
      Close();
      return false;
    }
    return true;
  }

  void Close() {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
  }

  bool WriteAll(const std::string& data) {
    std::size_t sent = 0;
    while (sent < data.size()) {
      ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent,
                         MSG_NOSIGNAL);
      if (n <= 0) {
        return false;
      }
      sent += static_cast<std::size_t>(n);
    }
    return true;
  }

  int ReadResponse(std::string* body) {
    std::string buf;
    char chunk[4096];
    std::size_t header_end = std::string::npos;
    while (header_end == std::string::npos) {
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) {
        Close();
        return -1;
      }
      buf.append(chunk, static_cast<std::size_t>(n));
      header_end = buf.find("\r\n\r\n");
    }
    // Status line: "HTTP/1.1 200 OK".
    int status = -1;
    if (std::size_t sp = buf.find(' '); sp != std::string::npos) {
      status = std::atoi(buf.c_str() + sp + 1);
    }
    std::size_t content_length = 0;
    {
      // Case-insensitive Content-Length scan within the header block.
      std::string lower = buf.substr(0, header_end);
      std::transform(lower.begin(), lower.end(), lower.begin(),
                     [](unsigned char c) { return std::tolower(c); });
      std::size_t pos = lower.find("content-length:");
      if (pos != std::string::npos) {
        content_length = std::strtoull(lower.c_str() + pos + 15, nullptr, 10);
      }
      bool close_conn = lower.find("connection: close") != std::string::npos;
      if (close_conn) {
        pending_close_ = true;
      }
    }
    std::size_t body_start = header_end + 4;
    while (buf.size() - body_start < content_length) {
      ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) {
        Close();
        return -1;
      }
      buf.append(chunk, static_cast<std::size_t>(n));
    }
    if (body != nullptr) {
      body->assign(buf, body_start, content_length);
    }
    if (pending_close_) {
      Close();
      pending_close_ = false;
    }
    return status;
  }

  std::string host_;
  std::uint16_t port_;
  int fd_ = -1;
  bool pending_close_ = false;
};

// ---------------------------------------------------------------------
// Workload definition.

constexpr const char* kLubmPrefix =
    "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#> ";

// Templates over predicates the writer never touches: responses must be
// byte-identical for the whole run.
const char* kStableTemplates[] = {
    "SELECT ?s ?dept WHERE { ?s ub:worksFor ?dept } LIMIT 20",
    "SELECT DISTINCT ?prof WHERE { ?s ub:advisor ?prof . "
    "?prof ub:worksFor ?dept } ORDER BY ?prof LIMIT 10",
    "SELECT ?x ?n WHERE { ?x ub:name ?n } LIMIT 20",
    "SELECT ?s WHERE { ?s ub:type ?c . ?s ub:emailAddress ?e } LIMIT 10",
};
constexpr std::size_t kNumStable =
    sizeof(kStableTemplates) / sizeof(kStableTemplates[0]);

// The hot template: counts rows over the writer's insert-only
// predicate. Row counts per client must be non-decreasing.
constexpr const char* kHotQuery =
    "SELECT ?s WHERE { ?s <http://bench.example.org/hot> ?o }";

struct SharedState {
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> ok{0};
  std::atomic<std::uint64_t> errors{0};
  std::atomic<std::uint64_t> oracle_failures{0};
  std::mutex mu;
  std::string expected[kNumStable];  // first-seen stable response bodies
  std::vector<std::uint64_t> read_ns;
  std::vector<std::uint64_t> write_ns;
};

std::size_t CountRows(const std::string& body) {
  // One binding object per row; each row of the hot template binds ?s.
  std::size_t count = 0;
  std::size_t pos = 0;
  while ((pos = body.find("{\"s\":", pos)) != std::string::npos) {
    ++count;
    pos += 5;
  }
  return count;
}

void ReaderLoop(const std::string& host, std::uint16_t port, std::size_t id,
                SharedState* state) {
  HttpClient client(host, port);
  std::vector<std::uint64_t> latencies;
  latencies.reserve(1 << 14);
  std::size_t last_hot_rows = 0;
  std::uint64_t iteration = 0;
  while (!state->stop.load(std::memory_order_relaxed)) {
    // 1 request in 8 polls the hot template; the rest cycle the stable
    // set (offset by client id so clients are not in lockstep).
    const bool hot = (iteration % 8) == 7;
    const std::size_t tmpl = (iteration + id) % kNumStable;
    std::string query =
        hot ? std::string(kHotQuery)
            : std::string(kLubmPrefix) + kStableTemplates[tmpl];
    std::string body;
    auto start = Clock::now();
    int status = client.Request("POST", "/query", query, &body);
    auto elapsed = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       Clock::now() - start)
                       .count();
    ++iteration;
    if (status != 200) {
      state->errors.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    latencies.push_back(static_cast<std::uint64_t>(elapsed));
    state->ok.fetch_add(1, std::memory_order_relaxed);
    if (hot) {
      std::size_t rows = CountRows(body);
      if (rows < last_hot_rows) {
        std::fprintf(stderr,
                     "abl_server: ORACLE FAILURE: client %zu saw hot rows "
                     "shrink %zu -> %zu\n",
                     id, last_hot_rows, rows);
        state->oracle_failures.fetch_add(1, std::memory_order_relaxed);
      }
      last_hot_rows = rows;
    } else {
      std::lock_guard<std::mutex> lock(state->mu);
      if (state->expected[tmpl].empty()) {
        state->expected[tmpl] = body;
      } else if (state->expected[tmpl] != body) {
        std::fprintf(stderr,
                     "abl_server: ORACLE FAILURE: stable template %zu "
                     "response changed (%zu vs %zu bytes)\n",
                     tmpl, state->expected[tmpl].size(), body.size());
        state->oracle_failures.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  std::lock_guard<std::mutex> lock(state->mu);
  state->read_ns.insert(state->read_ns.end(), latencies.begin(),
                        latencies.end());
}

void WriterLoop(const std::string& host, std::uint16_t port,
                SharedState* state) {
  HttpClient client(host, port);
  std::vector<std::uint64_t> latencies;
  std::uint64_t next_id = 0;
  std::uint64_t batch = 0;
  while (!state->stop.load(std::memory_order_relaxed)) {
    // Insert a batch on the hot predicate (never erased: the hot oracle
    // relies on monotone growth), plus churn triples that the next
    // batch erases again to keep staged-op counts moving.
    std::string triples;
    for (int i = 0; i < 16; ++i) {
      triples += "<http://bench.example.org/subj" + std::to_string(next_id) +
                 "> <http://bench.example.org/hot> "
                 "<http://bench.example.org/obj> .\n";
      ++next_id;
    }
    std::string churn = "<http://bench.example.org/churn" +
                        std::to_string(batch % 4) +
                        "> <http://bench.example.org/cold> "
                        "<http://bench.example.org/obj> .\n";
    auto start = Clock::now();
    int status = client.Request("POST", "/insert", triples + churn, nullptr);
    auto elapsed = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       Clock::now() - start)
                       .count();
    if (status == 200) {
      latencies.push_back(static_cast<std::uint64_t>(elapsed));
      state->ok.fetch_add(1, std::memory_order_relaxed);
    } else {
      state->errors.fetch_add(1, std::memory_order_relaxed);
    }
    if (batch % 2 == 1) {
      int erased = client.Request("POST", "/erase", churn, nullptr);
      if (erased == 200) {
        state->ok.fetch_add(1, std::memory_order_relaxed);
      } else {
        state->errors.fetch_add(1, std::memory_order_relaxed);
      }
    }
    ++batch;
    // Closed loop but paced: the writer should create churn, not
    // monopolize the store's writer mutex.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  std::lock_guard<std::mutex> lock(state->mu);
  state->write_ns.insert(state->write_ns.end(), latencies.begin(),
                         latencies.end());
}

double PercentileUs(std::vector<std::uint64_t>& sorted, double p) {
  if (sorted.empty()) {
    return 0.0;
  }
  std::size_t idx = static_cast<std::size_t>(
      (p / 100.0) * static_cast<double>(sorted.size() - 1) + 0.5);
  return static_cast<double>(sorted[std::min(idx, sorted.size() - 1)]) / 1e3;
}

}  // namespace

int main() {
  const std::size_t clients =
      std::max<std::size_t>(1, EnvU64("HEXA_BENCH_CLIENTS", 8));
  const double seconds =
      static_cast<double>(EnvU64("HEXA_BENCH_SECONDS", 5));
  const std::size_t preload = EnvU64("HEXA_BENCH_TRIPLES", 20000);
  const bool read_only = EnvU64("HEXA_BENCH_READONLY", 0) != 0;

  // Resolve the target: external server or in-process.
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::unique_ptr<hexastore::Dictionary> dict;
  std::unique_ptr<hexastore::ShardedHexastore> store;
  std::unique_ptr<hexastore::Server> server;
  const char* addr = std::getenv("HEXA_SERVER_ADDR");
  if (addr != nullptr && *addr != '\0') {
    std::string spec(addr);
    std::size_t colon = spec.rfind(':');
    if (colon == std::string::npos) {
      std::fprintf(stderr, "abl_server: HEXA_SERVER_ADDR must be host:port\n");
      return 2;
    }
    host = spec.substr(0, colon);
    port = static_cast<std::uint16_t>(std::atoi(spec.c_str() + colon + 1));
  } else {
    dict = std::make_unique<hexastore::Dictionary>();
    store = std::make_unique<hexastore::ShardedHexastore>(
        hexastore::ShardedOptions{});
    hexastore::IdTripleVec ids;
    for (const hexastore::Triple& t :
         hexastore::data::LubmGenerator().Generate(preload)) {
      ids.push_back(dict->Encode(t));
    }
    store->BulkLoad(ids);
    hexastore::ServerOptions options;
    options.port = 0;  // ephemeral
    server = std::make_unique<hexastore::Server>(*store, *dict, options);
    hexastore::Status started = server->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "abl_server: %s\n", started.ToString().c_str());
      return 2;
    }
    port = server->port();
  }

  const std::size_t writers = (read_only || clients < 2) ? 0 : 1;
  const std::size_t readers = clients - writers;
  std::fprintf(stderr,
               "abl_server: %zu clients (%zu readers, %zu writers), "
               "%.0f s against %s:%u%s\n",
               clients, readers, writers, seconds, host.c_str(), port,
               server != nullptr ? " (in-process)" : "");

  SharedState state;
  std::vector<std::thread> threads;
  threads.reserve(clients);
  auto bench_start = Clock::now();
  for (std::size_t i = 0; i < readers; ++i) {
    threads.emplace_back(ReaderLoop, host, port, i, &state);
  }
  for (std::size_t i = 0; i < writers; ++i) {
    threads.emplace_back(WriterLoop, host, port, &state);
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  state.stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads) {
    t.join();
  }
  double wall = std::chrono::duration<double>(Clock::now() - bench_start)
                    .count();

  std::sort(state.read_ns.begin(), state.read_ns.end());
  std::sort(state.write_ns.begin(), state.write_ns.end());
  const std::uint64_t ok = state.ok.load();
  const std::uint64_t errors = state.errors.load();
  std::printf("requests: %llu ok, %llu errors  (%.1f req/s)\n",
              static_cast<unsigned long long>(ok),
              static_cast<unsigned long long>(errors),
              static_cast<double>(ok) / wall);
  std::printf("read  latency: p50=%.1fus p99=%.1fus p99.9=%.1fus (n=%zu)\n",
              PercentileUs(state.read_ns, 50), PercentileUs(state.read_ns, 99),
              PercentileUs(state.read_ns, 99.9), state.read_ns.size());
  if (!state.write_ns.empty()) {
    std::printf("write latency: p50=%.1fus p99=%.1fus p99.9=%.1fus (n=%zu)\n",
                PercentileUs(state.write_ns, 50),
                PercentileUs(state.write_ns, 99),
                PercentileUs(state.write_ns, 99.9), state.write_ns.size());
  }

  bool pass = state.oracle_failures.load() == 0 && errors == 0 && ok > 0;
  if (server != nullptr) {
    // In-process: read the plan-cache counters directly and enforce the
    // acceptance thresholds.
    const hexastore::PlanCache& cache = server->plan_cache();
    const std::uint64_t hits = cache.hits();
    const std::uint64_t misses = cache.misses();
    const std::uint64_t invalidations = cache.invalidations();
    const double hit_rate =
        hits + misses > 0
            ? static_cast<double>(hits) / static_cast<double>(hits + misses)
            : 0.0;
    std::printf(
        "plan cache: hits=%llu misses=%llu invalidations=%llu "
        "hit_rate=%.3f\n",
        static_cast<unsigned long long>(hits),
        static_cast<unsigned long long>(misses),
        static_cast<unsigned long long>(invalidations), hit_rate);
    if (hit_rate <= 0.9) {
      std::fprintf(stderr, "abl_server: FAIL: plan-cache hit rate <= 0.9\n");
      pass = false;
    }
    if (writers > 0 && invalidations == 0) {
      std::fprintf(stderr,
                   "abl_server: FAIL: no plan-cache invalidations under "
                   "churn\n");
      pass = false;
    }
    server->Stop();
  } else {
    // External server: surface its plan-cache exposition for the CI log;
    // threshold enforcement happens in scripts/check_metrics_json.py.
    HttpClient metrics_client(host, port);
    std::string metrics;
    if (metrics_client.Request("GET", "/metrics", "", &metrics) == 200) {
      std::size_t pos = 0;
      while ((pos = metrics.find("hexa_plan_cache_", pos)) !=
             std::string::npos) {
        std::size_t eol = metrics.find('\n', pos);
        std::printf("%s\n",
                    metrics.substr(pos, eol - pos).c_str());
        pos = eol == std::string::npos ? metrics.size() : eol + 1;
      }
    }
  }

  std::printf("oracle: %s (%zu stable templates, hot-row monotonicity, "
              "%llu failures)\n",
              pass ? "PASS" : "FAIL", kNumStable,
              static_cast<unsigned long long>(state.oracle_failures.load()));
  return pass ? 0 : 1;
}
