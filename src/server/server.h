// The concurrent SPARQL HTTP server over one ShardedHexastore: a fixed
// worker pool where every query runs through its own query::Session
// against one wait-free pinned generation (per shard), fronted by a
// poller thread that multiplexes keep-alive connections and applies
// admission control.
//
// Threading model (docs/server.md has the full picture):
//
//   poller ──readable conn──▶ bounded queue ──▶ worker[0..N) ──▶ Session
//     ▲                            │503 on overflow
//     └──────keep-alive return─────┘
//
//  - One poller thread owns accept() and poll()s idle keep-alive
//    connections; a connection is handed to the queue only when bytes
//    are waiting, so workers never block on idle sockets.
//  - Admission control: the ready queue is bounded at
//    ServerOptions::queue_depth. On overflow the poller answers 503
//    immediately and closes — load sheds at the door instead of
//    building an invisible backlog.
//  - Each worker thread owns one Session (wait-free pin per query, the
//    shared PlanCache, the shared ProfileSink, the configured
//    deadline). A deadline overrun answers 504.
//  - Writers (/insert, /erase) go through the live store — each shard's
//    own mutex serializes them — and intern dictionary terms under a writer
//    lock; queries hold the reader side for their whole execution
//    (including result rendering) because Dictionary is not internally
//    synchronized.
//
// Endpoints:
//   GET/POST /query?q=...      W3C SPARQL JSON results
//   GET      /explain?q=...    EXPLAIN (&analyze=1 for EXPLAIN ANALYZE)
//   GET      /metrics          Prometheus text (whole-store registry)
//   GET      /metrics.json     JSON export (schema v2)
//   GET      /healthz          boolean-results JSON; 500 on sticky WAL error
//   POST     /insert           N-Triples body, staged via the write store
//   POST     /erase            N-Triples body
#ifndef HEXASTORE_SERVER_SERVER_H_
#define HEXASTORE_SERVER_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "dict/dictionary.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "query/plan_cache.h"
#include "query/profile.h"
#include "query/session.h"
#include "server/http.h"
#include "server/store_options.h"
#include "shard/sharded_hexastore.h"

namespace hexastore {

/// The HTTP front end over one ShardedHexastore (in-memory or durable,
/// one shard or more). Construct, Start(), eventually Stop(). Writes
/// route to the owning shard, each query pins one generation per shard,
/// and the facade's primary registry (shard 0's) serves /metrics. The
/// store, dictionary and options are borrowed and must outlive the
/// server; the server registers its instruments into the store's
/// MetricsRegistry, so destroy the server only after the registry's
/// last render (in practice: the server outlives every /metrics request
/// by construction, and embedders stop rendering before tearing down).
class Server {
 public:
  Server(ShardedHexastore& store, Dictionary& dict,
         const ServerOptions& options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds host:port and spawns the poller and worker threads. With
  /// port 0 the kernel assigns one — read it back via port().
  Status Start();
  /// Drains and joins everything; idempotent.
  void Stop();

  /// The bound listen port (valid after Start()).
  std::uint16_t port() const { return port_; }
  const PlanCache& plan_cache() const { return plan_cache_; }
  const ProfileSink& sink() const { return sink_; }

  /// Serves one request (the worker body, public for tests: drive the
  /// routing logic without sockets). `session` must belong to the
  /// calling thread.
  HttpResponse Handle(const HttpRequest& request, query::Session* session);

 private:
  void PollerLoop();
  void WorkerLoop();
  /// Queue a readable connection or shed it with 503.
  void EnqueueOrReject(int fd);
  void ReturnConnection(int fd);
  void WakePoller();

  HttpResponse HandleQuery(const HttpRequest& request,
                           query::Session* session);
  HttpResponse HandleExplain(const HttpRequest& request,
                             query::Session* session);
  HttpResponse HandleInsert(const HttpRequest& request);
  HttpResponse HandleErase(const HttpRequest& request);

  // Registers the hexa_server_* instruments, the sink and the plan
  // cache with the store's registry.
  void RegisterInstruments();

  ShardedHexastore* store_;
  Dictionary* dict_;
  ServerOptions options_;

  // Shared query machinery (thread-safe; one per server, all workers).
  ProfileSink sink_;
  PlanCache plan_cache_;
  mutable std::shared_mutex dict_mu_;

  // Server instruments (registered into the store's registry).
  obs::Counter requests_total_;
  obs::Counter rejected_total_;   ///< 503s (admission overflow)
  obs::Counter deadline_total_;   ///< 504s
  obs::Counter bad_request_total_;
  obs::Counter inserts_total_;
  obs::Counter erases_total_;
  obs::LatencyHistogram request_ns_{0};

  // Connection plumbing.
  int listen_fd_ = -1;
  int wake_pipe_[2] = {-1, -1};
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  bool started_ = false;

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<int> ready_queue_;  // -1 = worker shutdown sentinel
  std::vector<int> returned_;    // keep-alive conns headed back to poll

  std::thread poller_;
  std::vector<std::thread> workers_;
};

}  // namespace hexastore

#endif  // HEXASTORE_SERVER_SERVER_H_
