#include "server/server.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <optional>
#include <utility>

#include "query/result_json.h"
#include "rdf/ntriples.h"

namespace hexastore {

namespace {

void SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) {
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  }
}

HttpResponse TextResponse(int status, std::string body) {
  HttpResponse resp;
  resp.status = status;
  resp.body = std::move(body);
  return resp;
}

}  // namespace

Server::Server(ShardedHexastore& store, Dictionary& dict,
               const ServerOptions& options)
    : store_(&store),
      dict_(&dict),
      options_(options),
      plan_cache_(PlanCacheOptions{options.plan_cache_capacity,
                                   options.plan_cache_q_error}) {
  options_.Normalize();
  RegisterInstruments();
}

void Server::RegisterInstruments() {
  obs::MetricsRegistry& registry = store_->metrics_registry();
  sink_.RegisterWith(&registry);
  plan_cache_.RegisterWith(&registry);
  registry.RegisterCounter("hexa_server_requests",
                           "HTTP requests served", &requests_total_);
  registry.RegisterCounter(
      "hexa_server_rejected",
      "Requests shed with 503 by admission control", &rejected_total_);
  registry.RegisterCounter("hexa_server_deadline_exceeded",
                           "Queries answered 504 past their deadline",
                           &deadline_total_);
  registry.RegisterCounter("hexa_server_bad_requests",
                           "Malformed or oversized requests",
                           &bad_request_total_);
  registry.RegisterCounter("hexa_server_inserts",
                           "Triples inserted via /insert", &inserts_total_);
  registry.RegisterCounter("hexa_server_erases",
                           "Triples erased via /erase", &erases_total_);
  registry.RegisterHistogram("hexa_server_request_latency_ns",
                             "End-to-end request handling latency",
                             &request_ns_);
}

Server::~Server() { Stop(); }

Status Server::Start() {
  if (started_) {
    return Status::AlreadyExists("server already started");
  }
  auto listen = ListenTcp(options_.host, options_.port);
  if (!listen.ok()) {
    return listen.status();
  }
  listen_fd_ = listen.value();
  port_ = BoundPort(listen_fd_);
  if (::pipe(wake_pipe_) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::Internal("pipe() failed");
  }
  SetNonBlocking(listen_fd_);
  SetNonBlocking(wake_pipe_[0]);
  // Publish the current generation so wait-free read handles see
  // everything loaded before Start() (AcquireReadHandle only sees
  // published state; see the freshness note on the write handlers).
  store_->Publish();
  stop_.store(false, std::memory_order_relaxed);
  started_ = true;
  poller_ = std::thread([this] { PollerLoop(); });
  workers_.reserve(options_.threads);
  for (std::size_t i = 0; i < options_.threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  return Status::OK();
}

void Server::Stop() {
  if (!started_) {
    return;
  }
  stop_.store(true, std::memory_order_relaxed);
  WakePoller();
  poller_.join();
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      ready_queue_.push_back(-1);
    }
  }
  queue_cv_.notify_all();
  for (std::thread& w : workers_) {
    w.join();
  }
  workers_.clear();
  // Anything still queued or in flight back to the poller gets closed.
  for (int fd : ready_queue_) {
    if (fd >= 0) {
      ::close(fd);
    }
  }
  ready_queue_.clear();
  for (int fd : returned_) {
    ::close(fd);
  }
  returned_.clear();
  ::close(wake_pipe_[0]);
  ::close(wake_pipe_[1]);
  wake_pipe_[0] = wake_pipe_[1] = -1;
  started_ = false;
}

void Server::WakePoller() {
  const char byte = 1;
  [[maybe_unused]] ssize_t n = ::write(wake_pipe_[1], &byte, 1);
}

void Server::EnqueueOrReject(int fd) {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    if (ready_queue_.size() < options_.queue_depth) {
      ready_queue_.push_back(fd);
      queue_cv_.notify_one();
      return;
    }
  }
  // Admission control: shed at the door. The client gets an immediate
  // 503 instead of unbounded queueing.
  rejected_total_.Add();
  WriteHttpResponse(fd, TextResponse(503, "server overloaded\n"), false);
  ::close(fd);
}

void Server::ReturnConnection(int fd) {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    returned_.push_back(fd);
  }
  WakePoller();
}

void Server::PollerLoop() {
  std::vector<int> idle;  // keep-alive connections with no bytes pending
  std::vector<pollfd> fds;
  while (true) {
    fds.clear();
    fds.push_back(pollfd{wake_pipe_[0], POLLIN, 0});
    fds.push_back(pollfd{listen_fd_, POLLIN, 0});
    for (int fd : idle) {
      fds.push_back(pollfd{fd, POLLIN, 0});
    }
    if (::poll(fds.data(), fds.size(), -1) < 0) {
      if (errno == EINTR) {
        continue;
      }
      break;
    }
    if (stop_.load(std::memory_order_relaxed)) {
      break;
    }
    if ((fds[0].revents & POLLIN) != 0) {
      char drain[64];
      while (::read(wake_pipe_[0], drain, sizeof(drain)) > 0) {
      }
      std::lock_guard<std::mutex> lock(queue_mu_);
      for (int fd : returned_) {
        idle.push_back(fd);
      }
      returned_.clear();
    }
    if ((fds[1].revents & POLLIN) != 0) {
      while (true) {
        const int conn = ::accept(listen_fd_, nullptr, nullptr);
        if (conn < 0) {
          break;  // EAGAIN (or transient error): nothing more pending
        }
        // Responses go out in one send(); disable Nagle so that single
        // segment is never held back waiting for an ACK.
        const int one = 1;
        ::setsockopt(conn, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        idle.push_back(conn);
      }
    }
    // Walk idle connections back-to-front so removal is O(1).
    for (std::size_t i = fds.size(); i-- > 2;) {
      if (fds[i].revents == 0) {
        continue;
      }
      const int fd = fds[i].fd;
      idle.erase(idle.begin() + static_cast<std::ptrdiff_t>(i - 2));
      // Readable (or hung up — the worker's read sorts that out): hand
      // to the pool under the admission bound.
      EnqueueOrReject(fd);
    }
  }
  for (int fd : idle) {
    ::close(fd);
  }
  ::close(listen_fd_);
  listen_fd_ = -1;
}

void Server::WorkerLoop() {
  query::SessionOptions sopts;
  sopts.pin = query::PinPolicy::kWaitFree;
  sopts.sink = &sink_;
  sopts.plan_cache = &plan_cache_;
  sopts.deadline_ns = options_.query_deadline_ms * 1000000ull;
  query::Session session(*store_, *dict_, sopts);
  while (true) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] { return !ready_queue_.empty(); });
      fd = ready_queue_.front();
      ready_queue_.pop_front();
    }
    if (fd < 0) {
      break;
    }
    HttpRequest request;
    const ReadOutcome outcome =
        ReadHttpRequest(fd, options_.max_request_bytes, &request);
    if (outcome == ReadOutcome::kClosed) {
      ::close(fd);
      continue;
    }
    if (outcome != ReadOutcome::kOk) {
      bad_request_total_.Add();
      const int status = outcome == ReadOutcome::kTooLarge ? 413 : 400;
      WriteHttpResponse(fd, TextResponse(status, "bad request\n"), false);
      ::close(fd);
      continue;
    }
    const std::uint64_t start = obs::NowNanos();
    const HttpResponse response = Handle(request, &session);
    request_ns_.Record(obs::NowNanos() - start);
    const bool wrote = WriteHttpResponse(fd, response, request.keep_alive);
    if (!wrote || !request.keep_alive ||
        stop_.load(std::memory_order_relaxed)) {
      ::close(fd);
    } else {
      ReturnConnection(fd);
    }
  }
}

HttpResponse Server::Handle(const HttpRequest& request,
                            query::Session* session) {
  requests_total_.Add();
  if (request.path == "/query") {
    return HandleQuery(request, session);
  }
  if (request.path == "/explain") {
    return HandleExplain(request, session);
  }
  if (request.path == "/metrics") {
    HttpResponse resp;
    resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
    resp.body = store_->MetricsText();
    return resp;
  }
  if (request.path == "/metrics.json") {
    HttpResponse resp;
    resp.content_type = "application/json";
    resp.body = store_->MetricsJson();
    return resp;
  }
  if (request.path == "/healthz") {
    if (const Status wal = store_->status(); !wal.ok()) {
      return TextResponse(500, wal.ToString() + "\n");
    }
    HttpResponse resp;
    resp.content_type = "application/sparql-results+json";
    resp.body = BooleanResultToJson(true);
    return resp;
  }
  if (request.path == "/insert") {
    return HandleInsert(request);
  }
  if (request.path == "/erase") {
    return HandleErase(request);
  }
  return TextResponse(404, "no such endpoint\n");
}

HttpResponse Server::HandleQuery(const HttpRequest& request,
                                 query::Session* session) {
  const std::string* q = request.Param("q");
  if (q == nullptr) {
    q = request.Param("query");
  }
  std::string_view text;
  if (q != nullptr) {
    text = *q;
  } else if (request.method == "POST" && !request.body.empty()) {
    text = request.body;
  } else {
    bad_request_total_.Add();
    return TextResponse(400, "missing query (q parameter or POST body)\n");
  }
  // Reader side of the dictionary lock for the whole query, rendering
  // included: evaluation and JSON both resolve term references that a
  // concurrent intern could invalidate.
  std::shared_lock<std::shared_mutex> read_lock(dict_mu_);
  auto result = session->Query(text);
  if (!result.ok()) {
    const StatusCode code = result.status().code();
    if (code == StatusCode::kDeadlineExceeded) {
      deadline_total_.Add();
      return TextResponse(504, result.status().ToString() + "\n");
    }
    if (code == StatusCode::kParseError ||
        code == StatusCode::kInvalidArgument) {
      bad_request_total_.Add();
      return TextResponse(400, result.status().ToString() + "\n");
    }
    return TextResponse(500, result.status().ToString() + "\n");
  }
  HttpResponse resp;
  resp.content_type = "application/sparql-results+json";
  resp.body = ResultSetToJson(result.value().set, *dict_);
  return resp;
}

HttpResponse Server::HandleExplain(const HttpRequest& request,
                                   query::Session* session) {
  const std::string* q = request.Param("q");
  if (q == nullptr) {
    q = request.Param("query");
  }
  if (q == nullptr) {
    bad_request_total_.Add();
    return TextResponse(400, "missing query (q parameter)\n");
  }
  const std::string* analyze = request.Param("analyze");
  const bool run = analyze != nullptr && *analyze == "1";
  std::shared_lock<std::shared_mutex> read_lock(dict_mu_);
  auto rendered = run ? session->ExplainAnalyze(*q) : session->Explain(*q);
  if (!rendered.ok()) {
    bad_request_total_.Add();
    return TextResponse(400, rendered.status().ToString() + "\n");
  }
  return TextResponse(200, rendered.value());
}

HttpResponse Server::HandleInsert(const HttpRequest& request) {
  if (request.method != "POST") {
    return TextResponse(405, "POST an N-Triples body\n");
  }
  auto parsed = ParseNTriplesDocument(request.body, /*strict=*/true);
  if (!parsed.ok()) {
    bad_request_total_.Add();
    return TextResponse(400, parsed.status().ToString() + "\n");
  }
  std::size_t inserted = 0;
  for (const Triple& triple : parsed.value()) {
    IdTriple ids;
    {
      // Writer side only around interning; the store's own mutex
      // serializes the insert itself.
      std::unique_lock<std::shared_mutex> write_lock(dict_mu_);
      ids = dict_->Encode(triple);
    }
    if (store_->Insert(ids)) {
      ++inserted;
    }
  }
  inserts_total_.Add(inserted);
  if (inserted > 0) {
    // Publish once per write batch: wait-free query handles only see
    // published generations, so the writer pays the (cheap, dirty-
    // gated) publication and keeps reader staleness bounded by one
    // in-flight batch instead of one compaction threshold.
    store_->Publish();
  }
  HttpResponse resp;
  resp.content_type = "application/json";
  resp.body = "{\"inserted\":" + std::to_string(inserted) + "}";
  return resp;
}

HttpResponse Server::HandleErase(const HttpRequest& request) {
  if (request.method != "POST") {
    return TextResponse(405, "POST an N-Triples body\n");
  }
  auto parsed = ParseNTriplesDocument(request.body, /*strict=*/true);
  if (!parsed.ok()) {
    bad_request_total_.Add();
    return TextResponse(400, parsed.status().ToString() + "\n");
  }
  std::size_t erased = 0;
  for (const Triple& triple : parsed.value()) {
    std::optional<IdTriple> ids;
    {
      std::shared_lock<std::shared_mutex> read_lock(dict_mu_);
      ids = dict_->TryEncode(triple);
    }
    if (ids.has_value() && store_->Erase(*ids)) {
      ++erased;
    }
  }
  erases_total_.Add(erased);
  if (erased > 0) {
    store_->Publish();  // publish (see HandleInsert)
  }
  HttpResponse resp;
  resp.content_type = "application/json";
  resp.body = "{\"erased\":" + std::to_string(erased) + "}";
  return resp;
}

}  // namespace hexastore
