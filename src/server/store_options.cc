#include "server/store_options.h"

#include <cstdlib>
#include <limits>
#include <string_view>

namespace hexastore {

namespace {

void Note(std::string* notes, std::string_view line) {
  if (notes == nullptr) {
    return;
  }
  if (!notes->empty()) {
    notes->push_back('\n');
  }
  notes->append(line);
}

// Env parsers: unset leaves `*out` untouched and returns true; set but
// unparsable leaves it untouched and returns false (caller notes it).
bool EnvSize(const char* name, std::size_t* out) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') {
    return true;
  }
  char* end = nullptr;
  const unsigned long long v = std::strtoull(env, &end, 10);
  if (end == env || *end != '\0') {
    return false;
  }
  *out = static_cast<std::size_t>(v);
  return true;
}

bool EnvU64(const char* name, std::uint64_t* out) {
  std::size_t v = 0;
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') {
    return true;
  }
  if (!EnvSize(name, &v)) {
    return false;
  }
  *out = v;
  return true;
}

bool EnvDouble(const char* name, double* out) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') {
    return true;
  }
  char* end = nullptr;
  const double v = std::strtod(env, &end);
  if (end == env || *end != '\0') {
    return false;
  }
  *out = v;
  return true;
}

bool EnvBool(const char* name, bool* out) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') {
    return true;
  }
  const std::string_view v(env);
  if (v == "1" || v == "true" || v == "on") {
    *out = true;
    return true;
  }
  if (v == "0" || v == "false" || v == "off") {
    *out = false;
    return true;
  }
  return false;
}

void EnvString(const char* name, std::string* out) {
  const char* env = std::getenv(name);
  if (env != nullptr && *env != '\0') {
    *out = env;
  }
}

}  // namespace

std::string ServerOptions::Normalize() {
  const ServerOptions defaults;
  // Clamp every field, not just the first bad one: a config with
  // several invalid knobs must still come out fully usable, and every
  // repair is reported, one per line.
  std::string notes;
  if (host.empty()) {
    host = defaults.host;
    Note(&notes, "server: empty host clamped to " + defaults.host);
  }
  if (threads == 0) {
    threads = defaults.threads;
    Note(&notes,
         "server: threads=0 clamped to " + std::to_string(defaults.threads));
  }
  if (queue_depth == 0) {
    queue_depth = defaults.queue_depth;
    Note(&notes, "server: queue_depth=0 clamped to " +
                     std::to_string(defaults.queue_depth));
  }
  if (plan_cache_capacity == 0) {
    plan_cache_capacity = defaults.plan_cache_capacity;
    Note(&notes, "server: plan_cache_capacity=0 clamped to " +
                     std::to_string(defaults.plan_cache_capacity));
  }
  if (!(plan_cache_q_error >= 1.0)) {  // also catches NaN
    plan_cache_q_error = defaults.plan_cache_q_error;
    Note(&notes,
         "server: plan_cache_q_error must be >= 1, clamped to default");
  }
  if (max_request_bytes < 1024) {
    max_request_bytes = 1024;
    Note(&notes, "server: max_request_bytes clamped up to 1024");
  }
  return notes;
}

std::string StoreOptions::Normalize() {
  std::string notes;
  for (const std::string& note :
       {ShardedOptions::Normalize(), server.Normalize()}) {
    if (!note.empty()) {
      Note(&notes, note);
    }
  }
  return notes;
}

StoreOptions StoreOptions::FromEnv(std::string* notes) {
  StoreOptions opts;

  if (!EnvSize("HEXA_COMPACT_THRESHOLD", &opts.delta.compact_threshold)) {
    Note(notes, "HEXA_COMPACT_THRESHOLD unparsable; keeping default");
  }
  if (!EnvBool("HEXA_BG_COMPACTION", &opts.delta.background_compaction)) {
    Note(notes, "HEXA_BG_COMPACTION unparsable; keeping default");
  }
  if (!EnvSize("HEXA_L0_RUN_LIMIT", &opts.delta.l0_run_limit)) {
    Note(notes, "HEXA_L0_RUN_LIMIT unparsable; keeping default");
  }
  if (!EnvDouble("HEXA_L1_BASE_FRACTION", &opts.delta.l1_base_fraction)) {
    Note(notes, "HEXA_L1_BASE_FRACTION unparsable; keeping default");
  }
  if (!EnvSize("HEXA_MEM_BUDGET", &opts.delta.memory_budget_bytes)) {
    Note(notes, "HEXA_MEM_BUDGET unparsable; keeping default");
  }
  if (!EnvSize("HEXA_FILTER_BITS", &opts.delta.filter_bits_per_key)) {
    Note(notes, "HEXA_FILTER_BITS unparsable; keeping default");
  }
  if (!EnvSize("HEXA_SHARDS", &opts.shards)) {
    Note(notes, "HEXA_SHARDS unparsable; keeping default");
  }

  // Durability.
  EnvString("HEXA_WAL_DIR", &opts.durability.dir);
  opts.durable = !opts.durability.dir.empty();
  const char* mode = std::getenv("HEXA_WAL_MODE");
  if (mode != nullptr && *mode != '\0') {
    const std::string_view m(mode);
    if (m == "none") {
      opts.durability.mode = DurabilityMode::kNone;
    } else if (m == "batched") {
      opts.durability.mode = DurabilityMode::kBatched;
    } else if (m == "per-commit" || m == "commit") {
      opts.durability.mode = DurabilityMode::kPerCommit;
    } else {
      Note(notes, "HEXA_WAL_MODE unparsable; keeping batched");
    }
  }
  if (!EnvSize("HEXA_WAL_SEGMENT_BYTES", &opts.durability.segment_bytes)) {
    Note(notes, "HEXA_WAL_SEGMENT_BYTES unparsable; keeping default");
  }
  if (!EnvSize("HEXA_WAL_BATCH_BYTES", &opts.durability.batch_bytes)) {
    Note(notes, "HEXA_WAL_BATCH_BYTES unparsable; keeping default");
  }
  if (!EnvBool("HEXA_BG_CHECKPOINTS",
               &opts.durability.background_checkpoints)) {
    Note(notes, "HEXA_BG_CHECKPOINTS unparsable; keeping default");
  }

  // Server.
  EnvString("HEXA_HOST", &opts.server.host);
  std::size_t port = opts.server.port;
  if (!EnvSize("HEXA_PORT", &port) ||
      port > std::numeric_limits<std::uint16_t>::max()) {
    Note(notes, "HEXA_PORT unparsable or out of range; keeping default");
  } else {
    opts.server.port = static_cast<std::uint16_t>(port);
  }
  if (!EnvSize("HEXA_SERVER_THREADS", &opts.server.threads)) {
    Note(notes, "HEXA_SERVER_THREADS unparsable; keeping default");
  }
  if (!EnvSize("HEXA_SERVER_QUEUE", &opts.server.queue_depth)) {
    Note(notes, "HEXA_SERVER_QUEUE unparsable; keeping default");
  }
  if (!EnvU64("HEXA_QUERY_DEADLINE_MS", &opts.server.query_deadline_ms)) {
    Note(notes, "HEXA_QUERY_DEADLINE_MS unparsable; keeping default");
  }
  if (!EnvSize("HEXA_PLAN_CACHE_CAP", &opts.server.plan_cache_capacity)) {
    Note(notes, "HEXA_PLAN_CACHE_CAP unparsable; keeping default");
  }
  if (!EnvDouble("HEXA_PLAN_CACHE_QERR", &opts.server.plan_cache_q_error)) {
    Note(notes, "HEXA_PLAN_CACHE_QERR unparsable; keeping default");
  }
  if (!EnvSize("HEXA_MAX_REQUEST_BYTES", &opts.server.max_request_bytes)) {
    Note(notes, "HEXA_MAX_REQUEST_BYTES unparsable; keeping default");
  }

  const std::string repaired = opts.Normalize();
  if (!repaired.empty()) {
    Note(notes, repaired);
  }
  // `durability` alone is then a complete durable-store configuration
  // (DurableDeltaHexastore::Open); the facade sets each shard's own.
  opts.durability.delta = opts.delta;
  return opts;
}

}  // namespace hexastore
