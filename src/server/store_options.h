// One place for every HEXA_* runtime knob.
//
// StoreOptions is what a deployment configures: the ShardedOptions of
// the one store hexastore_server serves (a ShardedHexastore facade over
// `shards` >= 1 DeltaHexastores, durable in durability.dir when
// HEXA_WAL_DIR is set) plus the ServerOptions of the HTTP front end.
// FromEnv() is the single documented reader of the environment,
// extending the Normalize() validation pattern: invalid values never
// abort, they are repaired in place and the repair is reported so
// operators see exactly what the process actually runs with.
//
// Environment variables (unset keeps the compiled default):
//
//   store                                  field
//   HEXA_COMPACT_THRESHOLD    <ops>        delta.compact_threshold
//   HEXA_BG_COMPACTION        0|1          delta.background_compaction
//   HEXA_L0_RUN_LIMIT         <runs>       delta.l0_run_limit
//   HEXA_L1_BASE_FRACTION     <float>      delta.l1_base_fraction
//   HEXA_MEM_BUDGET           <bytes>      delta.memory_budget_bytes
//   HEXA_FILTER_BITS          <bits>       delta.filter_bits_per_key
//   HEXA_SHARDS               <n>          shards (>= 1; 0 is repaired)
//
//   durability (HEXA_WAL_DIR set => durable = true)
//   HEXA_WAL_DIR              <path>       durability.dir
//   HEXA_WAL_MODE             none|batched|per-commit   durability.mode
//   HEXA_WAL_SEGMENT_BYTES    <bytes>      durability.segment_bytes
//   HEXA_WAL_BATCH_BYTES      <bytes>      durability.batch_bytes
//   HEXA_BG_CHECKPOINTS       0|1          durability.background_checkpoints
//
//   server
//   HEXA_HOST                 <addr>       server.host
//   HEXA_PORT                 <port>       server.port
//   HEXA_SERVER_THREADS       <n>          server.threads
//   HEXA_SERVER_QUEUE         <n>          server.queue_depth
//   HEXA_QUERY_DEADLINE_MS    <ms>         server.query_deadline_ms
//   HEXA_PLAN_CACHE_CAP       <entries>    server.plan_cache_capacity
//   HEXA_PLAN_CACHE_QERR      <float>      server.plan_cache_q_error
//   HEXA_MAX_REQUEST_BYTES    <bytes>      server.max_request_bytes
//
// (HEXA_METRICS, HEXA_METRICS_JSON and HEXA_SLOW_QUERY_US remain read by
// the obs layer directly — they gate process-wide instrumentation, not
// store construction; docs/observability.md covers them.)
#ifndef HEXASTORE_SERVER_STORE_OPTIONS_H_
#define HEXASTORE_SERVER_STORE_OPTIONS_H_

#include <cstdint>
#include <string>

#include "shard/sharded_hexastore.h"

namespace hexastore {

/// HTTP front-end knobs (hexastore_server; see docs/server.md).
struct ServerOptions {
  /// Listen address. The default stays loopback-only on purpose — the
  /// server speaks plaintext HTTP with no auth.
  std::string host = "127.0.0.1";
  /// Listen port; 0 lets the kernel pick (the bound port is reported).
  std::uint16_t port = 8585;
  /// Worker threads executing queries (one Session each). 0 is repaired
  /// to the default.
  std::size_t threads = 4;
  /// Accepted-but-unserviced connection bound (admission control): past
  /// it new requests are answered 503 instead of queueing without
  /// bound. 0 is repaired to the default.
  std::size_t queue_depth = 64;
  /// Per-query wall-time budget in milliseconds; overruns answer 504.
  /// 0 = unlimited.
  std::uint64_t query_deadline_ms = 0;
  /// Shared normalized-BGP plan cache sizing (plan_cache.h).
  std::size_t plan_cache_capacity = 256;
  double plan_cache_q_error = 2.0;
  /// Largest accepted request (start line + headers + body).
  std::size_t max_request_bytes = 1u << 20;

  /// Clamps every field to its documented domain in place; returns ""
  /// or every repair, one per line.
  std::string Normalize();
};

/// Everything a deployment configures, in one struct: the served
/// store's ShardedOptions (one shard by default) plus the server's.
struct StoreOptions : ShardedOptions {
  ServerOptions server;

  /// Reads every variable in the table above, then Normalize()s. Repair
  /// notes (including unparsable values, which keep the default) are
  /// appended to `notes` one per line when non-null.
  static StoreOptions FromEnv(std::string* notes = nullptr);

  /// Normalizes the store and server options (durability is normalized
  /// when the store opens). Returns the accumulated repair notes, one
  /// per line, "" when clean.
  std::string Normalize();
};

}  // namespace hexastore

#endif  // HEXASTORE_SERVER_STORE_OPTIONS_H_
