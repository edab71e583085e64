// hexastore_server: the HTTP front end binary.
//
//   hexastore_server [data.nt]
//
// Configuration is entirely environment-driven through
// StoreOptions::FromEnv() — see store_options.h for the full table and
// docs/server.md for semantics. The store is always a ShardedHexastore
// over HEXA_SHARDS (default 1) shards; with HEXA_WAL_DIR set it is
// durable (recovers on start, logs every mutation). The optional
// positional argument bulk-loads an N-Triples file before serving.
//
// Runs until SIGINT/SIGTERM, then drains workers and flushes the WAL
// tail (a no-op in memory).
#include <csignal>
#include <cstdio>
#include <fstream>
#include <memory>
#include <semaphore.h>
#include <sstream>

#include "rdf/ntriples.h"
#include "server/server.h"
#include "server/store_options.h"

namespace {

sem_t g_shutdown_sem;

void HandleSignal(int) { sem_post(&g_shutdown_sem); }

// Bulk-load an N-Triples file through the write store.
bool LoadFile(const char* path, hexastore::ShardedHexastore* store,
              hexastore::Dictionary* dict) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "hexastore_server: cannot open %s\n", path);
    return false;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::size_t skipped = 0;
  auto parsed = hexastore::ParseNTriplesDocument(buffer.str(),
                                                 /*strict=*/false,
                                                 &skipped);
  if (!parsed.ok()) {
    std::fprintf(stderr, "hexastore_server: %s\n",
                 parsed.status().ToString().c_str());
    return false;
  }
  hexastore::IdTripleVec ids;
  ids.reserve(parsed.value().size());
  for (const hexastore::Triple& t : parsed.value()) {
    ids.push_back(dict->Encode(t));
  }
  store->BulkLoad(ids);
  std::fprintf(stderr, "hexastore_server: loaded %zu triples from %s",
               ids.size(), path);
  if (skipped > 0) {
    std::fprintf(stderr, " (%zu bad lines skipped)", skipped);
  }
  std::fprintf(stderr, "\n");
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string notes;
  hexastore::StoreOptions options = hexastore::StoreOptions::FromEnv(&notes);
  if (!notes.empty()) {
    std::fprintf(stderr, "hexastore_server: config repairs:\n%s\n",
                 notes.c_str());
  }

  auto opened = hexastore::ShardedHexastore::Open(options);
  if (!opened.ok()) {
    std::fprintf(stderr, "hexastore_server: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  const std::unique_ptr<hexastore::ShardedHexastore> store =
      std::move(opened).value();
  std::fprintf(stderr, "hexastore_server: %zu shard(s)%s%s\n",
               store->shard_count(), options.durable ? ", durable in " : "",
               options.durable ? options.durability.dir.c_str() : "");
  hexastore::Dictionary dict;
  if (argc > 1 && !LoadFile(argv[1], store.get(), &dict)) {
    return 1;
  }

  auto server =
      std::make_unique<hexastore::Server>(*store, dict, options.server);
  hexastore::Status started = server->Start();
  if (!started.ok()) {
    std::fprintf(stderr, "hexastore_server: %s\n",
                 started.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr,
               "hexastore_server: listening on http://%s:%u/ "
               "(%zu workers, queue %zu, deadline %llu ms)\n",
               options.server.host.c_str(), server->port(),
               options.server.threads, options.server.queue_depth,
               static_cast<unsigned long long>(
                   options.server.query_deadline_ms));

  sem_init(&g_shutdown_sem, 0, 0);
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (sem_wait(&g_shutdown_sem) != 0) {
  }
  std::fprintf(stderr, "hexastore_server: shutting down\n");
  server->Stop();
  if (hexastore::Status flushed = store->Flush(); !flushed.ok()) {
    std::fprintf(stderr, "hexastore_server: flush: %s\n",
                 flushed.ToString().c_str());
    return 1;
  }
  return 0;
}
