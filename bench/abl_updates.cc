// Ablation for paper §4.2: "A particular deficiency of the Hexastore
// appears when it comes to handling updates and insertions; such
// operations affect all six indices, hence can be slow."
//
// Measures per-triple incremental Insert and Erase cost on Hexastore vs
// COVP1 / COVP2 / TripleTable, and the BulkLoad alternative, over a
// LUBM-like prefix. Expected shape: Hexastore inserts cost the most (six
// views touched), TripleTable the least; BulkLoad amortizes far below
// incremental insertion.
//
// The DeltaHexastore series measure the LSM-style fix: single-triple
// writes staged in the delta buffer (including periodic compaction
// drains) at several compaction thresholds, plus merged-read latency
// with a half-full delta — the write/read trade-off the threshold knob
// controls.
//
// The DurableDeltaHexastore series put the WAL's durability tax on the
// same axis: the identical insert/erase loops through the logged store
// at the three durability modes (none / batched / per-commit fsync).
// WAL directories live under $HEXA_WAL_DIR (or the system temp dir) and
// are removed when the benchmark finishes.
//
// The drain_latency series are the background-compaction headline: they
// time every single Insert across several delta drains and report the
// p50/p99/p99.9/max latency. In sync mode the drain runs on the writer
// thread, so max_ns towers over p50_ns (the §4.2 stall, moved to the
// threshold boundary); in bg mode the buffer is sealed with two pointer
// swaps and merged off-thread, so the worst op stays within a small
// factor of the median — flat write latency through a drain.
//
// The level:{2,4,8} variants run the same loop with leveled deltas
// (DeltaOptions::l0_run_limit): seals become L0 runs, runs fold into L1,
// and only L1→base merges rebuild the base — bounding the worst sync
// drain to the fold cost and keeping bg seals O(1) even when the
// compactor is behind (the overflow is absorbed as extra runs).
//
// The drain_latency_published series drive the store as hexastore_server
// does — a publication after every batch, so every drain finds the base
// exposed — and report the drain time and how many drains had to rebuild
// the base instead of applying their run in place to the spare. The
// aging_scan rows compare (?, p, ?) scans over a base that drains applied
// in place with scans over a copy rebuilt from the same contents.
#include "bench_common.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "data/lubm_generator.h"
#include "delta/delta_hexastore.h"
#include "obs/histogram.h"
#include "shard/sharded_hexastore.h"
#include "wal/durable_store.h"

namespace hexastore::bench {
namespace {

// Compaction thresholds swept by the DeltaHexastore series.
constexpr std::size_t kDeltaThresholds[] = {16 * 1024, 64 * 1024,
                                            256 * 1024};

std::string DeltaLabel(std::size_t threshold) {
  return "DeltaHexastore/thr:" + std::to_string(threshold / 1024) + "k";
}

std::string BgDeltaLabel(std::size_t threshold) {
  return DeltaLabel(threshold) + "/bg";
}

IdTripleVec EncodedPrefix(std::size_t n) {
  static Dictionary dict;
  static IdTripleVec cache;
  if (cache.size() < n) {
    auto triples = data::LubmGenerator().Generate(n);
    cache.clear();
    cache.reserve(n);
    for (const auto& t : triples) {
      cache.push_back(dict.Encode(t));
    }
  }
  return IdTripleVec(cache.begin(),
                     cache.begin() + static_cast<std::ptrdiff_t>(n));
}

template <typename StoreT, typename... Args>
void RegisterInsertErase(const std::string& label, std::size_t n,
                         Args... args) {
  benchmark::RegisterBenchmark(
      ("abl_updates/insert/" + label + "/triples:" + std::to_string(n))
          .c_str(),
      [n, args...](benchmark::State& state) {
        IdTripleVec data = EncodedPrefix(n);
        for (auto _ : state) {
          StoreT store(args...);
          for (const auto& t : data) {
            store.Insert(t);
          }
          benchmark::DoNotOptimize(store.size());
        }
        state.SetItemsProcessed(
            static_cast<std::int64_t>(state.iterations() * n));
      })
      ->Unit(benchmark::kMillisecond)
      ->MinTime(0.02);

  benchmark::RegisterBenchmark(
      ("abl_updates/erase/" + label + "/triples:" + std::to_string(n))
          .c_str(),
      [n, args...](benchmark::State& state) {
        IdTripleVec data = EncodedPrefix(n);
        for (auto _ : state) {
          state.PauseTiming();
          StoreT store(args...);
          store.BulkLoad(data);
          state.ResumeTiming();
          for (const auto& t : data) {
            store.Erase(t);
          }
          benchmark::DoNotOptimize(store.size());
        }
        state.SetItemsProcessed(
            static_cast<std::int64_t>(state.iterations() * n));
      })
      ->Unit(benchmark::kMillisecond)
      ->MinTime(0.02);

  benchmark::RegisterBenchmark(
      ("abl_updates/bulkload/" + label + "/triples:" + std::to_string(n))
          .c_str(),
      [n, args...](benchmark::State& state) {
        IdTripleVec data = EncodedPrefix(n);
        for (auto _ : state) {
          StoreT store(args...);
          store.BulkLoad(data);
          benchmark::DoNotOptimize(store.size());
        }
        state.SetItemsProcessed(
            static_cast<std::int64_t>(state.iterations() * n));
      })
      ->Unit(benchmark::kMillisecond)
      ->MinTime(0.02);
}

// Per-op Insert latency percentiles across several delta drains: the
// store's threshold is n/4, so the series crosses ~4 drains. One timed
// pass per iteration; the counters report the last pass's distribution.
template <typename... Args>
void RegisterDrainLatency(const std::string& label, std::size_t n,
                          Args... args) {
  benchmark::RegisterBenchmark(
      ("abl_updates/drain_latency/" + label + "/triples:" +
       std::to_string(n))
          .c_str(),
      [n, args...](benchmark::State& state) {
        IdTripleVec data = EncodedPrefix(n);
        // Unsampled obs histogram: the reported percentiles are the
        // store's own export pipeline (log2 buckets + interpolation),
        // not a private sorted-vector path — what a scrape of
        // hexa_insert_latency_ns would show at full sampling.
        obs::LatencyHistogram hist;
        obs::HistogramSnapshot snap;
        for (auto _ : state) {
          state.PauseTiming();
          auto store = std::make_unique<DeltaHexastore>(args...);
          hist.Reset();
          state.ResumeTiming();
          for (const auto& t : data) {
            const auto begin = std::chrono::steady_clock::now();
            store->Insert(t);
            const auto end = std::chrono::steady_clock::now();
            hist.Record(static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(end -
                                                                     begin)
                    .count()));
          }
          benchmark::DoNotOptimize(store->size());
          // Settle any in-flight merge and tear the store down (joining
          // the compactor) outside the timed region so the wall-clock
          // numbers compare the write loops alone.
          state.PauseTiming();
          snap = hist.Snapshot();
          store->Compact();
          store.reset();
          state.ResumeTiming();
        }
        if (snap.count > 0) {
          state.counters["p50_ns"] = snap.P50();
          state.counters["p99_ns"] = snap.P99();
          state.counters["p999_ns"] = snap.P999();
          state.counters["max_ns"] = static_cast<double>(snap.max);
          // The flat-latency verdict in one number: how far the worst
          // op (the drain) sits above the median op.
          state.counters["max_over_p50"] =
              static_cast<double>(snap.max) / std::max(1.0, snap.P50());
        }
        state.SetItemsProcessed(
            static_cast<std::int64_t>(state.iterations() * n));
      })
      ->Unit(benchmark::kMillisecond)
      ->MinTime(0.02);
}

// Served-style churn over a LUBM base: 256-triple pool batches, each
// step inserting one batch and erasing the batch kWindow steps older,
// with a GetSnapshot after every 256-op batch as hexastore_server
// publishes after every write. Drives `store` through `steps` steps and
// calls `on_op(ns, drained)` per op (`drained`: a compaction job ran
// inside it).
constexpr std::size_t kChurnBatch = 256;
constexpr std::size_t kChurnWindow = 64;
constexpr std::size_t kChurnPoolBatches = 128;

template <typename OnOp>
void PublishedChurn(DeltaHexastore* store, const IdTripleVec& pool,
                    std::size_t steps, OnOp&& on_op) {
  auto batch_of = [&pool](std::size_t step) {
    const std::size_t begin = (step % kChurnPoolBatches) * kChurnBatch;
    return IdTripleVec(pool.begin() + static_cast<std::ptrdiff_t>(begin),
                       pool.begin() +
                           static_cast<std::ptrdiff_t>(begin + kChurnBatch));
  };
  auto timed = [&](auto&& op) {
    const std::uint64_t jobs = store->CompactionCount();
    const auto begin = std::chrono::steady_clock::now();
    op();
    const auto end = std::chrono::steady_clock::now();
    on_op(static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(end -
                                                                   begin)
                  .count()),
          store->CompactionCount() != jobs);
  };
  for (std::size_t step = 0; step < steps; ++step) {
    for (const IdTriple& t : batch_of(step)) {
      timed([&] { store->Insert(t); });
    }
    benchmark::DoNotOptimize(store->GetSnapshot().size());
    if (step >= kChurnWindow) {
      for (const IdTriple& t : batch_of(step - kChurnWindow)) {
        timed([&] { store->Erase(t); });
      }
      benchmark::DoNotOptimize(store->GetSnapshot().size());
    }
  }
}

// The drain_latency loop as the server drives it: the served-style churn
// above over a 100k-triple LUBM base, so every drain finds the base
// published. Each inline drain runs inside one op: drain_p50_ms and
// drain_max_ms time those ops, and rebuilds counts the drains that found
// no free base (the first, when no spare exists yet).
void RegisterPublishedDrainLatency(const std::string& label,
                                   const DeltaOptions& options) {
  constexpr std::size_t kBase = 100000;
  constexpr std::size_t kSteps = 320;
  benchmark::RegisterBenchmark(
      ("abl_updates/drain_latency_published/" + label +
       "/triples:" + std::to_string(kBase))
          .c_str(),
      [options](benchmark::State& state) {
        const IdTripleVec data =
            EncodedPrefix(kBase + kChurnPoolBatches * kChurnBatch);
        const IdTripleVec base(data.begin(),
                               data.begin() + static_cast<std::ptrdiff_t>(kBase));
        const IdTripleVec pool(data.begin() + static_cast<std::ptrdiff_t>(kBase),
                               data.end());
        obs::LatencyHistogram ops;
        obs::LatencyHistogram drains;
        DeltaStats stats;
        for (auto _ : state) {
          state.PauseTiming();
          auto store = std::make_unique<DeltaHexastore>(options);
          store->BulkLoad(base);
          ops.Reset();
          drains.Reset();
          state.ResumeTiming();
          PublishedChurn(store.get(), pool, kSteps,
                         [&](std::uint64_t ns, bool drained) {
                           ops.Record(ns);
                           if (drained) {
                             drains.Record(ns);
                           }
                         });
          state.PauseTiming();
          store->Compact();
          stats = store->Stats();
          store.reset();
          state.ResumeTiming();
        }
        const obs::HistogramSnapshot op_snap = ops.Snapshot();
        const obs::HistogramSnapshot drain_snap = drains.Snapshot();
        state.counters["p50_ns"] = op_snap.P50();
        state.counters["p99_ns"] = op_snap.P99();
        state.counters["max_ns"] = static_cast<double>(op_snap.max);
        if (drain_snap.count > 0) {
          state.counters["drain_p50_ms"] = drain_snap.P50() / 1e6;
          state.counters["drain_max_ms"] =
              static_cast<double>(drain_snap.max) / 1e6;
        }
        state.counters["drains"] = static_cast<double>(stats.base_merges);
        state.counters["rebuilds"] = static_cast<double>(stats.base_rebuilds);
        state.counters["write_amp"] = stats.WriteAmplification();
        state.SetItemsProcessed(static_cast<std::int64_t>(
            state.iterations() * kSteps * 2 * kChurnBatch));
      })
      ->Unit(benchmark::kMillisecond)
      ->Iterations(1);
}

// Aging of a base that drains apply in place: the served-style churn
// runs until `drains` drains completed (after the first, each applied in
// place to the spare after its catch-up), then the series times one
// (?, p, ?) scan of every predicate over the served base (`in_place`) or
// over a copy rebuilt from the same contents (`rebuilt`). `in_place_drains`
// counts the drains that wrote the served base in place since it was
// built (bulk-loaded or rebuilt).
struct AgedBase {
  std::shared_ptr<const Hexastore> in_place;
  std::unique_ptr<Hexastore> rebuilt;
  std::size_t in_place_drains = 0;
  std::uint64_t drains = 0;  // drains the store ran
};

const AgedBase& AgedBaseAfter(std::size_t drains) {
  static std::map<std::size_t, AgedBase> cache;
  AgedBase& aged = cache[drains];
  if (aged.in_place == nullptr) {
    constexpr std::size_t kBase = 100000;
    const IdTripleVec data =
        EncodedPrefix(kBase + kChurnPoolBatches * kChurnBatch);
    const IdTripleVec pool(data.begin() + static_cast<std::ptrdiff_t>(kBase),
                           data.end());
    DeltaHexastore store(DeltaOptions{4096});
    store.BulkLoad(IdTripleVec(
        data.begin(), data.begin() + static_cast<std::ptrdiff_t>(kBase)));
    // In-place drains per base since it was built, keyed by address
    // (the temporary pins taken here are gone before the next drain).
    std::map<const Hexastore*, std::size_t> applied;
    std::uint64_t rebuilds = 0;
    // The first kChurnWindow steps only insert (256 ops each), later
    // ones also erase (512 ops): a 4096-op drain every 16 steps, then
    // about every 8 (the `drains` counter reports how many ran).
    PublishedChurn(&store, pool,
                   kChurnWindow + (drains - kChurnWindow / 16) * 8 + 1,
                   [&](std::uint64_t, bool drained) {
                     if (!drained) {
                       return;
                     }
                     const Hexastore* current = store.base().get();
                     const std::uint64_t now = store.Stats().base_rebuilds;
                     if (now != rebuilds) {
                       rebuilds = now;
                       applied[current] = 0;
                     } else {
                       ++applied[current];
                     }
                   });
    aged.in_place = store.base();
    aged.in_place_drains = applied[aged.in_place.get()];
    aged.drains = store.Stats().base_merges;
    aged.rebuilt = std::make_unique<Hexastore>();
    aged.rebuilt->BulkLoad(aged.in_place->Match(IdPattern{}));
  }
  return aged;
}

void RegisterAgingScan(std::size_t drains, bool rebuilt) {
  benchmark::RegisterBenchmark(
      ("abl_updates/aging_scan/" +
       std::string(rebuilt ? "rebuilt" : "in_place") +
       "/drains:" + std::to_string(drains))
          .c_str(),
      [drains, rebuilt](benchmark::State& state) {
        const AgedBase& aged = AgedBaseAfter(drains);
        const Hexastore& base = rebuilt ? *aged.rebuilt : *aged.in_place;
        const std::vector<Id> predicates =
            base.index(Permutation::kPso).SortedHeaders();
        for (auto _ : state) {
          std::uint64_t matches = 0;
          for (Id p : predicates) {
            base.Scan(IdPattern{0, p, 0},
                      [&matches](const IdTriple&) { ++matches; });
          }
          benchmark::DoNotOptimize(matches);
        }
        state.counters["triples"] = static_cast<double>(base.size());
        if (!rebuilt) {
          state.counters["drains"] = static_cast<double>(aged.drains);
          state.counters["in_place_drains"] =
              static_cast<double>(aged.in_place_drains);
        }
        state.SetItemsProcessed(
            static_cast<std::int64_t>(state.iterations() * base.size()));
      })
      ->Unit(benchmark::kMillisecond)
      ->MinTime(0.2);
}

// Root directory for per-benchmark WAL dirs: $HEXA_WAL_DIR if set
// (scripts/run_benchmarks.sh points it somewhere it cleans up), else the
// system temp dir, namespaced by pid so concurrent runs cannot collide.
std::filesystem::path WalBenchRoot() {
  const char* env = std::getenv("HEXA_WAL_DIR");
  std::filesystem::path root = (env != nullptr && *env != '\0')
                                   ? std::filesystem::path(env)
                                   : std::filesystem::temp_directory_path();
  return root / ("hexa-bench-" + std::to_string(::getpid()));
}

std::string DurableLabel(DurabilityMode mode) {
  return std::string("DurableDeltaHexastore/mode:") +
         DurabilityModeName(mode);
}

// Opens a fresh durable store in a scratch dir, or null on failure.
std::unique_ptr<DurableDeltaHexastore> OpenDurable(
    const std::filesystem::path& dir, DurabilityMode mode,
    benchmark::State& state) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  DurabilityOptions options;
  options.dir = dir.string();
  options.mode = mode;
  auto store = DurableDeltaHexastore::Open(options);
  if (!store.ok()) {
    state.SkipWithError(store.status().ToString().c_str());
    return nullptr;
  }
  return std::move(store).value();
}

void RegisterDurableInsertErase(DurabilityMode mode, std::size_t n) {
  const std::string label = DurableLabel(mode);
  benchmark::RegisterBenchmark(
      ("abl_updates/insert/" + label + "/triples:" + std::to_string(n))
          .c_str(),
      [mode, n](benchmark::State& state) {
        IdTripleVec data = EncodedPrefix(n);
        const std::filesystem::path dir =
            WalBenchRoot() /
            ("insert-" + std::string(DurabilityModeName(mode)));
        for (auto _ : state) {
          state.PauseTiming();
          auto store = OpenDurable(dir, mode, state);
          if (store == nullptr) {
            break;
          }
          state.ResumeTiming();
          for (const auto& t : data) {
            store->Insert(t);
          }
          store->Flush();  // the tail of the durability tax
          benchmark::DoNotOptimize(store->size());
          state.PauseTiming();
          store.reset();
          state.ResumeTiming();
        }
        std::error_code ec;
        std::filesystem::remove_all(dir, ec);
        state.SetItemsProcessed(
            static_cast<std::int64_t>(state.iterations() * n));
      })
      ->Unit(benchmark::kMillisecond)
      ->MinTime(0.02);

  benchmark::RegisterBenchmark(
      ("abl_updates/erase/" + label + "/triples:" + std::to_string(n))
          .c_str(),
      [mode, n](benchmark::State& state) {
        IdTripleVec data = EncodedPrefix(n);
        const std::filesystem::path dir =
            WalBenchRoot() /
            ("erase-" + std::string(DurabilityModeName(mode)));
        for (auto _ : state) {
          state.PauseTiming();
          auto store = OpenDurable(dir, mode, state);
          if (store == nullptr) {
            break;
          }
          store->BulkLoad(data);  // checkpointed, not in the timed region
          state.ResumeTiming();
          for (const auto& t : data) {
            store->Erase(t);
          }
          store->Flush();
          benchmark::DoNotOptimize(store->size());
          state.PauseTiming();
          store.reset();
          state.ResumeTiming();
        }
        std::error_code ec;
        std::filesystem::remove_all(dir, ec);
        state.SetItemsProcessed(
            static_cast<std::int64_t>(state.iterations() * n));
      })
      ->Unit(benchmark::kMillisecond)
      ->MinTime(0.02);
}

// Merged-read latency with a half-full staging buffer: the store holds
// `n` compacted triples plus staged_ops staged inserts (pass half the
// store's compaction threshold so the buffer is half full and no
// compaction fires), then serves point Contains probes and one-bound
// (s, ?, ?) Match scans — the merged paths a query pays for before the
// next compaction.
template <typename StoreT, typename... Args>
void RegisterRead(const std::string& label, std::size_t n,
                  std::size_t staged_ops, Args... args) {
  benchmark::RegisterBenchmark(
      ("abl_updates/read/" + label + "/triples:" + std::to_string(n))
          .c_str(),
      [n, staged_ops, args...](benchmark::State& state) {
        IdTripleVec data = EncodedPrefix(n);
        StoreT store(args...);
        store.BulkLoad(data);
        // Stage extra (distinct) writes so DeltaHexastore reads pay the
        // merged path; plain stores just absorb the inserts.
        IdTripleVec staged;
        for (std::size_t i = 0; i < staged_ops; ++i) {
          const IdTriple& t = data[i % data.size()];
          staged.push_back(IdTriple{t.s, t.p, t.o + 1000000 + i});
        }
        for (const auto& t : staged) {
          store.Insert(t);
        }
        // Prime the delta's lazy read caches (sorted runs) so the loop
        // measures steady-state merged reads, not the one-off rebuild
        // the first read after a burst of writes pays.
        benchmark::DoNotOptimize(
            store.CountMatches(IdPattern{data[0].s, 0, 0}));
        std::size_t i = 0;
        for (auto _ : state) {
          const IdTriple& probe = data[(i * 7919) % data.size()];
          benchmark::DoNotOptimize(store.Contains(probe));
          benchmark::DoNotOptimize(
              store.CountMatches(IdPattern{probe.s, 0, 0}));
          ++i;
        }
        state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
      })
      ->Unit(benchmark::kMicrosecond)
      ->MinTime(0.02);
}

// Filtered leveled point reads: absent-key Contains probes against a
// store holding several sealed L0 runs, with the runs' prefix filters
// armed (filter:on) or disabled (filter:off). Every probe consults each
// run top-down; with filters on, the run's Bloom filter answers "cannot
// contain" and the table probe is skipped. The counters report the
// verdict-chain work from DeltaStats: skip_rate is the fraction of
// per-run probes the filters short-circuited.
void RegisterFilteredRead(std::size_t n, std::size_t limit,
                          bool filters_on) {
  const std::string label = std::string("DeltaHexastore/filter:") +
                            (filters_on ? "on" : "off") +
                            "/level:" + std::to_string(limit);
  benchmark::RegisterBenchmark(
      ("abl_updates/filtered_read/" + label + "/triples:" +
       std::to_string(n))
          .c_str(),
      [n, limit, filters_on](benchmark::State& state) {
        IdTripleVec data = EncodedPrefix(n);
        DeltaOptions options;
        options.compact_threshold = 256;
        options.l0_run_limit = limit;
        options.l1_base_fraction = 100.0;  // keep the runs resident
        options.filter_bits_per_key = filters_on ? 10 : 0;
        DeltaHexastore store(options);
        store.BulkLoad(data);
        // Seal limit-1 runs of distinct staged inserts so point reads
        // walk a populated L0 chain.
        const std::size_t staged = options.compact_threshold * (limit - 1);
        for (std::size_t i = 0; i < staged; ++i) {
          const IdTriple& t = data[i % data.size()];
          store.Insert(IdTriple{t.s, t.p, t.o + 1000000 + i});
        }
        // Prime the runs' lazy caches and filters.
        benchmark::DoNotOptimize(store.Contains(data[0]));
        std::size_t i = 0;
        for (auto _ : state) {
          const IdTriple& k = data[(i * 7919) % data.size()];
          // Non-matching everywhere: present in no run and not in base.
          benchmark::DoNotOptimize(store.Contains(
              IdTriple{k.s + 5000000, k.p + 5000000, k.o + 5000000}));
          ++i;
        }
        const DeltaStats stats = store.Stats();
        state.counters["l0_runs"] =
            static_cast<double>(stats.l0_runs);
        state.counters["filter_probes"] =
            static_cast<double>(stats.filter_probes);
        state.counters["filter_skips"] =
            static_cast<double>(stats.filter_skips);
        state.counters["skip_rate"] =
            stats.filter_probes == 0
                ? 0.0
                : static_cast<double>(stats.filter_skips) /
                      static_cast<double>(stats.filter_probes);
        state.SetItemsProcessed(
            static_cast<std::int64_t>(state.iterations()));
      })
      ->Unit(benchmark::kMicrosecond)
      ->MinTime(0.02);
}

// Insert loop under a hard memory budget: the tracked delta footprint
// crosses memory_budget_bytes long before l0_run_limit fills, so the
// budget — not the run limit — drives folds and base merges. The
// counters prove the budget machinery fired.
void RegisterBudgetWrite(std::size_t n, std::size_t budget_bytes) {
  const std::string label =
      "DeltaHexastore/budget:" + std::to_string(budget_bytes >> 10) +
      "k/level:4";
  benchmark::RegisterBenchmark(
      ("abl_updates/insert/" + label + "/triples:" + std::to_string(n))
          .c_str(),
      [n, budget_bytes](benchmark::State& state) {
        IdTripleVec data = EncodedPrefix(n);
        DeltaOptions options;
        options.compact_threshold = 4096;
        options.l0_run_limit = 4;
        options.filter_bits_per_key = 10;
        options.memory_budget_bytes = budget_bytes;
        DeltaStats stats;
        for (auto _ : state) {
          DeltaHexastore store(options);
          for (const auto& t : data) {
            store.Insert(t);
          }
          benchmark::DoNotOptimize(store.size());
          stats = store.Stats();
        }
        state.counters["budget_seals"] =
            static_cast<double>(stats.budget_seals);
        state.counters["budget_folds"] =
            static_cast<double>(stats.budget_folds);
        state.counters["budget_base_merges"] =
            static_cast<double>(stats.budget_base_merges);
        state.counters["resident_bytes"] =
            static_cast<double>(stats.resident_bytes);
        state.SetItemsProcessed(
            static_cast<std::int64_t>(state.iterations() * n));
      })
      ->Unit(benchmark::kMillisecond)
      ->MinTime(0.02);
}

// Multi-writer insert scaling through the sharded facade: W writer
// threads split the prefix round-robin and hammer one ShardedHexastore.
// At shards:1 every writer serializes on the single shard's mutex; at
// shards:{4,8} subject-hash routing spreads the writers across
// independent shards and throughput should scale with the writer count
// (the headline: writers:4/shards:4 well above 2x writers:4/shards:1).
void RegisterShardedMultiWriter(std::size_t n, int writers,
                                std::size_t shards) {
  const std::string label = "ShardedHexastore/writers:" +
                            std::to_string(writers) +
                            "/shards:" + std::to_string(shards);
  benchmark::RegisterBenchmark(
      ("abl_updates/multi_writer_insert/" + label + "/triples:" +
       std::to_string(n))
          .c_str(),
      [n, writers, shards](benchmark::State& state) {
        IdTripleVec data = EncodedPrefix(n);
        ShardedOptions options;
        options.shards = shards;
        options.delta.compact_threshold = 64 * 1024;
        for (auto _ : state) {
          ShardedHexastore store(options);
          std::vector<std::thread> threads;
          threads.reserve(static_cast<std::size_t>(writers));
          for (int w = 0; w < writers; ++w) {
            threads.emplace_back([&store, &data, writers, w] {
              for (std::size_t i = static_cast<std::size_t>(w);
                   i < data.size();
                   i += static_cast<std::size_t>(writers)) {
                store.Insert(data[i]);
              }
            });
          }
          for (auto& th : threads) {
            th.join();
          }
          benchmark::DoNotOptimize(store.size());
        }
        state.SetItemsProcessed(
            static_cast<std::int64_t>(state.iterations() * n));
      })
      ->Unit(benchmark::kMillisecond)
      ->UseRealTime()
      ->MinTime(0.02);
}

int Main(int argc, char** argv) {
  for (std::size_t n : {std::size_t{10000}, std::size_t{50000}}) {
    RegisterInsertErase<Hexastore>("Hexastore", n);
    RegisterInsertErase<VerticalStore>("COVP1", n, false);
    RegisterInsertErase<VerticalStore>("COVP2", n, true);
    RegisterInsertErase<TripleTableStore>("TripleTable", n);
    for (std::size_t threshold : kDeltaThresholds) {
      RegisterInsertErase<DeltaHexastore>(DeltaLabel(threshold), n,
                                          DeltaOptions{threshold});
      // Background compaction: same write loop, drains on the
      // compactor thread.
      RegisterInsertErase<DeltaHexastore>(
          BgDeltaLabel(threshold), n,
          DeltaOptions{threshold, /*background_compaction=*/true});
    }
    RegisterRead<Hexastore>("Hexastore", n, kDeltaThresholds[0] / 2);
    RegisterRead<TripleTableStore>("TripleTable", n,
                                   kDeltaThresholds[0] / 2);
    for (std::size_t threshold : kDeltaThresholds) {
      RegisterRead<DeltaHexastore>(DeltaLabel(threshold), n, threshold / 2,
                                   DeltaOptions{threshold});
    }
    // Flat-p99 demonstration: per-op latency through ~4 drains, writer
    // thread (sync) vs compactor thread (bg).
    RegisterDrainLatency(DeltaLabel(n / 4) + "/sync", n, DeltaOptions{n / 4});
    RegisterDrainLatency(
        BgDeltaLabel(n / 4), n,
        DeltaOptions{n / 4, /*background_compaction=*/true});
    // Leveled series: the same per-op latency loop with sealed runs
    // absorbing the drains (L0 → L1 → base, docs/delta-levels.md), at
    // several L0 run limits. In sync mode the worst op pays an L0→L1
    // fold (O(staged), not O(base)); in bg mode sealing into a run is
    // two pointer swaps even while the compactor is busy, so the max
    // stays within a small factor of the median and seal_overflows no
    // longer tracks an unbounded buffer overshoot.
    for (std::size_t limit : {std::size_t{2}, std::size_t{4},
                              std::size_t{8}}) {
      const std::string suffix = "/level:" + std::to_string(limit);
      RegisterDrainLatency(
          DeltaLabel(n / 4) + suffix + "/sync", n,
          DeltaOptions{n / 4, /*background_compaction=*/false, limit});
      RegisterDrainLatency(
          BgDeltaLabel(n / 4) + suffix, n,
          DeltaOptions{n / 4, /*background_compaction=*/true, limit});
    }
  }
  // The drain series as the server drives it: a publication per batch,
  // so every drain finds the base exposed (spare or rebuild).
  RegisterPublishedDrainLatency(DeltaLabel(16 * 1024) + "/sync",
                                DeltaOptions{16 * 1024});
  for (std::size_t drains : {std::size_t{10}, std::size_t{200}}) {
    RegisterAgingScan(drains, /*rebuilt=*/false);
    RegisterAgingScan(drains, /*rebuilt=*/true);
  }
  // Prefix-filter ablation (filter:{on,off}) and the memory-budget
  // series: smaller size only — the interesting numbers are the
  // counters, not the throughput spread.
  for (std::size_t limit : {std::size_t{4}, std::size_t{8}}) {
    RegisterFilteredRead(10000, limit, /*filters_on=*/true);
    RegisterFilteredRead(10000, limit, /*filters_on=*/false);
  }
  RegisterBudgetWrite(10000, /*budget_bytes=*/64u << 10);
  // Multi-writer scaling: writers {1,2,4} x shards {1,4,8} over the
  // sharded facade (writers:1/shards:1 is the single-store baseline).
  for (int writers : {1, 2, 4}) {
    for (std::size_t shards :
         {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
      RegisterShardedMultiWriter(50000, writers, shards);
    }
  }
  // Durability tax: only the smaller size (per-commit mode pays one
  // fsync per op; keep wall-clock bounded).
  for (DurabilityMode mode :
       {DurabilityMode::kNone, DurabilityMode::kBatched,
        DurabilityMode::kPerCommit}) {
    RegisterDurableInsertErase(mode, 10000);
  }
  return BenchMain(argc, argv);
}

}  // namespace
}  // namespace hexastore::bench

int main(int argc, char** argv) {
  return hexastore::bench::Main(argc, argv);
}
