#include "shard/sharded_hexastore.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <utility>

#include "wal/file_util.h"
#include "wal/manifest.h"

namespace hexastore {

namespace {

namespace fs = std::filesystem;

// The shard-count manifest at the durable root. One line, so a torn
// write is unparsable rather than silently wrong (AtomicWriteFile makes
// even that impossible in practice).
constexpr char kShardsManifestName[] = "SHARDS";

std::string ShardDirName(std::size_t index) {
  std::string digits = std::to_string(index);
  if (digits.size() < 3) {
    digits.insert(0, 3 - digits.size(), '0');
  }
  return "shard-" + digits;
}

Status WriteShardsManifest(const std::string& root, std::size_t shards) {
  return AtomicWriteFile((fs::path(root) / kShardsManifestName).string(),
                         "shards " + std::to_string(shards) + "\n");
}

// The shard count a durable root was written with: its SHARDS manifest,
// else 1 for a root holding a single store's MANIFEST (the 1-shard
// layout, and every directory a single-store server wrote), else
// NotFound for a fresh root.
Result<std::size_t> RecordedShardCount(const std::string& root) {
  const std::string path =
      (fs::path(root) / kShardsManifestName).string();
  std::string contents;
  if (Status s = ReadFileToString(path, &contents); !s.ok()) {
    std::error_code ec;
    if (s.code() == StatusCode::kNotFound &&
        fs::exists(fs::path(root) / kManifestFileName, ec)) {
      return std::size_t{1};
    }
    return s;
  }
  std::size_t count = 0;
  if (std::sscanf(contents.c_str(), "shards %zu", &count) != 1 ||
      count == 0) {
    return Status::ParseError("SHARDS manifest unparsable (" + path + ")");
  }
  if (count == 1) {
    // Only the earlier 1-shard layout wrote "shards 1", with its data in
    // shard-000/; opening the root instead would start empty.
    return Status::InvalidArgument(
        path + " records 1 shard in shard-000/; move shard-000/'s files to "
        "the root, then delete SHARDS");
  }
  return count;
}

// Sorted-unique merge of `add` into `out` (both sorted ascending).
void MergeUniqueInto(const IdVec& add, IdVec* out) {
  if (add.empty()) {
    return;
  }
  if (out->empty()) {
    *out = add;
    return;
  }
  IdVec merged;
  merged.reserve(out->size() + add.size());
  std::set_union(out->begin(), out->end(), add.begin(), add.end(),
                 std::back_inserter(merged));
  out->swap(merged);
}

MergedList OwnedMergedList(IdVec ids) {
  auto owned = std::make_shared<IdVec>(std::move(ids));
  return MergedList(nullptr, nullptr, std::move(owned), nullptr, nullptr);
}

// One shard's delta configuration: the facade's, with an equal slice of
// the total memory budget.
DeltaOptions ShardDeltaOptions(const ShardedOptions& opts) {
  DeltaOptions per_shard = opts.delta;
  if (per_shard.memory_budget_bytes > 0) {
    per_shard.memory_budget_bytes = std::max<std::size_t>(
        1, per_shard.memory_budget_bytes / opts.shards);
  }
  return per_shard;
}

}  // namespace

std::string ShardedOptions::Normalize() {
  std::string notes;
  if (shards == 0) {
    shards = 1;
    notes = "shard: shards=0 clamped to 1";
  }
  if (std::string note = delta.Normalize(); !note.empty()) {
    notes += (notes.empty() ? "" : "\n") + note;
  }
  return notes;
}

std::size_t ShardedHexastore::ShardOf(Id s, std::size_t n) {
  if (n <= 1) {
    return 0;
  }
  // splitmix64 finalizer: dictionary ids are dense, so the mix keeps
  // consecutive subjects from striping into the same shard.
  std::uint64_t x = static_cast<std::uint64_t>(s);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return static_cast<std::size_t>(x % n);
}

ShardedHexastore::ShardedHexastore(const ShardedOptions& options) {
  ShardedOptions opts = options;
  opts.Normalize();
  const DeltaOptions per_shard = ShardDeltaOptions(opts);
  plains_.reserve(opts.shards);
  for (std::size_t i = 0; i < opts.shards; ++i) {
    plains_.push_back(std::make_unique<DeltaHexastore>(per_shard));
    shards_.push_back(plains_.back().get());
    writers_.push_back(plains_.back().get());
  }
  RegisterShardMeters();
}

Result<std::unique_ptr<ShardedHexastore>> ShardedHexastore::Open(
    const ShardedOptions& options) {
  ShardedOptions opts = options;
  opts.Normalize();
  if (!opts.durable) {
    return std::unique_ptr<ShardedHexastore>(new ShardedHexastore(opts));
  }
  if (opts.durability.dir.empty()) {
    return Status::InvalidArgument(
        "ShardedOptions.durability.dir must be set in durable mode");
  }
  if (Status s = EnsureDirectory(opts.durability.dir); !s.ok()) {
    return s;
  }
  // Shard-count record: the routing function is baked into the on-disk
  // layout, so a different count on reopen would misroute every
  // bound-subject read and erase. Reject it as a config error. One shard
  // records itself through the MANIFEST its store writes at the root.
  auto recorded = RecordedShardCount(opts.durability.dir);
  if (recorded.ok()) {
    if (recorded.value() != opts.shards) {
      return Status::InvalidArgument(
          "shard count mismatch: " + opts.durability.dir + " records " +
          std::to_string(recorded.value()) + " shards, options request " +
          std::to_string(opts.shards) +
          " (reopen with the recorded count)");
    }
  } else if (recorded.status().code() != StatusCode::kNotFound) {
    return recorded.status();
  } else if (opts.shards > 1) {
    if (Status s = WriteShardsManifest(opts.durability.dir, opts.shards);
        !s.ok()) {
      return s;
    }
  }

  std::unique_ptr<ShardedHexastore> store(new ShardedHexastore());
  // A group of one would only add locking to every commit.
  if (opts.durability.mode == DurabilityMode::kBatched && opts.shards > 1) {
    store->commit_group_ =
        std::make_unique<WalCommitGroup>(opts.durability.batch_bytes);
  }
  DurabilityOptions per_shard = opts.durability;
  per_shard.delta = ShardDeltaOptions(opts);
  per_shard.commit_group = store->commit_group_.get();
  for (std::size_t i = 0; i < opts.shards; ++i) {
    if (opts.shards > 1) {
      per_shard.dir =
          (fs::path(opts.durability.dir) / ShardDirName(i)).string();
    }
    auto opened = DurableDeltaHexastore::Open(per_shard);
    if (!opened.ok()) {
      return Status(opened.status().code(),
                    ShardDirName(i) + ": " + opened.status().message());
    }
    store->durables_.push_back(std::move(opened).value());
    store->shards_.push_back(
        const_cast<DeltaHexastore*>(&store->durables_.back()->delta()));
    store->writers_.push_back(store->durables_.back().get());
  }
  store->RegisterShardMeters();
  return store;
}

ShardedHexastore::~ShardedHexastore() = default;

void ShardedHexastore::RegisterShardMeters() {
  obs::MetricsRegistry& reg = metrics_registry();
  reg.RegisterCounter("hexa_shard_routed_writes_total",
                      "facade mutations routed to their subject's shard",
                      &meters_.routed_writes);
  reg.RegisterCounter("hexa_shard_routed_reads_total",
                      "bound-subject facade reads answered by one shard",
                      &meters_.routed_reads);
  reg.RegisterCounter("hexa_shard_scatter_reads_total",
                      "facade reads fanned out across every shard",
                      &meters_.scatter_reads);
  reg.RegisterCounter("hexa_shard_fanout_erases_total",
                      "ErasePattern calls fanned out across every shard",
                      &meters_.fanout_erases);
  reg.RegisterGauge("hexa_shard_count", "shards behind the facade",
                    &meters_.shard_count);
  reg.RegisterGauge("hexa_shard_min_triples",
                    "triples in the smallest shard (balance floor)",
                    &meters_.min_shard_triples);
  reg.RegisterGauge("hexa_shard_max_triples",
                    "triples in the largest shard (balance ceiling)",
                    &meters_.max_shard_triples);
  reg.RegisterGauge("hexa_shard_staged_ops",
                    "staged ops across every shard's delta chain",
                    &meters_.staged_ops_total);
  meters_.shard_count.Set(static_cast<std::int64_t>(shards_.size()));
  shard_size_gauges_.reserve(shards_.size());
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    shard_size_gauges_.push_back(std::make_unique<obs::Gauge>());
    reg.RegisterGauge("hexa_shard_" + std::to_string(i) + "_triples",
                      "triples owned by shard " + std::to_string(i),
                      shard_size_gauges_.back().get());
  }
}

void ShardedHexastore::RefreshShardGauges() const {
  std::size_t min_size = static_cast<std::size_t>(-1);
  std::size_t max_size = 0;
  std::size_t staged = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    const std::size_t n = shards_[i]->size();
    min_size = std::min(min_size, n);
    max_size = std::max(max_size, n);
    staged += shards_[i]->StagedOps();
    shard_size_gauges_[i]->Set(static_cast<std::int64_t>(n));
  }
  meters_.min_shard_triples.Set(static_cast<std::int64_t>(min_size));
  meters_.max_shard_triples.Set(static_cast<std::int64_t>(max_size));
  meters_.staged_ops_total.Set(static_cast<std::int64_t>(staged));
}

// -- TripleStore ----------------------------------------------------------

bool ShardedHexastore::Insert(const IdTriple& t) {
  meters_.routed_writes.Add();
  return writers_[Route(t.s)]->Insert(t);
}

bool ShardedHexastore::Erase(const IdTriple& t) {
  meters_.routed_writes.Add();
  return writers_[Route(t.s)]->Erase(t);
}

bool ShardedHexastore::Contains(const IdTriple& t) const {
  meters_.routed_reads.Add();
  return shards_[Route(t.s)]->Contains(t);
}

std::size_t ShardedHexastore::size() const {
  std::size_t n = 0;
  for (const DeltaHexastore* shard : shards_) {
    n += shard->size();
  }
  return n;
}

void ShardedHexastore::Scan(const IdPattern& pattern,
                            const TripleSink& sink) const {
  if (pattern.has_s()) {
    meters_.routed_reads.Add();
    shards_[Route(pattern.s)]->Scan(pattern, sink);
    return;
  }
  meters_.scatter_reads.Add();
  for (const DeltaHexastore* shard : shards_) {
    shard->Scan(pattern, sink);
  }
}

std::size_t ShardedHexastore::MemoryBytes() const {
  std::size_t n = 0;
  for (const DeltaHexastore* shard : shards_) {
    n += shard->MemoryBytes();
  }
  return n;
}

std::uint64_t ShardedHexastore::EstimateMatches(
    const IdPattern& pattern) const {
  if (pattern.has_s()) {
    return shards_[Route(pattern.s)]->EstimateMatches(pattern);
  }
  std::uint64_t n = 0;
  for (const DeltaHexastore* shard : shards_) {
    n += shard->EstimateMatches(pattern);
  }
  return n;
}

void ShardedHexastore::BulkLoad(const IdTripleVec& triples) {
  if (writers_.size() == 1) {
    writers_[0]->BulkLoad(triples);
    return;
  }
  std::vector<IdTripleVec> parts(shards_.size());
  for (const IdTriple& t : triples) {
    parts[Route(t.s)].push_back(t);
  }
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    writers_[i]->BulkLoad(parts[i]);
  }
}

std::size_t ShardedHexastore::ErasePattern(const IdPattern& pattern) {
  auto erase_on = [this](std::size_t i, const IdPattern& p) {
    return durables_.empty() ? plains_[i]->ErasePattern(p)
                             : durables_[i]->ErasePattern(p);
  };
  if (pattern.has_s()) {
    meters_.routed_writes.Add();
    return erase_on(Route(pattern.s), pattern);
  }
  // Fan out and sum: the subject partition is disjoint, so every erased
  // triple is counted by exactly one shard — no double counting even
  // when a shard answers via a pattern tombstone above L1.
  meters_.fanout_erases.Add();
  std::size_t erased = 0;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    erased += erase_on(i, pattern);
  }
  return erased;
}

void ShardedHexastore::Clear() {
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (durables_.empty()) {
      plains_[i]->Clear();
    } else {
      durables_[i]->Clear();
    }
  }
}

void ShardedHexastore::Compact() {
  // Draining staged state is WAL-safe on a durable shard: every staged
  // op is already logged, and the ride-along checkpoint fires at the
  // shard's next commit.
  for (DeltaHexastore* shard : shards_) {
    shard->Compact();
  }
}

std::size_t ShardedHexastore::StagedOps() const {
  std::size_t n = 0;
  for (const DeltaHexastore* shard : shards_) {
    n += shard->StagedOps();
  }
  return n;
}

// -- Pinned reads ---------------------------------------------------------

ShardedSnapshot ShardedHexastore::GetSnapshot() const {
  std::vector<DeltaHexastore::Snapshot> snaps;
  snaps.reserve(shards_.size());
  for (const DeltaHexastore* shard : shards_) {
    snaps.push_back(shard->GetSnapshot());
  }
  return ShardedSnapshot(std::move(snaps));
}

ShardedSnapshot ShardedHexastore::AcquireReadHandle() const {
  std::vector<DeltaHexastore::Snapshot> snaps;
  snaps.reserve(shards_.size());
  for (const DeltaHexastore* shard : shards_) {
    snaps.push_back(shard->AcquireReadHandle());
  }
  return ShardedSnapshot(std::move(snaps));
}

void ShardedHexastore::Publish() const {
  for (const DeltaHexastore* shard : shards_) {
    shard->GetSnapshot();
  }
}

bool ShardedHexastore::Pin(PinPolicy policy, const PinnedFn& fn) const {
  if (policy == PinPolicy::kNone) {
    return TripleStore::Pin(policy, fn);
  }
  const ShardedSnapshot snap =
      policy == PinPolicy::kLinearizable ? GetSnapshot() : AcquireReadHandle();
  fn(snap, snap.StampVector());
  return true;
}

// -- Merged accessor views ------------------------------------------------

template <typename Fn>
IdVec ShardedHexastore::GatherUnion(Fn&& per_shard) const {
  meters_.scatter_reads.Add();
  IdVec out;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    MergeUniqueInto(per_shard(*shards_[i]), &out);
  }
  return out;
}

MergedList ShardedHexastore::objects(Id s, Id p) const {
  meters_.routed_reads.Add();
  return shards_[Route(s)]->objects(s, p);
}

MergedList ShardedHexastore::predicates(Id s, Id o) const {
  meters_.routed_reads.Add();
  return shards_[Route(s)]->predicates(s, o);
}

MergedList ShardedHexastore::subjects(Id p, Id o) const {
  // Subjects are partition keys: the per-shard lists are disjoint, and
  // a sorted-unique union of sorted lists reproduces the single-store
  // order exactly.
  return OwnedMergedList(GatherUnion(
      [p, o](const DeltaHexastore& d) { return d.subjects(p, o).Materialize(); }));
}

IdVec ShardedHexastore::predicates_of_subject(Id s) const {
  meters_.routed_reads.Add();
  return shards_[Route(s)]->predicates_of_subject(s);
}

IdVec ShardedHexastore::objects_of_subject(Id s) const {
  meters_.routed_reads.Add();
  return shards_[Route(s)]->objects_of_subject(s);
}

IdVec ShardedHexastore::subjects_of_predicate(Id p) const {
  return GatherUnion(
      [p](const DeltaHexastore& d) { return d.subjects_of_predicate(p); });
}

IdVec ShardedHexastore::objects_of_predicate(Id p) const {
  return GatherUnion(
      [p](const DeltaHexastore& d) { return d.objects_of_predicate(p); });
}

IdVec ShardedHexastore::subjects_of_object(Id o) const {
  return GatherUnion(
      [o](const DeltaHexastore& d) { return d.subjects_of_object(o); });
}

IdVec ShardedHexastore::predicates_of_object(Id o) const {
  return GatherUnion(
      [o](const DeltaHexastore& d) { return d.predicates_of_object(o); });
}

// -- Durability management ------------------------------------------------

Status ShardedHexastore::status() const {
  for (const auto& durable : durables_) {
    if (Status s = durable->status(); !s.ok()) {
      return s;
    }
  }
  return Status::OK();
}

Status ShardedHexastore::Flush() {
  Status first;
  for (const auto& durable : durables_) {
    if (Status s = durable->Flush(); !s.ok() && first.ok()) {
      first = s;
    }
  }
  return first;
}

Status ShardedHexastore::Checkpoint() {
  Status first;
  for (const auto& durable : durables_) {
    if (Status s = durable->Checkpoint(); !s.ok() && first.ok()) {
      first = s;
    }
  }
  return first;
}

// -- Stats + observability ------------------------------------------------

DeltaStats ShardedHexastore::Stats() const {
  DeltaStats total;
  bool have = false;
  for (const DeltaHexastore* shard : shards_) {
    const DeltaStats s = shard->Stats();
    if (!have) {
      total = s;
      have = true;
      continue;
    }
    total.staged_inserts += s.staged_inserts;
    total.staged_tombstones += s.staged_tombstones;
    total.pattern_tombstones += s.pattern_tombstones;
    total.compactions += s.compactions;
    total.epoch += s.epoch;
    total.base_triples += s.base_triples;
    total.base_bytes += s.base_bytes;
    total.delta_bytes += s.delta_bytes;
    total.seals += s.seals;
    total.background_merges += s.background_merges;
    total.merge_discards += s.merge_discards;
    total.seal_overflows += s.seal_overflows;
    total.sealed_ops += s.sealed_ops;
    total.l0_runs += s.l0_runs;
    total.l0_ops += s.l0_ops;
    total.l1_ops += s.l1_ops;
    total.l0_merges += s.l0_merges;
    total.base_merges += s.base_merges;
    total.merge_run_ops += s.merge_run_ops;
    total.base_rebuild_triples += s.base_rebuild_triples;
    total.staged_ops_total += s.staged_ops_total;
    total.filter_probes += s.filter_probes;
    total.filter_skips += s.filter_skips;
    total.filter_false_positives += s.filter_false_positives;
    total.filters_dropped += s.filters_dropped;
    total.memory_budget_bytes += s.memory_budget_bytes;
    total.resident_bytes += s.resident_bytes;
    total.budget_seals += s.budget_seals;
    total.budget_folds += s.budget_folds;
    total.budget_base_merges += s.budget_base_merges;
  }
  RefreshShardGauges();
  return total;
}

bool ShardedHexastore::CheckInvariants(std::string* error) const {
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (!shards_[i]->CheckInvariants(error)) {
      if (error != nullptr) {
        *error = ShardDirName(i) + ": " + *error;
      }
      return false;
    }
    // Routing invariant: every triple lives where its subject hashes.
    bool misrouted = false;
    Id bad_subject = 0;
    shards_[i]->Scan(IdPattern{}, [&](const IdTriple& t) {
      if (!misrouted && Route(t.s) != i) {
        misrouted = true;
        bad_subject = t.s;
      }
    });
    if (misrouted) {
      if (error != nullptr) {
        *error = ShardDirName(i) + ": subject " +
                 std::to_string(bad_subject) + " routed to shard " +
                 std::to_string(Route(bad_subject));
      }
      return false;
    }
  }
  return true;
}

std::string ShardedHexastore::MetricsText() const {
  RefreshShardGauges();
  return shards_[0]->MetricsText();
}

std::string ShardedHexastore::MetricsJson() const {
  RefreshShardGauges();
  return shards_[0]->MetricsJson();
}

bool ShardedHexastore::DumpMetricsJson(const std::string& path) const {
  RefreshShardGauges();
  return shards_[0]->DumpMetricsJson(path);
}

// -- ShardedSnapshot ------------------------------------------------------

bool ShardedSnapshot::Contains(const IdTriple& t) const {
  return shards_[ShardedHexastore::ShardOf(t.s, shards_.size())].Contains(t);
}

std::size_t ShardedSnapshot::size() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    n += shard.size();
  }
  return n;
}

void ShardedSnapshot::Scan(const IdPattern& pattern,
                           const TripleSink& sink) const {
  if (pattern.has_s()) {
    shards_[ShardedHexastore::ShardOf(pattern.s, shards_.size())].Scan(
        pattern, sink);
    return;
  }
  for (const auto& shard : shards_) {
    shard.Scan(pattern, sink);
  }
}

std::size_t ShardedSnapshot::MemoryBytes() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    n += shard.MemoryBytes();
  }
  return n;
}

std::uint64_t ShardedSnapshot::EstimateMatches(
    const IdPattern& pattern) const {
  if (pattern.has_s()) {
    return shards_[ShardedHexastore::ShardOf(pattern.s, shards_.size())]
        .EstimateMatches(pattern);
  }
  std::uint64_t n = 0;
  for (const auto& shard : shards_) {
    n += shard.EstimateMatches(pattern);
  }
  return n;
}

std::vector<std::uint64_t> ShardedSnapshot::StampVector() const {
  std::vector<std::uint64_t> stamp;
  stamp.reserve(shards_.size() * 2);
  for (const auto& shard : shards_) {
    stamp.push_back(shard.epoch());
    stamp.push_back(shard.staged_ops());
  }
  return stamp;
}

MergedList ShardedSnapshot::objects(Id s, Id p) const {
  return shards_[ShardedHexastore::ShardOf(s, shards_.size())].objects(s, p);
}

MergedList ShardedSnapshot::predicates(Id s, Id o) const {
  return shards_[ShardedHexastore::ShardOf(s, shards_.size())].predicates(
      s, o);
}

MergedList ShardedSnapshot::subjects(Id p, Id o) const {
  IdVec out;
  for (const auto& shard : shards_) {
    MergeUniqueInto(shard.subjects(p, o).Materialize(), &out);
  }
  return OwnedMergedList(std::move(out));
}

IdVec ShardedSnapshot::predicates_of_subject(Id s) const {
  return shards_[ShardedHexastore::ShardOf(s, shards_.size())]
      .predicates_of_subject(s);
}

IdVec ShardedSnapshot::objects_of_subject(Id s) const {
  return shards_[ShardedHexastore::ShardOf(s, shards_.size())]
      .objects_of_subject(s);
}

IdVec ShardedSnapshot::subjects_of_predicate(Id p) const {
  IdVec out;
  for (const auto& shard : shards_) {
    MergeUniqueInto(shard.subjects_of_predicate(p), &out);
  }
  return out;
}

IdVec ShardedSnapshot::objects_of_predicate(Id p) const {
  IdVec out;
  for (const auto& shard : shards_) {
    MergeUniqueInto(shard.objects_of_predicate(p), &out);
  }
  return out;
}

IdVec ShardedSnapshot::subjects_of_object(Id o) const {
  IdVec out;
  for (const auto& shard : shards_) {
    MergeUniqueInto(shard.subjects_of_object(o), &out);
  }
  return out;
}

IdVec ShardedSnapshot::predicates_of_object(Id o) const {
  IdVec out;
  for (const auto& shard : shards_) {
    MergeUniqueInto(shard.predicates_of_object(o), &out);
  }
  return out;
}

}  // namespace hexastore
