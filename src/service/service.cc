#include "service/service.h"

#include <cstdint>
#include <cstdio>
#include <unordered_map>
#include <utility>

#include "common/bytes.h"
#include "common/check.h"
#include "fault/backoff.h"
#include "io/checkpoint.h"
#include "storage/codec.h"
#include "storage/delta_chain.h"

namespace himpact {
namespace {

constexpr std::uint64_t kServiceManifestMagic =
    0x48494d5053564d31ULL;  // HIMPSVM1

// Transient checkpoint write failures back off with jitter instead of
// failing the save.
constexpr RetryOptions kCheckpointRetry{};

HeavyHitters::Options HhOptions(const ServiceOptions& options) {
  HeavyHitters::Options hh;
  hh.eps = options.hh_eps;
  hh.delta = options.hh_delta;
  hh.max_papers = options.hh_max_papers;
  return hh;
}

}  // namespace

StatusOr<HImpactService> HImpactService::Create(
    const ServiceOptions& options) {
  StatusOr<TieredUserRegistry> registry = TieredUserRegistry::Create(options);
  if (!registry.ok()) return registry.status();
  if (options.enable_heavy_hitters) {
    // Validate the heavy-hitters parameters before building per-stripe
    // grids (Create is the only entry point that reports bad options).
    StatusOr<HeavyHitters> probe =
        HeavyHitters::Create(HhOptions(options), options.seed);
    if (!probe.ok()) return probe.status();
  }
  return HImpactService(std::move(registry).value());
}

HImpactService::HImpactService(TieredUserRegistry registry)
    : registry_(std::move(registry)),
      hh_stripes_(MakeHhStripes()),
      hh_report_cache_(std::make_unique<HhReportCache>()),
      deadline_exceeded_(std::make_unique<std::atomic<std::uint64_t>>(0)),
      chain_(std::make_unique<ChainState>()) {}

std::vector<std::unique_ptr<HImpactService::HhStripe>>
HImpactService::MakeHhStripes() const {
  std::vector<std::unique_ptr<HhStripe>> stripes;
  stripes.reserve(registry_.num_stripes());
  for (std::size_t i = 0; i < registry_.num_stripes(); ++i) {
    auto stripe = std::make_unique<HhStripe>();
    if (options().enable_heavy_hitters) {
      // Every stripe shares options *and seed*, the HeavyHitters::Merge
      // precondition, so HeavyReport can merge the shards on query.
      stripe->hh = std::move(HeavyHitters::Create(HhOptions(options()),
                                                  options().seed))
                       .value();
    }
    stripes.push_back(std::move(stripe));
  }
  return stripes;
}

double HImpactService::RecordResponseCount(AuthorId user,
                                           std::uint64_t value) {
  const double estimate = registry_.Add(user, value);
  if (options().enable_heavy_hitters) FeedResponseCount(user, value);
  return estimate;
}

void HImpactService::FeedResponseCount(AuthorId user, std::uint64_t value) {
  const std::size_t index = registry_.StripeOf(user);
  HhStripe& stripe = *hh_stripes_[index];
  std::lock_guard<std::mutex> lock(stripe.mu);
  PaperTuple tuple;
  tuple.paper = stripe.next_paper * registry_.num_stripes() + index;
  ++stripe.next_paper;
  tuple.authors.PushBack(user);
  tuple.citations = value;
  stripe.hh->AddPaper(tuple);
  stripe.version.fetch_add(1, std::memory_order_release);
}

void HImpactService::IngestPaper(const PaperTuple& paper) {
  if (paper.authors.empty()) return;
  for (const AuthorId author : paper.authors) {
    registry_.Add(author, paper.citations);
  }
  if (options().enable_heavy_hitters) {
    // The tuple is fed once (not per author): AddPaper hashes every
    // author internally. Partition by first author for determinism.
    HhStripe& stripe = *hh_stripes_[registry_.StripeOf(paper.authors[0])];
    std::lock_guard<std::mutex> lock(stripe.mu);
    stripe.hh->AddPaper(paper);
    stripe.version.fetch_add(1, std::memory_order_release);
  }
}

void HImpactService::ReplayPaper(const PaperTuple& paper,
                                 const std::vector<bool>& apply_mask,
                                 bool feed_hh) {
  if (paper.authors.empty()) return;
  for (int a = 0; a < paper.authors.size(); ++a) {
    const auto m = static_cast<std::size_t>(a);
    if (m < apply_mask.size() && apply_mask[m]) {
      registry_.Add(paper.authors[a], paper.citations);
    }
  }
  if (feed_hh && options().enable_heavy_hitters) {
    HhStripe& stripe = *hh_stripes_[registry_.StripeOf(paper.authors[0])];
    std::lock_guard<std::mutex> lock(stripe.mu);
    stripe.hh->AddPaper(paper);
    stripe.version.fetch_add(1, std::memory_order_release);
  }
}

void HImpactService::ReplayResponseCountGrid(AuthorId user,
                                             std::uint64_t value) {
  if (options().enable_heavy_hitters) FeedResponseCount(user, value);
}

double HImpactService::PointHIndex(AuthorId user) const {
  return registry_.PointHIndex(user);
}

bool HImpactService::Lookup(AuthorId user, UserSnapshot* out) const {
  return registry_.Lookup(user, out);
}

std::vector<LeaderboardEntry> HImpactService::TopK(std::size_t k) const {
  return registry_.TopK(k);
}

std::vector<HeavyHitterReport> HImpactService::HeavyReport() const {
  if (!options().enable_heavy_hitters) return {};
  HhReportCache& cache = *hh_report_cache_;
  std::lock_guard<std::mutex> cache_lock(cache.mu);

  // Capture every stripe's ingest epoch BEFORE merging any grid: a
  // paper that lands mid-merge bumps its epoch past the captured tag,
  // so the next query re-merges (the cache can be tagged conservatively
  // stale, never stale-served-as-fresh).
  std::vector<std::uint64_t> versions;
  versions.reserve(hh_stripes_.size());
  for (const auto& stripe : hh_stripes_) {
    versions.push_back(stripe->version.load(std::memory_order_acquire));
  }

  if (cache.valid && cache.versions == versions) {
    ++cache.hits;
    return cache.reports;
  }

  std::optional<HeavyHitters> merged;
  for (const auto& stripe : hh_stripes_) {
    std::lock_guard<std::mutex> lock(stripe->mu);
    if (!merged.has_value()) {
      merged = *stripe->hh;
    } else {
      merged->Merge(*stripe->hh);
    }
  }
  cache.reports = merged->Report();
  cache.versions = std::move(versions);
  cache.valid = true;
  ++cache.misses;
  return cache.reports;
}

ServiceStats HImpactService::Stats() const {
  ServiceStats stats;
  stats.registry = registry_.Stats();
  if (options().enable_heavy_hitters) {
    for (const auto& stripe : hh_stripes_) {
      std::lock_guard<std::mutex> lock(stripe->mu);
      stats.hh_papers += stripe->hh->num_papers();
    }
  }
  {
    std::lock_guard<std::mutex> lock(hh_report_cache_->mu);
    stats.hh_report_cache_hits = hh_report_cache_->hits;
    stats.hh_report_cache_misses = hh_report_cache_->misses;
  }
  {
    std::lock_guard<std::mutex> lock(chain_->mu);
    stats.checkpoint = chain_->counters;
  }
  stats.deadline_exceeded =
      deadline_exceeded_->load(std::memory_order_relaxed);
  return stats;
}

StatusOr<double> HImpactService::TryRecordResponseCount(AuthorId user,
                                                        std::uint64_t value) {
  return RecordResponseCount(user, value);
}

Status HImpactService::TryIngestPaper(const PaperTuple& paper) {
  IngestPaper(paper);
  return Status::OK();
}

StatusOr<TopKResult> HImpactService::TryTopK(std::size_t k) {
  const std::uint64_t budget = options().top_deadline_nanos;
  std::uint64_t deadline = 0;
  if (budget != 0) {
    const std::uint64_t now = FaultClock::NowNanos();
    deadline = budget > UINT64_MAX - now ? UINT64_MAX : now + budget;
  }
  TopKResult result;
  result.entries = registry_.TopK(k, deadline, &result.stripes_skipped);
  if (result.stripes_skipped > 0) {
    deadline_exceeded_->fetch_add(1, std::memory_order_relaxed);
  }
  return result;
}

std::string HImpactService::StripePath(const std::string& path,
                                       std::size_t i) {
  return path + ".stripe-" + std::to_string(i);
}

Status HImpactService::CheckpointTo(const std::string& path) const {
  return CheckpointTo(path, SaveMode::kFull);
}

Status HImpactService::CheckpointTo(const std::string& path,
                                    SaveMode mode) const {
  // One checkpoint or restore at a time: two callers must never
  // interleave their head / stripe / delta writes (see
  // ChainState::op_mu).
  std::lock_guard<std::mutex> op_lock(chain_->op_mu);
  if (mode == SaveMode::kIncremental) return CheckpointIncremental(path);
  return CheckpointFull(path);
}

HImpactService::StripeSnapshot HImpactService::SnapshotStripe(
    std::size_t i) const {
  StripeSnapshot snap;
  // Epochs are captured BEFORE the stripe is serialized: a mutation that
  // races the serialization moves the live epoch past the captured one,
  // so the next incremental save re-serializes the stripe — the capture
  // can only be conservative, never miss a change.
  snap.reg_epoch = registry_.DirtyEpoch(i);
  snap.hh_epoch = hh_stripes_[i]->version.load(std::memory_order_acquire);
  ByteWriter writer;
  registry_.SerializeStripe(i, writer);
  writer.U8(options().enable_heavy_hitters ? 1 : 0);
  if (options().enable_heavy_hitters) {
    const HhStripe& stripe = *hh_stripes_[i];
    std::lock_guard<std::mutex> lock(stripe.mu);
    stripe.hh->SerializeTo(writer);
    writer.U64(stripe.next_paper);
  }
  snap.payload = writer.Take();
  snap.hash = Fnv1a64(snap.payload);
  return snap;
}

Status HImpactService::CheckpointFull(const std::string& path) const {
  const std::size_t n = registry_.num_stripes();
  // A crash mid-save must restore no older state than the last completed
  // save. The head cuts any delta chain over to the full files, and a
  // restore then reads every stripe from its full file, so each full
  // file must hold its new payload or the chain tip's by then. The chain
  // this service extends at `path` keeps some stripes in deltas; their
  // full files hold the chain's root, which the tip has moved past, so
  // they are rewritten first, while the head still pins the tip (which
  // does not read them). A chain this service does not know is cut
  // first, as if every stripe were at generation 0.
  std::vector<bool> in_delta(n, false);
  {
    std::lock_guard<std::mutex> lock(chain_->mu);
    if (chain_->valid && chain_->path == path) {
      for (std::size_t i = 0; i < n; ++i) in_delta[i] = chain_->loc_gens[i] > 0;
    }
  }

  std::vector<std::uint64_t> reg_epochs(n), hh_epochs(n), hashes(n);
  std::uint64_t bytes = 0;
  const auto write_stripes = [&](bool delta_resident) -> Status {
    for (std::size_t i = 0; i < n; ++i) {
      if (in_delta[i] != delta_resident) continue;
      StripeSnapshot snap = SnapshotStripe(i);
      Status written = RetryWithBackoff(kCheckpointRetry, [&] {
        return WriteCheckpointFile(StripePath(path, i),
                                   CheckpointTag::kServiceStripe,
                                   snap.payload);
      });
      if (!written.ok()) return written;
      reg_epochs[i] = snap.reg_epoch;
      hh_epochs[i] = snap.hh_epoch;
      hashes[i] = snap.hash;
      bytes += snap.payload.size();
    }
    return Status::OK();
  };
  Status written = write_stripes(true);
  if (!written.ok()) return written;
  written = RetryWithBackoff(kCheckpointRetry,
                             [&] { return WriteHead(HeadPath(path), 0); });
  if (!written.ok()) return written;
  written = write_stripes(false);
  if (!written.ok()) return written;

  // Manifest last: an openable manifest implies every stripe it
  // references was durably written (same discipline as the sharded
  // engine's checkpoint).
  ByteWriter manifest;
  manifest.U64(kServiceManifestMagic);
  const ServiceOptions& opts = options();
  manifest.F64(opts.eps);
  manifest.U64(opts.max_h);
  manifest.U64(static_cast<std::uint64_t>(opts.num_stripes));
  manifest.U64(opts.promote_threshold);
  manifest.U64(opts.memory_budget_bytes);
  manifest.U64(static_cast<std::uint64_t>(opts.leaderboard_capacity));
  manifest.U8(opts.enable_heavy_hitters ? 1 : 0);
  manifest.F64(opts.hh_eps);
  manifest.F64(opts.hh_delta);
  manifest.U64(opts.hh_max_papers);
  manifest.U64(opts.seed);
  manifest.U64(registry_.Stats().total_events);
  written = RetryWithBackoff(kCheckpointRetry, [&] {
    return WriteCheckpointFile(path, CheckpointTag::kServiceManifest,
                               manifest.buffer());
  });
  if (!written.ok()) return written;

  std::lock_guard<std::mutex> lock(chain_->mu);
  chain_->valid = true;
  chain_->path = path;
  chain_->generation = 0;
  chain_->reg_epochs = std::move(reg_epochs);
  chain_->hh_epochs = std::move(hh_epochs);
  chain_->hashes = std::move(hashes);
  chain_->loc_gens.assign(n, 0);
  ++chain_->counters.full_saves;
  chain_->counters.stripes_written += n;
  chain_->counters.bytes_full += bytes;
  chain_->counters.chain_generation = 0;
  return Status::OK();
}

Status HImpactService::CheckpointIncremental(const std::string& path) const {
  std::unique_lock<std::mutex> lock(chain_->mu);
  if (!chain_->valid || chain_->path != path) {
    // No chain to extend (first save to this path, or a different
    // path): a full save roots one. Counted, never an error.
    ++chain_->counters.incremental_fallbacks;
    lock.unlock();
    return CheckpointFull(path);
  }
  if (options().max_chain_len > 0 &&
      chain_->generation + 1 > options().max_chain_len) {
    // The chain is at its cap: one more delta would push a restore
    // walk past --max-chain-len generations. Escalate to a full save
    // so restore cost stays bounded.
    ++chain_->counters.chain_escalations;
    lock.unlock();
    return CheckpointFull(path);
  }

  const std::size_t n = registry_.num_stripes();
  const std::uint64_t generation = chain_->generation + 1;
  DeltaManifest manifest;
  manifest.generation = generation;
  manifest.parent = chain_->generation;
  manifest.total_events = registry_.Stats().total_events;
  manifest.stripes.resize(n);

  // Stage the post-save chain state; commit only after both writes land
  // (a failed or torn delta leaves the previous chain authoritative).
  std::vector<std::uint64_t> reg_epochs = chain_->reg_epochs;
  std::vector<std::uint64_t> hh_epochs = chain_->hh_epochs;
  std::vector<std::uint64_t> hashes = chain_->hashes;
  std::vector<std::uint64_t> loc_gens = chain_->loc_gens;
  std::vector<std::pair<std::uint64_t, std::vector<std::uint8_t>>> records;
  std::uint64_t written = 0;
  std::uint64_t skipped_clean = 0;
  std::uint64_t skipped_dedup = 0;
  std::uint64_t bytes = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (registry_.DirtyEpoch(i) == chain_->reg_epochs[i] &&
        hh_stripes_[i]->version.load(std::memory_order_acquire) ==
            chain_->hh_epochs[i]) {
      // Clean since the last save: the manifest re-points at wherever
      // the stripe already lives.
      manifest.stripes[i] = {chain_->loc_gens[i], chain_->hashes[i]};
      ++skipped_clean;
      continue;
    }
    StripeSnapshot snap = SnapshotStripe(i);
    reg_epochs[i] = snap.reg_epoch;
    hh_epochs[i] = snap.hh_epoch;
    if (snap.hash == chain_->hashes[i]) {
      // The epoch moved but the payload converged back to what the
      // chain already holds (hash dedup across generations): keep the
      // old location, advance the stored epoch so the stripe reads
      // clean next time.
      manifest.stripes[i] = {chain_->loc_gens[i], chain_->hashes[i]};
      ++skipped_dedup;
      continue;
    }
    manifest.stripes[i] = {generation, snap.hash};
    hashes[i] = snap.hash;
    loc_gens[i] = generation;
    bytes += snap.payload.size();
    records.emplace_back(
        i, SealEnvelope(CheckpointTag::kServiceStripe, snap.payload));
    ++written;
  }

  Status delta = RetryWithBackoff(kCheckpointRetry, [&] {
    return WriteDeltaSegment(DeltaPath(path, generation), manifest, records);
  });
  if (!delta.ok()) return delta;
  Status head = RetryWithBackoff(kCheckpointRetry, [&] {
    return WriteHead(HeadPath(path), generation);
  });
  if (!head.ok()) return head;

  chain_->generation = generation;
  chain_->reg_epochs = std::move(reg_epochs);
  chain_->hh_epochs = std::move(hh_epochs);
  chain_->hashes = std::move(hashes);
  chain_->loc_gens = std::move(loc_gens);
  ++chain_->counters.incremental_saves;
  chain_->counters.stripes_written += written;
  chain_->counters.stripes_skipped_clean += skipped_clean;
  chain_->counters.stripes_skipped_dedup += skipped_dedup;
  chain_->counters.bytes_incremental += bytes;
  chain_->counters.chain_generation = generation;
  return Status::OK();
}

StatusOr<ServiceManifest> HImpactService::ReadManifest(
    const std::string& path) {
  StatusOr<std::vector<std::uint8_t>> payload =
      ReadCheckpointFile(path, CheckpointTag::kServiceManifest);
  if (!payload.ok()) return payload.status();
  ByteReader reader(payload.value());

  std::uint64_t magic = 0;
  if (!reader.U64(&magic) || magic != kServiceManifestMagic) {
    return Status::InvalidArgument("not a service manifest");
  }
  ServiceManifest manifest;
  ServiceOptions& opts = manifest.options;
  std::uint64_t num_stripes = 0;
  std::uint64_t leaderboard_capacity = 0;
  std::uint8_t hh_enabled = 0;
  if (!reader.F64(&opts.eps) || !reader.U64(&opts.max_h) ||
      !reader.U64(&num_stripes) || !reader.U64(&opts.promote_threshold) ||
      !reader.U64(&opts.memory_budget_bytes) ||
      !reader.U64(&leaderboard_capacity) || !reader.U8(&hh_enabled) ||
      !reader.F64(&opts.hh_eps) || !reader.F64(&opts.hh_delta) ||
      !reader.U64(&opts.hh_max_papers) || !reader.U64(&opts.seed) ||
      !reader.U64(&manifest.total_events)) {
    return Status::InvalidArgument("truncated service manifest");
  }
  if (hh_enabled > 1) {
    return Status::InvalidArgument("bad heavy-hitters flag in manifest");
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("service manifest has trailing bytes");
  }
  opts.num_stripes = static_cast<std::size_t>(num_stripes);
  opts.leaderboard_capacity = static_cast<std::size_t>(leaderboard_capacity);
  opts.enable_heavy_hitters = hh_enabled == 1;
  return manifest;
}

Status HImpactService::DecodeStripePayload(
    std::size_t i, const std::vector<std::uint8_t>& payload,
    TieredUserRegistry& registry,
    std::vector<std::unique_ptr<HhStripe>>& hh) const {
  ByteReader reader(payload);
  Status stripe_status = registry.DeserializeStripe(i, reader);
  if (!stripe_status.ok()) return stripe_status;
  std::uint8_t hh_flag = 0;
  if (!reader.U8(&hh_flag)) {
    return Status::InvalidArgument("truncated stripe heavy-hitters flag");
  }
  if ((hh_flag == 1) != options().enable_heavy_hitters) {
    return Status::InvalidArgument(
        "stripe heavy-hitters flag disagrees with the manifest");
  }
  if (hh_flag == 1) {
    StatusOr<HeavyHitters> grid = HeavyHitters::DeserializeFrom(reader);
    if (!grid.ok()) return grid.status();
    if (!reader.U64(&hh[i]->next_paper)) {
      return Status::InvalidArgument("truncated stripe paper counter");
    }
    hh[i]->hh = std::move(grid).value();
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("stripe payload has trailing bytes");
  }
  return Status::OK();
}

Status HImpactService::LoadChainPayloads(
    const std::string& path, std::uint64_t g,
    std::vector<std::vector<std::uint8_t>>* payloads,
    std::vector<std::uint64_t>* loc_gens,
    std::vector<std::uint64_t>* hashes) const {
  const std::size_t n = registry_.num_stripes();
  StatusOr<SegmentReader> newest = OpenDeltaSegment(DeltaPath(path, g));
  if (!newest.ok()) return newest.status();
  StatusOr<DeltaManifest> manifest = ReadDeltaManifest(newest.value());
  if (!manifest.ok()) return manifest.status();
  if (manifest.value().generation != g ||
      manifest.value().stripes.size() != n) {
    return Status::InvalidArgument(
        "delta manifest does not cover this generation / stripe layout");
  }
  std::unordered_map<std::uint64_t, SegmentReader> readers;
  readers.emplace(g, std::move(newest).value());
  for (std::size_t i = 0; i < n; ++i) {
    const DeltaStripeLoc& loc = manifest.value().stripes[i];
    std::vector<std::uint8_t> payload;
    if (loc.generation == 0) {
      StatusOr<std::vector<std::uint8_t>> full = ReadCheckpointFile(
          StripePath(path, i), CheckpointTag::kServiceStripe);
      if (!full.ok()) return full.status();
      payload = std::move(full).value();
    } else {
      if (loc.generation > g) {
        return Status::InvalidArgument(
            "delta manifest points past its own generation");
      }
      auto it = readers.find(loc.generation);
      if (it == readers.end()) {
        StatusOr<SegmentReader> reader =
            OpenDeltaSegment(DeltaPath(path, loc.generation));
        if (!reader.ok()) return reader.status();
        it = readers.emplace(loc.generation, std::move(reader).value()).first;
      }
      StatusOr<std::vector<std::uint8_t>> sealed =
          ReadDeltaStripeEnvelope(it->second, i);
      if (!sealed.ok()) return sealed.status();
      StatusOr<std::vector<std::uint8_t>> opened =
          OpenEnvelope(sealed.value(), CheckpointTag::kServiceStripe);
      if (!opened.ok()) return opened.status();
      payload = std::move(opened).value();
    }
    if (Fnv1a64(payload) != loc.payload_hash) {
      return Status::InvalidArgument(
          "stripe payload hash disagrees with the delta manifest");
    }
    (*loc_gens)[i] = loc.generation;
    (*hashes)[i] = loc.payload_hash;
    payloads->push_back(std::move(payload));
  }
  return Status::OK();
}

Status HImpactService::RestoreFrom(const std::string& path) {
  std::lock_guard<std::mutex> op_lock(chain_->op_mu);
  StatusOr<ServiceManifest> manifest = ReadManifest(path);
  if (!manifest.ok()) return manifest.status();
  const ServiceOptions& recorded = manifest.value().options;
  const ServiceOptions& mine = options();
  if (recorded.eps != mine.eps || recorded.max_h != mine.max_h ||
      recorded.num_stripes != mine.num_stripes ||
      recorded.promote_threshold != mine.promote_threshold ||
      recorded.memory_budget_bytes != mine.memory_budget_bytes ||
      recorded.leaderboard_capacity != mine.leaderboard_capacity ||
      recorded.enable_heavy_hitters != mine.enable_heavy_hitters ||
      recorded.hh_eps != mine.hh_eps || recorded.hh_delta != mine.hh_delta ||
      recorded.hh_max_papers != mine.hh_max_papers ||
      recorded.seed != mine.seed) {
    return Status::FailedPrecondition(
        "service checkpoint was recorded with different options");
  }

  // Decode every stripe into fresh state; commit only if all succeed.
  StatusOr<TieredUserRegistry> fresh_registry =
      TieredUserRegistry::Create(mine);
  if (!fresh_registry.ok()) return fresh_registry.status();
  std::vector<std::unique_ptr<HhStripe>> fresh_hh = MakeHhStripes();

  // Pick the payload set: the newest restorable delta generation if a
  // head pins a chain, else (or after exhausting damaged deltas) the
  // plain full files — the `RestoreOrFallback` discipline, per
  // generation.
  const std::size_t n = mine.num_stripes;
  std::vector<std::vector<std::uint8_t>> payloads;
  std::vector<std::uint64_t> loc_gens(n, 0);
  std::vector<std::uint64_t> hashes(n, 0);
  std::uint64_t generation = 0;
  std::uint64_t chain_fallbacks = 0;
  StatusOr<std::uint64_t> head = ReadHead(HeadPath(path));
  if (head.ok()) {
    for (std::uint64_t g = head.value(); g > 0; --g) {
      payloads.clear();
      loc_gens.assign(n, 0);
      hashes.assign(n, 0);
      Status loaded = LoadChainPayloads(path, g, &payloads, &loc_gens,
                                        &hashes);
      if (loaded.ok()) {
        generation = g;
        break;
      }
      ++chain_fallbacks;
    }
  }
  if (generation == 0) {
    // Legacy (headless) checkpoint, head at 0, or every delta damaged:
    // the full files are the payload set.
    payloads.clear();
    loc_gens.assign(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      StatusOr<std::vector<std::uint8_t>> payload = ReadCheckpointFile(
          StripePath(path, i), CheckpointTag::kServiceStripe);
      if (!payload.ok()) return payload.status();
      hashes[i] = Fnv1a64(payload.value());
      payloads.push_back(std::move(payload).value());
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    Status decoded =
        DecodeStripePayload(i, payloads[i], fresh_registry.value(), fresh_hh);
    if (!decoded.ok()) return decoded;
  }

  registry_ = std::move(fresh_registry).value();
  hh_stripes_ = std::move(fresh_hh);
  // The fresh stripes restart their ingest epochs at 0. A cache tagged
  // with the pre-restore epochs could coincidentally match (e.g. an
  // all-zeros tag captured before any ingest), so invalidate
  // explicitly — the hh-stripe epochs themselves give no restore
  // signal, unlike the registry's (bumped by DeserializeStripe).
  {
    std::lock_guard<std::mutex> lock(hh_report_cache_->mu);
    hh_report_cache_->valid = false;
    hh_report_cache_->versions.clear();
    hh_report_cache_->reports.clear();
  }
  // The in-RAM state now equals the restored generation's on-disk
  // payloads, so root the chain here: a subsequent incremental save to
  // the same path extends it instead of rewriting everything.
  {
    std::lock_guard<std::mutex> lock(chain_->mu);
    chain_->valid = true;
    chain_->path = path;
    chain_->generation = generation;
    chain_->reg_epochs.resize(n);
    chain_->hh_epochs.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      chain_->reg_epochs[i] = registry_.DirtyEpoch(i);
      chain_->hh_epochs[i] =
          hh_stripes_[i]->version.load(std::memory_order_acquire);
    }
    chain_->hashes = std::move(hashes);
    chain_->loc_gens = std::move(loc_gens);
    chain_->counters.restore_chain_fallbacks += chain_fallbacks;
    chain_->counters.chain_generation = generation;
  }
  // Operators watch this line: a creeping generation means checkpoints
  // are incremental-only and restores are walking an ever-longer chain
  // (--max-chain-len escalation should be cutting it back).
  std::fprintf(stderr,
               "hstream: restored %s at chain generation %llu"
               " (%llu damaged generation(s) skipped)\n",
               path.c_str(), static_cast<unsigned long long>(generation),
               static_cast<unsigned long long>(chain_fallbacks));
  return Status::OK();
}

}  // namespace himpact
