#include "service/service.h"

#include <cstdint>
#include <string>
#include <utility>

#include "common/bytes.h"
#include "common/check.h"
#include "fault/backoff.h"
#include "io/checkpoint.h"

namespace himpact {
namespace {

constexpr std::uint64_t kServiceManifestMagic =
    0x48494d5053564d31ULL;  // HIMPSVM1
// The `path.head` of an earlier build's delta chain (HIMPDHD1).
constexpr std::uint64_t kDeltaHeadMagic = 0x31444844504D4948ULL;

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

std::string HeadPath(const std::string& path) { return path + ".head"; }

// The generation a delta-chain head names. `kUnavailable` when there is
// no head; `kInvalidArgument` when it does not decode.
StatusOr<std::uint64_t> ReadHeadGeneration(const std::string& path) {
  StatusOr<std::vector<std::uint8_t>> payload =
      ReadCheckpointFile(path, CheckpointTag::kDeltaHead);
  if (!payload.ok()) return payload.status();
  ByteReader reader(payload.value());
  std::uint64_t magic = 0;
  std::uint64_t generation = 0;
  if (!reader.U64(&magic) || magic != kDeltaHeadMagic ||
      !reader.U64(&generation) || !reader.AtEnd()) {
    return Status::InvalidArgument("bad checkpoint head file " + path);
  }
  return generation;
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
      checkpoint_(std::make_unique<CheckpointState>()) {}

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
    std::lock_guard<std::mutex> lock(checkpoint_->mu);
    stats.checkpoint = checkpoint_->counters;
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

std::vector<std::uint8_t> HImpactService::SnapshotStripe(
    std::size_t i) const {
  ByteWriter writer;
  registry_.SerializeStripe(i, writer);
  writer.U8(options().enable_heavy_hitters ? 1 : 0);
  if (options().enable_heavy_hitters) {
    const HhStripe& stripe = *hh_stripes_[i];
    std::lock_guard<std::mutex> lock(stripe.mu);
    stripe.hh->SerializeTo(writer);
    writer.U64(stripe.next_paper);
  }
  return writer.Take();
}

Status HImpactService::CheckpointTo(const std::string& path) const {
  // One checkpoint or restore at a time: two callers must never
  // interleave their stripe writes (see CheckpointState::op_mu).
  std::lock_guard<std::mutex> op_lock(checkpoint_->op_mu);
  const std::size_t n = registry_.num_stripes();
  std::uint64_t bytes = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::vector<std::uint8_t> payload = SnapshotStripe(i);
    const Status written = RetryWithBackoff(kCheckpointRetry, [&] {
      return WriteCheckpointFile(StripePath(path, i),
                                 CheckpointTag::kServiceStripe, payload);
    });
    if (!written.ok()) return written;
    bytes += payload.size();
  }
  // An earlier build's delta chain at `path` is superseded only now that
  // every stripe file holds this save: until here a head naming a delta
  // makes a restore refuse, never read a mix of old and new stripes.
  Status removed = RemoveFileDurably(HeadPath(path));
  if (!removed.ok()) return removed;

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
  const Status written = RetryWithBackoff(kCheckpointRetry, [&] {
    return WriteCheckpointFile(path, CheckpointTag::kServiceManifest,
                               manifest.buffer());
  });
  if (!written.ok()) return written;

  std::lock_guard<std::mutex> lock(checkpoint_->mu);
  ++checkpoint_->counters.full_saves;
  checkpoint_->counters.bytes_full += bytes;
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

Status HImpactService::CheckNotADeltaChain(const std::string& path) {
  // A head naming generation g > 0 means the newest state of an earlier
  // build's delta chain lives in `path.delta-<g>`, and the stripe files
  // may hold only its root: restoring them would silently go back in
  // time. A head at generation 0 pins the stripe files themselves.
  StatusOr<std::uint64_t> head = ReadHeadGeneration(HeadPath(path));
  if (!head.ok() && head.status().code() != StatusCode::kUnavailable) {
    return Status::FailedPrecondition(head.status().message());
  }
  if (head.ok() && head.value() > 0) {
    return Status::FailedPrecondition(
        path + " is an incremental checkpoint at delta generation " +
        std::to_string(head.value()) +
        ", which this build does not read; restore it with the previous "
        "build and take a full save");
  }
  return Status::OK();
}

Status HImpactService::RestoreFrom(const std::string& path) {
  std::lock_guard<std::mutex> op_lock(checkpoint_->op_mu);
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

  Status not_a_chain = CheckNotADeltaChain(path);
  if (!not_a_chain.ok()) return not_a_chain;

  // Decode every stripe into fresh state; commit only if all succeed.
  StatusOr<TieredUserRegistry> fresh_registry =
      TieredUserRegistry::Create(mine);
  if (!fresh_registry.ok()) return fresh_registry.status();
  std::vector<std::unique_ptr<HhStripe>> fresh_hh = MakeHhStripes();

  // Every payload is read before any is decoded. Decoding each stripe
  // right after its read lowers peak memory, but the restored state then
  // served measurably slower (perfbench `ingest` and `coldtier`).
  std::vector<std::vector<std::uint8_t>> payloads;
  for (std::size_t i = 0; i < mine.num_stripes; ++i) {
    StatusOr<std::vector<std::uint8_t>> payload = ReadCheckpointFile(
        StripePath(path, i), CheckpointTag::kServiceStripe);
    if (!payload.ok()) return payload.status();
    payloads.push_back(std::move(payload).value());
  }
  for (std::size_t i = 0; i < mine.num_stripes; ++i) {
    Status decoded =
        DecodeStripePayload(i, payloads[i], fresh_registry.value(), fresh_hh);
    if (!decoded.ok()) return decoded;
  }

  registry_ = std::move(fresh_registry).value();
  hh_stripes_ = std::move(fresh_hh);
  // The fresh stripes restart their ingest epochs at 0. A cache tagged
  // with the pre-restore epochs could coincidentally match (e.g. an
  // all-zeros tag captured before any ingest), so invalidate
  // explicitly: the hh-stripe epochs themselves give no restore signal.
  {
    std::lock_guard<std::mutex> lock(hh_report_cache_->mu);
    hh_report_cache_->valid = false;
    hh_report_cache_->versions.clear();
    hh_report_cache_->reports.clear();
  }
  return Status::OK();
}

}  // namespace himpact
