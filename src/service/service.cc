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

// Decodes the grid at `reader` into the one being restored: the first
// is adopted, later ones (earlier layouts keep one per stripe) merge into
// it, which is exact. A reservoir-format grid is `kFailedPrecondition`
// (a refused format); a grid built with other options is corrupt.
Status FoldGrid(ByteReader& reader, const ServiceOptions& options,
                std::optional<HeavyHitters>* grid) {
  StatusOr<HeavyHitters> found = HeavyHitters::DeserializeFrom(reader);
  if (!found.ok()) return found.status();
  if (!found.value().BuiltWith(HhOptions(options), options.seed)) {
    return Status::InvalidArgument(
        "heavy-hitters grid recorded with different options");
  }
  if (grid->has_value()) {
    (*grid)->Merge(found.value());
  } else {
    *grid = std::move(found).value();
  }
  return Status::OK();
}

// Decodes stripe `i`'s payload into the registry a restore assembles.
// An earlier layout's payload ends in a heavy-hitters flag and, when
// set, a grid, which is folded into `*grid` and sets `*had_grid`.
Status DecodeStripePayload(std::size_t i,
                           const std::vector<std::uint8_t>& payload,
                           const ServiceOptions& options,
                           TieredUserRegistry& registry,
                           std::optional<HeavyHitters>* grid,
                           bool* had_grid) {
  ByteReader reader(payload);
  int layout = 0;
  Status stripe_status = registry.DeserializeStripe(i, reader, &layout);
  if (!stripe_status.ok()) return stripe_status;
  // HIMPSRG1-HIMPSRG3 end in the stripe's heavy-hitters flag and grid;
  // HIMPSRG4 keeps the grid in `path.grid`.
  if (layout < 4) {
    std::uint8_t hh_flag = 0;
    if (!reader.U8(&hh_flag)) {
      return Status::InvalidArgument("truncated stripe heavy-hitters flag");
    }
    if ((hh_flag == 1) != options.enable_heavy_hitters) {
      return Status::InvalidArgument(
          "stripe heavy-hitters flag disagrees with the manifest");
    }
    if (hh_flag == 1) {
      Status folded = FoldGrid(reader, options, grid);
      if (!folded.ok()) return folded;
      *had_grid = true;
      // HIMPSRG1 and HIMPSRG2 end in the counter they minted add ids
      // from. Ids now derive from stripe sequences, which lie above it.
      std::uint64_t paper_counter = 0;
      if (layout < 3 && !reader.U64(&paper_counter)) {
        return Status::InvalidArgument("truncated stripe paper counter");
      }
    }
  }
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("stripe payload has trailing bytes");
  }
  return Status::OK();
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

// `kFailedPrecondition` when `path` holds an earlier build's delta chain
// (a head naming generation g > 0): its newest state lives in
// `path.delta-<g>`, so restoring the stripe files would go back in time.
Status CheckNotADeltaChain(const std::string& path) {
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

}  // namespace

HeavyHitters::Options HhOptions(const ServiceOptions& options) {
  HeavyHitters::Options hh;
  hh.eps = options.hh_eps;
  hh.delta = options.hh_delta;
  hh.max_papers = options.hh_max_papers;
  return hh;
}

StatusOr<HImpactService> HImpactService::Create(
    const ServiceOptions& options) {
  StatusOr<TieredUserRegistry> registry = TieredUserRegistry::Create(options);
  if (!registry.ok()) return registry.status();
  std::optional<HeavyHitters> grid;
  if (options.enable_heavy_hitters) {
    StatusOr<HeavyHitters> created =
        HeavyHitters::Create(HhOptions(options), options.seed);
    if (!created.ok()) return created.status();
    grid = std::move(created).value();
  }
  return HImpactService(std::move(registry).value(), std::move(grid));
}

HImpactService::HImpactService(TieredUserRegistry registry,
                               std::optional<HeavyHitters> grid)
    : registry_(std::move(registry)),
      grid_(std::make_unique<Grid>()),
      deadline_exceeded_(std::make_unique<std::atomic<std::uint64_t>>(0)),
      checkpoint_(std::make_unique<CheckpointState>()) {
  if (grid.has_value()) grid_->coverage.resize(registry_.num_stripes());
  grid_->hh = std::move(grid);
}

double HImpactService::RecordResponseCount(AuthorId user,
                                           std::uint64_t value,
                                           std::uint64_t* stripe_seq) {
  PaperTuple tuple;
  tuple.authors.PushBack(user);
  tuple.citations = value;
  ServiceWrite write;
  write.paper = &tuple;
  write.add = true;
  write.stripe_seqs = stripe_seq;
  ApplyRun({&write, 1});
  return write.estimate;
}

PaperTuple HImpactService::ResponseCountPaper(AuthorId user,
                                              std::uint64_t value,
                                              std::uint64_t stripe_seq) const {
  PaperTuple paper;
  paper.paper = stripe_seq * registry_.num_stripes() + registry_.StripeOf(user);
  paper.citations = value;
  paper.authors.PushBack(user);
  return paper;
}

void HImpactService::ApplyPaper(const PaperTuple& paper,
                                std::uint32_t author_bits, bool feed_grid,
                                std::uint64_t* stripe_seqs) {
  ServiceWrite write;
  write.paper = &paper;
  write.author_bits = author_bits;
  write.feed_grid = feed_grid;
  write.stripe_seqs = stripe_seqs;
  ApplyRun({&write, 1});
}

void HImpactService::ApplyRun(std::span<ServiceWrite> writes) {
  // Reused across runs (serving is one thread, replay one job per
  // worker), so a steady run allocates nothing.
  thread_local std::vector<UserEvent> events;
  thread_local std::vector<std::uint64_t> seqs;
  thread_local std::vector<double> estimates;
  thread_local std::vector<PaperTuple> tuples;
  events.clear();
  for (const ServiceWrite& write : writes) {
    const PaperTuple& paper = *write.paper;
    for (int a = 0; a < paper.authors.size(); ++a) {
      if (((write.author_bits >> a) & 1u) != 0) {
        events.push_back({paper.authors[a], paper.citations});
      }
    }
  }
  seqs.resize(events.size());
  estimates.resize(events.size());
  registry_.ApplyRun(events, seqs.data(), estimates.data());

  const bool grid = options().enable_heavy_hitters;
  tuples.clear();
  std::size_t event = 0;
  for (ServiceWrite& write : writes) {
    const PaperTuple& paper = *write.paper;
    const std::size_t first = event;
    for (int a = 0; a < paper.authors.size(); ++a) {
      if (((write.author_bits >> a) & 1u) == 0) continue;
      if (write.stripe_seqs != nullptr) write.stripe_seqs[a] = seqs[event];
      write.estimate = estimates[event];
      ++event;
    }
    if (!grid || !write.feed_grid || paper.authors.empty()) continue;
    if (write.add) {
      HIMPACT_DCHECK(event > first);
      tuples.push_back(ResponseCountPaper(paper.authors[0], paper.citations,
                                          seqs[first]));
    } else {
      tuples.push_back(paper);
    }
  }
  if (tuples.empty()) return;
  std::lock_guard<std::mutex> lock(grid_->mu);
  grid_->hh->AddPaperBatch(tuples);
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
  Grid& grid = *grid_;
  std::lock_guard<std::mutex> lock(grid.mu);
  if (grid.reports_epoch == grid.hh->num_papers()) {
    ++grid.hits;
  } else {
    grid.reports = grid.hh->Report();
    grid.reports_epoch = grid.hh->num_papers();
    ++grid.misses;
  }
  return grid.reports;
}

ServiceStats HImpactService::Stats() const {
  ServiceStats stats;
  stats.registry = registry_.Stats();
  {
    std::lock_guard<std::mutex> lock(grid_->mu);
    if (grid_->hh.has_value()) {
      stats.hh_papers = grid_->hh->num_papers();
    }
    stats.hh_report_cache_hits = grid_->hits;
    stats.hh_report_cache_misses = grid_->misses;
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

std::string HImpactService::GridPath(const std::string& path) {
  return path + ".grid";
}

std::vector<std::uint64_t> HImpactService::GridCoverage() const {
  std::lock_guard<std::mutex> lock(grid_->mu);
  return grid_->coverage;
}

Status HImpactService::CheckpointTo(const std::string& path) const {
  // One checkpoint or restore at a time: two callers must never
  // interleave their stripe writes (see CheckpointState::op_mu).
  std::lock_guard<std::mutex> op_lock(checkpoint_->op_mu);
  std::uint64_t bytes = 0;
  const auto write = [&bytes](const std::string& file, CheckpointTag tag,
                              const ByteWriter& payload) {
    const Status written = RetryWithBackoff(kCheckpointRetry, [&] {
      return WriteCheckpointFile(file, tag, payload.buffer());
    });
    if (written.ok()) bytes += payload.buffer().size();
    return written;
  };
  for (std::size_t i = 0; i < registry_.num_stripes(); ++i) {
    ByteWriter payload;
    registry_.SerializeStripe(i, payload);
    Status written =
        write(StripePath(path, i), CheckpointTag::kServiceStripe, payload);
    if (!written.ok()) return written;
  }
  if (options().enable_heavy_hitters) {
    // The grid's coverage (see `GridCoverage`), read before the grid: a
    // write racing the save can only be replayed into the grid twice,
    // never skipped. Saves on the session thread race no write.
    ByteWriter payload;
    for (std::size_t i = 0; i < registry_.num_stripes(); ++i) {
      payload.U64(registry_.StripeEvents(i));
    }
    {
      std::lock_guard<std::mutex> lock(grid_->mu);
      grid_->hh->SerializeTo(payload);
    }
    Status written =
        write(GridPath(path), CheckpointTag::kServiceGrid, payload);
    if (!written.ok()) return written;
  } else {
    // A grid left by an earlier save with heavy hitters enabled would
    // make this manifest's restore reject the checkpoint.
    Status removed = RemoveFileDurably(GridPath(path));
    if (!removed.ok()) return removed;
  }
  // An earlier build's delta chain at `path` is superseded only now that
  // every stripe file and the grid hold this save: until here a head
  // naming a delta makes a restore refuse, never read a mix of old and
  // new files.
  Status removed = RemoveFileDurably(HeadPath(path));
  if (!removed.ok()) return removed;

  // Manifest last: an openable manifest implies every file it references
  // was durably written (same discipline as the sharded engine's
  // checkpoint).
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
  std::uint64_t total_events = 0;
  for (std::size_t i = 0; i < registry_.num_stripes(); ++i) {
    total_events += registry_.StripeEvents(i);
  }
  manifest.U64(total_events);
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

Status HImpactService::RestoreFrom(const std::string& path, bool* refused) {
  std::lock_guard<std::mutex> op_lock(checkpoint_->op_mu);
  // The chain check comes first: a chain is refused even when its
  // manifest is missing or recorded with other options.
  Status not_a_chain = CheckNotADeltaChain(path);
  if (!not_a_chain.ok()) {
    if (refused != nullptr) *refused = true;
    return not_a_chain;
  }
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
  // A refused earlier format names its file and sets `*refused`.
  const auto refuse = [refused](const std::string& file, Status status) {
    if (status.code() != StatusCode::kFailedPrecondition) return status;
    if (refused != nullptr) *refused = true;
    return Status::FailedPrecondition(file + ": " + status.message());
  };

  // Decode every file into fresh state; commit only if all succeed.
  StatusOr<TieredUserRegistry> fresh_registry =
      TieredUserRegistry::Create(mine);
  if (!fresh_registry.ok()) return fresh_registry.status();
  std::optional<HeavyHitters> fresh_grid;
  std::vector<std::uint64_t> fresh_coverage;

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
  std::size_t stripe_grids = 0;
  for (std::size_t i = 0; i < mine.num_stripes; ++i) {
    bool had_grid = false;
    Status decoded = refuse(
        StripePath(path, i),
        DecodeStripePayload(i, payloads[i], mine, fresh_registry.value(),
                            &fresh_grid, &had_grid));
    if (!decoded.ok()) return decoded;
    stripe_grids += had_grid ? 1 : 0;
  }

  // With heavy hitters enabled, the grid is either in every stripe file
  // (earlier layouts) or in none, and then in `path.grid`.
  if (!mine.enable_heavy_hitters) {
    if (ReadCheckpointFile(GridPath(path), CheckpointTag::kServiceGrid)
            .status()
            .code() != StatusCode::kUnavailable) {
      return Status::InvalidArgument(
          GridPath(path) + " exists, but the manifest records no grid");
    }
  } else if (stripe_grids == 0) {
    StatusOr<std::vector<std::uint8_t>> grid_file =
        ReadCheckpointFile(GridPath(path), CheckpointTag::kServiceGrid);
    if (!grid_file.ok()) return grid_file.status();
    ByteReader reader(grid_file.value());
    fresh_coverage.resize(mine.num_stripes);
    for (std::uint64_t& events : fresh_coverage) {
      if (!reader.U64(&events)) {
        return Status::InvalidArgument("truncated grid stripe counts");
      }
    }
    Status folded = refuse(GridPath(path), FoldGrid(reader, mine, &fresh_grid));
    if (!folded.ok()) return folded;
    if (!reader.AtEnd()) {
      return Status::InvalidArgument("grid payload has trailing bytes");
    }
  } else if (stripe_grids != mine.num_stripes) {
    return Status::InvalidArgument(
        "stripe files mix the current layout with an earlier one");
  } else {
    // Each earlier layout saved a stripe's grid with the stripe.
    for (std::size_t i = 0; i < mine.num_stripes; ++i) {
      fresh_coverage.push_back(fresh_registry.value().StripeEvents(i));
    }
  }

  registry_ = std::move(fresh_registry).value();
  std::lock_guard<std::mutex> lock(grid_->mu);
  grid_->hh = std::move(fresh_grid);
  grid_->coverage = std::move(fresh_coverage);
  grid_->reports_epoch.reset();
  return Status::OK();
}

}  // namespace himpact
