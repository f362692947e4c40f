#include "core/sliding_window_hindex.h"

#include "common/check.h"

namespace himpact {

StatusOr<SlidingWindowHIndex> SlidingWindowHIndex::Create(
    double eps, std::uint64_t window, std::uint64_t max_h) {
  if (!(eps > 0.0 && eps < 1.0)) {
    return Status::InvalidArgument("eps must be in (0, 1)");
  }
  if (window < 1) {
    return Status::InvalidArgument("window must be >= 1");
  }
  if (max_h == 0) max_h = window;  // the window bounds the H-index
  if (!GeometricGridFits(max_h, eps / 3.0)) {
    return Status::InvalidArgument("eps too small for max_h");
  }
  return SlidingWindowHIndex(eps, window, max_h);
}

SlidingWindowHIndex::SlidingWindowHIndex(double eps, std::uint64_t window,
                                         std::uint64_t max_h)
    : eps_(eps), window_(window), grid_(max_h, eps / 3.0) {
  counters_.reserve(static_cast<std::size_t>(grid_.num_levels()));
  for (int i = 0; i < grid_.num_levels(); ++i) {
    counters_.emplace_back(window, eps / 3.0);
  }
}

void SlidingWindowHIndex::Add(std::uint64_t value) {
  // Every DGIM counter must tick each position so expiry stays in sync;
  // the qualifying guesses (a prefix of the grid) receive a one.
  const int level =
      value == 0 ? -1 : grid_.LevelFloor(static_cast<double>(value));
  for (int i = 0; i < grid_.num_levels(); ++i) {
    counters_[static_cast<std::size_t>(i)].Add(i <= level);
  }
}

double SlidingWindowHIndex::Estimate() const {
  for (int i = grid_.num_levels() - 1; i >= 0; --i) {
    if (counters_[static_cast<std::size_t>(i)].Estimate() >= grid_.Power(i)) {
      return grid_.Power(i);
    }
  }
  return 0.0;
}

namespace {
constexpr std::uint64_t kSlidingWindowMagic = 0x48494d5053574831ULL;
}  // namespace

void SlidingWindowHIndex::SerializeTo(ByteWriter& writer) const {
  writer.U64(kSlidingWindowMagic);
  writer.F64(eps_);
  writer.U64(window_);
  writer.U64(static_cast<std::uint64_t>(grid_.num_levels()));
  writer.U64(counters_.size());
  for (const DgimCounter& counter : counters_) {
    counter.SerializeTo(writer);
  }
}

StatusOr<SlidingWindowHIndex> SlidingWindowHIndex::DeserializeFrom(
    ByteReader& reader) {
  std::uint64_t magic = 0;
  if (!reader.U64(&magic) || magic != kSlidingWindowMagic) {
    return Status::InvalidArgument("not a SlidingWindowHIndex checkpoint");
  }
  double eps = 0.0;
  std::uint64_t window = 0, levels = 0, count = 0;
  if (!reader.F64(&eps) || !reader.U64(&window) || !reader.U64(&levels) ||
      !reader.U64(&count)) {
    return Status::InvalidArgument("truncated checkpoint header");
  }
  // The grid cap is implied by the counter count: the constructor built
  // one DGIM per level, so rebuild with max_h derived from the grid.
  StatusOr<SlidingWindowHIndex> estimator = Create(eps, window);
  if (!estimator.ok()) return estimator.status();
  SlidingWindowHIndex& out = estimator.value();
  if (levels != static_cast<std::uint64_t>(out.grid_.num_levels()) ||
      count != out.counters_.size()) {
    return Status::InvalidArgument("checkpoint level count mismatch");
  }
  out.counters_.clear();
  for (std::uint64_t i = 0; i < count; ++i) {
    StatusOr<DgimCounter> counter = DgimCounter::DeserializeFrom(reader);
    if (!counter.ok()) return counter.status();
    out.counters_.push_back(std::move(counter).value());
  }
  return estimator;
}

SpaceUsage SlidingWindowHIndex::EstimateSpace() const {
  SpaceUsage usage;
  for (const DgimCounter& counter : counters_) {
    usage += counter.EstimateSpace();
  }
  usage.bytes += sizeof(*this);
  return usage;
}

}  // namespace himpact
