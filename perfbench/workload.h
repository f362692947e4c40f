// Seeded request generator, exact H-index oracle and workload table for
// the served-request benchmark (see README.md in this directory).
//
// Everything the server receives is generated here from the seed: the
// base population (applied in-process by `perfbench_tool base` and
// checkpointed) and the per-connection timed streams (sent over TCP by
// `perfbench_loadgen`). Both binaries include this header, so the
// oracle replays exactly what the server saw.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <queue>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

// ---------------------------------------------------------------------
// Randomness: SplitMix64, fully defined here so a seed names one stream
// regardless of the standard library in use.

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  // Uniform in (0, 1].
  double Unit() { return (static_cast<double>(Next() >> 11) + 1.0) * 0x1.0p-53; }
  std::uint64_t Below(std::uint64_t n) { return Next() % n; }

 private:
  std::uint64_t state_;
};

inline std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t stream) {
  Rng rng(seed ^ (stream * 0xD1B54A32D192ED03ull));
  return rng.Next();
}

// Zipf over ranks [0, n) with exponent s, by inverse CDF.
class Zipf {
 public:
  Zipf(std::uint64_t n, double s) : cdf_(n) {
    double total = 0.0;
    for (std::uint64_t r = 0; r < n; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  std::uint64_t Sample(Rng& rng) const {
    const double u = rng.Unit();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return it == cdf_.end() ? cdf_.size() - 1
                            : static_cast<std::uint64_t>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

// Pareto citation counts: floor(xm / u^(1/alpha)), capped.
inline std::uint64_t ParetoCount(Rng& rng, double alpha, double xm,
                                 std::uint64_t cap) {
  const double v = xm / std::pow(rng.Unit(), 1.0 / alpha);
  return std::min<std::uint64_t>(cap, static_cast<std::uint64_t>(v));
}

// ---------------------------------------------------------------------
// Requests.

enum class Verb : std::uint8_t { kAdd, kPaper, kGet, kTop, kHeavy };

struct Request {
  Verb verb = Verb::kAdd;
  std::uint64_t user = 0;   // add, get
  std::uint64_t value = 0;  // add (response count), paper (citations), top (k)
  std::uint64_t paper = 0;  // paper id
  std::vector<std::uint64_t> authors;  // paper
};

inline std::string RequestText(const Request& r) {
  switch (r.verb) {
    case Verb::kAdd:
      return "add " + std::to_string(r.user) + " " + std::to_string(r.value);
    case Verb::kPaper: {
      std::string s = "paper " + std::to_string(r.paper) + " " +
                      std::to_string(r.value) + " ";
      for (std::size_t i = 0; i < r.authors.size(); ++i) {
        if (i > 0) s += ",";
        s += std::to_string(r.authors[i]);
      }
      return s;
    }
    case Verb::kGet:
      return "get " + std::to_string(r.user);
    case Verb::kTop:
      return "top " + std::to_string(r.value);
    case Verb::kHeavy:
      return "heavy";
  }
  return "";
}

// FNV-1a over the canonical text of every request, base then timed.
class Digest {
 public:
  void Add(const Request& r) {
    for (const char c : RequestText(r)) Byte(static_cast<unsigned char>(c));
    Byte('\n');
  }
  std::uint64_t value() const { return h_; }

 private:
  void Byte(unsigned char b) {
    h_ ^= b;
    h_ *= 0x100000001B3ull;
  }
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

// ---------------------------------------------------------------------
// Workloads. Sizes are fixed request counts (never a time budget), so a
// faster server does the same work rather than growing more state.

struct Spec {
  std::string name;
  // hstream_serve flags besides --listen/--restore and the per-round
  // directories, which run.py adds.
  std::vector<std::string> server_flags;
  bool binary = false;        // binary frames (else text lines)
  int connections = 4;
  int window = 1;             // outstanding requests per connection
  std::uint64_t base_requests = 0;       // applied in-process, checkpointed
  std::uint64_t timed_per_connection = 0;
  std::uint64_t users = 0;    // author universe (ingest) / users per connection
  double zipf_s = 0.0;        // 0 = uniform
  bool wal = false;
  bool segment_dir = false;
  bool auto_checkpoint = false;  // --checkpoint-every is armed (needs a path)
  std::uint64_t sample_users = 0;  // sampled `get`s checked at run end
  // Server and generator share one core: the loopback round trip then
  // never waits on another vCPU waking up, which dominated the run-to-run
  // spread of small closed-loop requests on the reference VM.
  bool one_core = false;
  double eps = 0.1;  // the server's default --eps, which no workload changes
};

inline Spec GetSpec(const std::string& name) {
  Spec s;
  s.name = name;
  if (name == "ingest") {
    // No cadence saves during the round: on the reference filesystem
    // each one stalls the serving thread on discards of replaced files,
    // which made qps bimodal between runs (README, "Noise"). The WAL is
    // written without fsync: fsync timing doubled the round-to-round
    // spread of every request-path figure (README, "Flush policy").
    s.server_flags = {"--stripes", "2", "--budget-mb", "256", "--wal-fsync",
                      "never"};
    s.binary = true;
    s.connections = 2;
    s.window = 32;
    s.base_requests = 60000;
    s.timed_per_connection = 100000;
    s.users = 60000;
    s.zipf_s = 0.9;
    s.wal = true;
    s.sample_users = 3000;
  } else if (name == "query") {
    // One stripe: `heavy` merges every stripe's grid, and at 8 stripes
    // those memory-bound merges took most of the server's CPU (README).
    s.server_flags = {"--stripes", "1", "--budget-mb", "256"};
    s.connections = 4;
    s.base_requests = 1000000;
    s.timed_per_connection = 20000;
    s.users = 25000;
    s.zipf_s = 1.0;
    s.sample_users = 3000;
    s.one_core = true;
  } else if (name == "coldtier") {
    // The cadence is armed for its halfway tier-flush job (a background
    // seal on the task runtime); a round's ~8k writes never reach the save.
    s.server_flags = {"--budget-mb", "4", "--checkpoint-every", "12000"};
    s.connections = 4;
    s.base_requests = 2000000;
    s.timed_per_connection = 10000;
    s.users = 6000;
    s.zipf_s = 0.0;
    s.segment_dir = true;
    s.auto_checkpoint = true;
    s.sample_users = 2000;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return s;
}

// Users of connection `c` (query/coldtier): rank r maps to r*C + c + 1,
// so connections own disjoint users and each connection's oracle is
// exact at the moment of every reply it reads.
inline std::uint64_t OwnedUser(const Spec& s, int c, std::uint64_t rank) {
  return rank * static_cast<std::uint64_t>(s.connections) +
         static_cast<std::uint64_t>(c) + 1;
}

class Generator {
 public:
  Generator(const Spec& spec, std::uint64_t seed)
      : spec_(spec),
        seed_(seed),
        zipf_(spec.zipf_s > 0.0 ? spec.users : 1,
              spec.zipf_s > 0.0 ? spec.zipf_s : 1.0) {}

  // The base population, in apply order.
  void ForEachBase(const std::function<void(const Request&)>& fn) const {
    Rng rng(SubSeed(seed_, 1000));
    if (spec_.zipf_s == 0.0) {
      // Uniform population (coldtier): user-major order, so building the
      // over-budget base demotes each user once instead of thrashing.
      const std::uint64_t population = spec_.users * spec_.connections;
      const std::uint64_t per_user = spec_.base_requests / population;
      for (std::uint64_t u = 1; u <= population; ++u) {
        for (std::uint64_t i = 0; i < per_user; ++i) {
          Request r;
          r.user = u;
          r.value = Value(rng);
          fn(r);
        }
      }
      return;
    }
    for (std::uint64_t i = 0; i < spec_.base_requests; ++i) {
      if (spec_.name == "ingest") {
        fn(MakePaper(rng, 1 + i));
      } else {
        const int c = static_cast<int>(rng.Below(spec_.connections));
        Request r;
        r.verb = Verb::kAdd;
        r.user = OwnedUser(spec_, c, Rank(rng));
        r.value = Value(rng);
        fn(r);
      }
    }
  }

  // The timed stream of connection `c`.
  std::vector<Request> Timed(int c) const {
    Rng rng(SubSeed(seed_, static_cast<std::uint64_t>(c)));
    std::vector<Request> out;
    out.reserve(spec_.timed_per_connection);
    for (std::uint64_t i = 0; i < spec_.timed_per_connection; ++i) {
      const std::uint64_t roll = rng.Below(1000);
      Request r;
      if (spec_.name == "ingest") {
        if (roll < 800) {
          r = MakePaper(rng, (static_cast<std::uint64_t>(c) + 1) * 100000000 +
                                 i);
        } else {
          r.verb = Verb::kAdd;
          r.user = 1 + Rank(rng);
          r.value = Value(rng);
        }
      } else if (spec_.name == "query") {
        if (roll < 900) {
          r.verb = Verb::kGet;
          r.user = OwnedUser(spec_, c, Rank(rng));
        } else if (roll < 980) {
          r.verb = Verb::kAdd;
          r.user = OwnedUser(spec_, c, Rank(rng));
          r.value = Value(rng);
        } else if (roll < 995) {
          r.verb = Verb::kTop;
          r.value = 10;
        } else {
          r.verb = Verb::kHeavy;
        }
      } else {
        r.verb = roll < 800 ? Verb::kGet : Verb::kAdd;
        r.user = OwnedUser(spec_, c, Rank(rng));
        if (r.verb == Verb::kAdd) r.value = Value(rng);
      }
      out.push_back(std::move(r));
    }
    return out;
  }

  // The fixed seeded user sample checked at run end: the heaviest
  // ranks (the ones sketches serve) plus a uniform draw.
  std::vector<std::uint64_t> Sample() const {
    Rng rng(SubSeed(seed_, 2000));
    const bool ingest = spec_.name == "ingest";
    const auto conns = static_cast<std::uint64_t>(spec_.connections);
    const std::uint64_t heavy = spec_.sample_users / 2;
    std::vector<std::uint64_t> users;
    for (std::uint64_t i = 0; i < spec_.sample_users; ++i) {
      const std::uint64_t rank = i >= heavy ? rng.Below(spec_.users)
                                 : ingest   ? i
                                            : i / conns;
      users.push_back(ingest ? 1 + rank
                             : OwnedUser(spec_, static_cast<int>(i % conns),
                                         rank));
    }
    std::sort(users.begin(), users.end());
    users.erase(std::unique(users.begin(), users.end()), users.end());
    return users;
  }

  std::uint64_t StreamDigest() const {
    Digest d;
    ForEachBase([&](const Request& r) { d.Add(r); });
    for (int c = 0; c < spec_.connections; ++c) {
      for (const Request& r : Timed(c)) d.Add(r);
    }
    return d.value();
  }

 private:
  std::uint64_t Rank(Rng& rng) const {
    return spec_.zipf_s > 0.0 ? zipf_.Sample(rng) : rng.Below(spec_.users);
  }
  static std::uint64_t Value(Rng& rng) {
    return ParetoCount(rng, 1.2, 2.0, 100000);
  }
  Request MakePaper(Rng& rng, std::uint64_t id) const {
    Request r;
    r.verb = Verb::kPaper;
    r.paper = id;
    r.value = Value(rng);
    const std::uint64_t n = 1 + rng.Below(8);
    while (r.authors.size() < n) {
      const std::uint64_t a = 1 + Rank(rng);
      if (std::find(r.authors.begin(), r.authors.end(), a) == r.authors.end()) {
        r.authors.push_back(a);
      }
    }
    return r;
  }

  Spec spec_;
  std::uint64_t seed_;
  Zipf zipf_;
};

// ---------------------------------------------------------------------
// Exact oracle: per user, the event count and the exact H-index kept
// incrementally (a min-heap of the values above the current h).

class Oracle {
 public:
  void Add(std::uint64_t user, std::uint64_t value) {
    State& s = users_[user];
    ++s.events;
    if (value > s.h) {
      s.above.push(value);
      while (s.above.size() >= s.h + 1) {
        ++s.h;
        while (!s.above.empty() && s.above.top() <= s.h) s.above.pop();
      }
    }
  }
  // Applies a request's writes; returns the events it adds.
  std::uint64_t Apply(const Request& r) {
    if (r.verb == Verb::kAdd) {
      Add(r.user, r.value);
      return 1;
    }
    if (r.verb == Verb::kPaper) {
      for (const std::uint64_t a : r.authors) Add(a, r.value);
      return r.authors.size();
    }
    return 0;
  }
  std::uint64_t H(std::uint64_t user) const {
    const auto it = users_.find(user);
    return it == users_.end() ? 0 : it->second.h;
  }
  std::uint64_t Events(std::uint64_t user) const {
    const auto it = users_.find(user);
    return it == users_.end() ? 0 : it->second.events;
  }

 private:
  struct State {
    std::uint64_t events = 0;
    std::uint64_t h = 0;
    std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                        std::greater<std::uint64_t>>
        above;
  };
  std::unordered_map<std::uint64_t, State> users_;
};

// Tier codes of `get` replies (service/registry.h UserTier).
enum TierCode { kTierCold = 0, kTierHot = 1, kTierFrozen = 2, kTierSegment = 3 };

// The bound docs/SERVICE.md promises for a `get` answer in `tier`: cold
// is exact; hot and segment (which answers from the paged cold or hot
// state) carry Algorithm 1's (1-eps) h* <= h <= h*; frozen is a lower
// bound. Text replies print %.6g, hence the relative slack.
inline bool WithinTierBound(int tier, double estimate, std::uint64_t exact,
                            double eps) {
  const double h = static_cast<double>(exact);
  const double slack = 1e-5 * std::max(1.0, h);
  if (estimate > h + slack) return false;
  switch (tier) {
    case kTierCold:
      return std::fabs(estimate - h) <= slack;
    case kTierHot:
    case kTierSegment:
      return estimate >= (1.0 - eps) * h - slack;
    case kTierFrozen:
      return true;
    default:
      return exact == 0 && estimate == 0.0;
  }
}

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
