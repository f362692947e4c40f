// perfbench_loadgen: the seeded closed-loop client of the served-request
// benchmark. It rebuilds the exact oracle from the seed, drives one
// workload's timed streams against a running server over loopback (one
// thread per connection, each keeping a fixed window of requests in
// flight), checks every reply, then checks a fixed user sample against
// the oracle and prints one JSON line of results.
//
//   perfbench_loadgen --workload ingest --seed 7 --digest
//   perfbench_loadgen --workload query --seed 7 --port 4242 --server-pid 99

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <dirent.h>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "net/wire.h"
#include "service/protocol.h"
#include "workload.h"

namespace perfbench {
namespace {

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

[[noreturn]] void Die(const std::string& why) {
  std::fprintf(stderr, "perfbench_loadgen: %s\n", why.c_str());
  std::exit(2);
}

int Connect(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) Die("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Die("connect to port " + std::to_string(port) + " failed");
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool WriteAll(int fd, const char* data, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, data, n);
    if (w <= 0) return false;
    data += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

// Length of the first complete reply in `buf` (0 if incomplete).
std::size_t ReplyLength(const std::string& buf, std::size_t pos, bool binary) {
  if (binary) {
    if (buf.size() - pos < himpact::kWirePreludeBytes) return 0;
    const std::size_t n = himpact::kWirePreludeBytes +
                          himpact::WirePayloadLength(buf.data() + pos);
    return buf.size() - pos >= n ? n : 0;
  }
  const std::size_t nl = buf.find('\n', pos);
  return nl == std::string::npos ? 0 : nl - pos + 1;
}

// Blocking text round trip on the control connection.
std::string TextCall(int fd, const std::string& line, std::string* rest) {
  if (!WriteAll(fd, line.data(), line.size())) Die("control write failed");
  char chunk[65536];
  while (true) {
    const std::size_t n = ReplyLength(*rest, 0, false);
    if (n > 0) {
      std::string reply = rest->substr(0, n - 1);
      rest->erase(0, n);
      return reply;
    }
    const ssize_t r = ::read(fd, chunk, sizeof(chunk));
    if (r <= 0) Die("control connection closed");
    rest->append(chunk, static_cast<std::size_t>(r));
  }
}

double ServerCpuSeconds(long pid) {
  // Sum of per-thread on-CPU nanoseconds (schedstat), so the server's
  // background workers count and the resolution is not the 10ms tick.
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return 0.0;
  double total = 0.0;
  while (dirent* e = ::readdir(d)) {
    if (e->d_name[0] == '.') continue;
    std::ifstream in(dir + "/" + e->d_name + "/schedstat");
    double ns = 0.0;
    if (in >> ns) total += ns * 1e-9;
  }
  ::closedir(d);
  return total;
}

double VmHwmMb(long pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

double CpuSelfSeconds() {
  rusage u{};
  ::getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) * 1e-6;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

int TierFromName(const std::string& name) {
  if (name == "cold") return kTierCold;
  if (name == "hot") return kTierHot;
  if (name == "frozen") return kTierFrozen;
  if (name == "segment") return kTierSegment;
  return -1;
}

// One connection's share of the timed phase.
struct Lane {
  std::vector<Request> requests;
  std::string wire;                  // every request, encoded back to back
  std::vector<std::size_t> offsets;  // request i = wire[offsets[i], offsets[i+1])
  Oracle* oracle = nullptr;          // owned users' oracle (text workloads)
  // Results.
  std::vector<std::uint32_t> latency_ns;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t acked_events = 0;
  std::uint64_t full_wait_ns = 0;  // blocked on a reply with the window full
  std::uint64_t wait_ns = 0;       // blocked on a reply at all
  std::uint64_t elapsed_ns = 0;
  std::vector<std::string> violations;
};

void Violation(Lane* lane, const std::string& what) {
  ++lane->failed;
  if (lane->violations.size() < 5) lane->violations.push_back(what);
}

// Checks one reply against its request; true when it counts as success.
bool CheckReply(const Spec& spec, Lane* lane, const Request& req,
                const char* data, std::size_t n) {
  if (spec.binary) {
    auto decoded = himpact::DecodeReplyFrame(std::string(data, n));
    if (!decoded.ok()) {
      Violation(lane, "undecodable reply frame");
      return false;
    }
    const himpact::CommandResult& r = decoded.value();
    if (r.code != himpact::StatusCode::kOk) {
      Violation(lane, "error reply: " + r.message);
      return false;
    }
    if (req.verb == Verb::kPaper &&
        r.num_authors != static_cast<std::uint32_t>(req.authors.size())) {
      Violation(lane, "paper reply author count mismatch");
      return false;
    }
    if (req.verb == Verb::kAdd && !(r.estimate >= 0.0)) {
      Violation(lane, "add reply estimate invalid");
      return false;
    }
    return true;
  }
  const std::string line(data, n - 1);
  std::istringstream in(line);
  std::string head;
  in >> head;
  switch (req.verb) {
    case Verb::kAdd: {
      double est = -1.0;
      if (head != "OK" || !(in >> est)) break;
      // Every estimate the service reports is a lower bound of the true
      // H-index (docs/SERVICE.md, monotonicity invariant).
      const std::uint64_t h = lane->oracle->H(req.user);
      if (est > static_cast<double>(h) * (1 + 1e-5) + 1e-9) {
        Violation(lane, "add estimate above exact: " + line);
        return false;
      }
      return true;
    }
    case Verb::kGet: {
      std::uint64_t user = 0, events = 0;
      double est = -1.0;
      std::string tier;
      if (head != "H" || !(in >> user >> est >> tier >> events)) break;
      const int t = TierFromName(tier);
      const std::uint64_t h = lane->oracle->H(req.user);
      if (user != req.user || events != lane->oracle->Events(req.user) ||
          !WithinTierBound(t, est, h, spec.eps)) {
        Violation(lane, "get outside its tier bound (exact h " +
                            std::to_string(h) + ", events " +
                            std::to_string(lane->oracle->Events(req.user)) +
                            "): " + line);
        return false;
      }
      return true;
    }
    case Verb::kTop: {
      if (head != "TOP") break;
      std::string entry;
      double prev = 1e300;
      int count = 0;
      bool ok = true;
      while (in >> entry) {
        const std::size_t colon = entry.find(':');
        if (colon == std::string::npos) {
          ok = false;
          break;
        }
        const double est = std::strtod(entry.c_str() + colon + 1, nullptr);
        ok = ok && est <= prev;
        prev = est;
        ++count;
      }
      if (!ok || count > static_cast<int>(req.value)) break;
      return true;
    }
    case Verb::kHeavy:
      if (head != "HEAVY") break;
      return true;
    case Verb::kPaper:
      if (head != "OK") break;
      return true;
  }
  Violation(lane, "unexpected reply to '" + RequestText(req) + "': " + line);
  return false;
}

void RunLane(const Spec& spec, int port, Lane* lane) {
  const int fd = Connect(port);
  const std::size_t n = lane->requests.size();
  lane->latency_ns.reserve(n);
  std::vector<std::uint64_t> sent_at(n, 0);
  std::string in;
  std::size_t in_pos = 0;
  std::size_t next_send = 0;
  std::size_t next_recv = 0;
  const std::size_t window = static_cast<std::size_t>(spec.window);
  char chunk[1 << 16];
  const std::uint64_t start = NowNs();
  bool alive = true;
  while (next_recv < n && alive) {
    const std::size_t limit = std::min(n, next_recv + window);
    if (next_send < limit) {
      // Text workloads apply a write to the oracle before sending it, so
      // the oracle is never behind the server for this lane's users.
      if (lane->oracle != nullptr) {
        for (std::size_t i = next_send; i < limit; ++i) {
          lane->oracle->Apply(lane->requests[i]);
        }
      }
      const std::uint64_t t = NowNs();
      for (std::size_t i = next_send; i < limit; ++i) sent_at[i] = t;
      if (!WriteAll(fd, lane->wire.data() + lane->offsets[next_send],
                    lane->offsets[limit] - lane->offsets[next_send])) {
        break;
      }
      next_send = limit;
    }
    const bool full = next_send - next_recv == window || next_send == n;
    const std::uint64_t w0 = NowNs();
    const ssize_t r = ::read(fd, chunk, sizeof(chunk));
    const std::uint64_t w1 = NowNs();
    lane->wait_ns += w1 - w0;
    if (full) lane->full_wait_ns += w1 - w0;
    if (r <= 0) break;
    in.append(chunk, static_cast<std::size_t>(r));
    while (next_recv < next_send) {
      const std::size_t len = ReplyLength(in, in_pos, spec.binary);
      if (len == 0) break;
      const Request& req = lane->requests[next_recv];
      lane->latency_ns.push_back(
          static_cast<std::uint32_t>(std::min<std::uint64_t>(
              w1 - sent_at[next_recv], 0xFFFFFFFFull)));
      if (CheckReply(spec, lane, req, in.data() + in_pos, len)) {
        ++lane->completed;
        if (req.verb == Verb::kAdd) lane->acked_events += 1;
        if (req.verb == Verb::kPaper) lane->acked_events += req.authors.size();
      } else if (lane->failed > 1000) {
        alive = false;
        break;
      }
      in_pos += len;
      ++next_recv;
    }
    if (in_pos > (1u << 20)) {
      in.erase(0, in_pos);
      in_pos = 0;
    }
  }
  lane->elapsed_ns = NowNs() - start;
  if (next_recv < n) {
    lane->failed += n - next_recv;  // missing replies
    lane->violations.push_back(std::to_string(n - next_recv) +
                               " replies missing");
  }
  ::close(fd);
}

double Percentile(std::vector<std::uint32_t>& v, double q) {
  if (v.empty()) return 0.0;
  const std::size_t k = std::min(
      v.size() - 1, static_cast<std::size_t>(q * static_cast<double>(v.size())));
  std::nth_element(v.begin(), v.begin() + static_cast<long>(k), v.end());
  return static_cast<double>(v[k]);
}

std::uint64_t JsonU64(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = json.find(needle);
  if (at == std::string::npos) return 0;
  return std::strtoull(json.c_str() + at + needle.size(), nullptr, 10);
}

int Main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  int port = -1;
  long server_pid = 0;
  bool digest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) Die("missing value for " + arg);
      return argv[++i];
    };
    if (arg == "--workload") {
      workload = value();
    } else if (arg == "--seed") {
      seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--port") {
      port = std::atoi(value().c_str());
    } else if (arg == "--server-pid") {
      server_pid = std::atol(value().c_str());
    } else if (arg == "--digest") {
      digest = true;
    } else {
      Die("unknown flag " + arg);
    }
  }
  const Spec spec = GetSpec(workload);
  const Generator gen(spec, seed);
  if (digest) {
    std::printf("%016llx\n",
                static_cast<unsigned long long>(gen.StreamDigest()));
    return 0;
  }
  if (port <= 0 || server_pid <= 0) Die("--port and --server-pid are required");

  const std::uint64_t prep_start = NowNs();
  // Oracle: one per lane for the text workloads (lanes own disjoint
  // users), one shared for ingest (checked only after the timed phase).
  const int conns = spec.connections;
  std::vector<std::unique_ptr<Oracle>> oracles;
  for (int c = 0; c < (spec.binary ? 1 : conns); ++c) {
    oracles.push_back(std::make_unique<Oracle>());
  }
  const auto oracle_of = [&](std::uint64_t user) -> Oracle& {
    return *oracles[spec.binary ? 0 : (user - 1) % conns];
  };
  gen.ForEachBase([&](const Request& r) {
    if (r.verb == Verb::kAdd) {
      oracle_of(r.user).Add(r.user, r.value);
    } else {
      for (const std::uint64_t a : r.authors) oracle_of(a).Add(a, r.value);
    }
  });
  std::vector<Lane> lanes(static_cast<std::size_t>(conns));
  for (int c = 0; c < conns; ++c) {
    Lane& lane = lanes[static_cast<std::size_t>(c)];
    lane.requests = gen.Timed(c);
    lane.oracle = spec.binary ? nullptr : oracles[static_cast<std::size_t>(c)].get();
    for (const Request& r : lane.requests) {
      lane.offsets.push_back(lane.wire.size());
      if (spec.binary) {
        himpact::Command cmd;
        cmd.user = r.user;
        cmd.value = r.value;
        if (r.verb == Verb::kAdd) {
          cmd.kind = himpact::CommandKind::kAdd;
        } else {
          cmd.kind = himpact::CommandKind::kPaper;
          cmd.paper.paper = r.paper;
          cmd.paper.citations = r.value;
          for (const std::uint64_t a : r.authors) cmd.paper.authors.PushBack(a);
        }
        lane.wire += himpact::EncodeRequestFrame(cmd);
      } else {
        lane.wire += RequestText(r) + "\n";
      }
    }
    lane.offsets.push_back(lane.wire.size());
  }

  const double prep_s = static_cast<double>(NowNs() - prep_start) * 1e-9;
  const int control = Connect(port);
  std::string rest;
  const std::string stats_start = TextCall(control, "stats\n", &rest);
  const std::string health_start = TextCall(control, "health\n", &rest);

  const double gen_cpu0 = CpuSelfSeconds();
  const double srv_cpu0 = ServerCpuSeconds(server_pid);
  const std::uint64_t t0 = NowNs();
  {
    std::vector<std::thread> threads;
    for (Lane& lane : lanes) {
      threads.emplace_back([&spec, port, &lane] { RunLane(spec, port, &lane); });
    }
    for (std::thread& t : threads) t.join();
  }
  const double elapsed = static_cast<double>(NowNs() - t0) * 1e-9;
  const double srv_cpu = ServerCpuSeconds(server_pid) - srv_cpu0;
  const double gen_cpu = CpuSelfSeconds() - gen_cpu0;

  std::uint64_t attempted = 0, completed = 0, failed = 0, acked = 0;
  std::vector<std::uint32_t> lat;
  std::vector<std::string> violations;
  double full_share = 0.0, busy_share = 0.0;
  for (Lane& lane : lanes) {
    attempted += lane.requests.size();
    completed += lane.completed;
    failed += lane.failed;
    acked += lane.acked_events;
    lat.insert(lat.end(), lane.latency_ns.begin(), lane.latency_ns.end());
    for (const std::string& v : lane.violations) violations.push_back(v);
    const double el = std::max<double>(1.0, static_cast<double>(lane.elapsed_ns));
    full_share += static_cast<double>(lane.full_wait_ns) / el / conns;
    busy_share += (1.0 - static_cast<double>(lane.wait_ns) / el) / conns;
  }
  const std::size_t samples = lat.size();
  double lat_sum = 0.0;
  for (const std::uint32_t v : lat) lat_sum += v;
  const double mean_us = samples == 0 ? 0.0 : lat_sum / double(samples) / 1000.0;
  const double p50 = Percentile(lat, 0.50) / 1000.0;
  const double p99 = Percentile(lat, 0.99) / 1000.0;

  // End-of-run checks through the served surface.
  const std::string stats_end = TextCall(control, "stats\n", &rest);
  const std::string health_end = TextCall(control, "health\n", &rest);
  const std::uint64_t events_start = JsonU64(stats_start, "events");
  const std::uint64_t events_end = JsonU64(stats_end, "events");
  bool correct = true;
  if (events_end != events_start + acked) {
    correct = false;
    violations.push_back("stats events " + std::to_string(events_end) +
                         " != start " + std::to_string(events_start) +
                         " + acked " + std::to_string(acked));
  }
  if (spec.binary) {
    for (const Lane& lane : lanes) {
      for (const Request& r : lane.requests) oracles[0]->Apply(r);
    }
  }
  const std::vector<std::uint64_t> sample = gen.Sample();
  double err_sum = 0.0;
  std::uint64_t err_n = 0, sample_failed = 0;
  std::vector<std::uint64_t> tiers(4, 0);
  constexpr std::size_t kChunk = 256;
  for (std::size_t at = 0; at < sample.size(); at += kChunk) {
    const std::size_t end = std::min(sample.size(), at + kChunk);
    std::string batch;
    for (std::size_t i = at; i < end; ++i) {
      batch += "get " + std::to_string(sample[i]) + "\n";
    }
    if (!WriteAll(control, batch.data(), batch.size())) Die("sample write failed");
    for (std::size_t i = at; i < end; ++i) {
      std::string line;
      char chunk[65536];
      while (true) {
        const std::size_t n = ReplyLength(rest, 0, false);
        if (n > 0) {
          line = rest.substr(0, n - 1);
          rest.erase(0, n);
          break;
        }
        const ssize_t r = ::read(control, chunk, sizeof(chunk));
        if (r <= 0) Die("control connection closed during the sample");
        rest.append(chunk, static_cast<std::size_t>(r));
      }
      std::istringstream in(line);
      std::string head, tier;
      std::uint64_t user = 0, events = 0;
      double est = -1.0;
      const Oracle& o = oracle_of(sample[i]);
      const std::uint64_t h = o.H(sample[i]);
      const bool parsed = static_cast<bool>(in >> head >> user >> est >> tier >> events);
      const int t = TierFromName(tier);
      if (!parsed || head != "H" || user != sample[i] ||
          events != o.Events(sample[i]) || !WithinTierBound(t, est, h, spec.eps)) {
        ++sample_failed;
        if (violations.size() < 10) {
          violations.push_back("sampled get outside its tier bound (exact h " +
                               std::to_string(h) + ", events " +
                               std::to_string(o.Events(sample[i])) + "): " + line);
        }
        continue;
      }
      if (t >= 0) ++tiers[static_cast<std::size_t>(t)];
      if (h > 0) {
        err_sum += std::fabs(est - static_cast<double>(h)) / static_cast<double>(h);
        ++err_n;
      }
    }
  }
  ::close(control);
  std::fprintf(stderr, "perfbench_loadgen: prepare %.2fs, timed %.2fs, verify %.2fs\n",
               prep_s, elapsed, static_cast<double>(NowNs() - t0) * 1e-9 - elapsed);
  if (sample_failed > 0) correct = false;
  const double rss = VmHwmMb(server_pid);

  std::printf(
      "{\"correct\":%s,\"attempted\":%llu,\"completed\":%llu,\"failed\":%llu,"
      "\"samples\":%zu,\"elapsed_s\":%.6f,\"qps\":%.3f,\"mean_us\":%.3f,\"p50_us\":%.3f,"
      "\"p99_us\":%.3f,\"server_cpu_s\":%.6f,\"cpu_us_per_req\":%.4f,"
      "\"rss_mb\":%.3f,\"rel_err\":%.8f,\"rel_err_n\":%llu,"
      "\"sample_attempted\":%zu,\"sample_failed\":%llu,"
      "\"sample_tiers\":{\"cold\":%llu,\"hot\":%llu,\"frozen\":%llu,"
      "\"segment\":%llu},\"events_start\":%llu,\"events_end\":%llu,"
      "\"acked_events\":%llu,\"gen_cpu_s\":%.6f,\"window_full_share\":%.5f,"
      "\"gen_busy_share\":%.5f,",
      correct && failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(completed),
      static_cast<unsigned long long>(failed), samples, elapsed,
      static_cast<double>(completed) / elapsed, mean_us, p50, p99, srv_cpu,
      srv_cpu * 1e6 / std::max<double>(1.0, static_cast<double>(completed)),
      rss, err_n > 0 ? err_sum / static_cast<double>(err_n) : 0.0,
      static_cast<unsigned long long>(err_n), sample.size(),
      static_cast<unsigned long long>(sample_failed),
      static_cast<unsigned long long>(tiers[0]),
      static_cast<unsigned long long>(tiers[1]),
      static_cast<unsigned long long>(tiers[2]),
      static_cast<unsigned long long>(tiers[3]),
      static_cast<unsigned long long>(events_start),
      static_cast<unsigned long long>(events_end),
      static_cast<unsigned long long>(acked), gen_cpu, full_share, busy_share);
  std::printf("\"violations\":[");
  for (std::size_t i = 0; i < violations.size(); ++i) {
    std::printf("%s\"%s\"", i > 0 ? "," : "", JsonEscape(violations[i]).c_str());
  }
  // The served STATS / HEALTH objects, verbatim (prefix word stripped).
  const auto body = [](const std::string& reply) {
    const std::size_t sp = reply.find(' ');
    return sp == std::string::npos ? std::string("{}") : reply.substr(sp + 1);
  };
  std::printf("],\"stats_start\":%s,\"stats_end\":%s,\"health_start\":%s,"
              "\"health_end\":%s}\n",
              body(stats_start).c_str(), body(stats_end).c_str(),
              body(health_start).c_str(), body(health_end).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
