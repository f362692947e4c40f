// F7 — Closed-loop TCP load against the async front end (src/net/):
// an in-process epoll NetServer hosts the real multi-tenant service
// (ServiceSession dispatch, exactly what `hstream_serve --listen`
// runs), and a poll(2)-driven client state machine sweeps the
// concurrent-connection count across {1, 64, 1000, 10000}, reporting
// per point the sustained request rate, reply-latency quantiles, and
// the shed rate once the sweep passes the connection cap — the
// socket-level overload story as numbers, one BENCH json line per
// sweep point.
//
//   ./bench_f7_net_load                      # cap 4096, 2s per point
//   ./bench_f7_net_load --cap 128 --duration-ms 5000
//   ./bench_f7_net_load --quick              # CI sizing, ~300ms points
//
// Each connection is closed-loop: one request in flight, the next sent
// the moment the reply's newline arrives. Past the cap, a connection
// either gets served by evicting nobody (eviction is disabled here —
// idle closed-loop clients are healthy, not loris) or is shed at
// accept() with the one-line RESOURCE_EXHAUSTED notice; shed
// connections count toward shed_rate and leave the loop. The traffic
// is add-heavy with a Zipf user draw, so served requests exercise the
// real registry hot path, not an echo stub.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/flags.h"
#include "net/server.h"
#include "net/socket.h"
#include "random/rng.h"
#include "random/zipf.h"
#include "service/service.h"
#include "service/session.h"

namespace {

using namespace himpact;

struct HarnessOptions {
  std::uint64_t cap = 4096;          // server connection cap
  std::uint64_t duration_ms = 2000;  // measured window per sweep point
  std::uint64_t users = 100000;
  std::uint64_t stripes = 4;
  std::uint64_t seed = 2017;
  bool quick = false;
};

bool ParseArgs(int argc, char** argv, HarnessOptions* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next_text = [&](const char** out) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        return false;
      }
      *out = argv[++i];
      return true;
    };
    const char* text = nullptr;
    if (arg == "--cap") {
      if (!next_text(&text) ||
          !ParseUint64FlagInRange("--cap", text, 1, 1u << 20, &options->cap))
        return false;
    } else if (arg == "--duration-ms") {
      if (!next_text(&text) ||
          !ParseUint64FlagInRange("--duration-ms", text, 1, 1u << 20,
                                  &options->duration_ms))
        return false;
    } else if (arg == "--users") {
      if (!next_text(&text) ||
          !ParseUint64FlagInRange("--users", text, 1, 1ull << 32,
                                  &options->users))
        return false;
    } else if (arg == "--stripes") {
      if (!next_text(&text) ||
          !ParseUint64FlagInRange("--stripes", text, 1, 4096,
                                  &options->stripes))
        return false;
    } else if (arg == "--seed") {
      if (!next_text(&text) ||
          !ParseUint64Flag("--seed", text, &options->seed))
        return false;
    } else if (arg == "--quick") {
      options->quick = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return false;
    }
  }
  if (options->quick) options->duration_ms = 300;
  return true;
}

double Quantile(std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const std::size_t index = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(index, sorted.size() - 1)];
}

// One closed-loop client connection's state.
struct LoadClient {
  UniqueFd fd;
  enum class Phase { kConnecting, kSending, kReceiving, kShed, kDead };
  Phase phase = Phase::kConnecting;
  std::string request;
  std::size_t request_off = 0;
  std::string reply;
  std::chrono::steady_clock::time_point sent_at;
  bool first_reply = true;
};

struct SweepResult {
  std::size_t attempted = 0;
  std::size_t shed = 0;
  std::size_t dead = 0;
  std::uint64_t requests = 0;
  double seconds = 0;
  std::vector<double> latencies_us;
};

std::string NextRequest(Rng& rng, const ZipfSampler& users) {
  const std::uint64_t user = 1 + users.Sample(rng);
  if (rng.UniformU64(10) < 8) {
    return "add " + std::to_string(user) + " " +
           std::to_string(1 + rng.UniformU64(50)) + "\n";
  }
  return "get " + std::to_string(user) + "\n";
}

SweepResult RunSweepPoint(std::uint16_t port, std::size_t connections,
                          const HarnessOptions& options) {
  Rng rng(options.seed * 2654435761u + connections);
  const ZipfSampler users(options.users, 1.1);

  SweepResult result;
  result.attempted = connections;
  std::vector<LoadClient> clients(connections);
  for (LoadClient& client : clients) {
    auto connected = ConnectLoopback(port);
    if (!connected.ok()) {
      client.phase = LoadClient::Phase::kDead;
      ++result.dead;
      continue;
    }
    client.fd = std::move(connected).value();
  }

  const auto start = std::chrono::steady_clock::now();
  const auto deadline = start + std::chrono::milliseconds(options.duration_ms);
  std::vector<pollfd> pollfds;
  std::vector<std::size_t> owners;
  while (std::chrono::steady_clock::now() < deadline) {
    pollfds.clear();
    owners.clear();
    for (std::size_t i = 0; i < clients.size(); ++i) {
      LoadClient& client = clients[i];
      if (client.phase == LoadClient::Phase::kShed ||
          client.phase == LoadClient::Phase::kDead) {
        continue;
      }
      pollfd entry{};
      entry.fd = client.fd.get();
      entry.events =
          client.phase == LoadClient::Phase::kReceiving ? POLLIN : POLLOUT;
      pollfds.push_back(entry);
      owners.push_back(i);
    }
    if (pollfds.empty()) break;  // everything shed or dead
    const int ready =
        ::poll(pollfds.data(), static_cast<nfds_t>(pollfds.size()), 50);
    if (ready <= 0) continue;
    const auto now = std::chrono::steady_clock::now();
    for (std::size_t p = 0; p < pollfds.size(); ++p) {
      if (pollfds[p].revents == 0) continue;
      LoadClient& client = clients[owners[p]];
      if (client.phase == LoadClient::Phase::kConnecting) {
        int error = 0;
        socklen_t len = sizeof(error);
        (void)::getsockopt(client.fd.get(), SOL_SOCKET, SO_ERROR, &error,
                           &len);
        if (error != 0) {
          client.phase = LoadClient::Phase::kDead;
          client.fd.Reset();
          ++result.dead;
          continue;
        }
        client.request = NextRequest(rng, users);
        client.request_off = 0;
        client.phase = LoadClient::Phase::kSending;
        client.sent_at = now;
      }
      if (client.phase == LoadClient::Phase::kSending) {
        const ssize_t n = ::write(
            client.fd.get(), client.request.data() + client.request_off,
            client.request.size() - client.request_off);
        if (n < 0) {
          if (errno == EAGAIN || errno == EINTR) continue;
          // Reset before the request landed: the shed close raced us.
          client.phase = client.first_reply ? LoadClient::Phase::kShed
                                            : LoadClient::Phase::kDead;
          ++(client.first_reply ? result.shed : result.dead);
          client.fd.Reset();
          continue;
        }
        client.request_off += static_cast<std::size_t>(n);
        if (client.request_off == client.request.size()) {
          client.phase = LoadClient::Phase::kReceiving;
        }
        continue;
      }
      if (client.phase == LoadClient::Phase::kReceiving) {
        char chunk[512];
        const ssize_t n = ::read(client.fd.get(), chunk, sizeof(chunk));
        if (n < 0 && (errno == EAGAIN || errno == EINTR)) continue;
        if (n <= 0) {
          client.phase = client.first_reply ? LoadClient::Phase::kShed
                                            : LoadClient::Phase::kDead;
          ++(client.first_reply ? result.shed : result.dead);
          client.fd.Reset();
          continue;
        }
        client.reply.append(chunk, static_cast<std::size_t>(n));
        const std::size_t newline = client.reply.find('\n');
        if (newline == std::string::npos) continue;
        if (client.first_reply &&
            client.reply.rfind("RESOURCE_EXHAUSTED", 0) == 0) {
          client.phase = LoadClient::Phase::kShed;
          ++result.shed;
          client.fd.Reset();
          continue;
        }
        client.first_reply = false;
        ++result.requests;
        result.latencies_us.push_back(
            std::chrono::duration<double, std::micro>(now - client.sent_at)
                .count());
        // Closed loop: next request immediately.
        client.reply.erase(0, newline + 1);
        client.request = NextRequest(rng, users);
        client.request_off = 0;
        client.sent_at = now;
        client.phase = LoadClient::Phase::kSending;
      }
    }
  }
  result.seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  return result;
}

int Run(const HarnessOptions& options) {
  const std::uint64_t fd_limit = RaiseFdLimit(16384);

  ServiceOptions service_options;
  service_options.num_stripes = static_cast<std::size_t>(options.stripes);
  service_options.enable_heavy_hitters = false;
  service_options.seed = options.seed;
  auto service_or = HImpactService::Create(service_options);
  if (!service_or.ok()) {
    std::fprintf(stderr, "%s\n", service_or.status().ToString().c_str());
    return 1;
  }
  HImpactService service = std::move(service_or).value();
  ServiceSession session(&service, SessionOptions{});

  NetServerOptions net_options;
  net_options.port = 0;
  net_options.backlog = 4096;
  net_options.max_connections = static_cast<std::size_t>(options.cap);
  net_options.idle_timeout_nanos = 0;
  net_options.request_timeout_nanos = 0;
  // Closed-loop clients are healthy; the overload response under
  // measurement is shedding, not eviction.
  net_options.evict_min_idle_nanos = 3600ull * 1000 * 1000 * 1000;
  auto server_or = NetServer::Create(
      net_options, [&session](const std::string& line, std::string* reply) {
        return session.HandleLine(line, reply);
      });
  if (!server_or.ok()) {
    std::fprintf(stderr, "%s\n", server_or.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<NetServer> server = std::move(server_or).value();
  std::thread loop([&server] { (void)server->Run(); });

  const std::size_t sweep[] = {1, 64, 1000, 10000};
  for (const std::size_t requested : sweep) {
    // Client + server fds both live in this process; stay under the
    // limit with headroom for the accept churn.
    std::size_t connections = requested;
    const std::size_t usable =
        fd_limit > 4096 ? static_cast<std::size_t>((fd_limit - 2048) / 2)
                        : static_cast<std::size_t>(fd_limit / 3);
    if (connections > usable) {
      std::fprintf(stderr,
                   "sweep point %zu clamped to %zu (fd limit %llu)\n",
                   requested, usable,
                   static_cast<unsigned long long>(fd_limit));
      connections = usable;
    }

    const NetServerCounters before = server->Counters();
    SweepResult result = RunSweepPoint(server->port(), connections, options);
    const NetServerCounters after = server->Counters();

    std::sort(result.latencies_us.begin(), result.latencies_us.end());
    const double shed_rate =
        result.attempted > 0
            ? static_cast<double>(result.shed) /
                  static_cast<double>(result.attempted)
            : 0.0;
    std::printf(
        "BENCH{\"bench\":\"f7_net_load\",\"connections\":%zu,"
        "\"cap\":%llu,\"duration_ms\":%llu,\"seconds\":%.3f,"
        "\"requests\":%llu,\"qps\":%.0f,\"p50_us\":%.1f,\"p99_us\":%.1f,"
        "\"shed_conns\":%zu,\"shed_rate\":%.4f,\"dead_conns\":%zu,"
        "\"srv_accepted\":%llu,\"srv_shed_at_accept\":%llu,"
        "\"srv_requests\":%llu,\"srv_partial_writes\":%llu,"
        "\"hardware_concurrency\":%u}\n",
        result.attempted, static_cast<unsigned long long>(options.cap),
        static_cast<unsigned long long>(options.duration_ms), result.seconds,
        static_cast<unsigned long long>(result.requests),
        static_cast<double>(result.requests) / result.seconds,
        Quantile(result.latencies_us, 0.5),
        Quantile(result.latencies_us, 0.99), result.shed, shed_rate,
        result.dead,
        static_cast<unsigned long long>(after.accepted - before.accepted),
        static_cast<unsigned long long>(after.shed_at_accept -
                                        before.shed_at_accept),
        static_cast<unsigned long long>(after.requests - before.requests),
        static_cast<unsigned long long>(after.partial_writes -
                                        before.partial_writes),
        std::thread::hardware_concurrency());
    std::fflush(stdout);
    // Give the loop a beat to reap the sweep's closes before the next
    // point measures admission from a clean slate.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  server->Stop();
  loop.join();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  HarnessOptions options;
  if (!ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: bench_f7_net_load [--cap N] [--duration-ms MS] "
                 "[--users N]\n"
                 "                         [--stripes S] [--seed S] "
                 "[--quick]\n");
    return 2;
  }
  return Run(options);
}
