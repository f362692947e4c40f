// hstream_serve: the multi-tenant H-impact query service, on
// stdin/stdout or as an async TCP server.
//
// Speaks the line protocol of service/protocol.h — one command per line,
// one reply per line:
//
//   printf 'add 7 12\nget 7\ntop 3\nstats\nquit\n' |
//       ./build/examples/hstream_serve --stripes 4 --budget-mb 16
//
// With `--listen <port>` the same protocol is served over TCP by the
// edge-triggered epoll front end (src/net/, docs/NETWORKING.md): the
// first stdout line is `LISTENING <port>` (port 0 picks an ephemeral
// one), connections are capped with socket-level shedding and
// slow-loris eviction, and SIGTERM drains gracefully — stop accepting,
// flush every reply, write a final checkpoint when auto-checkpointing
// is armed. Stdin mode stays the fallback and the fuzz target.
//
// TCP connections may also speak the length-prefixed binary protocol
// (docs/PROTOCOL.md): the first byte of a connection — 0xB1, outside
// ASCII — selects binary framing, anything else falls back to text,
// and both dispatch through the same session so answers are
// semantically identical. examples/hstream_client.cpp is the binary
// reference client.
//
// State is the tiered per-user registry plus one heavy-hitters grid
// (src/service/): cold users are exact, active users are promoted
// to Algorithm 1 sketches, and the least-recently-updated users are
// frozen when the memory budget is hit. `save <path>` checkpoints the
// whole service (PR 1 envelopes, engine-style manifest); `--restore
// <path>` resumes from one at startup, falling back to a fresh service
// with a note on stderr when the checkpoint is missing or damaged (an
// earlier build's format that this build does not read, a delta chain
// or a reservoir-format heavy-hitters grid, is refused with exit 1
// instead), and `--checkpoint <path> --checkpoint-every N` re-saves
// automatically after every N applied mutations (the kill-and-resume
// drill's hook).
// The pair must be armed together: one without the other would silently
// never checkpoint, so ParseArgs rejects it.
//
// `--segment-dir <dir>` arms the out-of-core cold tier: over-budget
// stripes page their least-recently-updated users into mmap-backed
// segment files there instead of freezing them, so a `get` still
// answers from the real state (docs/SERVICE.md).
//
// `--wal-dir <dir>` arms the write-ahead log (docs/CHECKPOINTS.md):
// every applied mutation is appended as a CRC-framed record (group
// commit tuned by `--wal-fsync always|group|never`, `--wal-group-bytes`
// and `--wal-group-ms`), a successful save to the auto-checkpoint path
// rotates the log, and on startup the log is repaired (torn tails
// truncated, never fatal) and replayed after `--restore` — so recovery
// is exact to the last durable record, not checkpoint-cadence bounded.
//
// Robustness surface (docs/ROBUSTNESS.md): `--deadline-us` bounds the
// stripe scan of `top` (a stripe still locked when it runs out is
// skipped and the reply is tagged TOP-LB, counted as
// `deadline_exceeded`), `--max-conns` caps TCP connections, `--faults` (or
// the HIMPACT_FAULTS env var) arms fault-injection points, malformed
// lines are quarantined behind a `rejected_lines` counter, and the
// `health` verb reports all of it as one JSON line (plus a `net` block
// of connection-lifecycle counters in TCP mode).
//
// Replies are deterministic for a given command sequence, which is what
// the kill-and-resume test leans on: a restored server must answer every
// query byte-identically to the server that wrote the checkpoint. Both
// transports share the dispatch (service/session.h), so the guarantee
// covers TCP sessions too.

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <utility>

#include "common/flags.h"
#include "fault/fault.h"
#include "io/wal.h"
#include "net/server.h"
#include "service/protocol.h"
#include "service/service.h"
#include "service/session.h"
#include "service/wal_apply.h"

namespace {

struct ServeOptions {
  himpact::ServiceOptions service;
  himpact::SessionOptions session;
  std::string restore;  // empty -> start fresh
  std::string faults;   // fault-arming spec (merged with env)
  bool listen = false;  // --listen PORT selects the TCP front end
  himpact::NetServerOptions net;
  himpact::WalOptions wal;  // wal.dir empty -> no write-ahead log
};

// The largest duration flags whose value still fits in u64 nanoseconds.
constexpr std::uint64_t kMaxMicros = UINT64_MAX / 1000;
constexpr std::uint64_t kMaxMillis = UINT64_MAX / (1000 * 1000);

bool ParseArgs(int argc, char** argv, ServeOptions* options) {
  using himpact::ParseDoubleFlag;
  using himpact::ParseUint64Flag;
  using himpact::ParseUint64FlagInRange;
  bool checkpoint_every_given = false;
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
    std::uint64_t u64 = 0;
    if (arg == "--eps") {
      if (!next_text(&text) ||
          !ParseDoubleFlag("--eps", text, &options->service.eps))
        return false;
    } else if (arg == "--max-h") {
      if (!next_text(&text) ||
          !ParseUint64Flag("--max-h", text, &options->service.max_h))
        return false;
    } else if (arg == "--stripes") {
      if (!next_text(&text) ||
          !ParseUint64FlagInRange("--stripes", text, 1, 4096, &u64))
        return false;
      options->service.num_stripes = static_cast<std::size_t>(u64);
    } else if (arg == "--promote-threshold") {
      if (!next_text(&text) ||
          !ParseUint64Flag("--promote-threshold", text,
                           &options->service.promote_threshold))
        return false;
    } else if (arg == "--budget-mb") {
      if (!next_text(&text) ||
          !ParseUint64FlagInRange("--budget-mb", text, 1, 1u << 20, &u64))
        return false;
      options->service.memory_budget_bytes = u64 << 20;
    } else if (arg == "--board") {
      if (!next_text(&text) ||
          !ParseUint64FlagInRange("--board", text, 1, 1u << 16, &u64))
        return false;
      options->service.leaderboard_capacity = static_cast<std::size_t>(u64);
    } else if (arg == "--no-heavy") {
      options->service.enable_heavy_hitters = false;
    } else if (arg == "--seed") {
      if (!next_text(&text) ||
          !ParseUint64Flag("--seed", text, &options->service.seed))
        return false;
    } else if (arg == "--restore") {
      if (!next_text(&text)) return false;
      options->restore = text;
    } else if (arg == "--checkpoint") {
      if (!next_text(&text)) return false;
      options->session.checkpoint = text;
    } else if (arg == "--checkpoint-every") {
      if (!next_text(&text) ||
          !ParseUint64Flag("--checkpoint-every", text,
                           &options->session.checkpoint_every))
        return false;
      checkpoint_every_given = true;
    } else if (arg == "--segment-dir") {
      if (!next_text(&text)) return false;
      options->service.segment_dir = text;
    } else if (arg == "--wal-dir") {
      if (!next_text(&text)) return false;
      options->wal.dir = text;
    } else if (arg == "--wal-fsync") {
      if (!next_text(&text)) return false;
      if (!himpact::ParseWalFsyncText(text, &options->wal.fsync)) {
        std::fprintf(stderr, "--wal-fsync must be always, group, or never\n");
        return false;
      }
    } else if (arg == "--wal-group-bytes") {
      if (!next_text(&text) ||
          !ParseUint64FlagInRange("--wal-group-bytes", text, 1, 1u << 30,
                                  &options->wal.group_bytes))
        return false;
    } else if (arg == "--wal-group-ms") {
      if (!next_text(&text) ||
          !ParseUint64Flag("--wal-group-ms", text, &options->wal.group_ms))
        return false;
    } else if (arg == "--deadline-us") {
      if (!next_text(&text) ||
          !ParseUint64FlagInRange("--deadline-us", text, 0, kMaxMicros, &u64))
        return false;
      options->service.top_deadline_nanos = u64 * 1000;
    } else if (arg == "--faults") {
      if (!next_text(&text)) return false;
      options->faults = text;
    } else if (arg == "--listen") {
      if (!next_text(&text) ||
          !ParseUint64FlagInRange("--listen", text, 0, 65535, &u64))
        return false;
      options->listen = true;
      options->net.port = static_cast<std::uint16_t>(u64);
    } else if (arg == "--max-conns") {
      if (!next_text(&text) ||
          !ParseUint64FlagInRange("--max-conns", text, 1, 1u << 20, &u64))
        return false;
      options->net.max_connections = static_cast<std::size_t>(u64);
    } else if (arg == "--max-line-bytes") {
      if (!next_text(&text) ||
          !ParseUint64FlagInRange("--max-line-bytes", text, 16, 1u << 26,
                                  &u64))
        return false;
      options->net.limits.max_line_bytes = static_cast<std::size_t>(u64);
    } else if (arg == "--idle-timeout-ms") {
      if (!next_text(&text) ||
          !ParseUint64FlagInRange("--idle-timeout-ms", text, 0, kMaxMillis,
                                  &u64))
        return false;
      options->net.idle_timeout_nanos = u64 * 1000 * 1000;
    } else if (arg == "--request-timeout-ms") {
      if (!next_text(&text) ||
          !ParseUint64FlagInRange("--request-timeout-ms", text, 0, kMaxMillis,
                                  &u64))
        return false;
      options->net.request_timeout_nanos = u64 * 1000 * 1000;
    } else if (arg == "--evict-min-idle-ms") {
      if (!next_text(&text) ||
          !ParseUint64FlagInRange("--evict-min-idle-ms", text, 0, kMaxMillis,
                                  &u64))
        return false;
      options->net.evict_min_idle_nanos = u64 * 1000 * 1000;
    } else if (arg == "--help") {
      return false;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return false;
    }
  }
  // Auto-checkpointing needs both halves: a path with no cadence (or an
  // explicit cadence of 0) would silently never checkpoint, and a
  // cadence with no path has nowhere to write.
  if (!options->session.checkpoint.empty() &&
      options->session.checkpoint_every == 0) {
    std::fprintf(stderr,
                 checkpoint_every_given
                     ? "--checkpoint-every must be >= 1 when --checkpoint "
                       "is set (0 would never checkpoint)\n"
                     : "--checkpoint requires --checkpoint-every N "
                       "(without it the server would never checkpoint)\n");
    return false;
  }
  if (options->session.checkpoint.empty() && checkpoint_every_given) {
    std::fprintf(stderr,
                 "--checkpoint-every requires --checkpoint FILE "
                 "(there is no path to checkpoint to)\n");
    return false;
  }
  return true;
}

int ServeStdin(himpact::ServiceSession& session) {
  std::string line;
  std::string reply;
  bool keep = true;
  while (keep && std::getline(std::cin, line)) {
    keep = session.HandleLine(line, &reply);
    std::fputs(reply.c_str(), stdout);
    std::fflush(stdout);
  }
  return 0;
}

// The drain target for the SIGTERM handler. Written once before the
// loop starts; the handler only calls the async-signal-safe
// RequestDrain (one pipe write).
himpact::NetServer* g_net_server = nullptr;

void HandleSigterm(int) {
  if (g_net_server != nullptr) g_net_server->RequestDrain();
}

int ServeTcp(himpact::ServiceSession& session, const ServeOptions& options) {
  auto server_or = himpact::NetServer::Create(
      options.net,
      [&session](bool binary, himpact::RequestBatch requests,
                 std::size_t reply_room, std::string* replies) {
        return session.HandleBatch(binary, requests, reply_room, replies);
      });
  if (!server_or.ok()) {
    std::fprintf(stderr, "--listen: %s\n",
                 server_or.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<himpact::NetServer> server = std::move(server_or).value();
  session.set_extra_health_fields(
      [&server] { return "\"net\":" + server->CountersJson(); });
  server->set_drain_callback([&session] {
    const himpact::Status saved = session.FinalCheckpoint();
    if (!saved.ok()) {
      std::fprintf(stderr, "drain checkpoint failed: %s\n",
                   saved.message().c_str());
    }
  });

  g_net_server = server.get();
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = HandleSigterm;
  ::sigaction(SIGTERM, &action, nullptr);
  // A dying client mid-write must surface as EPIPE on that socket, not
  // kill the whole server.
  ::signal(SIGPIPE, SIG_IGN);

  // The contract tests and load generators key on: the bound port as
  // the first stdout line, before any connection is served.
  std::printf("LISTENING %u\n", static_cast<unsigned>(server->port()));
  std::fflush(stdout);

  const himpact::Status ran = server->Run();
  g_net_server = nullptr;
  if (!ran.ok()) {
    std::fprintf(stderr, "event loop failed: %s\n",
                 ran.ToString().c_str());
    return 1;
  }
  std::printf("DRAINED\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ServeOptions options;
  if (!ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: hstream_serve [--eps E] [--max-h N] [--stripes S]\n"
                 "                     [--promote-threshold T] "
                 "[--budget-mb MB] [--board K]\n"
                 "                     [--no-heavy] [--seed S] "
                 "[--restore FILE]\n"
                 "                     [--checkpoint FILE "
                 "--checkpoint-every N]\n"
                 "                     [--segment-dir DIR] [--wal-dir DIR]\n"
                 "                     [--wal-fsync always|group|never] "
                 "[--wal-group-bytes B]\n"
                 "                     [--wal-group-ms MS]\n"
                 "                     [--deadline-us U] [--faults SPEC]\n"
                 "                     [--listen PORT] [--max-conns N] "
                 "[--max-line-bytes B]\n"
                 "                     [--idle-timeout-ms MS] "
                 "[--request-timeout-ms MS]\n"
                 "                     [--evict-min-idle-ms MS]\n"
                 "commands (stdin or TCP): add/paper/get/top/heavy/stats/"
                 "health/save/quit\n"
                 "--checkpoint and --checkpoint-every must be given "
                 "together (half-armed\n"
                 "combinations are rejected). With --listen the first "
                 "stdout line is the\n"
                 "contract line 'LISTENING <port>' (PORT 0 picks an "
                 "ephemeral port); TCP\n"
                 "connections whose first byte is 0xB1 speak the binary "
                 "protocol of\n"
                 "docs/PROTOCOL.md, all others the text protocol above.\n");
    return 2;
  }
  {
    const himpact::Status armed = himpact::FaultRegistry::Global().ArmFromEnv();
    if (armed.ok() && !options.faults.empty()) {
      const himpact::Status flag_armed =
          himpact::FaultRegistry::Global().ArmFromText(options.faults);
      if (!flag_armed.ok()) {
        std::fprintf(stderr, "--faults: %s\n", flag_armed.message().c_str());
        return 2;
      }
    }
    if (!armed.ok()) {
      std::fprintf(stderr, "HIMPACT_FAULTS: %s\n", armed.message().c_str());
      return 2;
    }
  }
  auto service_or = himpact::HImpactService::Create(options.service);
  if (!service_or.ok()) {
    std::fprintf(stderr, "%s\n", service_or.status().ToString().c_str());
    return 1;
  }
  himpact::HImpactService service = std::move(service_or).value();
  if (!options.restore.empty()) {
    bool refused = false;
    const himpact::Status restored =
        service.RestoreFrom(options.restore, &refused);
    if (refused) {
      // Starting fresh would let the first save replace a checkpoint
      // only an earlier build can read, and its state would be lost for
      // good.
      std::fprintf(stderr, "--restore: %s\n", restored.message().c_str());
      return 1;
    }
    if (!restored.ok()) {
      std::fprintf(stderr,
                   "checkpoint unavailable (%s): %s; starting fresh\n",
                   options.restore.c_str(), restored.message().c_str());
    }
  }
  // WAL recovery order: restore the checkpoint (above), then repair and
  // replay the log through the per-stripe gates, then open a fresh
  // writer segment. Replay runs even when no checkpoint opened — the
  // log alone still carries everything since the last rotation.
  std::unique_ptr<himpact::WalWriter> wal;
  if (!options.wal.dir.empty()) {
    himpact::WalReplayStats read_stats;
    himpact::WalApplyStats apply_stats;
    const himpact::Status replayed = himpact::ReplayWal(
        options.wal.dir, &service, &read_stats, &apply_stats);
    if (!replayed.ok()) {
      std::fprintf(stderr, "WAL replay failed: %s; continuing from the "
                   "checkpoint alone\n",
                   replayed.message().c_str());
    } else {
      std::fprintf(
          stderr,
          "hstream: WAL replayed %llu record(s) (%llu adds, %llu papers, "
          "%llu partial, %llu covered, %llu malformed; %llu torn tail(s) "
          "repaired, %llu segment(s) dropped)\n",
          static_cast<unsigned long long>(read_stats.records),
          static_cast<unsigned long long>(apply_stats.applied_adds),
          static_cast<unsigned long long>(apply_stats.applied_papers),
          static_cast<unsigned long long>(apply_stats.partial_papers),
          static_cast<unsigned long long>(apply_stats.skipped_records),
          static_cast<unsigned long long>(apply_stats.malformed_records),
          static_cast<unsigned long long>(read_stats.torn_tails),
          static_cast<unsigned long long>(read_stats.dropped_segments));
    }
    auto wal_or = himpact::WalWriter::Open(options.wal);
    if (!wal_or.ok()) {
      std::fprintf(stderr, "--wal-dir: %s\n",
                   wal_or.status().ToString().c_str());
      return 1;
    }
    wal = std::move(wal_or).value();
  }
  himpact::ServiceSession session(&service, options.session);
  if (wal != nullptr) session.AttachWal(wal.get());
  if (options.listen) {
    return ServeTcp(session, options);
  }
  // Line-buffered replies so popen-driven tests and pipelines see each
  // reply as soon as its command is processed (ServeStdin also flushes).
  std::setvbuf(stdout, nullptr, _IOLBF, 0);
  return ServeStdin(session);
}
