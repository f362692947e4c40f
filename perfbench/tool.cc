// perfbench_tool: the in-process half of the served-request benchmark.
//
//   perfbench_tool flags  --workload W
//       Prints the workload's hstream_serve flags and switches as JSON.
//   perfbench_tool base   --workload W --seed S --out CKPT [--segment-dir D]
//       Applies the seeded base population to a fresh service and writes
//       the base checkpoint every round restores from.
//   perfbench_tool events --workload W --restore CKPT
//       Prints the event count a checkpoint (chain) restores to.
//   perfbench_tool serve-traced --workload W --restore CKPT --spans-out F
//                  [--checkpoint C] [--wal-dir D] [--segment-dir D]
//                  [--ladder-segment-dir D2]
//       Serves like `hstream_serve --listen 0` (same session, same
//       NetServer) with a span around every handler call. On SIGTERM it
//       drains, replays the recorded request stream through each lower
//       layer on its own (the ladder, on a fresh restore of CKPT with the
//       segment files in D2) and writes one JSON object to F.

#include <csignal>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/exponential_histogram.h"
#include "heavy/heavy_hitters.h"
#include "io/wal.h"
#include "net/server.h"
#include "net/wire.h"
#include "service/protocol.h"
#include "service/service.h"
#include "service/session.h"
#include "service/wal_apply.h"
#include "workload.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

[[noreturn]] void Die(const std::string& why) {
  std::fprintf(stderr, "perfbench_tool: %s\n", why.c_str());
  std::exit(2);
}

struct Config {
  Spec spec;
  std::uint64_t seed = 1;
  std::string restore, out, checkpoint, wal_dir, segment_dir, spans_out;
  std::string ladder_segment_dir;  // the ladder's own copy of the base's segments
  himpact::ServiceOptions service;
  himpact::SessionOptions session;
  himpact::WalOptions wal;
};

// Maps the workload's hstream_serve flags onto the option structs the
// server builds from them, so in-process services restore the same
// checkpoints. Only the flags the workload table uses are accepted.
void ApplyServerFlags(Config* cfg) {
  const std::vector<std::string>& f = cfg->spec.server_flags;
  for (std::size_t i = 0; i + 1 < f.size(); i += 2) {
    const std::string& flag = f[i];
    const std::string& v = f[i + 1];
    const std::uint64_t n = std::strtoull(v.c_str(), nullptr, 10);
    if (flag == "--stripes") {
      cfg->service.num_stripes = n;
    } else if (flag == "--budget-mb") {
      cfg->service.memory_budget_bytes = n << 20;
    } else if (flag == "--checkpoint-every") {
      cfg->session.checkpoint_every = n;
    } else if (flag == "--checkpoint-mode") {
      cfg->session.checkpoint_mode = v == "incr" ? himpact::SaveMode::kIncremental
                                                 : himpact::SaveMode::kFull;
    } else if (flag == "--max-chain-len") {
      cfg->service.max_chain_len = n;
    } else if (flag == "--wal-fsync") {
      if (!himpact::ParseWalFsyncText(v.c_str(), &cfg->wal.fsync)) Die("bad --wal-fsync");
    } else {
      Die("workload flag " + flag + " is not mapped");
    }
  }
}

himpact::HImpactService MakeService(const himpact::ServiceOptions& options) {
  auto service = himpact::HImpactService::Create(options);
  if (!service.ok()) Die(service.status().ToString());
  return std::move(service).value();
}

himpact::Command ToCommand(const Request& r) {
  himpact::Command cmd;
  cmd.user = r.user;
  cmd.value = r.value;
  switch (r.verb) {
    case Verb::kAdd: cmd.kind = himpact::CommandKind::kAdd; break;
    case Verb::kGet: cmd.kind = himpact::CommandKind::kGet; break;
    case Verb::kTop: cmd.kind = himpact::CommandKind::kTop; break;
    case Verb::kHeavy: cmd.kind = himpact::CommandKind::kHeavy; break;
    case Verb::kPaper:
      cmd.kind = himpact::CommandKind::kPaper;
      cmd.paper.paper = r.paper;
      cmd.paper.citations = r.value;
      for (const std::uint64_t a : r.authors) cmd.paper.authors.PushBack(a);
      break;
  }
  return cmd;
}

int Base(const Config& cfg) {
  himpact::ServiceOptions options = cfg.service;
  options.segment_dir = cfg.segment_dir;
  himpact::HImpactService service = MakeService(options);
  const Generator gen(cfg.spec, cfg.seed);
  gen.ForEachBase([&](const Request& r) {
    if (r.verb == Verb::kAdd) {
      service.RecordResponseCount(r.user, r.value);
    } else {
      service.IngestPaper(ToCommand(r).paper);
    }
  });
  const himpact::Status saved = service.CheckpointTo(cfg.out);
  if (!saved.ok()) Die("base checkpoint: " + saved.ToString());
  std::printf("{\"events\":%llu}\n",
              static_cast<unsigned long long>(
                  service.Stats().registry.total_events));
  return 0;
}

int Events(const Config& cfg) {
  himpact::HImpactService service = MakeService(cfg.service);
  const himpact::Status restored = service.RestoreFrom(cfg.restore);
  if (!restored.ok()) Die("restore: " + restored.ToString());
  std::printf("{\"events\":%llu}\n",
              static_cast<unsigned long long>(
                  service.Stats().registry.total_events));
  return 0;
}

// ---------------------------------------------------------------------
// Traced serving and the ladder.

himpact::NetServer* g_server = nullptr;
void OnSigterm(int) {
  if (g_server != nullptr) g_server->RequestDrain();
}

struct Span {
  std::uint64_t start = 0;
  std::uint64_t end = 0;
};

// Accumulated time of one rung.
struct Rung {
  std::uint64_t ns = 0;
  std::uint64_t calls = 0;
  void Add(std::uint64_t t0, std::uint64_t t1) {
    ns += t1 - t0;
    ++calls;
  }
  double Mean() const { return calls == 0 ? 0.0 : double(ns) / double(calls); }
};

struct Ladder {
  Rung decode, encode;  // wire (binary) or protocol (text)
  Rung add, paper, get, top, heavy;  // service verbs
  Rung wal_append;
  Rung checkpoint;
  std::uint64_t checkpoint_bytes = 0;
  double final_save_ms = 0.0;  // set when the stream made no cadence save
  double restore_ms = 0.0;
  double replay_us_per_record = 0.0;
  double heavy_add_paper_ns = 0.0;
  double eh_add_ns = 0.0;
};

// The CommandResult the session would build for `cmd` (the encode rung's
// input), from the service's answer. Times the service call.
himpact::CommandResult Execute(himpact::HImpactService& service,
                               const himpact::Command& cmd, Ladder* ladder,
                               bool* mutated) {
  himpact::CommandResult result;
  result.kind = cmd.kind;
  *mutated = false;
  std::uint64_t t0 = NowNs();
  switch (cmd.kind) {
    case himpact::CommandKind::kAdd: {
      auto est = service.TryRecordResponseCount(cmd.user, cmd.value);
      ladder->add.Add(t0, NowNs());
      if (est.ok()) result.estimate = est.value();
      *mutated = true;
      break;
    }
    case himpact::CommandKind::kPaper: {
      const himpact::Status s = service.TryIngestPaper(cmd.paper);
      ladder->paper.Add(t0, NowNs());
      if (s.ok()) result.num_authors = static_cast<std::uint32_t>(cmd.paper.authors.size());
      *mutated = true;
      break;
    }
    case himpact::CommandKind::kGet: {
      himpact::UserSnapshot snap;
      const bool found = service.Lookup(cmd.user, &snap);
      ladder->get.Add(t0, NowNs());
      result.user = cmd.user;
      if (found) {
        result.estimate = snap.estimate;
        result.tier = static_cast<int>(snap.tier);
        result.events = snap.events;
      }
      break;
    }
    case himpact::CommandKind::kTop: {
      auto top = service.TryTopK(static_cast<std::size_t>(cmd.value));
      ladder->top.Add(t0, NowNs());
      if (top.ok()) {
        for (const auto& e : top.value().entries) result.entries.emplace_back(e.user, e.estimate);
      }
      break;
    }
    case himpact::CommandKind::kHeavy: {
      const auto reports = service.HeavyReport();
      ladder->heavy.Add(t0, NowNs());
      for (const auto& r : reports) result.entries.emplace_back(r.author, r.h_estimate);
      break;
    }
    default:
      // stats/health on the control connection: session-only work, left
      // to the residual.
      break;
  }
  return result;
}

Ladder RunLadder(const Config& cfg, const std::vector<std::string>& recorded,
                 const std::filesystem::path& dir) {
  Ladder ladder;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  himpact::ServiceOptions options = cfg.service;
  options.segment_dir = cfg.ladder_segment_dir;
  himpact::HImpactService service = MakeService(options);
  if (!service.RestoreFrom(cfg.restore).ok()) Die("ladder restore failed");
  std::unique_ptr<himpact::WalWriter> wal;
  if (cfg.spec.wal) {
    himpact::WalOptions wal_options = cfg.wal;
    wal_options.dir = (dir / "wal").string();
    std::filesystem::create_directories(wal_options.dir);
    auto opened = himpact::WalWriter::Open(wal_options);
    if (!opened.ok()) Die("ladder WAL: " + opened.status().ToString());
    wal = std::move(opened).value();
  }
  const std::string ckpt = (dir / "ck").string();
  std::uint64_t since_checkpoint = 0;
  std::vector<himpact::Command> commands;
  commands.reserve(recorded.size());
  // Rung: decode (binary frames) or parse (text lines).
  for (const std::string& req : recorded) {
    const std::uint64_t t0 = NowNs();
    auto cmd = cfg.spec.binary ? himpact::DecodeRequestFrame(req)
                               : himpact::ParseCommandLine(req);
    ladder.decode.Add(t0, NowNs());
    commands.push_back(cmd.ok() ? cmd.value() : himpact::Command{});
  }
  std::vector<himpact::CommandResult> results;
  results.reserve(commands.size());
  for (const himpact::Command& cmd : commands) {
    bool mutated = false;
    results.push_back(Execute(service, cmd, &ladder, &mutated));
    if (!mutated) continue;
    if (wal != nullptr) {
      const std::uint64_t t0 = NowNs();
      const himpact::Status s =
          cmd.kind == himpact::CommandKind::kAdd
              ? himpact::AppendWalAdd(wal.get(), service, cmd.user, cmd.value)
              : himpact::AppendWalPaper(wal.get(), service, cmd.paper);
      ladder.wal_append.Add(t0, NowNs());
      if (!s.ok()) Die("ladder WAL append: " + s.ToString());
    }
    if (cfg.session.checkpoint_every > 0 &&
        ++since_checkpoint >= cfg.session.checkpoint_every) {
      since_checkpoint = 0;
      const std::uint64_t t0 = NowNs();
      const himpact::Status s = service.CheckpointTo(ckpt, cfg.session.checkpoint_mode);
      if (wal != nullptr && s.ok()) (void)wal->Rotate();
      ladder.checkpoint.Add(t0, NowNs());
      if (!s.ok()) Die("ladder checkpoint: " + s.ToString());
    }
  }
  // Rung: encode (binary reply frames) or format (text replies).
  for (const himpact::CommandResult& r : results) {
    const std::uint64_t t0 = NowNs();
    const std::string reply =
        cfg.spec.binary ? himpact::EncodeReplyFrame(r) : himpact::FormatTextReply(r);
    ladder.encode.Add(t0, NowNs());
    if (reply.empty()) Die("empty reply");
  }
  wal.reset();  // flush + fsync + close
  // Without a cadence save in the stream, time one full save of the
  // final state so the checkpoint layer is still measured (outside the
  // per-request rungs: no request paid for it).
  const bool cadence_saved = ladder.checkpoint.calls > 0;
  if (!cadence_saved) {
    const std::uint64_t t0 = NowNs();
    const himpact::Status s = service.CheckpointTo((dir / "final").string());
    if (!s.ok()) Die("ladder final checkpoint: " + s.ToString());
    ladder.final_save_ms = double(NowNs() - t0) * 1e-6;
  }
  const himpact::CheckpointCounters cc = service.Stats().checkpoint;
  ladder.checkpoint_bytes = cc.bytes_full + cc.bytes_incremental;

  // Recovery rungs: restore the chain the ladder wrote (or the base) and
  // replay whatever WAL is left.
  {
    himpact::HImpactService fresh = MakeService(options);
    const std::string from = cadence_saved ? ckpt : cfg.restore;
    const std::uint64_t t0 = NowNs();
    if (!fresh.RestoreFrom(from).ok()) Die("ladder recovery restore failed");
    ladder.restore_ms = double(NowNs() - t0) * 1e-6;
    if (cfg.spec.wal) {
      himpact::WalReplayStats read_stats;
      const std::uint64_t t1 = NowNs();
      const himpact::Status s =
          himpact::ReplayWal((dir / "wal").string(), &fresh, &read_stats, nullptr);
      if (!s.ok()) Die("ladder replay: " + s.ToString());
      ladder.replay_us_per_record =
          read_stats.records == 0 ? 0.0
                                  : double(NowNs() - t1) * 1e-3 / double(read_stats.records);
    }
  }

  // Rungs below the service: the heavy-hitters grid and the EH kernel,
  // each fed this stream's writes on its own.
  himpact::HeavyHitters::Options hh_options;
  hh_options.eps = options.hh_eps;
  hh_options.delta = options.hh_delta;
  hh_options.max_papers = options.hh_max_papers;
  auto hh = himpact::HeavyHitters::Create(hh_options, options.seed);
  auto eh = himpact::ExponentialHistogramEstimator::Create(options.eps, options.max_h);
  if (!hh.ok() || !eh.ok()) Die("ladder sketches");
  std::vector<himpact::PaperTuple> papers;
  std::vector<std::uint64_t> values;
  std::uint64_t synthetic = 1;
  for (const himpact::Command& cmd : commands) {
    if (cmd.kind == himpact::CommandKind::kPaper) {
      papers.push_back(cmd.paper);
      for (int i = 0; i < cmd.paper.authors.size(); ++i) values.push_back(cmd.paper.citations);
    } else if (cmd.kind == himpact::CommandKind::kAdd) {
      himpact::PaperTuple t;
      t.paper = synthetic++;
      t.citations = cmd.value;
      t.authors.PushBack(cmd.user);
      papers.push_back(t);
      values.push_back(cmd.value);
    }
  }
  if (!papers.empty()) {
    const std::uint64_t t0 = NowNs();
    for (const himpact::PaperTuple& p : papers) hh.value().AddPaper(p);
    ladder.heavy_add_paper_ns = double(NowNs() - t0) / double(papers.size());
    const std::uint64_t t1 = NowNs();
    eh.value().AddBatch(values);
    ladder.eh_add_ns = double(NowNs() - t1) / double(values.size());
  }
  std::filesystem::remove_all(dir);
  return ladder;
}

int ServeTraced(const Config& cfg) {
  himpact::ServiceOptions options = cfg.service;
  options.segment_dir = cfg.segment_dir;
  himpact::HImpactService service = MakeService(options);
  if (!service.RestoreFrom(cfg.restore).ok()) Die("restore failed");
  std::unique_ptr<himpact::WalWriter> wal;
  if (!cfg.wal_dir.empty()) {
    himpact::WalOptions wal_options = cfg.wal;
    wal_options.dir = cfg.wal_dir;
    auto opened = himpact::WalWriter::Open(wal_options);
    if (!opened.ok()) Die("--wal-dir: " + opened.status().ToString());
    wal = std::move(opened).value();
  }
  himpact::SessionOptions session_options = cfg.session;
  session_options.checkpoint = cfg.checkpoint;
  if (cfg.checkpoint.empty()) session_options.checkpoint_every = 0;
  himpact::ServiceSession session(&service, session_options);
  if (wal != nullptr) session.AttachWal(wal.get());

  // Spans and the recorded stream live in memory until the run ends.
  std::vector<Span> spans;
  std::vector<std::string> recorded;
  spans.reserve(1 << 20);
  recorded.reserve(1 << 20);
  auto server = himpact::NetServer::Create(
      himpact::NetServerOptions{},
      [&](const std::string& line, std::string* reply) {
        const std::uint64_t t0 = NowNs();
        const bool keep = session.HandleLine(line, reply);
        spans.push_back({t0, NowNs()});
        recorded.push_back(line);
        return keep;
      },
      [&](const std::string& frame, std::string* reply) {
        const std::uint64_t t0 = NowNs();
        const bool keep = session.HandleFrame(frame, reply);
        spans.push_back({t0, NowNs()});
        recorded.push_back(frame);
        return keep;
      });
  if (!server.ok()) Die(server.status().ToString());
  session.set_extra_health_fields(
      [&server] { return "\"net\":" + server.value()->CountersJson(); });
  g_server = server.value().get();
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = OnSigterm;
  ::sigaction(SIGTERM, &action, nullptr);
  ::signal(SIGPIPE, SIG_IGN);
  std::printf("LISTENING %u\n", static_cast<unsigned>(server.value()->port()));
  std::fflush(stdout);
  const himpact::Status ran = server.value()->Run();
  g_server = nullptr;
  if (!ran.ok()) Die("event loop: " + ran.ToString());

  std::vector<std::uint64_t> handle;
  handle.reserve(spans.size());
  double handle_sum = 0.0;
  for (const Span& s : spans) {
    handle.push_back(s.end - s.start);
    handle_sum += double(s.end - s.start);
  }
  const double n = std::max<double>(1.0, double(handle.size()));
  const double handle_mean = handle_sum / n;
  double handle_p99 = 0.0;
  if (!handle.empty()) {
    const std::size_t k = std::min(handle.size() - 1, handle.size() * 99 / 100);
    std::nth_element(handle.begin(), handle.begin() + long(k), handle.end());
    handle_p99 = double(handle[k]);
  }
  const Ladder l = RunLadder(cfg, recorded, cfg.spans_out + ".ladder");
  // Every rung's total, spread over all recorded requests: these plus
  // the residual add up to the mean handler span by construction.
  const double per_req_rungs =
      double(l.decode.ns + l.encode.ns + l.add.ns + l.paper.ns + l.get.ns + l.top.ns +
             l.heavy.ns + l.wal_append.ns + l.checkpoint.ns) / n;
  std::ofstream out(cfg.spans_out);
  char buf[4096];
  std::snprintf(
      buf, sizeof(buf),
      "{\"requests\":%zu,\"handle_mean_ns\":%.3f,\"handle_p99_ns\":%.3f,"
      "\"rungs_per_request_ns\":%.3f,\"unexplained_ns\":%.3f,"
      "\"decode_ns\":%.3f,\"encode_ns\":%.3f,\"decode_per_request_ns\":%.3f,"
      "\"encode_per_request_ns\":%.3f,\"service_per_request_ns\":%.3f,"
      "\"wal_per_request_ns\":%.3f,\"checkpoint_per_request_ns\":%.3f,"
      "\"add_ns\":%.3f,\"paper_ns\":%.3f,\"get_ns\":%.3f,\"top_ns\":%.3f,"
      "\"heavy_ns\":%.3f,\"wal_append_ns\":%.3f,\"checkpoint_save_ms\":%.4f,"
      "\"checkpoint_saves\":%llu,\"checkpoint_bytes_per_save\":%.1f,"
      "\"restore_ms\":%.4f,\"replay_us_per_record\":%.4f,"
      "\"heavy_add_paper_ns\":%.3f,\"eh_add_ns\":%.3f}\n",
      handle.size(), handle_mean, handle_p99, per_req_rungs,
      handle_mean - per_req_rungs, l.decode.Mean(), l.encode.Mean(),
      double(l.decode.ns) / n, double(l.encode.ns) / n,
      double(l.add.ns + l.paper.ns + l.get.ns + l.top.ns + l.heavy.ns) / n,
      double(l.wal_append.ns) / n, double(l.checkpoint.ns) / n, l.add.Mean(),
      l.paper.Mean(), l.get.Mean(), l.top.Mean(), l.heavy.Mean(),
      l.wal_append.Mean(),
      l.checkpoint.calls > 0 ? l.checkpoint.Mean() * 1e-6 : l.final_save_ms,
      static_cast<unsigned long long>(l.checkpoint.calls),
      double(l.checkpoint_bytes) / double(std::max<std::uint64_t>(1, l.checkpoint.calls)),
      l.restore_ms, l.replay_us_per_record, l.heavy_add_paper_ns, l.eh_add_ns);
  out << buf;
  return out.good() ? 0 : 1;
}

int Main(int argc, char** argv) {
  if (argc < 2) Die("usage: perfbench_tool flags|base|events|serve-traced ...");
  const std::string mode = argv[1];
  Config cfg;
  std::string workload;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) Die("missing value for " + arg);
    const std::string v = argv[++i];
    if (arg == "--workload") workload = v;
    else if (arg == "--seed") cfg.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (arg == "--restore") cfg.restore = v;
    else if (arg == "--out") cfg.out = v;
    else if (arg == "--checkpoint") cfg.checkpoint = v;
    else if (arg == "--wal-dir") cfg.wal_dir = v;
    else if (arg == "--segment-dir") cfg.segment_dir = v;
    else if (arg == "--spans-out") cfg.spans_out = v;
    else if (arg == "--ladder-segment-dir") cfg.ladder_segment_dir = v;
    else Die("unknown flag " + arg);
  }
  cfg.spec = GetSpec(workload);
  ApplyServerFlags(&cfg);
  if (mode == "flags") {
    std::string json = "{\"server_flags\":[";
    for (std::size_t i = 0; i < cfg.spec.server_flags.size(); ++i) {
      json += (i > 0 ? ",\"" : "\"") + cfg.spec.server_flags[i] + "\"";
    }
    json += "],\"wal\":" + std::string(cfg.spec.wal ? "true" : "false");
    json += ",\"segment_dir\":" + std::string(cfg.spec.segment_dir ? "true" : "false");
    json += ",\"auto_checkpoint\":" +
            std::string(cfg.spec.auto_checkpoint ? "true" : "false");
    json += ",\"binary\":" + std::string(cfg.spec.binary ? "true" : "false");
    json += ",\"connections\":" + std::to_string(cfg.spec.connections);
    json += ",\"window\":" + std::to_string(cfg.spec.window);
    json += ",\"one_core\":" + std::string(cfg.spec.one_core ? "true" : "false");
    json += ",\"timed_requests\":" +
            std::to_string(cfg.spec.timed_per_connection * cfg.spec.connections);
    json += "}";
    std::printf("%s\n", json.c_str());
    return 0;
  }
  if (mode == "base") return Base(cfg);
  if (mode == "events") return Events(cfg);
  if (mode == "serve-traced") return ServeTraced(cfg);
  Die("unknown mode " + mode);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
