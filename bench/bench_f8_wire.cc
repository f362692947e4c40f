// bench_f8_wire: text vs binary wire-protocol framing cost
// (docs/PROTOCOL.md, docs/BENCHMARKS.md).
//
// The question PR 7 asks: how much CPU does the length-prefixed binary
// protocol save over the text line protocol for the service's small
// fixed-shape requests? Both protocols are pumped through the real
// per-connection framing (`Connection::NextLine` / `NextFrame` on
// pre-generated request byte streams) and the real codecs
// (ParseCommandLine/FormatTextReply vs DecodeRequestFrame/
// EncodeReplyFrame), entirely in memory — no sockets, so the numbers
// isolate the protocol layer instead of drowning it in syscalls.
//
// Two measurement modes per batch depth:
//
//   * framing  — dispatch is a stub that fills a canned CommandResult,
//     so the text-vs-binary delta is pure protocol cost. This is the
//     headline number: the acceptance gate is binary >= 1.5x text
//     request throughput at batch depth 1.
//   * end_to_end — dispatch is a real HImpactService via
//     ServiceSession::HandleLine / HandleFrame, for an honest view of
//     how much of a full request the protocol layer is.
//
// Batch depth = requests appended to the connection buffer before the
// pump runs (client-side pipelining). Depth 1 is the request/reply
// ping-pong shape; deeper batches amortize the per-wakeup costs.
//
// Emits one BENCH{...} json line per (mode, protocol, depth), plus a
// speedup line per (mode, depth):
//
//   ./bench_f8_wire [--quick] [--requests N] [--repeats R]

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/flags.h"
#include "net/connection.h"
#include "net/wire.h"
#include "service/protocol.h"
#include "service/service.h"
#include "service/session.h"

namespace himpact {
namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

template <typename Fn>
double MinSeconds(int repeats, Fn&& fn) {
  double best = 0.0;
  for (int r = 0; r < repeats; ++r) {
    const double start = NowSeconds();
    fn();
    const double elapsed = NowSeconds() - start;
    if (r == 0 || elapsed < best) best = elapsed;
  }
  return best;
}

struct F8Options {
  std::size_t requests = 200000;
  int repeats = 5;
};

/// The request mix: mostly `add`, with periodic `get` and `top` — the
/// point-query shape the service is built for (f7 uses the same mix).
std::vector<Command> MakeWorkload(std::size_t requests) {
  std::vector<Command> commands;
  commands.reserve(requests);
  for (std::size_t i = 0; i < requests; ++i) {
    Command command;
    if (i % 10 == 9) {
      command.kind = CommandKind::kGet;
      command.user = i % 512;
    } else if (i % 100 == 57) {
      command.kind = CommandKind::kTop;
      command.value = 8;
    } else {
      command.kind = CommandKind::kAdd;
      command.user = i % 512;
      command.value = 1 + i % 7;
    }
    commands.push_back(command);
  }
  return commands;
}

/// Renders a command as its text-protocol line (what a text client
/// sends). Only the three workload verbs are needed.
std::string TextLine(const Command& command) {
  switch (command.kind) {
    case CommandKind::kAdd:
      return "add " + std::to_string(command.user) + " " +
             std::to_string(command.value) + "\n";
    case CommandKind::kGet:
      return "get " + std::to_string(command.user) + "\n";
    default:
      return "top " + std::to_string(command.value) + "\n";
  }
}

/// Pre-rendered request byte stream, one blob per batch: `depth`
/// requests per blob (the bytes one pipelining client would have on
/// the wire before waiting for replies).
std::vector<std::string> RenderBatches(const std::vector<Command>& workload,
                                       std::size_t depth, bool binary) {
  std::vector<std::string> batches;
  batches.reserve(workload.size() / depth + 1);
  std::string blob;
  for (std::size_t i = 0; i < workload.size(); ++i) {
    blob += binary ? EncodeRequestFrame(workload[i]) : TextLine(workload[i]);
    if ((i + 1) % depth == 0) {
      batches.push_back(std::move(blob));
      blob.clear();
    }
  }
  if (!blob.empty()) batches.push_back(std::move(blob));
  return batches;
}

/// One server-side pump over the pre-rendered batches: append a batch,
/// extract every request, dispatch, encode the reply. Returns a byte
/// checksum so no stage can be optimized away. `handle(line_or_frame,
/// reply)` is the dispatch under test.
template <typename Handle>
std::uint64_t Pump(const std::vector<std::string>& batches, bool binary,
                   Handle&& handle) {
  const ConnectionLimits limits;
  Connection conn(UniqueFd(), 0);
  std::string request;
  std::string reply;
  std::uint64_t checksum = 0;
  for (const std::string& batch : batches) {
    conn.AppendInput(batch.data(), batch.size(), 0);
    for (;;) {
      if (binary) {
        if (conn.NextFrame(limits, &request) != FrameResult::kFrame) break;
      } else {
        if (conn.NextLine(limits, &request) != LineResult::kLine) break;
      }
      reply.clear();
      handle(request, &reply);
      checksum += reply.size() +
                  static_cast<unsigned char>(reply.empty() ? 0 : reply[0]);
    }
  }
  return checksum;
}

void EmitLine(const char* mode, const char* protocol, std::size_t depth,
              std::size_t requests, double seconds) {
  std::printf(
      "BENCH{\"bench\":\"f8_wire\",\"mode\":\"%s\",\"protocol\":\"%s\","
      "\"depth\":%zu,\"requests\":%zu,\"ns_per_request\":%.2f,"
      "\"requests_per_sec\":%.0f}\n",
      mode, protocol, depth, requests,
      seconds * 1e9 / static_cast<double>(requests),
      static_cast<double>(requests) / seconds);
}

void EmitSpeedup(const char* mode, std::size_t depth, double text_s,
                 double binary_s) {
  std::printf(
      "BENCH{\"bench\":\"f8_wire_speedup\",\"mode\":\"%s\",\"depth\":%zu,"
      "\"binary_vs_text\":%.2f}\n",
      mode, depth, binary_s > 0.0 ? text_s / binary_s : 0.0);
}

/// Framing mode: stub dispatch, identical for both protocols, so the
/// measured delta is the protocol layer alone. The stub still fills the
/// CommandResult fields a real reply would carry.
void RunFraming(const F8Options& options, const std::vector<Command>& workload,
                std::size_t depth) {
  const auto dispatch = [](const Command& command, CommandResult* result) {
    *result = CommandResult{};
    result->kind = command.kind;
    switch (command.kind) {
      case CommandKind::kAdd:
        result->estimate = static_cast<double>(command.value);
        break;
      case CommandKind::kGet:
        result->user = command.user;
        result->estimate = 2.0;
        result->tier = 0;
        result->events = 3;
        break;
      default:
        result->stripes_skipped = 0;
        result->entries = {{7, 3.0}, {11, 2.0}};
        break;
    }
  };

  const std::vector<std::string> text = RenderBatches(workload, depth, false);
  const std::vector<std::string> binary = RenderBatches(workload, depth, true);
  std::uint64_t text_sum = 0;
  std::uint64_t binary_sum = 0;
  const double text_s = MinSeconds(options.repeats, [&] {
    text_sum = Pump(text, false, [&](const std::string& line,
                                     std::string* reply) {
      StatusOr<Command> parsed = ParseCommandLine(line);
      CommandResult result;
      dispatch(parsed.value(), &result);
      *reply = FormatTextReply(result);
    });
  });
  const double binary_s = MinSeconds(options.repeats, [&] {
    binary_sum = Pump(binary, true, [&](const std::string& frame,
                                        std::string* reply) {
      StatusOr<Command> decoded = DecodeRequestFrame(frame);
      CommandResult result;
      dispatch(decoded.value(), &result);
      *reply = EncodeReplyFrame(result);
    });
  });
  if (text_sum == 0 || binary_sum == 0) {
    std::fprintf(stderr, "empty pump — bench invalid\n");
  }
  EmitLine("framing", "text", depth, workload.size(), text_s);
  EmitLine("framing", "binary", depth, workload.size(), binary_s);
  EmitSpeedup("framing", depth, text_s, binary_s);
}

/// End-to-end mode: the same pumps, but dispatch is a real service via
/// the real session (a fresh one per repeat so growth doesn't compound
/// across measurements).
void RunEndToEnd(const F8Options& options,
                 const std::vector<Command>& workload, std::size_t depth) {
  ServiceOptions service_options;
  service_options.num_stripes = 2;
  const std::vector<std::string> text = RenderBatches(workload, depth, false);
  const std::vector<std::string> binary = RenderBatches(workload, depth, true);

  const double text_s = MinSeconds(options.repeats, [&] {
    auto service_or = HImpactService::Create(service_options);
    ServiceSession session(&service_or.value(), SessionOptions{});
    Pump(text, false, [&](const std::string& line, std::string* reply) {
      session.HandleLine(line, reply);
    });
  });
  const double binary_s = MinSeconds(options.repeats, [&] {
    auto service_or = HImpactService::Create(service_options);
    ServiceSession session(&service_or.value(), SessionOptions{});
    Pump(binary, true, [&](const std::string& frame, std::string* reply) {
      session.HandleFrame(frame, reply);
    });
  });
  EmitLine("end_to_end", "text", depth, workload.size(), text_s);
  EmitLine("end_to_end", "binary", depth, workload.size(), binary_s);
  EmitSpeedup("end_to_end", depth, text_s, binary_s);
}

}  // namespace
}  // namespace himpact

int main(int argc, char** argv) {
  himpact::F8Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::uint64_t u64 = 0;
    if (arg == "--quick") {
      options.requests = 20000;
      options.repeats = 2;
    } else if (arg == "--requests" && i + 1 < argc) {
      if (!himpact::ParseUint64FlagInRange("--requests", argv[++i], 1000,
                                           1u << 28, &u64))
        return 2;
      options.requests = static_cast<std::size_t>(u64);
    } else if (arg == "--repeats" && i + 1 < argc) {
      if (!himpact::ParseUint64FlagInRange("--repeats", argv[++i], 1, 100,
                                           &u64))
        return 2;
      options.repeats = static_cast<int>(u64);
    } else {
      std::fprintf(stderr,
                   "usage: bench_f8_wire [--quick] [--requests N] "
                   "[--repeats R]\n");
      return 2;
    }
  }
  const std::vector<himpact::Command> workload =
      himpact::MakeWorkload(options.requests);
  for (const std::size_t depth : {std::size_t{1}, std::size_t{16},
                                  std::size_t{128}}) {
    himpact::RunFraming(options, workload, depth);
    himpact::RunEndToEnd(options, workload, depth);
  }
  return 0;
}
