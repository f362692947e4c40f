#include "service/protocol.h"

#include <cstdio>
#include <vector>

#include "common/flags.h"

namespace himpact {
namespace {

/// Splits on single spaces; empty tokens (doubled or leading/trailing
/// spaces) are preserved so the strict parser can reject them.
std::vector<std::string> SplitTokens(std::string_view line) {
  std::vector<std::string> tokens;
  std::size_t start = 0;
  while (start <= line.size()) {
    const std::size_t space = line.find(' ', start);
    if (space == std::string_view::npos) {
      tokens.emplace_back(line.substr(start));
      break;
    }
    tokens.emplace_back(line.substr(start, space - start));
    start = space + 1;
  }
  return tokens;
}

Status BadLine(const std::string& reason) {
  return Status::InvalidArgument(reason);
}

bool ParseTokenU64(const std::string& token, std::uint64_t* out) {
  return ParseUint64Text(token.c_str(), out);
}

/// Parses the `paper` author list: comma-separated ids, at least one,
/// at most kMaxAuthorsPerPaper, no duplicates.
Status ParseAuthors(const std::string& token, AuthorList* out) {
  std::size_t start = 0;
  while (start <= token.size()) {
    std::size_t comma = token.find(',', start);
    if (comma == std::string::npos) comma = token.size();
    const std::string id_text = token.substr(start, comma - start);
    std::uint64_t id = 0;
    if (!ParseTokenU64(id_text, &id)) {
      return BadLine("bad author id '" + id_text + "'");
    }
    if (out->size() >= kMaxAuthorsPerPaper) {
      return BadLine("too many authors (max " +
                     std::to_string(kMaxAuthorsPerPaper) + ")");
    }
    if (out->Contains(id)) {
      return BadLine("duplicate author id '" + id_text + "'");
    }
    out->PushBack(id);
    if (comma == token.size()) break;
    start = comma + 1;
  }
  if (out->empty()) return BadLine("empty author list");
  return Status::OK();
}

}  // namespace

StatusOr<Command> ParseCommandLine(std::string_view line) {
  // Embedded NULs are rejected up front: the numeric token parsers are
  // C-string based, so "add 5 6\0junk" would otherwise silently drop
  // everything after the NUL and parse as a valid command.
  if (line.find('\0') != std::string_view::npos) {
    return BadLine("embedded NUL byte");
  }
  const std::vector<std::string> tokens = SplitTokens(line);
  if (tokens.empty() || tokens[0].empty()) {
    return BadLine("empty command");
  }
  const std::string& verb = tokens[0];
  Command command;

  if (verb == "add") {
    if (tokens.size() != 3) return BadLine("usage: add <user> <value>");
    command.kind = CommandKind::kAdd;
    if (!ParseTokenU64(tokens[1], &command.user)) {
      return BadLine("bad user id '" + tokens[1] + "'");
    }
    if (!ParseTokenU64(tokens[2], &command.value)) {
      return BadLine("bad value '" + tokens[2] + "'");
    }
    return command;
  }
  if (verb == "paper") {
    if (tokens.size() != 4) {
      return BadLine("usage: paper <id> <citations> <author>[,<author>...]");
    }
    command.kind = CommandKind::kPaper;
    if (!ParseTokenU64(tokens[1], &command.paper.paper)) {
      return BadLine("bad paper id '" + tokens[1] + "'");
    }
    if (!ParseTokenU64(tokens[2], &command.paper.citations)) {
      return BadLine("bad citation count '" + tokens[2] + "'");
    }
    Status authors = ParseAuthors(tokens[3], &command.paper.authors);
    if (!authors.ok()) return authors;
    return command;
  }
  if (verb == "get") {
    if (tokens.size() != 2) return BadLine("usage: get <user>");
    command.kind = CommandKind::kGet;
    if (!ParseTokenU64(tokens[1], &command.user)) {
      return BadLine("bad user id '" + tokens[1] + "'");
    }
    return command;
  }
  if (verb == "top") {
    if (tokens.size() != 2) return BadLine("usage: top <k>");
    command.kind = CommandKind::kTop;
    if (!ParseTokenU64(tokens[1], &command.value) || command.value == 0) {
      return BadLine("bad k '" + tokens[1] + "'");
    }
    return command;
  }
  if (verb == "heavy") {
    if (tokens.size() != 1) return BadLine("usage: heavy");
    command.kind = CommandKind::kHeavy;
    return command;
  }
  if (verb == "stats") {
    if (tokens.size() != 1) return BadLine("usage: stats");
    command.kind = CommandKind::kStats;
    return command;
  }
  if (verb == "health") {
    if (tokens.size() != 1) return BadLine("usage: health");
    command.kind = CommandKind::kHealth;
    return command;
  }
  if (verb == "save") {
    if (tokens.size() != 2 || tokens[1].empty()) {
      return BadLine("usage: save <path>");
    }
    command.kind = CommandKind::kSave;
    command.path = tokens[1];
    return command;
  }
  if (verb == "quit") {
    if (tokens.size() != 1) return BadLine("usage: quit");
    command.kind = CommandKind::kQuit;
    return command;
  }
  return BadLine("unknown command '" + verb + "'");
}

std::string FormatEstimate(double estimate) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.6g", estimate);
  return buffer;
}

const char* TierName(int tier) {
  switch (tier) {
    case kTierNone:
      return "none";
    case 0:
      return "cold";
    case 1:
      return "hot";
    case 2:
      return "frozen";
    case 3:
      return "segment";
    default:
      return "unknown";
  }
}

std::string FormatTextReply(const CommandResult& result) {
  if (result.code != StatusCode::kOk) {
    // The wire spelling of a shed/deadline status; anything else
    // degrades to ERR (docs/ROBUSTNESS.md).
    const char* code = "ERR";
    switch (result.code) {
      case StatusCode::kResourceExhausted:
        code = "RESOURCE_EXHAUSTED";
        break;
      case StatusCode::kDeadlineExceeded:
        code = "DEADLINE_EXCEEDED";
        break;
      default:
        break;
    }
    return std::string(code) + " " + result.message + "\n";
  }
  const auto u64 = [](std::uint64_t value) {
    return std::to_string(static_cast<unsigned long long>(value));
  };
  switch (result.kind) {
    case CommandKind::kAdd:
      return "OK " + FormatEstimate(result.estimate) + "\n";
    case CommandKind::kPaper:
      return "OK " + std::to_string(result.num_authors) + "\n";
    case CommandKind::kGet:
      return "H " + u64(result.user) + " " + FormatEstimate(result.estimate) +
             " " + TierName(result.tier) + " " + u64(result.events) + "\n";
    case CommandKind::kTop: {
      std::string reply = result.stripes_skipped > 0
                              ? "TOP-LB " + u64(result.stripes_skipped)
                              : "TOP";
      for (const auto& [user, estimate] : result.entries) {
        reply += " " + u64(user) + ":" + FormatEstimate(estimate);
      }
      return reply + "\n";
    }
    case CommandKind::kHeavy: {
      std::string reply = "HEAVY";
      for (const auto& [user, estimate] : result.entries) {
        reply += " " + u64(user) + ":" + FormatEstimate(estimate);
      }
      return reply + "\n";
    }
    case CommandKind::kStats:
      return "STATS " + result.text + "\n";
    case CommandKind::kHealth:
      return "HEALTH " + result.text + "\n";
    case CommandKind::kSave:
      return "OK saved " + result.text + "\n";
    case CommandKind::kQuit:
      return "BYE\n";
    case CommandKind::kInvalid:
      break;  // an OK result never carries kInvalid
  }
  return "ERR unreachable\n";
}

}  // namespace himpact
