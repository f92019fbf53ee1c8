#include "src/query/query_protocol.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/log/wire_format.h"

namespace ts {
namespace {

// Splits on single spaces. Query lines are operator-typed; no quoting.
std::vector<std::string> Tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  size_t pos = 0;
  while (pos < line.size()) {
    const size_t space = line.find(' ', pos);
    const size_t end = space == std::string::npos ? line.size() : space;
    if (end > pos) {
      tokens.emplace_back(line, pos, end - pos);
    }
    pos = end + 1;
  }
  return tokens;
}

bool ParseU64(const std::string& token, uint64_t* out) {
  if (token.empty()) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(token.c_str(), &end, 10);
  if (errno != 0 || end == nullptr || *end != '\0') {
    return false;
  }
  *out = static_cast<uint64_t>(v);
  return true;
}

bool ParseI64(const std::string& token, int64_t* out) {
  if (token.empty()) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(token.c_str(), &end, 10);
  if (errno != 0 || end == nullptr || *end != '\0') {
    return false;
  }
  *out = static_cast<int64_t>(v);
  return true;
}

}  // namespace

bool ParseQueryRequest(const std::string& line, QueryRequest* request,
                       std::string* error) {
  const auto tokens = Tokenize(line);
  if (tokens.empty()) {
    *error = "empty request";
    return false;
  }
  const std::string& verb = tokens[0];
  *request = QueryRequest{};

  if (verb == "GET") {
    if (tokens.size() < 2 || tokens.size() > 3) {
      *error = "usage: GET <id> [fragment]";
      return false;
    }
    request->verb = QueryRequest::Verb::kGet;
    request->id = tokens[1];
    if (tokens.size() == 3) {
      uint64_t fragment = 0;
      if (!ParseU64(tokens[2], &fragment)) {
        *error = "bad fragment";
        return false;
      }
      request->fragment = static_cast<uint32_t>(fragment);
    }
    return true;
  }
  if (verb == "FRAGMENTS") {
    if (tokens.size() != 2) {
      *error = "usage: FRAGMENTS <id>";
      return false;
    }
    request->verb = QueryRequest::Verb::kFragments;
    request->id = tokens[1];
    return true;
  }
  if (verb == "SERVICE") {
    if (tokens.size() < 2 || tokens.size() > 3) {
      *error = "usage: SERVICE <service> [limit]";
      return false;
    }
    uint64_t service = 0;
    if (!ParseU64(tokens[1], &service)) {
      *error = "bad service";
      return false;
    }
    request->verb = QueryRequest::Verb::kService;
    request->service = static_cast<uint32_t>(service);
    if (tokens.size() == 3) {
      uint64_t limit = 0;
      if (!ParseU64(tokens[2], &limit)) {
        *error = "bad limit";
        return false;
      }
      request->limit = static_cast<size_t>(limit);
    }
    return true;
  }
  if (verb == "RANGE") {
    if (tokens.size() < 3 || tokens.size() > 4) {
      *error = "usage: RANGE <lo_ns> <hi_ns> [limit]";
      return false;
    }
    int64_t lo = 0;
    int64_t hi = 0;
    if (!ParseI64(tokens[1], &lo) || !ParseI64(tokens[2], &hi)) {
      *error = "bad range bound";
      return false;
    }
    request->verb = QueryRequest::Verb::kRange;
    request->lo = lo;
    request->hi = hi;
    if (tokens.size() == 4) {
      uint64_t limit = 0;
      if (!ParseU64(tokens[3], &limit)) {
        *error = "bad limit";
        return false;
      }
      request->limit = static_cast<size_t>(limit);
    }
    return true;
  }
  if (verb == "STATS") {
    if (tokens.size() != 1) {
      *error = "usage: STATS";
      return false;
    }
    request->verb = QueryRequest::Verb::kStats;
    return true;
  }
  if (verb == "TOPK") {
    if (tokens.size() > 2) {
      *error = "usage: TOPK [k]";
      return false;
    }
    request->verb = QueryRequest::Verb::kTopK;
    if (tokens.size() == 2) {
      uint64_t k = 0;
      if (!ParseU64(tokens[1], &k)) {
        *error = "bad k";
        return false;
      }
      request->k = static_cast<size_t>(k);
    }
    return true;
  }
  if (verb == "TEMPLATES") {
    if (tokens.size() > 2) {
      *error = "usage: TEMPLATES [k]";
      return false;
    }
    request->verb = QueryRequest::Verb::kTemplates;
    if (tokens.size() == 2) {
      uint64_t k = 0;
      if (!ParseU64(tokens[1], &k)) {
        *error = "bad k";
        return false;
      }
      request->k = static_cast<size_t>(k);
    }
    return true;
  }
  if (verb == "SUBSCRIBE") {
    if (tokens.size() > 2) {
      *error = "usage: SUBSCRIBE [service=<n>|prefix=<id-prefix>]";
      return false;
    }
    request->verb = QueryRequest::Verb::kSubscribe;
    if (tokens.size() == 2) {
      constexpr char kServicePrefix[] = "service=";
      constexpr char kIdPrefix[] = "prefix=";
      if (tokens[1].rfind(kServicePrefix, 0) == 0) {
        uint64_t service = 0;
        if (!ParseU64(tokens[1].substr(sizeof(kServicePrefix) - 1),
                      &service)) {
          *error = "bad filter service";
          return false;
        }
        request->filter_by_service = true;
        request->filter_service = static_cast<uint32_t>(service);
      } else if (tokens[1].rfind(kIdPrefix, 0) == 0) {
        request->filter_prefix = tokens[1].substr(sizeof(kIdPrefix) - 1);
        if (request->filter_prefix.empty()) {
          *error = "bad filter prefix (empty)";
          return false;
        }
        request->filter_by_prefix = true;
      } else {
        *error = "bad filter (want service=<n> or prefix=<id-prefix>)";
        return false;
      }
    }
    return true;
  }
  *error = "unknown verb " + verb;
  return false;
}

SessionBlockParser::Result SessionBlockParser::Feed(const std::string& line,
                                                    Session* out) {
  if (!in_block_) {
    if (line.rfind(kSessionHeaderPrefix, 0) != 0) {
      return Result::kNotBlock;
    }
    unsigned fragment = 0;
    unsigned long long first = 0;
    unsigned long long last = 0;
    unsigned long long closed = 0;
    unsigned long long nrec = 0;
    int id_offset = -1;
    if (std::sscanf(line.c_str(), "#SESSION %u %llu %llu %llu %llu %n",
                    &fragment, &first, &last, &closed, &nrec,
                    &id_offset) != 5 ||
        id_offset < 0 || static_cast<size_t>(id_offset) > line.size()) {
      return Result::kError;
    }
    pending_ = Session{};
    pending_.id = line.substr(static_cast<size_t>(id_offset));
    pending_.fragment_index = fragment;
    pending_.first_epoch = first;
    pending_.last_epoch = last;
    pending_.closed_at = closed;
    pending_.records.reserve(static_cast<size_t>(nrec));
    expected_records_ = static_cast<size_t>(nrec);
    in_block_ = true;
    return Result::kNeedMore;
  }
  if (line == kSessionEnd) {
    in_block_ = false;
    if (pending_.records.size() != expected_records_) {
      return Result::kError;
    }
    *out = std::move(pending_);
    pending_ = Session{};
    return Result::kSession;
  }
  auto record = ParseWireFormat(line);
  if (!record || pending_.records.size() >= expected_records_) {
    in_block_ = false;
    pending_ = Session{};
    return Result::kError;
  }
  pending_.records.push_back(std::move(*record));
  return Result::kNeedMore;
}

std::string FormatTemplateLine(const TemplateCount& entry) {
  std::string line = "TMPL " + std::to_string(entry.id) + " " +
                     std::to_string(entry.hits) + " " +
                     std::to_string(entry.ppm) + " ";
  line += entry.text;
  return line;
}

std::optional<TemplateCount> ParseTemplateLine(const std::string& line) {
  unsigned id = 0;
  unsigned long long hits = 0;
  unsigned long long ppm = 0;
  int text_offset = -1;
  if (std::sscanf(line.c_str(), "TMPL %u %llu %llu %n", &id, &hits, &ppm,
                  &text_offset) != 3 ||
      text_offset < 0 || static_cast<size_t>(text_offset) > line.size()) {
    return std::nullopt;
  }
  TemplateCount entry;
  entry.id = id;
  entry.hits = static_cast<uint64_t>(hits);
  entry.ppm = static_cast<uint64_t>(ppm);
  entry.text = line.substr(static_cast<size_t>(text_offset));
  return entry;
}

std::string FormatOk(uint64_t count) {
  return "#OK " + std::to_string(count);
}

std::string FormatErr(const std::string& message) {
  return std::string(kErrPrefix) + " " + message;
}

std::string FormatDropped(uint64_t count) {
  return std::string(kDroppedPrefix) + " " + std::to_string(count);
}

std::optional<uint64_t> ParseOk(const std::string& line) {
  unsigned long long count = 0;
  if (std::sscanf(line.c_str(), "#OK %llu", &count) != 1) {
    return std::nullopt;
  }
  return static_cast<uint64_t>(count);
}

std::optional<uint64_t> ParseDropped(const std::string& line) {
  unsigned long long count = 0;
  if (std::sscanf(line.c_str(), "#DROPPED %llu", &count) != 1) {
    return std::nullopt;
  }
  return static_cast<uint64_t>(count);
}

}  // namespace ts
