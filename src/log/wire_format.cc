#include "src/log/wire_format.h"

#include <charconv>
#include <cstring>

namespace ts {
namespace {

constexpr char kSep = '|';

// Extracts the next '|'-separated field from `rest`, advancing it. The final
// field (payload) consumes the remainder.
std::optional<std::string_view> NextField(std::string_view* rest) {
  if (rest->empty()) {
    return std::nullopt;
  }
  const size_t pos = rest->find(kSep);
  if (pos == std::string_view::npos) {
    std::string_view field = *rest;
    *rest = std::string_view();
    return field;
  }
  std::string_view field = rest->substr(0, pos);
  rest->remove_prefix(pos + 1);
  return field;
}

// Appends the decimal form of `v` without allocating a temporary (the
// std::to_string it replaces showed up as the top encode cost in profiles;
// this path runs per record in digests, checkpoints, and exchange frames).
template <typename Int>
void AppendInt(Int v, std::string* out) {
  char buf[24];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, static_cast<size_t>(ptr - buf));
}

// True when `text` is exactly the decimal AppendInt writes for `v`.
template <typename Int>
bool IsCanonicalInt(std::string_view text, Int v) {
  char buf[24];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return text == std::string_view(buf, static_cast<size_t>(ptr - buf));
}

// A `prefix`+u32 field (svc-/h-) that ParsePrefixedU32 accepts and whose
// number is canonical.
bool IsCanonicalPrefixedU32(std::string_view field, std::string_view prefix) {
  const auto v = wire::ParsePrefixedU32(field, prefix);
  return v && IsCanonicalInt(field.substr(prefix.size()), *v);
}

}  // namespace

namespace wire {

std::optional<int64_t> ParseI64(std::string_view s) {
  int64_t v = 0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || ptr != s.data() + s.size()) {
    return std::nullopt;
  }
  return v;
}

std::optional<uint32_t> ParsePrefixedU32(std::string_view s,
                                         std::string_view prefix) {
  if (s.size() <= prefix.size() || s.substr(0, prefix.size()) != prefix) {
    return std::nullopt;
  }
  s.remove_prefix(prefix.size());
  uint32_t v = 0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || ptr != s.data() + s.size()) {
    return std::nullopt;
  }
  return v;
}

std::optional<EventKind> ParseKind(std::string_view s) {
  if (s == "START") {
    return EventKind::kSpanStart;
  }
  if (s == "END") {
    return EventKind::kSpanEnd;
  }
  if (s == "ANNOT") {
    return EventKind::kAnnotation;
  }
  return std::nullopt;
}

}  // namespace wire

void AppendWireFormat(const LogRecord& record, std::string* out) {
  AppendInt(record.time, out);
  out->push_back(kSep);
  out->append(record.session_id);
  out->push_back(kSep);
  record.txn_id.AppendTo(out);
  out->push_back(kSep);
  out->append("svc-");
  AppendInt(record.service, out);
  out->push_back(kSep);
  out->append("h-");
  AppendInt(record.host, out);
  out->push_back(kSep);
  out->append(EventKindName(record.kind));
  out->push_back(kSep);
  out->append(record.payload);
}

std::string ToWireFormat(const LogRecord& record) {
  std::string out;
  out.reserve(64 + record.session_id.size() + record.payload.size());
  AppendWireFormat(record, &out);
  return out;
}

std::optional<LogRecord> ParseWireFormat(std::string_view line) {
  std::string_view rest = line;

  auto time_field = NextField(&rest);
  auto session_field = NextField(&rest);
  auto txn_field = NextField(&rest);
  auto svc_field = NextField(&rest);
  auto host_field = NextField(&rest);
  auto kind_field = NextField(&rest);
  // Remainder (possibly empty) is the payload.
  if (!time_field || !session_field || !txn_field || !svc_field || !host_field ||
      !kind_field) {
    return std::nullopt;
  }

  auto time = wire::ParseI64(*time_field);
  auto txn = TxnId::Parse(*txn_field);
  auto svc = wire::ParsePrefixedU32(*svc_field, "svc-");
  auto host = wire::ParsePrefixedU32(*host_field, "h-");
  auto kind = wire::ParseKind(*kind_field);
  if (!time || !txn || !svc || !host || !kind || session_field->empty()) {
    return std::nullopt;
  }

  LogRecord record;
  record.time = *time;
  record.session_id = std::string(*session_field);
  record.txn_id = std::move(*txn);
  record.service = *svc;
  record.host = *host;
  record.kind = *kind;
  record.payload = std::string(rest);
  return record;
}

bool IsCanonicalWireFormat(std::string_view line) {
  std::string_view rest = line;
  const auto time_field = NextField(&rest);
  const auto session_field = NextField(&rest);
  const auto txn_field = NextField(&rest);
  const auto svc_field = NextField(&rest);
  const auto host_field = NextField(&rest);
  const auto kind_field = NextField(&rest);
  if (!time_field || !session_field || !txn_field || !svc_field ||
      !host_field || !kind_field || session_field->empty() ||
      // AppendWireFormat always writes the payload separator, even before
      // an empty payload; a line ending at the kind parses but re-encodes
      // one byte longer.
      kind_field->data() + kind_field->size() == line.data() + line.size()) {
    return false;
  }
  const auto time = wire::ParseI64(*time_field);
  return time && IsCanonicalInt(*time_field, *time) &&
         ScanTxnComponents(*txn_field,
                           [](std::string_view text, uint32_t value) {
                             return IsCanonicalInt(text, value);
                           }) &&
         IsCanonicalPrefixedU32(*svc_field, "svc-") &&
         IsCanonicalPrefixedU32(*host_field, "h-") &&
         wire::ParseKind(*kind_field).has_value();
}

}  // namespace ts
