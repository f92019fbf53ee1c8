// Text wire format for log records.
//
// The paper's replayer emits records "in their original text format over a TCP
// socket" (§5); TS re-parses them on ingest, so parse cost is part of the input
// fraction shown in Figure 7b. The format is one record per line:
//
//   <time_ns>|<session_id>|<txn_id>|svc-<service>|h-<host>|<kind>|<payload>
//
// e.g.  599859123|XKSHSKCBA53U088FXGE7LD8|26-3-11-5-1|svc-204|h-17|ANNOT|q=BOS...
#ifndef SRC_LOG_WIRE_FORMAT_H_
#define SRC_LOG_WIRE_FORMAT_H_

#include <optional>
#include <string>
#include <string_view>

#include "src/log/record.h"

namespace ts {

// Serializes `record` as a single line (no trailing newline), appending to `out`.
void AppendWireFormat(const LogRecord& record, std::string* out);

std::string ToWireFormat(const LogRecord& record);

// Parses one line. Returns nullopt on any malformed field; the caller counts and
// skips such records, mirroring how a real pipeline tolerates corrupt log lines.
std::optional<LogRecord> ParseWireFormat(std::string_view line);

// True exactly when AppendWireFormat(*ParseWireFormat(line)) == line: the line
// parses, and every numeric field is written the way AppendWireFormat writes
// it (no leading zeros, no "-0", no "svc-01", no "1-02") and the kind is
// followed by its payload separator. Such a line can be served verbatim in
// place of a decode + re-encode. Reads the same wire:: field grammars as
// ParseWireFormat, and allocates nothing.
bool IsCanonicalWireFormat(std::string_view line);

// Per-field validators, shared between ParseWireFormat and the zero-copy
// MaterializeRecord path (src/log/record_view.h) so the two can never drift:
// both accept exactly these field grammars.
namespace wire {

// Whole-field int64 (from_chars; leading '-' allowed, no trailing bytes).
std::optional<int64_t> ParseI64(std::string_view s);

// `prefix` followed by a whole-field uint32; field must be strictly longer
// than the prefix.
std::optional<uint32_t> ParsePrefixedU32(std::string_view s,
                                         std::string_view prefix);

// "START" / "END" / "ANNOT", exact.
std::optional<EventKind> ParseKind(std::string_view s);

}  // namespace wire

}  // namespace ts

#endif  // SRC_LOG_WIRE_FORMAT_H_
