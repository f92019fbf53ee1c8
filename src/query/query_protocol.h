// The ts_query wire protocol: the serving-side counterpart of the ts_net
// ingest protocol. Figure 2 of the paper feeds sessionization output into a
// "UI: Query interface, Live visualization" box; this protocol is that box's
// transport. Everything is text, one '\n'-framed line at a time, so the same
// LineFramer that frames log records frames queries.
//
// Requests (client -> server, one line each):
//   GET <id> [fragment]          exact session lookup (fragment defaults 0)
//   FRAGMENTS <id>               every stored fragment of an id, oldest first
//   SERVICE <service> [limit]    recent sessions touching a service
//   RANGE <lo_ns> <hi_ns> [limit]  sessions intersecting [lo, hi), by start
//   STATS                        store + server + registered metrics
//   TOPK [k]                     services by live session count
//   TEMPLATES [k]                mined payload templates by hit count
//                                (requires `ts_sessionize --mine-templates`)
//   SUBSCRIBE [service=<n>|prefix=<id-prefix>]
//                                switch to streaming: live-tail every session
//                                closed (inserted) after this point. With a
//                                filter, only sessions that touched service
//                                <n> (resp. whose id starts with the prefix)
//                                are delivered; #DROPPED still counts only
//                                *matching* sessions this connection missed,
//                                so delivered + dropped == matching closes
//                                holds per connection regardless of filter
//
// Responses (server -> client). Session results arrive as blocks:
//   #SESSION <fragment> <first_epoch> <last_epoch> <closed_at> <nrec> <id>
//   <nrec record lines in the src/log wire format>
//   #END
// Record lines start with a decimal timestamp, so they can never collide
// with '#'-prefixed control lines. Every request is terminated by exactly
// one of:
//   #OK <count>                  count = sessions / stat lines / top entries
//   #ERR <message>
// Other control lines:
//   STAT <name> <value>          one per metric, before STATS' #OK
//   TOP <service> <sessions>     one per entry, before TOPK's #OK
//   TMPL <id> <hits> <ppm> <text>  one per entry, before TEMPLATES' #OK.
//                                ppm = hits per million mined payloads; the
//                                template text (wildcards as "<*>") is last
//                                because it contains spaces
//   #SUBSCRIBED                  acknowledges SUBSCRIBE; session blocks and
//                                #DROPPED notices follow until disconnect
//   #DROPPED <n>                 n sessions were discarded for this (slow)
//                                subscriber since the previous notice
#ifndef SRC_QUERY_QUERY_PROTOCOL_H_
#define SRC_QUERY_QUERY_PROTOCOL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/core/session.h"
#include "src/core/session_block.h"

namespace ts {

inline constexpr char kOkPrefix[] = "#OK";
inline constexpr char kErrPrefix[] = "#ERR";
inline constexpr char kSubscribedLine[] = "#SUBSCRIBED";
inline constexpr char kDroppedPrefix[] = "#DROPPED";
// Emitted before #OK when a multi-session response was cut short by the
// connection's output budget.
inline constexpr char kTruncatedLine[] = "#TRUNCATED";

struct QueryRequest {
  enum class Verb {
    kGet,
    kFragments,
    kService,
    kRange,
    kStats,
    kTopK,
    kTemplates,
    kSubscribe,
  };
  Verb verb = Verb::kStats;
  std::string id;            // GET / FRAGMENTS.
  uint32_t fragment = 0;     // GET.
  uint32_t service = 0;      // SERVICE.
  EventTime lo = 0;          // RANGE.
  EventTime hi = 0;          // RANGE.
  size_t limit = 100;        // SERVICE / RANGE.
  size_t k = 10;             // TOPK / TEMPLATES.
  bool filter_by_service = false;  // SUBSCRIBE service=<n>.
  uint32_t filter_service = 0;
  bool filter_by_prefix = false;   // SUBSCRIBE prefix=<id-prefix>.
  std::string filter_prefix;
};

// Parses one request line. On failure returns false and fills *error with a
// short message suitable for an #ERR response.
bool ParseQueryRequest(const std::string& line, QueryRequest* request,
                       std::string* error);

// One TEMPLATES entry. Defined here (not in src/parse) so the query layer
// stays independent of the miner: the server is fed these through a
// callback, the client decodes TMPL lines into them.
struct TemplateCount {
  uint32_t id = 0;
  uint64_t hits = 0;
  uint64_t ppm = 0;  // Hits per million mined payloads.
  std::string text;
};

// Formats / parses one "TMPL <id> <hits> <ppm> <text>" line (no newline).
std::string FormatTemplateLine(const TemplateCount& entry);
// Returns nullopt if `line` is not a TMPL line.
std::optional<TemplateCount> ParseTemplateLine(const std::string& line);

// Session blocks (AppendSessionBlock / EncodeSessionBlock and the
// #SESSION / #END lines) are defined in src/core/session_block.h, which the
// cold tier shares.

// Incremental decoder for session blocks, fed one framed line at a time
// (newline already stripped). Lines that are not part of a session block are
// reported as kNotBlock so the caller can interpret them as control lines.
class SessionBlockParser {
 public:
  enum class Result {
    kNeedMore,  // Line consumed; the block is still incomplete.
    kSession,   // Line completed a block; *out holds the session.
    kNotBlock,  // Line is not part of a session block (caller interprets).
    kError,     // Malformed block (bad header, bad record, count mismatch).
  };

  Result Feed(const std::string& line, Session* out);
  bool in_block() const { return in_block_; }

 private:
  bool in_block_ = false;
  size_t expected_records_ = 0;
  Session pending_;
};

// Formats / parses the tiny control lines.
std::string FormatOk(uint64_t count);
std::string FormatErr(const std::string& message);
std::string FormatDropped(uint64_t count);
// Returns the count from an "#OK <count>" line, or nullopt if not an #OK.
std::optional<uint64_t> ParseOk(const std::string& line);
// Returns the count from a "#DROPPED <n>" line, or nullopt if not one.
std::optional<uint64_t> ParseDropped(const std::string& line);

}  // namespace ts

#endif  // SRC_QUERY_QUERY_PROTOCOL_H_
