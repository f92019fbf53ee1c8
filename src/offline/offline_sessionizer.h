// Offline (batch) sessionization — the MapReduce-style baseline of §2.2.
//
// With the complete log on disk, grouping is a simple aggregation: hash records
// by session ID (the "map"), then assemble each group with unbounded lookahead
// (the "reduce"). Output serves as ground truth for the online sessionizer's
// accuracy and fragmentation tests: an online run with sufficient slack and
// inactivity must reconstruct exactly these sessions, and fragmented online
// output must re-concatenate to them.
//
// Role: paper reproduction — the ground truth beside the timely Sessionize
// operator in the figure 4-6 benches. ts_sessionize without --serve also
// runs it over a file or a drained stream.
#ifndef SRC_OFFLINE_OFFLINE_SESSIONIZER_H_
#define SRC_OFFLINE_OFFLINE_SESSIONIZER_H_

#include <vector>

#include "src/common/time_util.h"
#include "src/core/session.h"
#include "src/log/record.h"

namespace ts {

struct OfflineOptions {
  // When > 0, each session-ID group is additionally split at event-time gaps
  // larger than this (time-oriented sessionization applied offline). 0 keeps
  // each ID as one complete session regardless of idle periods.
  EventTime inactivity_split_ns = 0;
};

class OfflineSessionizer {
 public:
  // Consumes `records` (any order) and returns sessions sorted by (id,
  // fragment_index) with records in event-time order. Epoch fields are derived
  // from record event times (1-second epochs).
  static std::vector<Session> Sessionize(std::vector<LogRecord> records,
                                         const OfflineOptions& options = {});
};

}  // namespace ts

#endif  // SRC_OFFLINE_OFFLINE_SESSIONIZER_H_
