// Copy-out drains of a SocketIngestSource for transport tests, which compare
// what arrived against the served archive line by line. Production consumers
// feed PollBlock's views straight into LivePipeline::FeedBlock instead.
#ifndef TESTS_SOCKET_DRAIN_H_
#define TESTS_SOCKET_DRAIN_H_

#include <string>
#include <vector>

#include "src/log/record_batch.h"
#include "src/net/socket_ingest.h"

namespace ts {

// One PollBlock, its lines appended to *lines as owned strings.
inline SocketIngestSource::Poll PollOwnedLines(SocketIngestSource& source,
                                               std::vector<std::string>* lines,
                                               int timeout_ms) {
  LineBlock block;
  const SocketIngestSource::Poll poll = source.PollBlock(&block, timeout_ms);
  lines->insert(lines->end(), block.lines.begin(), block.lines.end());
  return poll;
}

// Polls until end of stream, appending every record line to *lines. Returns
// true on a graceful end, false once the source failed permanently.
inline bool DrainLines(SocketIngestSource& source,
                       std::vector<std::string>* lines) {
  while (true) {
    switch (PollOwnedLines(source, lines, /*timeout_ms=*/200)) {
      case SocketIngestSource::Poll::kRecords:
      case SocketIngestSource::Poll::kIdle:
        break;
      case SocketIngestSource::Poll::kEndOfStream:
        return true;
      case SocketIngestSource::Poll::kFailed:
        return false;
    }
  }
}

}  // namespace ts

#endif  // TESTS_SOCKET_DRAIN_H_
