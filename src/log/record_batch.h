// The unit of zero-copy transfer from the ingest edge into the pipeline.
//
// A LineBlock is a batch of framed lines whose bytes live in a shared ingest
// arena: the framer writes recv() bytes (and any partial-line carry) into the
// arena and emits views. The pipeline re-slices those views into per-shard
// batches that keep the arena alive by reference; when the last batch drains,
// the block's bytes go away wholesale (docs/INGEST.md).
#ifndef SRC_LOG_RECORD_BATCH_H_
#define SRC_LOG_RECORD_BATCH_H_

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/arena.h"

namespace ts {

struct LineBlock {
  // Backing storage for every view in `lines`. May be shared with the
  // producer's still-filling arena; holders only read.
  ArenaRef arena;
  // One entry per framed line, newline stripped (CR too), in arrival order.
  // Entries may be empty (blank line on the wire).
  std::vector<std::string_view> lines;
  // True when the source reconnected since the previous block: per-connection
  // state downstream (interning dictionaries) must reset before these lines.
  bool connection_reset = false;

  bool empty() const { return lines.empty(); }
  void clear() {
    arena.reset();
    lines.clear();
    connection_reset = false;
  }
};

// Copies owned wire lines into a block over a fresh arena: how in-process
// producers (tests, benches) feed the same FeedBlock path the socket does.
inline LineBlock CopyToLineBlock(std::span<const std::string> lines) {
  LineBlock block;
  block.arena = std::make_shared<Arena>();
  block.lines.reserve(lines.size());
  for (const std::string& line : lines) {
    block.lines.push_back(block.arena->Copy(line));
  }
  return block;
}

}  // namespace ts

#endif  // SRC_LOG_RECORD_BATCH_H_
