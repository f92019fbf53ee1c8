// Cold segments: the on-disk unit of the tiered session store.
//
// A segment holds a batch of sessions evicted from the in-memory
// SessionStore, written in the *same* CRC32C-framed container ts_ckpt
// snapshots use — every session is one 'S' frame, byte-identical to what
// StoreFrameEncoder emits into a snapshot — followed by one footer index
// frame and a fixed-size trailer:
//
//   [ 'S' frame ] * count          StoreFrameEncoder bytes, spill order
//   [ 'X' index frame ]            footer index (see below)
//   u64 index_frame_offset (LE)    where the index frame starts
//   "TSCOLDSG"                     8-byte magic
//
// The footer index carries, per segment: the session count, spill-sequence
// range, event-time range and a per-service summary (service -> session
// count, the TOPK merge input); and per entry: id, fragment, the frame's
// (offset, length), time extent and sorted service set. A reader locates the
// index from the trailer, validates its frame CRC, and thereafter serves
// point reads with one pread + CRC check per session — a damaged frame (or a
// damaged index) degrades to a cold miss, never a crash or a wrong answer.
//
// Files are written with the snapshot writer's tmp + fsync + rename
// discipline, so a segment either exists completely or not at all; a torn
// write can only leave a truncated temp file the directory scan ignores.
#ifndef SRC_STORE_COLD_SEGMENT_H_
#define SRC_STORE_COLD_SEGMENT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/session.h"

namespace ts {

inline constexpr char kColdSegmentMagic[] = "TSCOLDSG";  // 8 bytes, no NUL.
inline constexpr size_t kColdSegmentMagicLen = 8;
inline constexpr size_t kColdSegmentTrailerBytes = 16;  // u64 offset + magic.
inline constexpr char kColdIndexTag = 'X';  // Never appears in snapshots.
inline constexpr uint32_t kColdIndexVersion = 1;

// One session's slot in a segment's footer index. Everything a query needs
// to decide whether the frame is worth a pread lives here.
struct ColdSegmentEntry {
  std::string id;
  uint32_t fragment = 0;
  uint64_t offset = 0;  // Byte offset of the 'S' frame within the file.
  uint32_t length = 0;  // Whole frame length (8-byte header + payload).
  EventTime min_time = 0;
  EventTime max_time = 0;
  std::vector<uint32_t> services;  // Sorted, unique.
};

struct ColdSegmentIndex {
  uint64_t count = 0;
  EventTime min_time = 0;
  EventTime max_time = 0;
  // Spill-sequence range [first_order, last_order] — informational: entry
  // order within the file is the global eviction order, so a reloading tier
  // reassigns orders from file order and gets the same sequence back.
  uint64_t first_order = 0;
  uint64_t last_order = 0;
  // Per-service session counts (sorted by service id) — the segment-level
  // summary TOPK merges without touching any frame.
  std::vector<std::pair<uint32_t, uint64_t>> service_counts;
  std::vector<ColdSegmentEntry> entries;  // Spill (eviction) order.
};

// Writes `sessions` (spill order) as one segment at `path`, atomically.
// Fills *index with the footer index it wrote and *file_bytes with the final
// file size. Returns false on I/O error or an empty batch.
bool WriteColdSegment(const std::string& path,
                      const std::vector<Session>& sessions,
                      uint64_t first_order, ColdSegmentIndex* index,
                      size_t* file_bytes);

// Reads and fully validates only the trailer + footer index of `path` (two
// preads — session frames stay untouched). Returns false on any damage:
// short file, bad magic, out-of-range offsets, CRC mismatch, or an index
// entry pointing outside the frame region.
bool LoadColdSegmentIndex(const std::string& path, ColdSegmentIndex* index,
                          size_t* file_bytes);

// Opens a segment read-only through the FsFaultOnOpen hook. Returns the fd
// (the caller closes it) or -1.
int OpenColdSegment(const std::string& path);

// preads the single frame at (offset, length) of the open segment `fd` into
// *buf and validates its length and CRC; *payload then points at the frame's
// payload inside *buf. Each pread goes through FsFaultOnPread (`path` names
// the file for the hooks). Returns false on any damage or I/O error.
bool ReadColdFrame(int fd, const std::string& path, uint64_t offset,
                   uint32_t length, std::string* buf, std::string_view* payload);

// Opens `path`, reads the single 'S' frame at (offset, length) with one
// pread, validates its CRC, and decodes it. Returns false on any damage.
bool ReadColdSession(const std::string& path, uint64_t offset, uint32_t length,
                     Session* out);

}  // namespace ts

#endif  // SRC_STORE_COLD_SEGMENT_H_
