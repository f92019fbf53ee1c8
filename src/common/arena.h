// Chunked bump allocator backing zero-copy ingest batches (docs/INGEST.md).
//
// The ingest edge reads wire bytes straight into arena storage and every
// downstream view (framed lines, RecordView field slices) points into it.
// Ownership is by shared_ptr: a LineBlock and every in-flight shard batch
// that received records from the block hold a reference, and the bytes are
// reclaimed — all at once, no per-record frees — when the last batch drains.
// Views must therefore never outlive the batch that carries the reference;
// the single materialization point (LiveCloser::Feed via MaterializeRecord)
// copies what must survive.
//
// Not thread-safe: one thread builds an arena (the ingest thread); once the
// bytes are written they are immutable, so any number of shard workers may
// read concurrently while holding a reference.
#ifndef SRC_COMMON_ARENA_H_
#define SRC_COMMON_ARENA_H_

#include <cstddef>
#include <cstring>
#include <memory>
#include <string_view>
#include <vector>

namespace ts {

class Arena {
 public:
  static constexpr size_t kDefaultChunkBytes = 64 << 10;

  explicit Arena(size_t chunk_bytes = kDefaultChunkBytes)
      : chunk_bytes_(chunk_bytes < 64 ? 64 : chunk_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  // Returns `n` writable bytes that stay valid for the arena's lifetime.
  char* Allocate(size_t n) {
    if (n > remaining_) {
      Grow(n);
    }
    char* p = head_;
    head_ += n;
    remaining_ -= n;
    bytes_used_ += n;
    return p;
  }

  // Copies `s` into the arena and returns the stable view.
  std::string_view Copy(std::string_view s) {
    if (s.empty()) {
      return {};  // A fresh arena has no chunk: memcpy to null is undefined.
    }
    char* p = Allocate(s.size());
    std::memcpy(p, s.data(), s.size());
    return std::string_view(p, s.size());
  }

  // Raw-read protocol for zero-copy recv: Reserve hands out `n` contiguous
  // bytes to read into, Commit keeps the `used` prefix and returns the tail
  // to the arena. No other allocation may happen between the two calls.
  char* Reserve(size_t n) {
    if (n > remaining_) {
      Grow(n);
    }
    return head_;
  }
  void Commit(size_t used) {
    head_ += used;
    remaining_ -= used;
    bytes_used_ += used;
  }

  // Flexible reserve for readers that accept any size in [min_bytes,
  // max_bytes] (recv into the arena): hands out the current chunk's tail,
  // growing only when it is below min_bytes, so short reads never strand
  // chunk remainders. Writes `*got` with the usable size.
  char* ReserveUpTo(size_t min_bytes, size_t max_bytes, size_t* got) {
    if (remaining_ < min_bytes) {
      Grow(max_bytes);
    }
    *got = remaining_ < max_bytes ? remaining_ : max_bytes;
    return head_;
  }

  // Total bytes handed out (rotation threshold for long-lived producers).
  size_t bytes_used() const { return bytes_used_; }
  // Total bytes malloc'd into chunks (footprint gauge).
  size_t bytes_reserved() const { return bytes_reserved_; }

 private:
  void Grow(size_t need) {
    // An oversized request gets a dedicated chunk; normal requests a fresh
    // default chunk. The partially-filled old head chunk is retired as-is —
    // bump allocation never backtracks, so existing views stay valid.
    const size_t size = need > chunk_bytes_ ? need : chunk_bytes_;
    chunks_.push_back(std::make_unique<char[]>(size));
    head_ = chunks_.back().get();
    remaining_ = size;
    bytes_reserved_ += size;
  }

  size_t chunk_bytes_;
  char* head_ = nullptr;
  size_t remaining_ = 0;
  size_t bytes_used_ = 0;
  size_t bytes_reserved_ = 0;
  std::vector<std::unique_ptr<char[]>> chunks_;
};

using ArenaRef = std::shared_ptr<Arena>;

}  // namespace ts

#endif  // SRC_COMMON_ARENA_H_
