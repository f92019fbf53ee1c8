// LiveCloser: watermark-driven sessionization state for the live
// (--connect --serve) path — the streaming analogue of OfflineSessionizer's
// inactivity-gap splitting. A session fragment closes once the watermark has
// advanced `inactivity_ns` past the fragment's last record.
//
// Determinism contract (what makes sharded output byte-identical): the caller
// supplies the watermark explicitly, as the prefix-maximum event time of the
// arrival stream *in arrival order* (ObserveWatermark before each Feed). Close
// decisions for the session a record touches are made at Feed time against
// that watermark, so the fragment boundaries of a session are a pure function
// of (the session's own record subsequence, the watermark tag attached to each
// record) — independent of how often CloseExpired runs, of wall-clock poll
// timing, and of how many shards the stream is partitioned across.
// CloseExpired/FlushAll only affect *when* an already-determined fragment is
// emitted, never its contents.
//
// Role: production. This is the sessionizer LivePipeline's shards run inside
// LiveService (ts_sessionize --serve); the timely Sessionize operator and
// OfflineSessionizer reproduce the paper's figures.
#ifndef SRC_CORE_LIVE_CLOSER_H_
#define SRC_CORE_LIVE_CLOSER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/time_util.h"
#include "src/core/session.h"
#include "src/log/record.h"

namespace ts {

// Serializable open-fragment state of one or more LiveClosers, captured at a
// watermark-aligned barrier (ts_ckpt). Because fragment-split decisions are a
// pure function of (record subsequence, per-record watermark tag), this state
// at arrival position N is identical for every shard count — which is what
// lets a snapshot taken under one --workers value restore under another: the
// restore path simply re-routes each fragment by SipHash(id) % N_new.
struct LiveCloserState {
  struct OpenFragment {
    std::string id;
    EventTime last_time = 0;
    std::vector<LogRecord> records;  // Arrival order, not yet time-sorted.
  };
  std::vector<OpenFragment> open;
  // Every id that has ever emitted a fragment, with the next index to assign.
  // Needed in full: a session can re-appear long after its last fragment
  // closed, and its numbering must continue where the pre-crash run left off.
  std::vector<std::pair<std::string, uint32_t>> next_fragment;
};

class LiveCloser {
 public:
  explicit LiveCloser(EventTime inactivity_ns)
      : inactivity_ns_(inactivity_ns) {}

  // Raises the watermark (monotone; stale values are ignored).
  void ObserveWatermark(EventTime watermark) {
    watermark_ = watermark > watermark_ ? watermark : watermark_;
  }

  // Feeds one record. If the record's session has an open fragment that is
  // already expired at the current watermark, that fragment is emitted to
  // *closed first and the record starts the next fragment. Callers that track
  // a global watermark must ObserveWatermark(tag) before each Feed.
  void Feed(LogRecord record, std::vector<Session>* closed);

  // Moves every session idle past the watermark into *closed.
  void CloseExpired(std::vector<Session>* closed);

  // Emits every still-open fragment (end of stream).
  void FlushAll(std::vector<Session>* closed);

  // Appends a copy of this closer's open fragments and fragment counters to
  // *state (merge-friendly: a barrier collects every shard into one state).
  void ExportState(LiveCloserState* state) const;

  // Zero-copy capture path (ts_ckpt's async writer): visits every open
  // fragment by reference instead of deep-copying it, in unspecified order —
  // the same order guarantee ExportState gives, since both walk a hash map.
  // The closer must be quiescent for the duration (checkpoint barrier pause).
  using OpenFragmentVisitor = std::function<void(
      const std::string& id, EventTime last_time,
      const std::vector<LogRecord>& records)>;
  void VisitOpenFragments(const OpenFragmentVisitor& fn) const;

  // The fragment-counter half of ExportState alone (the counters are small;
  // visitor-path callers still take them by copy).
  void ExportCounters(LiveCloserState* state) const;

  // Restores one open fragment / one fragment counter (ts_ckpt restore path;
  // the pipeline routes each entry to the owning shard). Must happen before
  // any Feed. Import of an id that is already open replaces it.
  void ImportFragment(LiveCloserState::OpenFragment fragment);
  void SetNextFragment(const std::string& id, uint32_t next);

  // Load shedding (opt-in, --shed-policy=oldest-open): drops whole open
  // fragments, oldest `last_time` first (id as tie-break, so the order is
  // deterministic), until open_bytes() <= max_open_bytes. Shed fragments are
  // never emitted; their records are counted exactly in shed_records() /
  // shed_fragments(), and the id's fragment counter still advances so a
  // session that re-appears continues its numbering as if the fragment had
  // closed. Returns the number of fragments shed.
  size_t ShedOldestUntil(size_t max_open_bytes);

  size_t open_sessions() const { return open_.size(); }
  EventTime watermark() const { return watermark_; }
  uint64_t sessions_emitted() const { return sessions_emitted_; }
  size_t open_bytes() const { return open_bytes_; }

  // Exact-accounting counters: every record Fed is, at any quiescent point,
  // in exactly one of {records_emitted, open_records, shed_records}.
  uint64_t records_emitted() const { return records_emitted_; }
  uint64_t open_records() const { return open_records_; }
  uint64_t shed_records() const { return shed_records_; }
  uint64_t shed_fragments() const { return shed_fragments_; }

 private:
  struct Open {
    std::vector<LogRecord> records;
    EventTime last_time = 0;
  };

  void Emit(const std::string& id, Open open, std::vector<Session>* closed);

  EventTime inactivity_ns_;
  EventTime watermark_ = 0;
  uint64_t sessions_emitted_ = 0;
  uint64_t records_emitted_ = 0;
  uint64_t open_records_ = 0;
  uint64_t shed_records_ = 0;
  uint64_t shed_fragments_ = 0;
  size_t open_bytes_ = 0;
  std::unordered_map<std::string, Open> open_;
  std::unordered_map<std::string, uint32_t> next_fragment_;
};

}  // namespace ts

#endif  // SRC_CORE_LIVE_CLOSER_H_
