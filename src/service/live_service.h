// LiveService: the paper's Figure 2 middle box — TS between the log servers
// and the query interface — wired in one place:
//
//   SocketIngestSource ─► LivePipeline (N shards) ─► sink ─► SessionStore ─► QueryServer
//     PollBlock            FeedBlock / Flush                    │ evict
//                                                               └─► ColdTier (optional)
//   AsyncCheckpointer (optional): barrier-aligned snapshots of pipeline + store
//
// ts_sessionize --serve, ts_loadgen --quick and bench/overload_study all run
// this object, so the tool, the self-check and the overload study measure the
// same zero-copy ingest path. It owns the ordering rules each caller used to
// get right by hand:
//   * the store's eviction sink (ColdTier::Append) and its back-pressure
//     barrier (ColdTier::WaitForSpace) are installed as a pair;
//   * a restored checkpoint is imported before the first feed, and the
//     ingest hello resumes at the snapshot's offset;
//   * every snapshot, periodic or final, runs behind the cold tier's
//     FlushPending durability barrier;
//   * with checkpoints on, the sink drops replayed sessions already present
//     in either tier;
//   * at end of ingest the snapshot writer drains before the final capture,
//     the final snapshot retries with backoff, and only then does Finish()
//     force-close the open fragments;
//   * teardown: query server, snapshot writer, pipeline, checkpointer, cold
//     tier, store.
#ifndef SRC_SERVICE_LIVE_SERVICE_H_
#define SRC_SERVICE_LIVE_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/analytics/session_store.h"
#include "src/ckpt/async_checkpointer.h"
#include "src/ckpt/checkpointer.h"
#include "src/common/metrics_registry.h"
#include "src/core/live_pipeline.h"
#include "src/net/socket_ingest.h"
#include "src/query/query_server.h"
#include "src/store/cold_tier.h"

namespace ts {

struct LiveServiceOptions {
  LivePipelineOptions pipeline;
  SocketIngestOptions ingest;
  SessionStore::Options store;
  QueryServerOptions server;
  std::optional<ColdTierOptions> cold;  // Tiered store when set.
  // Crash recovery when set: restore on Start, snapshot while ingesting.
  std::optional<CheckpointerOptions> checkpoint;
  // Runs for every session the sink stores, on the shard worker that closed
  // it and outside the store lock, and once per restored session in Start().
  // Must be thread-safe. With pipeline.mine_templates set, the query server
  // answers TEMPLATES from the pipeline's miner.
  std::function<void(const Session&)> on_session;
};

class LiveService {
 public:
  explicit LiveService(LiveServiceOptions options);
  // Stops serving and tears down in a fixed order. Ingest() must have
  // returned.
  ~LiveService();
  LiveService(const LiveService&) = delete;
  LiveService& operator=(const LiveService&) = delete;

  // Opens the cold tier (re-discovering its segments), restores the newest
  // valid checkpoint, builds the pipeline, registers the gauges, then binds
  // the query server and starts its thread. Returns false when the cold dir
  // or the query address cannot be used. Appends operator notes (see
  // TakeNotes) either way.
  bool Start();

  // Runs the ingest loop on the calling thread — PollBlock, FeedBlock,
  // Flush, periodic snapshot — until end of stream, a permanent transport
  // failure, or `stop` returning true. Then drains the snapshot writer,
  // writes the final snapshot (not after a transport failure) and finishes
  // the pipeline, which force-closes every open fragment into the sink. With
  // checkpoints on and the stream not at its end, those forced closes reach
  // on_session but not the store: a restart continues the fragments from the
  // snapshot, and a truncated copy in either tier would shadow the real one.
  // Returns false iff the transport failed. Call at most once, after Start.
  bool Ingest(const std::function<bool()>& stop = nullptr);

  // Stops the query server and joins its thread. Idempotent.
  void Stop();

  // One-line human-readable notes since the previous call: cold segments
  // re-discovered, checkpoint restored or skipped, shard count, final
  // snapshot outcome, startup errors.
  std::vector<std::string> TakeNotes();

  SessionStore* store() { return store_.get(); }
  ColdTier* cold() { return cold_.get(); }  // Null without a cold tier.
  MetricsRegistry* metrics() { return metrics_.get(); }
  // Valid after Start.
  uint16_t query_port() const { return server_->port(); }
  const LivePipeline& pipeline() const { return *pipeline_; }
  const SocketIngestSource& source() const { return *source_; }

  // Totals including the counters carried over from a restored snapshot.
  uint64_t records() const;
  uint64_t parse_failures() const;

  // Exact-accounting snapshot of this process's ingest (restored counters
  // excluded). After Ingest() returns on a run that restored nothing,
  // Reconciles() must hold:
  //   received == parsed + parse_failures + blank_lines + shed_lines
  //   parsed   == records_emitted + open_records + shed_records
  // (`records_in == stored + shed` at record granularity — after Finish,
  // open_records is 0 and every emitted record reached the sink.)
  struct Accounting {
    uint64_t received = 0;
    uint64_t parsed = 0;
    uint64_t parse_failures = 0;
    uint64_t blank_lines = 0;
    uint64_t records_emitted = 0;
    uint64_t open_records = 0;
    uint64_t shed_records = 0;
    uint64_t shed_fragments = 0;
    uint64_t shed_lines = 0;
    bool Reconciles() const {
      return received == parsed + parse_failures + blank_lines + shed_lines &&
             parsed == records_emitted + open_records + shed_records;
    }
  };
  Accounting GetAccounting() const;

 private:
  // Restores the newest valid snapshot into *state; false when starting cold.
  bool RestoreLatest(CheckpointState* state);
  void WriteFinalCheckpoint();
  void Note(const char* format, ...) __attribute__((format(printf, 2, 3)));

  LiveServiceOptions options_;
  std::vector<std::string> notes_;
  uint64_t base_records_ = 0;         // Counters carried over from the
  uint64_t base_parse_failures_ = 0;  // restored snapshot.
  // Set before Finish() when its forced closes must not be stored.
  std::atomic<bool> store_forced_closes_{true};

  // Declaration order is construction order; the destructor tears down
  // explicitly before the members go in reverse.
  std::shared_ptr<MetricsRegistry> metrics_;
  std::shared_ptr<SessionStore> store_;
  std::shared_ptr<ColdTier> cold_;
  std::unique_ptr<Checkpointer> ckpt_;
  std::unique_ptr<LivePipeline> pipeline_;
  std::unique_ptr<AsyncCheckpointer> async_ckpt_;
  std::unique_ptr<SocketIngestSource> source_;
  std::unique_ptr<QueryServer> server_;
  std::thread server_thread_;
};

}  // namespace ts

#endif  // SRC_SERVICE_LIVE_SERVICE_H_
