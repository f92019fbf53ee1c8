// QueryServer: the serving-side transport of the reproduction — the paper's
// Figure 2 feeds sessionization output into a "UI: Query interface, Live
// visualization" box, and this server is that box's entry point. It attaches
// to a live SessionStore and answers the ts_query wire protocol
// (src/query/query_protocol.h): point lookups, service/time-range scans,
// STATS over the store + a MetricsRegistry, TOPK, and a streaming SUBSCRIBE
// that live-tails every session inserted (closed) after the subscriber
// attaches.
//
// Built on the same pieces as the ingest-side LogServer: EventLoop (epoll +
// wake eventfd), LineFramer request framing, and bounded per-connection
// SendBuffers. Memory is bounded per connection:
//   * query responses stage at most max_conn_buffer_bytes of blocks, plus at
//     most one session block of overshoot (a response always makes
//     progress); multi-session responses cut short by the budget carry a
//     #TRUNCATED line before their #OK;
//   * subscription pushes NEVER overshoot — a session that does not fit in a
//     slow subscriber's buffer is dropped and counted, and the subscriber
//     sees "#DROPPED <n>" as soon as space frees, so a stalled dashboard
//     costs a bounded buffer instead of server memory (the unbounded-
//     buffering failure mode Figure 6 pins on the generic-engine baseline).
//
// Threading: Run()/PollOnce() drive everything on one thread. Stop() and
// counters() are thread-safe. Session inserts arrive from dataflow worker
// threads via a SessionStore insert observer, which serializes the session
// and hands it to the event loop through a mutex-guarded queue + wake.
#ifndef SRC_QUERY_QUERY_SERVER_H_
#define SRC_QUERY_QUERY_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/analytics/session_store.h"
#include "src/store/cold_tier.h"
#include "src/net/event_loop.h"
#include "src/net/frame_reader.h"
#include "src/net/net_util.h"
#include "src/net/send_buffer.h"
#include "src/net/transport_stats.h"
#include "src/common/metrics_registry.h"
#include "src/query/query_protocol.h"

namespace ts {

struct QueryServerOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;  // 0 = ephemeral; read the bound port from port().
  // Per-connection staged-output budget (responses and subscription pushes).
  size_t max_conn_buffer_bytes = 256 << 10;
  // When > 0, pins SO_SNDBUF/SO_RCVBUF on accepted connections to this size,
  // disabling kernel buffer auto-tuning so max_conn_buffer_bytes is the real
  // end-to-end bound on a slow subscriber (instead of the kernel silently
  // growing a multi-megabyte cushion under it). 0 keeps the kernel default.
  int conn_sock_buf_bytes = 0;
  // SERVICE/RANGE limits are clamped to this.
  size_t max_query_limit = 10'000;
};

// Plain snapshot of the server's own counters (transport bytes live in
// TransportStats).
struct QueryServerCounters {
  uint64_t queries = 0;            // Requests answered (#OK or #ERR).
  uint64_t errors = 0;             // #ERR responses.
  uint64_t subscribers_attached = 0;
  uint64_t sessions_streamed = 0;  // Blocks pushed to subscribers.
  uint64_t sessions_dropped = 0;   // Blocks dropped on slow subscribers.
  uint64_t filter_evals = 0;       // Subscription filter predicate runs.
};

class QueryServer {
 public:
  // `metrics` may be null; when set, its gauges are appended to STATS.
  QueryServer(const QueryServerOptions& options,
              std::shared_ptr<SessionStore> store,
              std::shared_ptr<MetricsRegistry> metrics = nullptr);
  ~QueryServer();
  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  // Binds, listens, sets up the event loop, and installs the store insert
  // observer. Returns false on any socket error.
  bool Start();

  // Source for TEMPLATES responses: a point-in-time snapshot of the mined
  // templates (ts_sessionize wires the live pipeline's TemplateSnapshot in
  // when --mine-templates is set). Must be thread-safe — it runs on the
  // serving thread. Call before Start()/Run(); when unset, TEMPLATES
  // answers "#ERR template mining disabled".
  using TemplateSource = std::function<std::vector<TemplateCount>()>;
  void SetTemplateSource(TemplateSource source) {
    template_source_ = std::move(source);
  }

  // Attaches the cold tier (may be null). Call before Start(): the loop
  // thread reads it without further synchronization. With a tier attached,
  // GET/FRAGMENTS/SERVICE/RANGE/TOPK transparently fall back to cold
  // segments when the hot window has evicted the answer, and STATS grows
  // store_cold_* gauges — history is bounded only by disk.
  void SetColdTier(std::shared_ptr<ColdTier> cold) { cold_ = std::move(cold); }

  uint16_t port() const { return port_; }

  // Serves until Stop(). Drops all connections on exit.
  void Run();

  // One event-loop iteration; returns false once the server should exit.
  bool PollOnce(int timeout_ms);

  // Thread-safe: wakes the loop and makes Run() return.
  void Stop();

  const TransportStats& stats() const { return stats_; }
  QueryServerCounters counters() const;
  size_t subscriber_count() const {
    return subscriber_count_.load(std::memory_order_relaxed);
  }

 private:
  struct Connection {
    explicit Connection(size_t send_cap) : send(send_cap) {}
    FdGuard fd;
    LineFramer framer;
    SendBuffer send;
    bool subscribed = false;
    bool filter_by_service = false;
    uint32_t filter_service = 0;
    bool filter_by_prefix = false;
    std::string filter_prefix;
    uint64_t dropped_pending = 0;  // Drops since the last #DROPPED notice.
  };

  // A session closed after at least one subscriber attached, serialized once
  // on the inserting thread, fanned out to matching subscribers on the loop.
  struct PendingPush {
    std::string block;
    std::string id;                  // For prefix filter matching.
    std::vector<uint32_t> services;  // Sorted unique, for filter matching.
  };

  void Accept();
  // Returns false if the connection died and was removed.
  bool HandleReadable(Connection* conn);
  void HandleRequest(Connection* conn, const std::string& line);
  void AppendStats(Connection* conn, uint64_t* lines);
  // Every service by hot ∪ cold session count, ranked as TOPK answers
  // (count descending, ties to the lower id). Memoized on the store's and
  // the cold tier's mutation generations: re-deriving the hot ∩ cold
  // overlap takes a cold-index lookup per hot session. Loop thread only.
  const std::vector<std::pair<uint32_t, uint64_t>>& TieredServiceRanking();
  // Fans queued pushes out to subscribers and flushes them.
  void DeliverPending();
  // Emits a pending "#DROPPED n" notice once it fits.
  void MaybeEmitDropNotice(Connection* conn);
  // Flushes; returns false if the connection died and was removed.
  bool FlushConnection(Connection* conn);
  void UpdateInterest(Connection* conn);
  void CloseConnection(int fd);
  // SessionStore insert observer; runs on the inserting thread.
  void OnSessionInserted(const Session& session);

  QueryServerOptions options_;
  std::shared_ptr<SessionStore> store_;
  std::shared_ptr<ColdTier> cold_;  // May be null; set before Start().
  std::shared_ptr<MetricsRegistry> metrics_;
  TemplateSource template_source_;  // Set before Start(); loop thread reads.
  struct TopkMemo {
    bool valid = false;
    uint64_t store_generation = 0;
    uint64_t cold_generation = 0;
    std::vector<std::pair<uint32_t, uint64_t>> ranked;
  };
  TopkMemo topk_memo_;  // Loop thread only.
  uint16_t port_ = 0;
  FdGuard listen_fd_;
  EventLoop loop_;
  std::vector<std::unique_ptr<Connection>> connections_;
  uint64_t observer_token_ = 0;
  bool observer_installed_ = false;

  std::mutex pending_mu_;
  std::vector<PendingPush> pending_;  // Guarded by pending_mu_.

  TransportStats stats_;
  std::atomic<size_t> subscriber_count_{0};
  std::atomic<uint64_t> queries_{0};
  std::atomic<uint64_t> errors_{0};
  std::atomic<uint64_t> subscribers_attached_{0};
  std::atomic<uint64_t> sessions_streamed_{0};
  std::atomic<uint64_t> sessions_dropped_{0};
  std::atomic<uint64_t> filter_evals_{0};
};

}  // namespace ts

#endif  // SRC_QUERY_QUERY_SERVER_H_
