// pb_sut: the system under test — the live object graph
//
//   SocketIngestSource -> LivePipeline (2 shards) -> SessionStore
//     (+ eviction sink/barrier -> ColdTier) -> QueryServer, AsyncCheckpointer
//
// wired the way tools/ts_sessionize wires it, in its own process. It never
// sees the workload seed: it consumes the TS1 stream pb_gen serves, answers
// the queries pb_gen sends, and (live_tiered, history_query) restores the
// checkpoint + cold directory it is pointed at.
//
//   pb_sut --workload=W --out=DIR [--connect=PORT] [--state=DIR] [--trace=1]
//   pb_sut --workload=W [--state=DIR] --setup_only=1
//
// Prints "READY <query-port>" once set up (--setup_only exits there; run.py
// times a few such launches for setup_s), then runs the timed phase:
// firehose until an empty stream arrives, live_tiered until end of stream,
// history_query until "STOP" arrives on stdin. Results go to DIR/sut.json.
//
// Tracing (--trace=1) records a span around every call this file makes into
// the library's public API (name, start, end, parent); spans stay in memory
// and are written to DIR/spans.tsv at the end. Per-layer numbers are derived
// from those spans and from the modules' public counters — nothing inside the
// library is instrumented.
#include <pthread.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench/common.h"
#include "src/analytics/session_digest.h"
#include "src/analytics/session_store.h"
#include "src/ckpt/async_checkpointer.h"
#include "src/ckpt/checkpointer.h"
#include "src/ckpt/live_checkpoint.h"
#include "src/common/mem_probe.h"
#include "src/common/metrics_registry.h"
#include "src/core/live_pipeline.h"
#include "src/net/socket_ingest.h"
#include "src/query/query_server.h"
#include "src/store/cold_tier.h"
#include "src/store/tiered_digest.h"

namespace {

using pb::NowNs;
using pb::Percentile;

// ---------------------------------------------------------------------------
// Spans.

bool g_trace = false;  // Set once before any thread starts.

struct Span {
  const char* name = nullptr;
  int64_t start = 0;
  int64_t end = 0;
  int32_t parent = -1;  // Index in the same thread's buffer.
  uint32_t items = 0;   // Lines polled, for net.PollBlock.
};

struct ThreadSpans {
  int thread = 0;
  std::vector<Span> spans;
  int32_t current = -1;
};

class Tracer {
 public:
  static ThreadSpans* Local() {
    thread_local ThreadSpans* local = nullptr;
    if (local == nullptr) {
      std::lock_guard<std::mutex> lock(mu_);
      buffers_.push_back(std::make_unique<ThreadSpans>());
      local = buffers_.back().get();
      local->thread = static_cast<int>(buffers_.size()) - 1;
      local->spans.reserve(1024);
    }
    return local;
  }
  // Call only after every traced thread has been joined.
  static const std::vector<std::unique_ptr<ThreadSpans>>& All() { return buffers_; }

 private:
  static inline std::mutex mu_;
  static inline std::vector<std::unique_ptr<ThreadSpans>> buffers_;
};

class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) {
    if (!g_trace) {
      return;
    }
    buf_ = Tracer::Local();
    index_ = static_cast<int32_t>(buf_->spans.size());
    buf_->spans.push_back(Span{name, NowNs(), 0, buf_->current, 0});
    buf_->current = index_;
  }
  ~ScopedSpan() {
    if (buf_ != nullptr) {
      Span& s = buf_->spans[static_cast<size_t>(index_)];
      s.end = NowNs();
      buf_->current = s.parent;
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  void set_items(uint32_t n) {
    if (buf_ != nullptr) {
      buf_->spans[static_cast<size_t>(index_)].items = n;
    }
  }

 private:
  ThreadSpans* buf_ = nullptr;
  int32_t index_ = -1;
};

struct SpanStats {
  std::vector<double> durations_ns;
  double total_s = 0;
};

// Durations of every span named `name` on any thread, started at/after `from`.
SpanStats Collect(const char* name, int64_t from = 0) {
  SpanStats out;
  for (const auto& buf : Tracer::All()) {
    for (const Span& s : buf->spans) {
      if (s.start >= from && s.end > 0 && std::string_view(s.name) == name) {
        out.durations_ns.push_back(static_cast<double>(s.end - s.start));
      }
    }
  }
  out.total_s = pb::Sum(out.durations_ns) / 1e9;
  return out;
}

// Self time per layer (span duration minus its children), layer = name prefix.
void ReportSelfTimes(int64_t from, pb::Results* r) {
  std::map<std::string, double> self_ns;
  for (const auto& buf : Tracer::All()) {
    std::vector<int64_t> child(buf->spans.size(), 0);
    for (const Span& s : buf->spans) {
      if (s.parent >= 0 && s.end > 0) {
        child[static_cast<size_t>(s.parent)] += s.end - s.start;
      }
    }
    for (size_t i = 0; i < buf->spans.size(); ++i) {
      const Span& s = buf->spans[i];
      if (s.start < from || s.end == 0) {
        continue;
      }
      const std::string_view name(s.name);
      self_ns[std::string(name.substr(0, name.find('.')))] +=
          static_cast<double>(s.end - s.start - child[i]);
    }
  }
  for (const char* layer : {"net", "core", "analytics", "store", "ckpt"}) {
    r->Set(std::string(layer) + ".self_s", self_ns[layer] / 1e9);
  }
}

void WriteSpans(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return;
  }
  std::fprintf(f, "thread\tindex\tname\tstart_ns\tend_ns\tparent\titems\n");
  for (const auto& buf : Tracer::All()) {
    for (size_t i = 0; i < buf->spans.size(); ++i) {
      const Span& s = buf->spans[i];
      std::fprintf(f, "%d\t%zu\t%s\t%lld\t%lld\t%d\t%u\n", buf->thread, i, s.name,
                   static_cast<long long>(s.start), static_cast<long long>(s.end), s.parent,
                   s.items);
    }
  }
  std::fclose(f);
}

int64_t ThreadCpuNs(std::thread& t) {
  clockid_t cid;
  timespec now{};
  if (pthread_getcpuclockid(t.native_handle(), &cid) != 0 || clock_gettime(cid, &now) != 0) {
    return 0;
  }
  return static_cast<int64_t>(now.tv_sec) * 1'000'000'000 + now.tv_nsec;
}

// ---------------------------------------------------------------------------
// The object graph.

enum class Workload { kFirehose, kLive, kHistory };

struct Graph {
  std::shared_ptr<ts::SessionStore> store;
  std::shared_ptr<ts::ColdTier> cold;
  std::shared_ptr<ts::MetricsRegistry> metrics;
  std::unique_ptr<ts::QueryServer> server;
  std::thread server_thread;
  std::unique_ptr<ts::Checkpointer> ckpt;
  std::unique_ptr<ts::LivePipeline> pipeline;
  std::unique_ptr<ts::AsyncCheckpointer> async_ckpt;
  std::unique_ptr<ts::SocketIngestSource> source;
  // Cleared before tear-down: the forced closes of Finish() must not reach
  // the store (and through it the restored cold directory) after a
  // set-up-only launch.
  std::atomic<bool> accept{true};
  double restore_s = 0;
  double start_s = 0;

  Graph() = default;
  Graph(const Graph&) = delete;
  Graph& operator=(const Graph&) = delete;
  ~Graph() {
    async_ckpt.reset();
    accept.store(false);
    pipeline.reset();
    if (server != nullptr) {
      server->Stop();
    }
    if (server_thread.joinable()) {
      server_thread.join();
    }
  }
};

struct Config {
  Workload workload = Workload::kFirehose;
  uint16_t connect_port = 0;
  std::string state_dir;
  size_t workers = pb::kWorkers;
};

// Builds and starts the graph; returns null on failure.
std::unique_ptr<Graph> Build(const Config& config) {
  auto g = std::make_unique<Graph>();
  const bool tiered = config.workload != Workload::kFirehose;
  const bool history = config.workload == Workload::kHistory;
  g->metrics = std::make_shared<ts::MetricsRegistry>();

  ts::CheckpointState restored;
  bool did_restore = false;
  uint64_t resume_offset = 0;
  if (tiered) {
    ts::CheckpointerOptions ckpt_options;
    ckpt_options.dir = config.state_dir + "/ckpt";
    ckpt_options.interval_ms = pb::kCkptIntervalMs;
    const int64_t t0 = NowNs();
    {
      ScopedSpan span("ckpt.RestoreLatest");
      g->ckpt = std::make_unique<ts::Checkpointer>(ckpt_options);
      did_restore = g->ckpt->RestoreLatest(&restored).restored;
    }
    g->restore_s += static_cast<double>(NowNs() - t0) / 1e9;
    if (!did_restore) {
      std::fprintf(stderr, "no checkpoint in %s\n", ckpt_options.dir.c_str());
      return nullptr;
    }
    resume_offset = restored.resume_offset;
    g->ckpt->RegisterMetrics(g->metrics.get());
  }

  ts::SessionStore::Options store_options;
  store_options.max_bytes = !tiered ? pb::kFirehoseStoreBytes
                            : history ? pb::kHistoryHotBytes
                                      : pb::kLiveHotBytes;
  g->store = std::make_shared<ts::SessionStore>(store_options);
  ts::QueryServerOptions server_options;
  g->server = std::make_unique<ts::QueryServer>(server_options, g->store, g->metrics);
  if (tiered) {
    ts::ColdTierOptions cold_options;
    cold_options.dir = config.state_dir + "/cold";
    cold_options.segment_target_bytes =
        history ? pb::kHistorySegmentBytes : pb::kLiveSegmentBytes;
    g->cold = std::make_shared<ts::ColdTier>(cold_options);
    const int64_t t0 = NowNs();
    bool started = false;
    {
      ScopedSpan span("store.Start");
      started = g->cold->Start();
    }
    g->start_s = static_cast<double>(NowNs() - t0) / 1e9;
    if (!started) {
      return nullptr;
    }
    ts::ColdTier* cold = g->cold.get();
    g->store->SetEvictionSink(
        [cold](ts::Session&& s) {
          ScopedSpan span("store.Append");
          cold->Append(std::move(s));
        },
        [cold] {
          ScopedSpan span("store.WaitForSpace");
          cold->WaitForSpace();
        });
    g->server->SetColdTier(g->cold);
  }

  ts::LivePipelineOptions pipe_options;
  pipe_options.workers = config.workers;
  pipe_options.inactivity_ns = tiered ? pb::kLiveInactivityNs : pb::kFirehoseInactivityNs;
  pipe_options.mine_templates = tiered;
  Graph* raw = g.get();
  g->pipeline = std::make_unique<ts::LivePipeline>(pipe_options, [raw](ts::Session&& s) {
    if (!raw->accept.load(std::memory_order_relaxed)) {
      return;
    }
    ScopedSpan span("analytics.Insert");
    raw->store->Insert(std::move(s));
  });
  if (tiered) {
    ts::LivePipeline* pipe = g->pipeline.get();
    g->server->SetTemplateSource([pipe] {
      std::vector<ts::TemplateCount> out;
      const auto snapshot = pipe->TemplateSnapshot();
      uint64_t total = 0;
      for (const auto& info : snapshot) {
        total += info.hits;
      }
      for (const auto& info : snapshot) {
        out.push_back({info.id, info.hits, total > 0 ? info.hits * 1'000'000 / total : 0,
                       info.text});
      }
      return out;
    });
    const int64_t t0 = NowNs();
    {
      ScopedSpan span("ckpt.RestoreLiveCheckpoint");
      ts::RestoreLiveCheckpoint(std::move(restored), g->pipeline.get(), g->store.get());
    }
    g->restore_s += static_cast<double>(NowNs() - t0) / 1e9;
  }
  g->pipeline->RegisterMetrics(g->metrics.get());
  if (!g->server->Start()) {
    return nullptr;
  }
  ts::QueryServer* server = g->server.get();
  g->server_thread = std::thread([server] { server->Run(); });

  if (tiered) {
    ts::AsyncCheckpointer::Options ac_options;
    ts::ColdTier* cold = g->cold.get();
    ac_options.before_write = [cold] {
      ScopedSpan span("store.FlushPending");
      return cold->FlushPending();
    };
    g->async_ckpt = std::make_unique<ts::AsyncCheckpointer>(g->ckpt.get(), g->pipeline.get(),
                                                            g->store.get(), ac_options);
    g->async_ckpt->RegisterMetrics(g->metrics.get());
  }
  if (!history) {
    ts::SocketIngestOptions in_options;
    in_options.port = config.connect_port;
    in_options.max_records_per_poll = 16 << 10;  // As ts_sessionize.
    in_options.resume_offset = resume_offset;
    g->source = std::make_unique<ts::SocketIngestSource>(in_options);
  }
  return g;
}

// Samples pipeline and store state from the ingest thread (traced runs).
struct Sampler {
  int64_t last = 0;
  std::vector<double> watermark_lag_ms;
  std::vector<double> queue_depth;
  size_t open_peak = 0;
  uint64_t pending_peak = 0;

  void Maybe(Graph& g, int64_t now) {
    if (!g_trace || now - last < 1'000'000) {
      return;
    }
    last = now;
    ts::LivePipeline& p = *g.pipeline;
    const ts::EventTime wm = p.watermark();
    if (wm > 0) {
      watermark_lag_ms.push_back(static_cast<double>(p.ingest_watermark() - wm) / 1e6);
    }
    size_t depth = 0;
    for (size_t i = 0; i < p.workers(); ++i) {
      depth = std::max(depth, p.shard(i).queue_depth);
    }
    queue_depth.push_back(static_cast<double>(depth));
    open_peak = std::max(open_peak, p.open_sessions());
    if (g.cold != nullptr) {
      pending_peak = std::max<uint64_t>(pending_peak, g.cold->stats().pending);
    }
  }
};

// What one ingest loop measured.
struct IngestRun {
  int64_t t_begin = 0;
  int64_t t_end = 0;
  double wall_s = 0;
  uint64_t polls_with_lines = 0;
  uint64_t lines = 0;
  bool failed = false;
};

// Polls the source to end of stream, feeding every block (the ts_sessionize
// live loop), then drains the checkpointer and finishes the pipeline: when
// this returns, every session has been inserted.
IngestRun Ingest(Graph& g, Sampler* sampler) {
  IngestRun run;
  run.t_begin = NowNs();
  ts::LineBlock block;
  for (;;) {
    ts::SocketIngestSource::Poll poll;
    {
      ScopedSpan span("net.PollBlock");
      poll = g.source->PollBlock(&block, 200);
      span.set_items(static_cast<uint32_t>(block.lines.size()));
    }
    const int64_t now = NowNs();
    if (!block.lines.empty()) {
      ++run.polls_with_lines;
      run.lines += block.lines.size();
    }
    {
      ScopedSpan span("core.FeedBlock");
      g.pipeline->FeedBlock(std::move(block));
    }
    if (poll == ts::SocketIngestSource::Poll::kEndOfStream) {
      break;
    }
    if (poll == ts::SocketIngestSource::Poll::kFailed) {
      run.failed = true;
      break;
    }
    {
      ScopedSpan span("core.Flush");
      g.pipeline->Flush();
    }
    if (g.async_ckpt != nullptr) {
      ScopedSpan span("ckpt.MaybeCheckpoint");
      g.async_ckpt->MaybeCheckpoint(g.source->records_received());
    }
    if (sampler != nullptr) {
      sampler->Maybe(g, now);
    }
  }
  if (g.async_ckpt != nullptr) {
    ScopedSpan span("ckpt.Drain");
    g.async_ckpt->Drain();
  }
  {
    ScopedSpan span("core.Finish");
    g.pipeline->Finish();
  }
  run.t_end = NowNs();
  run.wall_s = static_cast<double>(run.t_end - run.t_begin) / 1e9;
  return run;
}

// Ingest-thread accounting over [from, to): the share no net/core/ckpt span
// covers, and per-call totals.
void ReportIngest(const IngestRun& run, int64_t from, const ThreadSpans* ingest,
                  pb::Results* r) {
  double covered = 0, busy = 0, wait = 0;
  for (const Span& s : ingest->spans) {
    if (s.start < from || s.end == 0 || s.parent >= 0) {
      continue;
    }
    const double d = static_cast<double>(s.end - s.start) / 1e9;
    covered += d;
    if (std::string_view(s.name) == "net.PollBlock") {
      (s.items > 0 ? busy : wait) += d;
    }
  }
  r->Set("core.ingest_unaccounted_share", run.wall_s > 0 ? 1.0 - covered / run.wall_s : 0);
  r->Set("net.poll_busy_s", busy);
  r->Set("net.poll_wait_s", wait);
  r->Set("net.lines_per_poll", run.polls_with_lines > 0
                                   ? static_cast<double>(run.lines) /
                                         static_cast<double>(run.polls_with_lines)
                                   : 0);
  r->Set("core.feed_busy_s", Collect("core.FeedBlock", from).total_s);
  r->Set("core.flush_s", Collect("core.Flush", from).total_s);
}

void ReportPipeline(const ts::LivePipeline& p, double wall_s, pb::Results* r) {
  double max_share = 0, sum_share = 0;
  uint64_t max_records = 0, sum_records = 0;
  for (size_t i = 0; i < p.workers(); ++i) {
    const ts::LiveShardSnapshot s = p.shard(i);
    const double share = static_cast<double>(s.cpu_ns) / 1e9 / wall_s;
    max_share = std::max(max_share, share);
    sum_share += share;
    max_records = std::max<uint64_t>(max_records, s.records);
    sum_records += s.records;
  }
  const double n = static_cast<double>(p.workers());
  r->Set("core.shard_busy_share_max", max_share);
  r->Set("core.shard_busy_share_mean", sum_share / n);
  r->Set("core.shard_skew", sum_records > 0 ? static_cast<double>(max_records) /
                                                  (static_cast<double>(sum_records) / n)
                                            : 0);
  r->Set("core.feed_stall_s", static_cast<double>(p.backpressure_stall_ns()) / 1e9);
}

void ReportInserts(int64_t from, pb::Results* r) {
  const SpanStats insert = Collect("analytics.Insert", from);
  std::vector<double> us;
  for (double ns : insert.durations_ns) {
    us.push_back(ns / 1e3);
  }
  r->Set("analytics.insert_us_p50", Percentile(us, 0.5));
  r->Set("analytics.insert_us_p99", Percentile(us, 0.99));
  r->Set("analytics.insert_busy_s", insert.total_s);
  const SpanStats append = Collect("store.Append", from);
  r->Set("store.append_us_p99", Percentile(append.durations_ns, 0.99) / 1e3);
  r->Set("store.wait_for_space_s", Collect("store.WaitForSpace", from).total_s);
  r->Set("store.flush_pending_ms_p99",
         Percentile(Collect("store.FlushPending", from).durations_ns, 0.99) / 1e6);
  r->Set("ckpt.maybe_us_p99",
         Percentile(Collect("ckpt.MaybeCheckpoint", from).durations_ns, 0.99) / 1e3);
}

void ReportSampler(const Sampler& s, pb::Results* r) {
  r->Set("core.watermark_lag_ms_p99", Percentile(s.watermark_lag_ms, 0.99));
  r->Set("core.queue_depth_p99", Percentile(s.queue_depth, 0.99));
  r->Set("core.open_sessions_peak", static_cast<double>(s.open_peak));
  r->Set("store.pending_peak_sessions", static_cast<double>(s.pending_peak));
}

// Direct ColdTier::Get over every 16th cold id (at most 4096).
void ReportColdGets(ts::ColdTier& cold, pb::Results* r) {
  std::vector<std::string> ids;
  size_t i = 0;
  cold.ForEachId([&](const std::string& id) {
    if (i++ % 16 == 0 && ids.size() < 4096) {
      ids.push_back(id);
    }
  });
  std::vector<double> us;
  for (const auto& id : ids) {
    const int64_t t0 = NowNs();
    auto s = cold.Get(id, 0);
    us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
  }
  r->Set("store.cold_get_us_p50", Percentile(us, 0.5));
  r->Set("store.cold_get_us_p99", Percentile(us, 0.99));
}

void ReportStore(Graph& g, const ts::SessionStore::Stats& store_before,
                 const ts::ColdTier::Stats& cold_before, pb::Results* r) {
  const ts::SessionStore::Stats st = g.store->stats();
  r->Set("analytics.bytes_per_session",
         st.sessions > 0 ? static_cast<double>(st.bytes) / static_cast<double>(st.sessions) : 0);
  r->Set("analytics.evicted", static_cast<double>(st.evicted - store_before.evicted));
  if (g.cold == nullptr) {
    return;
  }
  const ts::ColdTier::Stats cs = g.cold->stats();
  const double hits = static_cast<double>(cs.hits - cold_before.hits);
  const double misses = static_cast<double>(cs.misses - cold_before.misses);
  r->Set("store.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0);
  r->Set("store.shed_sessions", static_cast<double>(cs.shed_sessions));
  r->Set("store.disk_bytes_per_session",
         cs.sessions > 0 ? static_cast<double>(cs.bytes) / static_cast<double>(cs.sessions) : 0);
}

void ReportCkpt(Graph& g, pb::Results* r) {
  for (const auto& [name, value] : g.metrics->Snapshot()) {
    if (name == "ckpt_last_snapshot_duration_us") {
      r->Set("ckpt.snapshot_ms", static_cast<double>(value) / 1e3);
    }
  }
  r->Set("ckpt.snapshot_mb", static_cast<double>(g.ckpt->last_snapshot_bytes()) / (1 << 20));
  r->Set("ckpt.snapshots", static_cast<double>(g.ckpt->snapshots_taken()));
  r->Set("ckpt.skipped_busy", static_cast<double>(g.async_ckpt->snapshots_skipped_busy()));
}

// ---------------------------------------------------------------------------
// Workloads.

// firehose: one pass per TS1 connection, each into a fresh graph, until the
// generator serves an empty stream. A pass ends when Finish() returns, i.e.
// after the last insert.
int RunFirehose(Config config, const std::string& out) {
  FILE* passes_f = std::fopen((out + "/sut_passes.tsv").c_str(), "w");
  if (passes_f == nullptr) {
    return 1;
  }
  pb::Results r;
  uint64_t records = 0, mismatched = 0, failed = 0;
  uint64_t first_xor = 0, first_chained = 0, first_sessions = 0;
  std::map<std::string, std::vector<double>> per_pass;  // Traced 2-worker passes.
  Sampler sampler;
  for (size_t pass = 0;; ++pass) {
    // Traced runs add single-worker passes for the scaling baseline.
    Config pass_config = config;
    pass_config.workers = g_trace && pass % 4 == 3 ? 1 : config.workers;
    const bool measured_shape = pass_config.workers == config.workers;
    const double cpu0 = pb::ProcessCpuSeconds();
    std::unique_ptr<Graph> g = Build(pass_config);
    if (g == nullptr) {
      return 1;
    }
    const int64_t span_from = NowNs();
    const IngestRun run = Ingest(*g, measured_shape ? &sampler : nullptr);
    const double pass_cpu = pb::ProcessCpuSeconds() - cpu0;
    const uint64_t pass_records = g->pipeline->records();
    if (run.failed) {
      ++failed;
    }
    if (pass_records == 0) {
      break;
    }
    records += pass_records;
    // Output identity (untimed): the XOR of session digests (the closed-
    // session multiset) on every pass; the chained store digest (the bytes a
    // query client reads per id) on every 16th, to keep passes frequent.
    uint64_t x = 0;
    std::set<std::string> ids;
    std::string scratch;
    uint64_t stored_records = 0;
    g->store->ForEachSession([&](const ts::Session& s) {
      x ^= ts::SessionDigest(s, &scratch);
      ids.insert(s.id);
      stored_records += s.records.size();
    });
    const uint64_t sessions = g->store->stats().sessions;
    if (pass == 0) {
      first_xor = x;
      first_chained = ts::ChainedStoreDigest(*g->store, ids);
      first_sessions = sessions;
    } else if (x != first_xor || sessions != first_sessions ||
               (pass % 16 == 0 && ts::ChainedStoreDigest(*g->store, ids) != first_chained)) {
      ++mismatched;
    }
    if (stored_records != pass_records) {
      ++mismatched;
    }
    std::fprintf(passes_f, "%zu\t%zu\t%llu\t%lld\t%.9f\n", pass, pass_config.workers,
                 static_cast<unsigned long long>(pass_records),
                 static_cast<long long>(run.t_end), pass_cpu);
    if (g_trace && measured_shape) {
      pb::Results p;
      ReportIngest(run, span_from, Tracer::Local(), &p);
      ReportPipeline(*g->pipeline, run.wall_s, &p);
      ReportInserts(span_from, &p);
      ReportStore(*g, ts::SessionStore::Stats{}, ts::ColdTier::Stats{}, &p);
      ReportSelfTimes(span_from, &p);
      p.Set("net.recv_mb_per_s", static_cast<double>(g->source->stats().Snapshot().bytes_in) /
                                     (1 << 20) / run.wall_s);
      for (const auto& [name, value] : p.values()) {
        per_pass[name].push_back(value);
      }
    }
  }
  std::fclose(passes_f);

  r.Set("rss_peak_mb", static_cast<double>(ts::PeakRssBytes()) / (1 << 20));
  r.Set("records", static_cast<double>(records));
  r.Set("mismatched_passes", static_cast<double>(mismatched));
  r.Set("failed", static_cast<double>(failed + mismatched));
  r.Set("sessions", static_cast<double>(first_sessions));
  r.SetHex("xor_digest", first_xor);
  r.SetHex("chained_digest", first_chained);
  if (g_trace) {
    for (const auto& [name, values] : per_pass) {
      r.Set(name, Percentile(values, 0.5));  // Median over passes.
    }
    ReportSampler(sampler, &r);
    WriteSpans(out + "/spans.tsv");
  }
  return r.Write(out + "/sut.json") ? 0 : 1;
}

// live_tiered: restore, then ingest the generator's stream to its end while
// serving the subscriber and the query connection.
int RunLive(std::unique_ptr<Graph> g, const std::string& out) {
  const ts::SessionStore::Stats store_before = g->store->stats();
  const ts::ColdTier::Stats cold_before = g->cold->stats();

  const double cpu0 = pb::ProcessCpuSeconds();
  const int64_t serve_cpu0 = ThreadCpuNs(g->server_thread);
  const int64_t span_from = NowNs();
  Sampler sampler;
  const IngestRun run = Ingest(*g, &sampler);
  const double cpu_s = pb::ProcessCpuSeconds() - cpu0;
  const int64_t serve_cpu = ThreadCpuNs(g->server_thread) - serve_cpu0;
  const uint64_t records = g->pipeline->records();

  pb::Results r;
  r.Set("cpu_us_per_op", records > 0 ? cpu_s * 1e6 / static_cast<double>(records) : 0);
  r.Set("records", static_cast<double>(records));
  r.Set("failed", run.failed ? 1 : 0);
  if (g_trace) {
    ReportIngest(run, span_from, Tracer::Local(), &r);
    ReportPipeline(*g->pipeline, run.wall_s, &r);
    ReportInserts(span_from, &r);
    ReportSampler(sampler, &r);
    ReportStore(*g, store_before, cold_before, &r);
    ReportCkpt(*g, &r);
    r.Set("net.recv_mb_per_s",
          static_cast<double>(g->source->stats().Snapshot().bytes_in) / (1 << 20) / run.wall_s);
    r.Set("query.serve_cpu_s", static_cast<double>(serve_cpu) / 1e9);
    r.Set("parse.templates", static_cast<double>(g->pipeline->template_count()));
    r.Set("ckpt.restore_s", g->restore_s);
    r.Set("store.start_s", g->start_s);
  }
  // Output identity (untimed): TieredDigest over hot ∪ cold.
  std::set<std::string> ids;
  g->store->ForEachSession([&ids](const ts::Session& s) { ids.insert(s.id); });
  std::vector<std::string> cold_ids;
  g->cold->ForEachId([&cold_ids](const std::string& id) { cold_ids.push_back(id); });
  ids.insert(cold_ids.begin(), cold_ids.end());
  r.SetHex("tiered_digest", ts::TieredDigest(*g->store, *g->cold, ids));
  r.Set("sessions_ids", static_cast<double>(ids.size()));
  if (g_trace) {
    ReportColdGets(*g->cold, &r);
  }
  g.reset();
  r.Set("rss_peak_mb", static_cast<double>(ts::PeakRssBytes()) / (1 << 20));
  if (g_trace) {
    ReportSelfTimes(span_from, &r);
    WriteSpans(out + "/spans.tsv");
  }
  return r.Write(out + "/sut.json") ? 0 : 1;
}

// history_query: restore, then serve until told to stop.
int RunHistory(std::unique_ptr<Graph> g, const std::string& out) {
  const ts::SessionStore::Stats store_before = g->store->stats();
  const ts::ColdTier::Stats cold_before = g->cold->stats();
  const double cpu0 = pb::ProcessCpuSeconds();
  const int64_t serve_cpu0 = ThreadCpuNs(g->server_thread);
  const uint64_t queries0 = g->server->counters().queries;
  char line[64];
  while (std::fgets(line, sizeof(line), stdin) != nullptr &&
         std::strncmp(line, "STOP", 4) != 0) {
  }
  const double cpu_s = pb::ProcessCpuSeconds() - cpu0;
  const int64_t serve_cpu = ThreadCpuNs(g->server_thread) - serve_cpu0;
  const uint64_t queries = g->server->counters().queries - queries0;

  pb::Results r;
  r.Set("cpu_us_per_op", queries > 0 ? cpu_s * 1e6 / static_cast<double>(queries) : 0);
  r.Set("queries_served", static_cast<double>(queries));
  r.Set("query_errors", static_cast<double>(g->server->counters().errors));
  r.Set("failed", 0);
  if (g_trace) {
    ReportStore(*g, store_before, cold_before, &r);
    r.Set("query.serve_cpu_s", static_cast<double>(serve_cpu) / 1e9);
    r.Set("parse.templates", static_cast<double>(g->pipeline->template_count()));
    r.Set("ckpt.restore_s", g->restore_s);
    r.Set("store.start_s", g->start_s);
    ReportColdGets(*g->cold, &r);
  }
  g->accept.store(false);
  g.reset();
  r.Set("rss_peak_mb", static_cast<double>(ts::PeakRssBytes()) / (1 << 20));
  if (g_trace) {
    ReportSelfTimes(0, &r);
    WriteSpans(out + "/spans.tsv");
  }
  return r.Write(out + "/sut.json") ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const pb::Flags flags(argc, argv);
  const std::string workload = flags.Str("workload");
  const std::string out = flags.Str("out");
  Config config;
  config.connect_port = static_cast<uint16_t>(flags.Int("connect", 0));
  config.state_dir = flags.Str("state");
  g_trace = flags.Int("trace", 0) != 0;
  if (workload == "firehose") {
    config.workload = Workload::kFirehose;
  } else if (workload == "live_tiered") {
    config.workload = Workload::kLive;
  } else if (workload == "history_query") {
    config.workload = Workload::kHistory;
  } else {
    std::fprintf(stderr, "usage: pb_sut --workload=W --out=DIR ...\n");
    return 2;
  }
  // Set-up ends here: the graph is built (and, for the tiered workloads,
  // restored) and the query port is bound. run.py times process start to
  // this line. With --setup_only the graph is torn down without ingesting or
  // flushing, so the restored directories are read, never written.
  std::unique_ptr<Graph> g = Build(config);
  if (g == nullptr) {
    return 1;
  }
  std::printf("READY %u\n", g->server->port());
  std::fflush(stdout);
  if (flags.Int("setup_only", 0) != 0 || out.empty()) {
    g->accept.store(false);
    return 0;
  }
  switch (config.workload) {
    case Workload::kFirehose:
      g.reset();  // Each pass builds its own graph.
      return RunFirehose(config, out);
    case Workload::kLive:
      return RunLive(std::move(g), out);
    case Workload::kHistory:
      return RunHistory(std::move(g), out);
  }
  return 2;
}
