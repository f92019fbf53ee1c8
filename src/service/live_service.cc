#include "src/service/live_service.h"

#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <utility>

#include "src/ckpt/live_checkpoint.h"

namespace ts {

LiveService::LiveService(LiveServiceOptions options)
    : options_(std::move(options)),
      metrics_(std::make_shared<MetricsRegistry>()),
      store_(std::make_shared<SessionStore>(options_.store)) {}

LiveService::~LiveService() {
  Stop();
  // The writer thread uses the pipeline, the pipeline's sink uses the store
  // and the cold tier: retire them consumer-last.
  async_ckpt_.reset();
  pipeline_.reset();
  server_.reset();
}

void LiveService::Note(const char* format, ...) {
  char buf[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  notes_.emplace_back(buf);
}

std::vector<std::string> LiveService::TakeNotes() {
  return std::exchange(notes_, {});
}

bool LiveService::Start() {
  server_ = std::make_unique<QueryServer>(options_.server, store_, metrics_);
  if (options_.cold.has_value()) {
    cold_ = std::make_shared<ColdTier>(*options_.cold);
    if (!cold_->Start()) {
      Note("cannot use cold dir %s", options_.cold->dir.c_str());
      return false;
    }
    // The sink and its back-pressure barrier go in together: an eviction
    // sink without the barrier lets a stalled spill grow pending unbounded.
    std::shared_ptr<ColdTier> cold = cold_;
    store_->SetEvictionSink(
        [cold](Session&& s) { cold->Append(std::move(s)); },
        [cold] { cold->WaitForSpace(); });
    server_->SetColdTier(cold_);
    const ColdTier::Stats stats = cold_->stats();
    Note("cold tier: %s (%llu segment(s), %llu session(s) re-discovered)",
         options_.cold->dir.c_str(),
         static_cast<unsigned long long>(stats.segments),
         static_cast<unsigned long long>(stats.sessions));
  }

  // Restore before the source exists, so its first hello asks for
  // "TS1 <stream> <snapshot offset>".
  CheckpointState restored;
  bool did_restore = false;
  if (options_.checkpoint.has_value()) {
    ckpt_ = std::make_unique<Checkpointer>(*options_.checkpoint);
    did_restore = RestoreLatest(&restored);
    ckpt_->RegisterMetrics(metrics_.get());
  }
  source_ = std::make_unique<SocketIngestSource>(options_.ingest);

  // Replay-window dedupe guard: with an exact resume offset it never fires,
  // but it keeps a stale offset from double-counting. The cold check covers
  // sessions the pre-crash run had already evicted and spilled.
  const bool dedupe_replay = ckpt_ != nullptr;
  pipeline_ = std::make_unique<LivePipeline>(
      options_.pipeline, [this, dedupe_replay](Session&& s) {
        if (dedupe_replay &&
            (store_->Contains(s.id, s.fragment_index) ||
             (cold_ != nullptr && cold_->Contains(s.id, s.fragment_index)))) {
          return;
        }
        if (options_.on_session) {
          options_.on_session(s);
        }
        if (store_forced_closes_.load(std::memory_order_relaxed)) {
          store_->Insert(std::move(s));
        }
      });
  if (did_restore) {
    // Must precede the first FeedBlock/Flush: the restore publishes open
    // fragments and the snapshot watermark into the shard closers.
    RestoreLiveCheckpoint(std::move(restored), pipeline_.get(), store_.get());
    if (options_.on_session) {
      store_->ForEachSession(options_.on_session);
    }
  }

  pipeline_->RegisterMetrics(metrics_.get());
  // Legacy gauge names, kept stable for operators and the e2e smoke. With a
  // restored checkpoint they continue from the snapshot's counters so totals
  // match a crash-free run.
  LivePipeline* pipe = pipeline_.get();
  metrics_->Register("ingest_records", [this] {
    return static_cast<int64_t>(records());
  });
  metrics_->Register("ingest_parse_failures", [this] {
    return static_cast<int64_t>(parse_failures());
  });
  metrics_->Register("sessionize_open_sessions", [pipe] {
    return static_cast<int64_t>(pipe->open_sessions());
  });
  metrics_->Register("sessionize_watermark_ms", [pipe] {
    return static_cast<int64_t>(pipe->watermark() / kNanosPerMilli);
  });
  Note("live pipeline: %zu shard worker(s)", pipeline_->workers());

  // Periodic snapshots ride the async two-phase barrier: the ingest loop
  // pays one BeginCheckpoint per due tick, and all O(live state)
  // serialization + fsync runs on the writer thread.
  if (ckpt_ != nullptr) {
    AsyncCheckpointer::Options ac_options;
    ac_options.stream = static_cast<uint64_t>(options_.ingest.stream);
    ac_options.base_records = base_records_;
    ac_options.base_parse_failures = base_parse_failures_;
    if (cold_ != nullptr) {
      // Durability barrier: every eviction that precedes this snapshot's
      // barrier must be in a cold segment before the snapshot exists, or a
      // restore could lose it (the replay window starts at the snapshot's
      // offset).
      ColdTier* cold = cold_.get();
      ac_options.before_write = [cold] { return cold->FlushPending(); };
    }
    async_ckpt_ = std::make_unique<AsyncCheckpointer>(
        ckpt_.get(), pipeline_.get(), store_.get(), ac_options);
    async_ckpt_->RegisterMetrics(metrics_.get());
  }

  if (options_.pipeline.mine_templates) {
    // ppm = hits per million mined payloads (every payload hits exactly one
    // template, so the snapshot's hits sum to the total).
    server_->SetTemplateSource([pipe] {
      const auto snapshot = pipe->TemplateSnapshot();
      uint64_t total = 0;
      for (const auto& info : snapshot) {
        total += info.hits;
      }
      std::vector<TemplateCount> out;
      out.reserve(snapshot.size());
      for (const auto& info : snapshot) {
        out.push_back({info.id, info.hits,
                       total > 0 ? info.hits * 1'000'000 / total : 0,
                       info.text});
      }
      return out;
    });
  }
  // Last: every gauge is registered and every source attached before the
  // first request can sample them.
  if (!server_->Start()) {
    Note("cannot serve on %s:%u", options_.server.host.c_str(),
         options_.server.port);
    return false;
  }
  server_thread_ = std::thread([this] { server_->Run(); });
  return true;
}

bool LiveService::RestoreLatest(CheckpointState* state) {
  const std::string& dir = ckpt_->dir();
  const RestoreResult rr = ckpt_->RestoreLatest(state);
  if (!rr.restored) {
    if (rr.fallbacks > 0) {
      Note("no valid checkpoint in %s (%llu damaged); starting cold",
           dir.c_str(), static_cast<unsigned long long>(rr.fallbacks));
    }
    return false;
  }
  if (state->stream != static_cast<uint64_t>(options_.ingest.stream)) {
    Note("checkpoint %s is for stream %llu, not %zu; starting cold",
         rr.path.c_str(), static_cast<unsigned long long>(state->stream),
         options_.ingest.stream);
    *state = CheckpointState{};
    return false;
  }
  base_records_ = state->records;
  base_parse_failures_ = state->parse_failures;
  options_.ingest.resume_offset = state->resume_offset;
  Note("restored %s: resume offset %llu, %zu open fragment(s), "
       "%zu stored session(s)%s",
       rr.path.c_str(), static_cast<unsigned long long>(state->resume_offset),
       state->closers.open.size(), state->store_sessions.size(),
       rr.fallbacks > 0 ? " (damaged snapshot(s) skipped)" : "");
  return true;
}

bool LiveService::Ingest(const std::function<bool()>& stop) {
  // Zero-copy loop: recv bytes land in the source's arena, PollBlock hands
  // them over as views, and FeedBlock routes them shard-ward with no
  // per-line copies (docs/INGEST.md).
  LineBlock block;
  auto poll = SocketIngestSource::Poll::kIdle;
  while (!(stop && stop())) {
    poll = source_->PollBlock(&block, /*timeout_ms=*/200);
    pipeline_->FeedBlock(std::move(block));
    if (poll == SocketIngestSource::Poll::kEndOfStream ||
        poll == SocketIngestSource::Poll::kFailed) {
      break;
    }
    pipeline_->Flush();
    if (async_ckpt_ != nullptr) {
      async_ckpt_->MaybeCheckpoint(source_->records_received());
    }
  }
  const bool transport_failed = poll == SocketIngestSource::Poll::kFailed;
  const bool end_of_stream = poll == SocketIngestSource::Poll::kEndOfStream;
  // Drain the writer before any synchronous capture or Finish(): at most one
  // barrier may be in flight, and an uncollected ticket would leave the shard
  // workers paused forever. The object stays alive (idle) so its
  // degraded-mode gauges keep sampling.
  if (async_ckpt_ != nullptr) {
    async_ckpt_->Drain();
  }
  if (ckpt_ != nullptr && !transport_failed) {
    WriteFinalCheckpoint();
  }
  if (ckpt_ != nullptr && !end_of_stream) {
    // Published to the workers by Finish()'s end-of-stream queue push.
    store_forced_closes_.store(false, std::memory_order_relaxed);
  }
  pipeline_->Finish();
  if (cold_ != nullptr) {
    // Finish()'s closes evict the last hot sessions into the cold tier's
    // pending queue, below any spill threshold, and no snapshot follows to
    // flush them: ask for the spill now (the spill thread keeps retrying
    // through a disk fault window).
    cold_->FlushPending();
  }
  return !transport_failed;
}

void LiveService::WriteFinalCheckpoint() {
  // Before Finish(): Finish force-closes every open fragment, and those early
  // closes must not leak into the snapshot — a restart continues them as
  // open fragments instead.
  pipeline_->Flush();
  CheckpointState state = CaptureLiveCheckpoint(
      pipeline_.get(), *store_, source_->records_received(),
      static_cast<uint64_t>(options_.ingest.stream));
  state.records += base_records_;
  state.parse_failures += base_parse_failures_;
  if (cold_ != nullptr) {
    // Same barrier as the periodic snapshots — but the final one wants
    // eventual durability, not the prompt-abort contract: FlushPending
    // returns false on the FIRST spill write failure so a periodic snapshot
    // can be dropped, while the spill thread keeps retrying behind it. Ride
    // those retries out (bounded: each false return is at least one consumed
    // fault / shed batch, so a finite fault window always drains).
    for (int i = 0; i < 100 && !cold_->FlushPending(); ++i) {
    }
  }
  // The disk may still be inside a fault window at end of stream (the
  // periodic writer only ticks while records flow, so nothing after the last
  // record has proven it healthy). Retry with backoff rather than silently
  // leaving the directory empty.
  bool ok = ckpt_->Write(state);
  for (int attempt = 0; !ok && attempt < 5; ++attempt) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(int64_t{100} << attempt));
    ok = ckpt_->Write(state);
  }
  if (ok) {
    Note("final checkpoint at offset %llu (%s)",
         static_cast<unsigned long long>(state.resume_offset),
         ckpt_->dir().c_str());
  } else {
    Note("final checkpoint FAILED (%s unwritable)", ckpt_->dir().c_str());
  }
}

void LiveService::Stop() {
  if (server_ != nullptr) {
    server_->Stop();
  }
  if (server_thread_.joinable()) {
    server_thread_.join();
  }
}

uint64_t LiveService::records() const {
  return base_records_ + pipeline_->records();
}

uint64_t LiveService::parse_failures() const {
  return base_parse_failures_ + pipeline_->parse_failures();
}

LiveService::Accounting LiveService::GetAccounting() const {
  Accounting a;
  a.received = source_->records_received() - options_.ingest.resume_offset;
  a.parsed = pipeline_->records();
  a.parse_failures = pipeline_->parse_failures();
  a.blank_lines = pipeline_->blank_lines();
  a.records_emitted = pipeline_->records_emitted();
  a.open_records = pipeline_->open_records();
  a.shed_records = pipeline_->shed_records();
  a.shed_fragments = pipeline_->shed_fragments();
  a.shed_lines = pipeline_->shed_lines();
  return a;
}

}  // namespace ts
