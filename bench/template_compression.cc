// Template-mining compression bench: how much SessionStore memory does
// ts_parse's online template mining save on an unstructured free-text
// workload, and does the mined live path stay deterministic?
//
// The workload is the generator's --free_text mode: payloads drawn from a
// seeded pool of message templates (constant words + variable slots), the
// kind of log line the paper's datacenter emits but TS stores verbatim. The
// bench feeds the same arrival stream through the live serving pipeline
// twice — once raw, once with --mine-templates (payloads rewritten to
// "#<template_id> <var>..." on ingest) — and reports store bytes/session for
// both, their ratio, and the mined dictionary size. The CI bench-smoke lane
// tracks the ratio via bench/baselines/template_compression.json
// (min_compression_ratio) and scripts/check_bench_regression.py.
//
// Mining happens on the single ingest thread before sharding, so the mined
// run must remain byte-identical across worker counts exactly like the plain
// live path; the bench re-runs the mined lane at 1/2/4 workers and fails
// (exit 1) on any session/store digest mismatch.
//
// Flags: --rate (records/s), --seconds (trace length), --quick (CI preset),
//        --json=PATH (write BENCH JSON).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "src/analytics/session_digest.h"
#include "src/analytics/session_store.h"
#include "src/core/live_pipeline.h"
#include "src/log/wire_format.h"
#include "src/workload/generator.h"

namespace {

using namespace ts;
using namespace ts::bench;

struct LaneStats {
  std::string lane;
  size_t workers = 0;
  uint64_t records = 0;
  uint64_t sessions = 0;
  uint64_t store_bytes = 0;
  uint64_t session_digest = 0;
  uint64_t store_digest = 0;
  uint64_t templates = 0;
  uint64_t nodes = 0;
  double wall_s = 0;

  double BytesPerSession() const {
    return sessions > 0 ? static_cast<double>(store_bytes) / sessions : 0;
  }
  double RecordsPerSecWall() const {
    return wall_s > 0 ? static_cast<double>(records) / wall_s : 0;
  }
};

LaneStats RunOnce(const std::vector<std::string>& lines, size_t workers,
                  bool mine) {
  LaneStats stats;
  stats.lane = mine ? "mined" : "raw";
  stats.workers = workers;

  SessionStore::Options store_options;
  store_options.max_bytes = 1ull << 30;  // No eviction: digests need all.
  auto store = std::make_shared<SessionStore>(store_options);
  std::mutex digest_mu;
  uint64_t session_digest = 0;
  std::set<std::string> ids;

  LivePipelineOptions options;
  options.workers = workers;
  options.inactivity_ns = 5 * kNanosPerSecond;
  options.mine_templates = mine;
  LivePipeline pipeline(options, [&](Session&& s) {
    thread_local std::string scratch;
    const uint64_t d = SessionDigest(s, &scratch);
    {
      std::lock_guard<std::mutex> lock(digest_mu);
      session_digest ^= d;
      ids.insert(s.id);
    }
    store->Insert(std::move(s));
  });

  Stopwatch wall;
  for (size_t fed = 0; fed < lines.size(); fed += 4096) {
    pipeline.FeedBlock(CopyToLineBlock(std::span(lines).subspan(
        fed, std::min<size_t>(4096, lines.size() - fed))));
    pipeline.Flush();  // Poll-loop cadence of the real tool.
  }
  pipeline.Finish();
  stats.wall_s = static_cast<double>(wall.ElapsedNanos()) / 1e9;

  stats.records = pipeline.records();
  stats.sessions = store->stats().sessions;
  stats.store_bytes = store->stats().bytes;
  stats.session_digest = session_digest;
  stats.store_digest = ChainedStoreDigest(*store, ids);
  stats.templates = pipeline.template_count();
  stats.nodes = pipeline.template_nodes();
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  const bool quick = [&] {
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--quick") == 0) {
        return true;
      }
    }
    return false;
  }();
  const double rate = FlagDouble(argc, argv, "--rate", quick ? 8'000 : 25'000);
  const int64_t seconds = FlagInt(argc, argv, "--seconds", quick ? 6 : 12);
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    }
  }

  std::printf("=== template mining: store compression on free-text logs ===\n");
  std::printf("trace: %llds at %.0f records/s, free-text payloads\n\n",
              static_cast<long long>(seconds), rate);

  // Materialize the arrival stream once, exactly as one log-server
  // connection would deliver it (event-time order, wire text).
  std::vector<std::string> lines;
  {
    GeneratorConfig gen;
    gen.seed = 42;
    gen.duration_ns = seconds * kNanosPerSecond;
    gen.target_records_per_sec = rate;
    gen.free_text_payloads = true;
    TraceGenerator generator(gen);
    Epoch epoch = 0;
    std::vector<LogRecord> records;
    std::string line;
    while (generator.NextEpoch(&epoch, &records)) {
      for (const auto& r : records) {
        line.clear();
        AppendWireFormat(r, &line);
        lines.push_back(line);
      }
    }
  }
  std::printf("arrival stream: %zu records\n\n", lines.size());

  const LaneStats raw = RunOnce(lines, /*workers=*/2, /*mine=*/false);
  std::printf("raw:   %8.0f bytes/session (%llu sessions, %.0f rec/s wall)\n",
              raw.BytesPerSession(),
              static_cast<unsigned long long>(raw.sessions),
              raw.RecordsPerSecWall());

  std::vector<LaneStats> mined;
  for (size_t w = 1; w <= 4; w *= 2) {
    mined.push_back(RunOnce(lines, w, /*mine=*/true));
  }
  const LaneStats& m = mined[1];  // workers=2, same shape as the raw lane.
  std::printf("mined: %8.0f bytes/session (%llu sessions, %.0f rec/s wall), "
              "%llu templates in %llu tree nodes\n",
              m.BytesPerSession(), static_cast<unsigned long long>(m.sessions),
              m.RecordsPerSecWall(), static_cast<unsigned long long>(m.templates),
              static_cast<unsigned long long>(m.nodes));

  const double ratio = m.BytesPerSession() > 0
                           ? raw.BytesPerSession() / m.BytesPerSession()
                           : 0;
  std::printf("\nstore compression: %.2fx\n", ratio);

  // Determinism: the mined closed-session stream and store answers must not
  // depend on worker count (mining happens before the shard exchange).
  bool identical = true;
  for (const auto& r : mined) {
    if (r.session_digest != mined[0].session_digest ||
        r.store_digest != mined[0].store_digest ||
        r.sessions != mined[0].sessions || r.records != mined[0].records ||
        r.templates != mined[0].templates || r.nodes != mined[0].nodes) {
      identical = false;
      std::printf("MISMATCH at workers=%zu: sessions=%llu digest=%016llx "
                  "store=%016llx templates=%llu\n",
                  r.workers, static_cast<unsigned long long>(r.sessions),
                  static_cast<unsigned long long>(r.session_digest),
                  static_cast<unsigned long long>(r.store_digest),
                  static_cast<unsigned long long>(r.templates));
    }
  }
  if (raw.sessions != mined[0].sessions || raw.records != mined[0].records) {
    identical = false;
    std::printf("MISMATCH: mined run closed %llu sessions vs %llu raw — "
                "mining must not change sessionization\n",
                static_cast<unsigned long long>(mined[0].sessions),
                static_cast<unsigned long long>(raw.sessions));
  }
  std::printf("mined output across 1/2/4 workers: %s\n",
              identical ? "byte-identical" : "MISMATCH");

  if (!json_path.empty()) {
    FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"template_compression\",\n");
    std::fprintf(f, "  \"quick\": %s,\n", quick ? "true" : "false");
    std::fprintf(f, "  \"rate\": %.0f,\n  \"seconds\": %lld,\n", rate,
                 static_cast<long long>(seconds));
    std::fprintf(f, "  \"identical\": %s,\n", identical ? "true" : "false");
    std::fprintf(f, "  \"compression_ratio\": %.3f,\n", ratio);
    std::fprintf(f, "  \"templates\": %llu,\n",
                 static_cast<unsigned long long>(m.templates));
    std::fprintf(f, "  \"template_nodes\": %llu,\n",
                 static_cast<unsigned long long>(m.nodes));
    std::fprintf(f, "  \"rows\": [\n");
    const LaneStats* rows[] = {&raw, &m};
    for (size_t i = 0; i < 2; ++i) {
      const LaneStats& r = *rows[i];
      std::fprintf(f,
                   "    {\"lane\": \"%s\", \"bytes_per_session\": %.0f, "
                   "\"records_per_s_wall\": %.0f, \"sessions\": %llu}%s\n",
                   r.lane.c_str(), r.BytesPerSession(), r.RecordsPerSecWall(),
                   static_cast<unsigned long long>(r.sessions),
                   i + 1 < 2 ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return identical ? 0 : 1;
}
