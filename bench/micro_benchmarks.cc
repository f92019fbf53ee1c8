// Engine micro-benchmarks (google-benchmark): the per-record costs that
// compose into TS's epoch latency — hashing, wire parsing, re-ordering, tree
// construction, signatures, and exchange-hub transfers.
#include <benchmark/benchmark.h>

#include <memory>
#include <thread>

#include "src/common/rng.h"
#include "src/common/siphash.h"
#include "src/core/reorder_buffer.h"
#include "src/core/trace_tree.h"
#include "src/log/wire_format.h"
#include "src/net/frame_reader.h"
#include "src/net/log_server.h"
#include "src/net/socket_ingest.h"
#include "src/offline/offline_sessionizer.h"
#include "src/timely/runtime.h"
#include "src/workload/generator.h"

namespace ts {
namespace {

void BM_SipHashSessionId(benchmark::State& state) {
  const std::string id = "XKSHSKCBA53U088FXGE7LD8";
  for (auto _ : state) {
    benchmark::DoNotOptimize(SipHash24(id));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * id.size()));
}
BENCHMARK(BM_SipHashSessionId);

std::vector<LogRecord> SampleRecords(size_t n) {
  GeneratorConfig config;
  config.seed = 5;
  config.duration_ns = 30 * kNanosPerSecond;
  config.target_records_per_sec = static_cast<double>(n) / 20.0;
  TraceGenerator gen(config);
  std::vector<LogRecord> all;
  Epoch e;
  std::vector<LogRecord> batch;
  while (all.size() < n && gen.NextEpoch(&e, &batch)) {
    for (auto& r : batch) {
      all.push_back(std::move(r));
      if (all.size() == n) {
        break;
      }
    }
  }
  return all;
}

void BM_WireFormatSerialize(benchmark::State& state) {
  const auto records = SampleRecords(1024);
  size_t i = 0;
  std::string line;
  int64_t bytes = 0;
  for (auto _ : state) {
    line.clear();
    AppendWireFormat(records[i++ & 1023], &line);
    bytes += static_cast<int64_t>(line.size());
    benchmark::DoNotOptimize(line);
  }
  state.SetBytesProcessed(bytes);
}
BENCHMARK(BM_WireFormatSerialize);

void BM_WireFormatParse(benchmark::State& state) {
  const auto records = SampleRecords(1024);
  std::vector<std::string> lines;
  int64_t total = 0;
  for (const auto& r : records) {
    lines.push_back(ToWireFormat(r));
    total += static_cast<int64_t>(lines.back().size());
  }
  size_t i = 0;
  for (auto _ : state) {
    auto parsed = ParseWireFormat(lines[i++ & 1023]);
    benchmark::DoNotOptimize(parsed);
  }
  state.SetBytesProcessed(state.iterations() * (total / 1024));
}
BENCHMARK(BM_WireFormatParse);

void BM_ReorderBufferPush(benchmark::State& state) {
  const auto records = SampleRecords(4096);
  // Shuffle arrival order within a bounded delay.
  std::vector<LogRecord> shuffled = records;
  Rng rng(3);
  for (size_t i = 0; i + 1 < shuffled.size(); ++i) {
    const size_t j = i + rng.NextBelow(std::min<size_t>(16, shuffled.size() - i));
    std::swap(shuffled[i], shuffled[j]);
  }
  for (auto _ : state) {
    state.PauseTiming();
    ReorderBuffer buf({.slack_ns = 2 * kNanosPerSecond,
                       .slot_width_ns = 10 * kNanosPerMilli});
    std::vector<LogRecord> out;
    out.reserve(shuffled.size());
    state.ResumeTiming();
    for (const auto& r : shuffled) {
      buf.Push(r, &out);
    }
    buf.FlushAll(&out);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(shuffled.size()));
}
BENCHMARK(BM_ReorderBufferPush);

void BM_TraceTreeBuild(benchmark::State& state) {
  const auto records = SampleRecords(20'000);
  auto sessions = OfflineSessionizer::Sessionize(records);
  // Pick a reasonably sized session.
  const Session* big = &sessions[0];
  for (const auto& s : sessions) {
    if (s.records.size() > big->records.size()) {
      big = &s;
    }
  }
  int64_t trees = 0;
  for (auto _ : state) {
    auto built = TraceTree::FromSession(*big);
    trees += static_cast<int64_t>(built.size());
    benchmark::DoNotOptimize(built);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(big->records.size()));
  state.counters["records/session"] =
      static_cast<double>(big->records.size());
}
BENCHMARK(BM_TraceTreeBuild);

void BM_TreeSignature(benchmark::State& state) {
  const auto records = SampleRecords(20'000);
  auto sessions = OfflineSessionizer::Sessionize(records);
  std::vector<TraceTree> trees;
  for (const auto& s : sessions) {
    for (auto& t : TraceTree::FromSession(s)) {
      trees.push_back(std::move(t));
    }
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(trees[i++ % trees.size()].SignatureKey());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TreeSignature);

void BM_ExchangeHubRoundTrip(benchmark::State& state) {
  ExchangeHub<uint64_t> hub(4);
  std::vector<Batch<uint64_t>> drained;
  for (auto _ : state) {
    std::vector<uint64_t> batch(256, 7);
    hub.Send(2, 0, std::move(batch));
    drained.clear();
    hub.Drain(2, drained);
    benchmark::DoNotOptimize(drained);
  }
  state.SetItemsProcessed(state.iterations() * 256);
}
BENCHMARK(BM_ExchangeHubRoundTrip);

void BM_GeneratorThroughput(benchmark::State& state) {
  for (auto _ : state) {
    GeneratorConfig config;
    config.seed = 11;
    config.duration_ns = 2 * kNanosPerSecond;
    config.target_records_per_sec = 50'000;
    TraceGenerator gen(config);
    Epoch e;
    std::vector<LogRecord> batch;
    uint64_t n = 0;
    while (gen.NextEpoch(&e, &batch)) {
      n += batch.size();
    }
    state.counters["records"] = static_cast<double>(n);
    benchmark::DoNotOptimize(n);
  }
}
BENCHMARK(BM_GeneratorThroughput)->Unit(benchmark::kMillisecond);

// --- Socket ingest path (ts_net): transport + framing + parse vs the
// in-memory arrival path over the same wire lines. The gap between these
// benches is the cost the paper pays for replaying "in their original text
// format over a TCP socket" rather than handing batches through memory.

std::shared_ptr<const std::vector<std::string>> SampleArchive(size_t n) {
  const auto records = SampleRecords(n);
  auto lines = std::make_shared<std::vector<std::string>>();
  for (const auto& r : records) {
    lines->push_back(ToWireFormat(r));
  }
  return lines;
}

// Baseline: parse wire lines already resident in memory (what the replayer's
// as_text mode hands to the driver).
void BM_InMemoryArrivalParse(benchmark::State& state) {
  const auto archive = SampleArchive(8192);
  int64_t bytes = 0;
  for (auto _ : state) {
    uint64_t parsed_count = 0;
    for (const auto& line : *archive) {
      auto parsed = ParseWireFormat(line);
      parsed_count += parsed.has_value();
      bytes += static_cast<int64_t>(line.size());
      benchmark::DoNotOptimize(parsed);
    }
    benchmark::DoNotOptimize(parsed_count);
  }
  state.SetBytesProcessed(bytes);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(archive->size()));
}
BENCHMARK(BM_InMemoryArrivalParse)->Unit(benchmark::kMillisecond);

// Full loopback hop: LogServer -> TCP -> newline framing -> parse.
void BM_SocketIngestLoopback(benchmark::State& state) {
  const auto archive = SampleArchive(8192);
  int64_t bytes = 0;
  uint64_t stalls = 0;
  for (auto _ : state) {
    state.PauseTiming();
    LogServerOptions options;
    LogServer server(options, archive);
    if (!server.Start()) {
      state.SkipWithError("cannot start loopback server");
      return;
    }
    std::thread thread([&server] { server.Run(); });
    SocketIngestOptions copts;
    copts.port = server.port();
    SocketIngestSource client(copts);
    LineBlock block;
    state.ResumeTiming();

    uint64_t parsed_count = 0;
    auto poll = SocketIngestSource::Poll::kIdle;
    while (poll != SocketIngestSource::Poll::kEndOfStream &&
           poll != SocketIngestSource::Poll::kFailed) {
      poll = client.PollBlock(&block, /*timeout_ms=*/200);
      for (std::string_view line : block.lines) {
        auto parsed = ParseWireFormat(line);
        parsed_count += parsed.has_value();
        benchmark::DoNotOptimize(parsed);
      }
    }

    state.PauseTiming();
    bytes += static_cast<int64_t>(client.stats().Snapshot().bytes_in);
    stalls += server.stats().Snapshot().backpressure_stalls;
    server.Stop();
    thread.join();
    if (parsed_count != archive->size()) {
      state.SkipWithError("socket ingest lost records");
      return;
    }
    state.ResumeTiming();
  }
  state.SetBytesProcessed(bytes);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(archive->size()));
  state.counters["backpressure_stalls"] = static_cast<double>(stalls);
}
BENCHMARK(BM_SocketIngestLoopback)->Unit(benchmark::kMillisecond);

// Framing alone: split a large wire buffer into TCP-sized chunks.
void BM_LineFramerThroughput(benchmark::State& state) {
  const auto archive = SampleArchive(8192);
  std::string wire;
  for (const auto& line : *archive) {
    wire += line;
    wire += '\n';
  }
  const size_t kChunk = 16 << 10;
  for (auto _ : state) {
    LineFramer framer;
    std::vector<std::string> lines;
    lines.reserve(archive->size());
    for (size_t off = 0; off < wire.size(); off += kChunk) {
      framer.Feed(std::string_view(wire).substr(off, kChunk), &lines);
    }
    benchmark::DoNotOptimize(lines);
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(wire.size()));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(archive->size()));
}
BENCHMARK(BM_LineFramerThroughput)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace ts

BENCHMARK_MAIN();
