// pb_gen: the benchmark's load generator, reference oracle and prepared-state
// builder. It is the only process that sees the workload seed; the system
// under test (pb_sut) receives nothing but the bytes generated here — TS1 log
// lines, query requests and, for the tiered workloads, a checkpoint + cold
// directory built from the same seed.
//
//   pb_gen prepare --workload=W --seed=N --out=DIR
//       Builds DIR/ckpt and DIR/cold from the seed (untimed; run.py caches it
//       only after proving a second build byte-identical).
//   pb_gen run --workload=W --seed=N --seconds=S --out=DIR [--trace=1]
//       Synthesizes the workload, computes the reference answers, prints
//       "PORT <ts1-port>" and drives the SUT. live_tiered and history_query
//       read "QUERY_PORT <port>" from stdin once the SUT is ready.
//
// Thread and connection budget (nproc = 4): firehose is one thread and one
// TS1 connection; live_tiered is one poll loop over three connections (TS1,
// SUBSCRIBE, queries); history_query is two threads with one closed-loop
// query connection each.
#include <fcntl.h>
#include <sys/stat.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "perfbench/common.h"
#include "src/analytics/session_digest.h"
#include "src/analytics/session_store.h"
#include "src/ckpt/checkpointer.h"
#include "src/ckpt/live_checkpoint.h"
#include "src/common/arena.h"
#include "src/common/rng.h"
#include "src/common/siphash.h"
#include "src/core/live_pipeline.h"
#include "src/log/record_batch.h"
#include "src/log/record_view.h"
#include "src/log/wire_format.h"
#include "src/loadgen/arrival.h"
#include "src/loadgen/synth.h"
#include "src/net/frame_reader.h"
#include "src/net/net_util.h"
#include "src/parse/template_miner.h"
#include "src/query/query_protocol.h"
#include "src/replay/replayer.h"
#include "src/store/cold_tier.h"

namespace {

using pb::NowNs;
using pb::Percentile;
using ts::EventTime;

// ---------------------------------------------------------------------------
// Workload shapes.

// firehose: the Table-1 stream fig5 replays (42 servers / 1263 processes).
// The seed changes the trace's content, not its size: it is generated long
// enough for every seed and cut to a fixed record count, so pass times
// compare across seeds.
constexpr double kFirehoseTraceRate = 40'000;
constexpr int64_t kFirehoseTraceMs = 4'000;
constexpr size_t kFirehoseRecords = 90'000;

// live_tiered / history_query: open-loop synth sessions at a fixed rate.
constexpr double kSynthRate = 30'000;       // Records/s of event time.
constexpr size_t kLivePrefix = 120'000;     // Records in the restored state.
constexpr size_t kLiveBacklog = 600'000;    // Records replayed on catch-up.
// Open-loop queries/s: about a tenth of what history_query's two closed-loop
// clients complete (7,000-10,500/s on 4 vCPUs), far below saturation.
constexpr double kLiveQueryRate = 800;
constexpr size_t kHistoryPrefix = 500'000;  // Records in the restored state.
constexpr size_t kQueryLimit = 20;          // SERVICE / RANGE limit.
// Reported tails. Both keep well over ten samples beyond them. live_tiered's
// p99 falls on the edge of the checkpoint/spill contention stalls (about 1 %
// of closes), so it flips between two regimes run to run; p99.9 measures the
// stalls themselves. history_query's p99.9 is scheduler hiccups; its p99 is
// the read path.
constexpr double kLiveTail = 0.999;
constexpr double kHistoryTail = 0.99;
constexpr size_t kTopK = 10;

size_t PrefixRecords(const std::string& workload) {
  return workload == "history_query" ? kHistoryPrefix : kLivePrefix;
}

// ---------------------------------------------------------------------------
// The byte stream: every line '\n'-terminated in one buffer.

struct Stream {
  std::string wire;
  std::vector<size_t> end;        // Offset one past line i's '\n'.
  std::vector<EventTime> time;    // Event time of line i.
  std::vector<int64_t> offset_ns; // Intended send offset (synth streams).
  // Synth streams: session id -> arrival index of its last (retiring) record.
  std::unordered_map<std::string, size_t> retire_index;

  size_t size() const { return end.size(); }
  size_t begin_of(size_t i) const { return i == 0 ? 0 : end[i - 1]; }
  std::string_view line(size_t i) const {
    return std::string_view(wire).substr(begin_of(i), end[i] - 1 - begin_of(i));
  }
  void Append(std::string_view line, EventTime t) {
    wire.append(line);
    wire.push_back('\n');
    end.push_back(wire.size());
    time.push_back(t);
  }
};

EventTime LineTime(std::string_view line) {
  int64_t t = 0;
  std::from_chars(line.data(), line.data() + line.size(), t);
  return t;
}

// Free-text payloads: a seeded pool of message templates (constant words and
// variable slots) drawn with Zipf popularity — the unstructured text the
// template miner structures.
class TextPool {
 public:
  explicit TextPool(uint64_t seed) : rng_(seed ^ 0x74657874706f6f6cull), pick_(48, 1.05) {
    static const char* kWords[] = {
        "user", "request", "fetched", "rows", "from", "table", "in", "cache",
        "miss", "hit", "for", "key", "session", "opened", "closed", "retry",
        "backend", "returned", "status", "latency", "queue", "depth", "shard",
        "replica", "lease", "renewed", "expired", "token", "checked", "quota",
        "exceeded", "booking", "fare", "search", "seat", "map", "loaded",
        "payment", "authorized", "declined", "timeout", "after", "bytes",
        "sent", "to", "host", "port", "handshake", "completed", "txn"};
    constexpr size_t kNumWords = sizeof(kWords) / sizeof(kWords[0]);
    templates_.resize(pick_.size());
    for (auto& t : templates_) {
      const size_t tokens = 4 + rng_.NextBelow(7);
      for (size_t k = 0; k < tokens; ++k) {
        if (k > 0 && rng_.NextBool(0.3)) {
          t.push_back(-1 - static_cast<int>(rng_.NextBelow(4)));  // Slot.
        } else {
          t.push_back(static_cast<int>(rng_.NextBelow(kNumWords)));
        }
      }
    }
    words_.assign(kWords, kWords + kNumWords);
  }

  void Render(ts::Rng& rng, std::string* out) const {
    const auto& t = templates_[pick_.Sample(rng)];
    char buf[32];
    for (size_t k = 0; k < t.size(); ++k) {
      if (k > 0) {
        out->push_back(' ');
      }
      if (t[k] >= 0) {
        out->append(words_[static_cast<size_t>(t[k])]);
        continue;
      }
      int n = 0;
      switch (-1 - t[k]) {
        case 0:
          n = std::snprintf(buf, sizeof(buf), "%08" PRIx64, rng.Next() & 0xffffffffu);
          break;
        case 1:
          n = std::snprintf(buf, sizeof(buf), "%" PRIu64, rng.NextBelow(100'000));
          break;
        case 2:
          n = std::snprintf(buf, sizeof(buf), "%" PRIu64 "ms", rng.NextBelow(2'000));
          break;
        default:
          n = std::snprintf(buf, sizeof(buf), "10.%" PRIu64 ".%" PRIu64 ".%" PRIu64,
                            rng.NextBelow(256), rng.NextBelow(256), rng.NextBelow(256));
          break;
      }
      out->append(buf, static_cast<size_t>(n));
    }
  }

 private:
  ts::Rng rng_;
  ts::ZipfSampler pick_;
  std::vector<std::vector<int>> templates_;
  std::vector<const char*> words_;
};

// Open-loop synth sessions (src/loadgen with its default shape: Zipf-skewed
// ids with churn, event time = intended send time) with free-text payloads.
// Generates at least `min_records` records and, past those, until the
// intended offset has advanced `tail_ns` beyond record min_records-1.
Stream BuildSynthStream(uint64_t seed, size_t min_records, int64_t tail_ns) {
  ts::SynthOptions synth_options;
  synth_options.seed = seed;
  ts::SessionSynth synth(synth_options);
  ts::ArrivalSchedule schedule(ts::ArrivalProcess::kPoisson, kSynthRate,
                               seed ^ 0x6172726976616cull);
  TextPool pool(seed);
  ts::Rng text_rng(seed ^ 0x7061796c6f6164ull);
  Stream s;
  ts::SynthRecord rec;
  std::string line;
  int64_t stop_ns = INT64_MAX;
  for (size_t i = 0;; ++i) {
    const int64_t offset = schedule.NextNs();
    if (i >= min_records && offset >= stop_ns) {
      break;
    }
    synth.NextRecord(offset, &rec);
    // Replace the synth filler payload (after the 6th '|') with free text.
    size_t pos = 0;
    for (int k = 0; k < 6; ++k) {
      pos = rec.line.find('|', pos) + 1;
    }
    line.assign(rec.line, 0, pos);
    pool.Render(text_rng, &line);
    s.Append(line, ts::SessionSynth::kEventOrigin + offset);
    s.offset_ns.push_back(offset);
    if (rec.retires_session) {
      s.retire_index[rec.session_id] = i;
    }
    if (i + 1 == min_records) {
      stop_ns = offset + tail_ns;
    }
  }
  return s;
}

// The Table-1 trace in arrival order, as one log-server connection delivers it.
Stream BuildTable1Stream(uint64_t seed) {
  ts::ReplayerConfig replay_config;
  replay_config.num_workers = 1;
  replay_config.as_text = true;
  replay_config.seed = seed ^ 0x7265706c6179ull;
  ts::GeneratorConfig gen;
  gen.seed = seed;
  gen.duration_ns = kFirehoseTraceMs * ts::kNanosPerMilli;
  gen.target_records_per_sec = kFirehoseTraceRate;
  ts::Replayer replayer(replay_config, gen);
  Stream s;
  std::vector<ts::Arrival> arrivals;
  for (ts::Epoch e = 0;; ++e) {
    if (replayer.ArrivalsFor(0, e, &arrivals) ==
        ts::ArrivalSource::Fetch::kEndOfStream) {
      break;
    }
    for (auto& a : arrivals) {
      if (s.size() < kFirehoseRecords) {
        s.Append(a.line, LineTime(a.line));
      }
    }
  }
  return s;
}

// ---------------------------------------------------------------------------
// Reference oracle: the scalar-reference path (ParseWireFormat + FeedRecord)
// through a single-worker pipeline into per-session digests. A single worker
// makes the emission order deterministic; the determinism contract makes the
// closed-session multiset equal to any worker count's.

struct RefSession {
  std::string id;
  uint32_t frag = 0;
  uint64_t digest = 0;
  EventTime min_time = 0;
  EventTime max_time = 0;
  std::vector<uint32_t> services;  // Sorted, unique.
  size_t bytes = 0;                // In-memory footprint.
  bool before_barrier = true;      // Closed before the barrier position.
};

struct Reference {
  std::vector<RefSession> sessions;  // Emission (= store insertion) order.
  uint64_t xor_digest = 0;
  uint64_t records = 0;
  // EncodeSessionBlock bytes of sampled sessions, keyed "id#frag".
  std::unordered_map<std::string, std::string> blocks;

  // ChainedStoreDigest / TieredDigest over the chosen sessions: sorted by
  // (id, fragment), each XORed in then SipHash-chained.
  uint64_t ChainedDigest(bool only_before_barrier) const {
    std::vector<const RefSession*> order;
    for (const auto& s : sessions) {
      if (!only_before_barrier || s.before_barrier) {
        order.push_back(&s);
      }
    }
    std::sort(order.begin(), order.end(), [](const RefSession* a, const RefSession* b) {
      return a->id != b->id ? a->id < b->id : a->frag < b->frag;
    });
    uint64_t d = 0;
    for (const RefSession* s : order) {
      d ^= s->digest;
      d = ts::SipHash24(d);
    }
    return d;
  }
};

std::string BlockKey(const std::string& id, uint32_t frag) {
  return id + "#" + std::to_string(frag);
}

bool Sampled(const std::string& id, uint64_t seed) {
  return (ts::SipHash24(id) ^ seed) % 8 == 0;
}

Reference RunReference(const Stream& stream, bool mine, EventTime inactivity,
                       size_t barrier_at, uint64_t sample_seed) {
  Reference ref;
  std::atomic<bool> before_barrier{true};
  ts::LivePipelineOptions options;
  options.workers = 1;
  options.inactivity_ns = inactivity;
  options.mine_templates = mine;
  std::string scratch;
  ts::LivePipeline pipeline(options, [&](ts::Session&& s) {
    RefSession r;
    r.id = s.id;
    r.frag = s.fragment_index;
    r.digest = ts::SessionDigest(s, &scratch);
    r.min_time = s.MinTime();
    r.max_time = s.MaxTime();
    for (const auto& rec : s.records) {
      r.services.push_back(rec.service);
    }
    std::sort(r.services.begin(), r.services.end());
    r.services.erase(std::unique(r.services.begin(), r.services.end()), r.services.end());
    r.bytes = s.MemoryFootprint();
    r.before_barrier = before_barrier.load();
    ref.xor_digest ^= r.digest;
    if (Sampled(s.id, sample_seed)) {
      ref.blocks[BlockKey(s.id, s.fragment_index)] = ts::EncodeSessionBlock(s);
    }
    ref.sessions.push_back(std::move(r));
  });
  for (size_t i = 0; i < stream.size(); ++i) {
    if (i == barrier_at) {
      pipeline.Flush();
      pipeline.CaptureCheckpoint();  // Every pre-barrier close has been sunk.
      before_barrier.store(false);
    }
    auto parsed = ts::ParseWireFormat(stream.line(i));
    if (parsed.has_value()) {
      pipeline.FeedRecord(std::move(*parsed));
      ++ref.records;
    }
    if ((i + 1) % 4096 == 0) {
      pipeline.Flush();
    }
  }
  if (barrier_at >= stream.size()) {
    pipeline.Flush();
    pipeline.CaptureCheckpoint();
    before_barrier.store(false);
  }
  pipeline.Finish();
  return ref;
}

// Arrival index at which a session with max event time `max_time` becomes
// closable (watermark = prefix max of event time reaches max + inactivity);
// stream.size() when only end of stream closes it.
std::vector<EventTime> PrefixMax(const Stream& s) {
  std::vector<EventTime> m(s.size());
  EventTime cur = 0;
  for (size_t i = 0; i < s.size(); ++i) {
    cur = std::max(cur, s.time[i]);
    m[i] = cur;
  }
  return m;
}

size_t TriggerIndex(const std::vector<EventTime>& prefix_max, EventTime max_time,
                    EventTime inactivity) {
  return static_cast<size_t>(
      std::lower_bound(prefix_max.begin(), prefix_max.end(), max_time + inactivity) -
      prefix_max.begin());
}

// ---------------------------------------------------------------------------
// Sockets.

int AcceptOne(int listen_fd, int timeout_ms) {
  pollfd p{listen_fd, POLLIN, 0};
  if (::poll(&p, 1, timeout_ms) <= 0) {
    return -1;
  }
  const int fd = ::accept(listen_fd, nullptr, nullptr);
  if (fd >= 0) {
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) & ~O_NONBLOCK);
    ts::SetNoDelay(fd);
  }
  return fd;
}

// Reads the "TS1 <stream> <offset>" hello; returns the offset or -1.
int64_t ReadHello(int fd) {
  std::string line;
  char c = 0;
  while (line.size() < 256 && ::read(fd, &c, 1) == 1 && c != '\n') {
    line.push_back(c);
  }
  unsigned long long stream = 0, offset = 0;
  if (std::sscanf(line.c_str(), "TS1 %llu %llu", &stream, &offset) != 2) {
    return -1;
  }
  return static_cast<int64_t>(offset);
}

bool WriteAll(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN) {
        pollfd p{fd, POLLOUT, 0};
        ::poll(&p, 1, 100);
        continue;
      }
      return false;
    }
    data.remove_prefix(static_cast<size_t>(n));
  }
  return true;
}

int ConnectBlocking(uint16_t port) {
  const int fd = ts::ConnectTcpNonBlocking("127.0.0.1", port);
  if (fd < 0) {
    return -1;
  }
  pollfd p{fd, POLLOUT, 0};
  int err = 0;
  socklen_t len = sizeof(err);
  if (::poll(&p, 1, 5000) != 1 || ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 ||
      err != 0) {
    ::close(fd);
    return -1;
  }
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) & ~O_NONBLOCK);
  ts::SetNoDelay(fd);
  return fd;
}

// Reads one "QUERY_PORT <port>" line from run.py.
uint16_t ReadQueryPort() {
  char buf[64];
  if (std::fgets(buf, sizeof(buf), stdin) == nullptr) {
    return 0;
  }
  unsigned port = 0;
  return std::sscanf(buf, "QUERY_PORT %u", &port) == 1 ? static_cast<uint16_t>(port) : 0;
}

// ---------------------------------------------------------------------------
// Per-layer replays over the workload's own bytes (traced runs only).

// Repeats the scan for at least 0.2 s. ScanRecord lives in another
// translation unit, so the calls cannot be optimized away.
double ScanNsPerLine(const Stream& s) {
  const int64_t t0 = NowNs();
  size_t lines = 0;
  do {
    for (size_t i = 0; i < s.size(); ++i) {
      ts::ScanRecord(s.line(i));
    }
    lines += s.size();
  } while (NowNs() - t0 < 200'000'000);
  return static_cast<double>(NowNs() - t0) / static_cast<double>(lines);
}

double MineNsPerLine(const Stream& s, size_t first) {
  ts::TemplateMiner miner;
  std::string out;
  const int64_t t0 = NowNs();
  for (size_t i = first; i < s.size(); ++i) {
    const std::string_view line = s.line(i);
    size_t pos = 0;
    for (int k = 0; k < 6; ++k) {
      pos = line.find('|', pos) + 1;
    }
    out.clear();
    miner.MineAndRewrite(line.substr(pos), &out);
  }
  return static_cast<double>(NowNs() - t0) / static_cast<double>(s.size() - first);
}

// ---------------------------------------------------------------------------
// prepare: the restored state of live_tiered / history_query.

int Prepare(const pb::Flags& flags) {
  const std::string workload = flags.Str("workload");
  const uint64_t seed = static_cast<uint64_t>(flags.Int("seed", 1));
  const std::string out = flags.Str("out");
  if ((workload != "live_tiered" && workload != "history_query") || out.empty()) {
    std::fprintf(stderr, "prepare: bad --workload or --out\n");
    return 2;
  }
  const bool history = workload == "history_query";
  const Stream stream =
      BuildSynthStream(seed, PrefixRecords(workload), 0);

  ts::SessionStore::Options store_options;
  store_options.max_bytes = history ? pb::kHistoryHotBytes : pb::kLiveHotBytes;
  auto store = std::make_shared<ts::SessionStore>(store_options);
  ts::ColdTierOptions cold_options;
  cold_options.dir = out + "/cold";
  cold_options.segment_target_bytes =
      history ? pb::kHistorySegmentBytes : pb::kLiveSegmentBytes;
  auto cold = std::make_shared<ts::ColdTier>(cold_options);
  if (::mkdir(out.c_str(), 0777) != 0 && errno != EEXIST) {
    return 1;
  }
  if (!cold->Start()) {
    std::fprintf(stderr, "prepare: cannot use %s\n", cold_options.dir.c_str());
    return 1;
  }
  store->SetEvictionSink([&cold](ts::Session&& s) { cold->Append(std::move(s)); },
                         [&cold] { cold->WaitForSpace(); });
  ts::CheckpointerOptions ckpt_options;
  ckpt_options.dir = out + "/ckpt";
  ckpt_options.interval_ms = 0;
  ts::Checkpointer ckpt(ckpt_options);

  std::atomic<bool> accept{true};
  ts::LivePipelineOptions pipe_options;
  pipe_options.workers = 1;  // One shard: deterministic insertion order.
  pipe_options.inactivity_ns = pb::kLiveInactivityNs;
  pipe_options.mine_templates = true;
  auto pipeline = std::make_unique<ts::LivePipeline>(pipe_options, [&](ts::Session&& s) {
    if (accept.load()) {
      store->Insert(std::move(s));
    }
  });
  auto arena = std::make_shared<ts::Arena>(256 << 10);
  for (size_t begin = 0; begin < stream.size(); begin += 4096) {
    ts::LineBlock block;
    block.arena = arena;
    for (size_t i = begin; i < std::min(stream.size(), begin + 4096); ++i) {
      block.lines.push_back(stream.line(i));
    }
    pipeline->FeedBlock(std::move(block));
    pipeline->Flush();
  }
  ts::CheckpointState state =
      ts::CaptureLiveCheckpoint(pipeline.get(), *store, stream.size(), 0);
  // Let the spill thread cut every full segment before the final flush, so
  // segment boundaries depend on the session sequence, not on timing.
  uint64_t last_pending = UINT64_MAX;
  for (int stable = 0; stable < 5;) {
    const uint64_t pending = cold->stats().pending;
    stable = pending == last_pending ? stable + 1 : 0;
    last_pending = pending;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  if (!cold->FlushPending() || !ckpt.Write(state)) {
    std::fprintf(stderr, "prepare: write failed\n");
    return 1;
  }
  accept.store(false);  // Finish()'s forced closes are not part of the state.
  pipeline.reset();
  const auto cs = cold->stats();
  std::printf("prepared %s: %zu records, %llu hot, %llu cold sessions\n", out.c_str(),
              stream.size(), static_cast<unsigned long long>(store->stats().sessions),
              static_cast<unsigned long long>(cs.sessions));
  return 0;
}

// ---------------------------------------------------------------------------
// firehose

int RunFirehose(const pb::Flags& flags, const std::string& out_dir) {
  const uint64_t seed = static_cast<uint64_t>(flags.Int("seed", 1));
  const int64_t seconds = flags.Int("seconds", 10);
  const bool trace = flags.Int("trace", 0) != 0;
  const Stream stream = BuildTable1Stream(seed);
  const Reference ref = RunReference(stream, false, pb::kFirehoseInactivityNs,
                                     stream.size(), seed);

  uint16_t port = 0;
  ts::FdGuard listen_fd(ts::ListenTcp("127.0.0.1", 0, &port));
  if (!listen_fd.valid()) {
    return 1;
  }
  std::printf("PORT %u\n", port);
  std::fflush(stdout);

  // One pass = one TS1 connection carrying the whole trace, then #EOS. Passes
  // repeat until `seconds` have elapsed; a final empty stream ends the run.
  FILE* passes = std::fopen((out_dir + "/passes.tsv").c_str(), "w");
  if (passes == nullptr) {
    return 1;
  }
  uint64_t failed = 0;
  int64_t first_start = 0;
  size_t pass = 0;
  for (;; ++pass) {
    ts::FdGuard conn(AcceptOne(listen_fd.get(), 120'000));
    if (!conn.valid() || ReadHello(conn.get()) != 0) {
      ++failed;
      break;
    }
    const int64_t t_first = NowNs();
    if (first_start == 0) {
      first_start = t_first;
    }
    const bool last = t_first - first_start >= seconds * ts::kNanosPerSecond;
    if (!last && !WriteAll(conn.get(), stream.wire)) {
      ++failed;
    }
    const int64_t t_last = NowNs();
    WriteAll(conn.get(), "#EOS\n");
    if (last) {
      break;
    }
    std::fprintf(passes, "%zu\t%lld\t%lld\n", pass, static_cast<long long>(t_first),
                 static_cast<long long>(t_last));
    // Wait for the SUT to close its side before the next accept.
    char c;
    while (::read(conn.get(), &c, 1) > 0) {
    }
  }
  std::fclose(passes);

  pb::Results r;
  r.Set("passes", static_cast<double>(pass));
  r.Set("trace_records", static_cast<double>(stream.size()));
  r.Set("ref_records", static_cast<double>(ref.records));
  r.Set("ref_sessions", static_cast<double>(ref.sessions.size()));
  r.SetHex("ref_xor_digest", ref.xor_digest);
  r.SetHex("ref_chained_digest", ref.ChainedDigest(false));
  r.Set("failed", static_cast<double>(failed));
  r.Set("trace_bytes", static_cast<double>(stream.wire.size()));
  if (trace) {
    r.Set("log.scan_ns_per_line", ScanNsPerLine(stream));
  }
  return r.Write(out_dir + "/gen.json") ? 0 : 1;
}

// ---------------------------------------------------------------------------
// Query replies (shared by live_tiered and history_query).

enum Verb { kGetHot, kGetCold, kFragments, kRange, kService, kTop, kNumVerbs };
const char* kVerbNames[kNumVerbs] = {"get_hot", "get_cold", "fragments",
                                     "range", "service", "topk"};

struct Expect {
  Verb verb = kGetCold;
  std::string request;            // Without '\n'.
  const std::string* bytes = nullptr;  // Exact reply expected (GET/FRAGMENTS/TOPK).
  int64_t count = -1;             // Exact #OK count expected (history RANGE/SERVICE).
  size_t limit = 0;               // Upper bound on the #OK count.
};

struct QueryStats {
  std::vector<double> latency_us[kNumVerbs];
  uint64_t sent = 0;
  uint64_t failed = 0;
  uint64_t reply_bytes = 0;

  void Merge(const QueryStats& o) {
    for (int v = 0; v < kNumVerbs; ++v) {
      latency_us[v].insert(latency_us[v].end(), o.latency_us[v].begin(),
                           o.latency_us[v].end());
    }
    sent += o.sent;
    failed += o.failed;
    reply_bytes += o.reply_bytes;
  }
  std::vector<double> All() const {
    std::vector<double> all;
    for (const auto& v : latency_us) {
      all.insert(all.end(), v.begin(), v.end());
    }
    return all;
  }
  void Report(pb::Results* r) const {
    for (int v = 0; v < kNumVerbs; ++v) {
      r->Set(std::string("query.") + kVerbNames[v] + "_us_p99",
             Percentile(latency_us[v], 0.99));
      r->Set(std::string("query.") + kVerbNames[v] + "_n",
             static_cast<double>(latency_us[v].size()));
    }
    const std::vector<double> all = All();
    r->Set("query_p50_us", Percentile(all, 0.5));
    r->Set("query_p99_us", Percentile(all, 0.99));
    r->Set("queries", static_cast<double>(all.size()));
    r->Set("query.reply_bytes_per_query",
           all.empty() ? 0 : static_cast<double>(reply_bytes) / static_cast<double>(all.size()));
  }
};

// Checks one complete reply (every line '\n'-terminated, ending in #OK/#ERR).
bool CheckReply(const Expect& e, const std::string& reply) {
  if (e.bytes != nullptr) {
    return reply == *e.bytes;
  }
  const size_t last = reply.rfind('\n', reply.size() - 2);
  const std::string tail = reply.substr(last == std::string::npos ? 0 : last + 1);
  if (tail.compare(0, 3, "#OK") != 0 || reply.find("\n#TRUNCATED\n") != std::string::npos ||
      reply.compare(0, 11, "#TRUNCATED\n") == 0) {
    return false;
  }
  const int64_t count = std::atoll(tail.c_str() + 3);
  // Entries: session blocks, or TOP lines for TOPK.
  const char* entry = e.verb == kTop ? "TOP " : ts::kSessionHeaderPrefix;
  int64_t headers = 0;
  for (size_t pos = 0; (pos = reply.find(entry, pos)) != std::string::npos; ++pos) {
    if (pos == 0 || reply[pos - 1] == '\n') {
      ++headers;
    }
  }
  if (headers != count || count > static_cast<int64_t>(e.limit)) {
    return false;
  }
  return e.count < 0 || count == e.count;
}

std::string ExpectedBlocks(const std::vector<const std::string*>& blocks) {
  std::string out;
  for (const std::string* b : blocks) {
    out += *b;
  }
  return out + ts::FormatOk(blocks.size()) + "\n";
}

// ---------------------------------------------------------------------------
// live_tiered

struct Conn {
  ts::FdGuard fd;
  ts::LineFramer framer;
  std::vector<std::string> lines;
  std::string out;
  size_t out_off = 0;

  // Non-blocking read; false on EOF/error.
  bool ReadAvailable() {
    char buf[64 << 10];
    for (;;) {
      const ssize_t n = ::recv(fd.get(), buf, sizeof(buf), MSG_DONTWAIT);
      if (n > 0) {
        framer.Feed(std::string_view(buf, static_cast<size_t>(n)), &lines);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EINTR)) {
        return true;
      }
      return false;
    }
  }
  void Flush() {
    while (out_off < out.size()) {
      const ssize_t n = ::send(fd.get(), out.data() + out_off, out.size() - out_off,
                               MSG_DONTWAIT | MSG_NOSIGNAL);
      if (n <= 0) {
        break;
      }
      out_off += static_cast<size_t>(n);
    }
    if (out_off == out.size()) {
      out.clear();
      out_off = 0;
    }
  }
};

int RunLive(const pb::Flags& flags, const std::string& out_dir) {
  const uint64_t seed = static_cast<uint64_t>(flags.Int("seed", 1));
  const int64_t seconds = flags.Int("seconds", 10);
  const bool trace = flags.Int("trace", 0) != 0;
  const size_t paced_begin = kLivePrefix + kLiveBacklog;
  const Stream stream =
      BuildSynthStream(seed, paced_begin,
                       seconds * ts::kNanosPerSecond);
  const size_t n = stream.size();
  const Reference ref =
      RunReference(stream, true, pb::kLiveInactivityNs, kLivePrefix, seed);

  // Armed closes: sessions retiring in the paced phase whose close trigger
  // also falls inside it, keyed by their final fragment.
  std::unordered_map<std::string, uint32_t> final_frag;
  for (const auto& s : ref.sessions) {
    auto [it, inserted] = final_frag.try_emplace(s.id, s.frag);
    if (!inserted) {
      it->second = std::max(it->second, s.frag);
    }
  }
  const std::vector<EventTime> prefix_max = PrefixMax(stream);
  std::vector<std::string> retire_key(n);  // Non-empty: arm at this index.
  size_t armable = 0;
  for (const auto& [id, index] : stream.retire_index) {
    if (index < paced_begin ||
        TriggerIndex(prefix_max, stream.time[index], pb::kLiveInactivityNs) >= n) {
      continue;
    }
    retire_key[index] = BlockKey(id, final_frag[id]);
    ++armable;
  }
  // Cold GET / FRAGMENTS targets: sampled sessions that retired in the first
  // half of the prefix — long evicted into the prepared cold tier, with every
  // fragment closed before the checkpoint.
  std::unordered_map<std::string, std::vector<const std::string*>> frags_of;
  std::vector<std::string> cold_keys;
  for (const auto& s : ref.sessions) {
    auto it = stream.retire_index.find(s.id);
    if (it == stream.retire_index.end() || it->second >= kLivePrefix / 2 ||
        !s.before_barrier) {
      continue;
    }
    auto b = ref.blocks.find(BlockKey(s.id, s.frag));
    if (b != ref.blocks.end()) {
      cold_keys.push_back(b->first);
      frags_of[s.id].push_back(&b->second);
    }
  }
  std::vector<std::string> cold_ids;
  std::map<std::string, std::string> fragments_reply;
  for (const auto& [id, blocks] : frags_of) {
    cold_ids.push_back(id);
    fragments_reply[id] = ExpectedBlocks(blocks);
  }
  std::unordered_map<std::string, std::string> get_reply;
  for (const auto& [key, block] : ref.blocks) {
    get_reply[key] = block + ts::FormatOk(1) + "\n";
  }
  if (cold_keys.empty() || cold_ids.empty()) {
    std::fprintf(stderr, "live: no cold targets\n");
    return 1;
  }

  uint16_t port = 0;
  ts::FdGuard listen_fd(ts::ListenTcp("127.0.0.1", 0, &port));
  if (!listen_fd.valid()) {
    return 1;
  }
  std::printf("PORT %u\n", port);
  std::fflush(stdout);
  const uint16_t qport = ReadQueryPort();
  uint64_t failed = 0;
  Conn ts1, sub, q;
  ts1.fd = ts::FdGuard(AcceptOne(listen_fd.get(), 60'000));
  const int64_t hello = ts1.fd.valid() ? ReadHello(ts1.fd.get()) : -1;
  if (hello != static_cast<int64_t>(kLivePrefix)) {
    std::fprintf(stderr, "live: SUT resumed at %lld, expected %zu\n",
                 static_cast<long long>(hello), kLivePrefix);
    return 1;
  }
  q.fd = ts::FdGuard(ConnectBlocking(qport));
  if (!q.fd.valid()) {
    return 1;
  }
  ::fcntl(ts1.fd.get(), F_SETFL, ::fcntl(ts1.fd.get(), F_GETFL) | O_NONBLOCK);

  // Subscriber state.
  std::unordered_map<std::string, int64_t> armed;  // key -> due of last record.
  std::unordered_set<std::string> resolved;
  std::vector<double> reaction_ms;
  uint64_t duplicates = 0, dropped = 0;
  size_t skip_lines = 0;
  std::deque<std::string> recent_hot;  // Pushed sampled sessions, newest last.
  auto handle_sub = [&](int64_t now) {
    for (const std::string& line : sub.lines) {
      if (skip_lines > 0) {
        --skip_lines;
        continue;
      }
      if (line.compare(0, 9, ts::kSessionHeaderPrefix) == 0) {
        unsigned frag = 0;
        size_t nrec = 0;
        char id[256];
        long long e1, e2, e3;
        if (std::sscanf(line.c_str() + 9, "%u %lld %lld %lld %zu %255s", &frag, &e1, &e2,
                        &e3, &nrec, id) != 6) {
          ++failed;
          continue;
        }
        skip_lines = nrec + 1;  // Records + #END.
        const std::string key = BlockKey(id, frag);
        auto it = armed.find(key);
        if (it != armed.end()) {
          reaction_ms.push_back(static_cast<double>(now - it->second - pb::kLiveInactivityNs) /
                                1e6);
          armed.erase(it);
          resolved.insert(key);
        } else if (resolved.count(key) != 0) {
          ++duplicates;
        }
        if (get_reply.count(key) != 0) {
          recent_hot.push_back(key);
          if (recent_hot.size() > 64) {
            recent_hot.pop_front();
          }
        }
      } else if (auto d = ts::ParseDropped(line)) {
        dropped += *d;
      }
    }
    sub.lines.clear();
  };

  // Query connection state.
  struct Outstanding {
    Expect expect;
    int64_t due = 0;
    bool stats_probe = false;
  };
  std::deque<Outstanding> outstanding;
  std::string reply;
  QueryStats qs;
  int64_t caught_records = -1;  // live_records from the last STATS probe.
  auto handle_q = [&](int64_t now) {
    for (const std::string& line : q.lines) {
      reply += line;
      reply.push_back('\n');
      if (line.compare(0, 3, "#OK") != 0 && line.compare(0, 4, "#ERR") != 0) {
        if (!outstanding.empty() && outstanding.front().stats_probe &&
            line.compare(0, 18, "STAT live_records ") == 0) {
          caught_records = std::atoll(line.c_str() + 18);
        }
        continue;
      }
      if (outstanding.empty()) {
        ++failed;
      } else {
        const Outstanding o = std::move(outstanding.front());
        outstanding.pop_front();
        if (!o.stats_probe) {
          qs.latency_us[o.expect.verb].push_back(static_cast<double>(now - o.due) / 1e3);
          qs.reply_bytes += reply.size();
          if (!CheckReply(o.expect, reply)) {
            if (qs.failed < 5) {
              std::fprintf(stderr, "bad reply to %s:\n%.600s\n", o.expect.request.c_str(),
                           reply.c_str());
            }
            ++qs.failed;
          }
        }
      }
      reply.clear();
    }
    q.lines.clear();
  };

  ts::Rng qrng(seed ^ 0x7175657279ull);
  ts::ArrivalSchedule qschedule(ts::ArrivalProcess::kPoisson, kLiveQueryRate,
                                seed ^ 0x71736368ull);
  // Every verb equally often: no production query mix is published for this
  // system, so none is favoured.
  auto make_query = [&](int64_t event_now) {
    Expect e;
    e.verb = static_cast<Verb>(qrng.NextBelow(kNumVerbs));
    if (e.verb == kGetHot && recent_hot.empty()) {
      e.verb = kGetCold;
    }
    switch (e.verb) {
      case kGetHot:
      case kGetCold: {
        const std::string& key = e.verb == kGetHot
                                     ? recent_hot.back()
                                     : cold_keys[qrng.NextBelow(cold_keys.size())];
        const size_t hash = key.rfind('#');
        e.request = "GET " + key.substr(0, hash) + " " + key.substr(hash + 1);
        e.bytes = &get_reply.at(key);
        break;
      }
      case kFragments: {
        const std::string& id = cold_ids[qrng.NextBelow(cold_ids.size())];
        e.request = "FRAGMENTS " + id;
        e.bytes = &fragments_reply.at(id);
        break;
      }
      case kRange: {
        const EventTime lo =
            ts::SessionSynth::kEventOrigin +
            static_cast<EventTime>(qrng.NextBelow(static_cast<uint64_t>(
                std::max<EventTime>(1, event_now - ts::SessionSynth::kEventOrigin))));
        e.request = "RANGE " + std::to_string(lo) + " " +
                    std::to_string(lo + 20 * ts::kNanosPerMilli) + " " +
                    std::to_string(kQueryLimit);
        e.limit = kQueryLimit;
        break;
      }
      case kService:
        e.request = "SERVICE " + std::to_string(qrng.NextBelow(64)) + " " +
                    std::to_string(kQueryLimit);
        e.limit = kQueryLimit;
        break;
      default:
        e.request = "TOPK " + std::to_string(kTopK);
        e.limit = kTopK;
        break;
    }
    return e;
  };

  std::vector<double> send_lateness_ms, query_lateness_ms;
  size_t peak_backlog = 0;
  size_t sent_end = kLivePrefix;   // Lines fully written.
  size_t due_end = kLivePrefix;    // Lines handed to the socket buffer.
  size_t wire_off = stream.begin_of(kLivePrefix);
  int64_t t_catch_begin = 0, t_caught = 0, t0 = 0;
  int64_t next_query_due = 0;
  int64_t last_probe = 0;
  const int64_t paced_origin = stream.offset_ns[paced_begin];
  bool paced_done = false;
  int64_t drain_deadline = 0;
  std::vector<int64_t> due_of;  // Due time of lines [paced_begin, n).
  due_of.reserve(n - paced_begin);

  auto send_ts1 = [&] {
    const size_t target = stream.end[due_end - 1];
    while (wire_off < target) {
      const ssize_t w = ::send(ts1.fd.get(), stream.wire.data() + wire_off, target - wire_off,
                               MSG_DONTWAIT | MSG_NOSIGNAL);
      if (w <= 0) {
        break;
      }
      wire_off += static_cast<size_t>(w);
    }
    const int64_t t = NowNs();
    while (sent_end < due_end && stream.end[sent_end] <= wire_off) {
      if (sent_end >= paced_begin) {
        const int64_t due = due_of[sent_end - paced_begin];
        send_lateness_ms.push_back(static_cast<double>(t - due) / 1e6);
        if (!retire_key[sent_end].empty()) {
          armed[retire_key[sent_end]] = due;
        }
      }
      ++sent_end;
    }
    peak_backlog = std::max(peak_backlog, target - wire_off);
  };

  // Phase 1: catch-up. The backlog since the checkpoint is replayed unpaced;
  // STATS probes tell when the SUT's shards have parsed all of it.
  t_catch_begin = NowNs();
  due_end = paced_begin;
  bool ok = true;
  while (ok && t_caught == 0) {
    const int64_t now = NowNs();
    send_ts1();
    if (sent_end == paced_begin && outstanding.empty() && now - last_probe > 1'000'000) {
      last_probe = now;
      Outstanding o;
      o.stats_probe = true;
      outstanding.push_back(o);
      q.out += "STATS\n";
      q.Flush();
    }
    const short ts1_events = wire_off < stream.end[due_end - 1] ? POLLOUT : 0;
    pollfd fds[2] = {{ts1.fd.get(), ts1_events, 0}, {q.fd.get(), POLLIN, 0}};
    ::poll(fds, 2, 1);
    const int64_t t = NowNs();
    ok = q.ReadAvailable();
    handle_q(t);
    if (caught_records >= static_cast<int64_t>(kLiveBacklog)) {
      t_caught = t;
    }
    if (t - t_catch_begin > 60 * ts::kNanosPerSecond) {
      std::fprintf(stderr, "live: catch-up never completed\n");
      return 1;
    }
  }
  while (!outstanding.empty() && ok) {  // Drain the last probe.
    pollfd p{q.fd.get(), POLLIN, 0};
    ::poll(&p, 1, 10);
    ok = q.ReadAvailable();
    handle_q(NowNs());
  }
  // The live subscriber (a dashboard) attaches once the restart has caught
  // up, so catch-up measures replay alone.
  sub.fd = ts::FdGuard(ConnectBlocking(qport));
  if (!sub.fd.valid() || !WriteAll(sub.fd.get(), "SUBSCRIBE\n")) {
    return 1;
  }
  while (ok && sub.lines.empty()) {
    pollfd p{sub.fd.get(), POLLIN, 0};
    ::poll(&p, 1, 100);
    ok = sub.ReadAvailable();
  }
  if (!ok || sub.lines.front() != ts::kSubscribedLine) {
    return 1;
  }
  sub.lines.clear();

  // Phase 2: paced open loop. Record i is due at t0 + (offset_i - origin)
  // and is written as soon as it is due, as src/loadgen's LoadGenerator
  // does. Queries fall due on their own Poisson schedule from t0 and go out
  // the way a QueryClient sends them: one request in flight, the next when
  // its reply is complete. Queries due meanwhile wait here, and their
  // latency still runs from their due time.
  std::deque<Outstanding> queued;
  t0 = NowNs();
  peak_backlog = 0;  // Catch-up queues the whole backlog by design.
  for (size_t i = paced_begin; i < n; ++i) {
    due_of.push_back(t0 + (stream.offset_ns[i] - paced_origin));
  }
  next_query_due = t0 + qschedule.NextNs();
  const int64_t end_due = due_of.back();
  while (ok) {
    const int64_t now = NowNs();
    while (due_end < n && due_of[due_end - paced_begin] <= now) {
      ++due_end;
    }
    send_ts1();
    while (!paced_done && next_query_due <= now) {
      Outstanding o;
      const size_t idx = std::min(n - 1, std::max(paced_begin, due_end) - 1);
      o.expect = make_query(stream.time[idx]);
      o.due = next_query_due;
      query_lateness_ms.push_back(static_cast<double>(now - o.due) / 1e6);
      queued.push_back(std::move(o));
      ++qs.sent;
      next_query_due = t0 + qschedule.NextNs();
    }
    if (outstanding.empty() && !queued.empty()) {
      q.out += queued.front().expect.request;
      q.out.push_back('\n');
      outstanding.push_back(std::move(queued.front()));
      queued.pop_front();
    }
    q.Flush();
    if (!paced_done && sent_end == n && now >= end_due) {
      paced_done = true;
      drain_deadline = now + 5 * ts::kNanosPerSecond;
    }
    if (paced_done &&
        ((armed.empty() && outstanding.empty() && queued.empty()) || now > drain_deadline)) {
      break;
    }
    const int64_t wake =
        paced_done ? now + 2'000'000
                   : std::min(next_query_due, due_end < n ? due_of[due_end - paced_begin]
                                                          : INT64_MAX);
    const int64_t wait_ns = std::max<int64_t>(0, wake - now);
    const timespec ts_wait{static_cast<time_t>(wait_ns / ts::kNanosPerSecond),
                           static_cast<long>(wait_ns % ts::kNanosPerSecond)};
    const short ts1_events = wire_off < stream.end[due_end - 1] ? POLLOUT : 0;
    const short q_events = POLLIN | (q.out.empty() ? 0 : POLLOUT);
    pollfd fds[3] = {{ts1.fd.get(), ts1_events, 0}, {sub.fd.get(), POLLIN, 0},
                     {q.fd.get(), q_events, 0}};
    ::ppoll(fds, 3, &ts_wait, nullptr);
    const int64_t t = NowNs();
    ok = sub.ReadAvailable() && q.ReadAvailable();
    handle_sub(t);
    handle_q(t);
  }
  const uint64_t missing = armed.size();
  const uint64_t unanswered = outstanding.size() + queued.size();
  ::fcntl(ts1.fd.get(), F_SETFL, ::fcntl(ts1.fd.get(), F_GETFL) & ~O_NONBLOCK);
  if (!ok || !WriteAll(ts1.fd.get(), "#EOS\n")) {
    ++failed;
  }
  sub.fd.Close();
  q.fd.Close();
  ts1.fd.Close();

  pb::Results r;
  r.Set("ops_per_s", static_cast<double>(kLiveBacklog) /
                         (static_cast<double>(t_caught - t_catch_begin) / 1e9));
  r.Set("latency_p50_ms", Percentile(reaction_ms, 0.5));
  r.Set("latency_tail_ms", Percentile(reaction_ms, kLiveTail));
  r.Set("latency_n", static_cast<double>(reaction_ms.size()));
  r.Set("closes_armed", static_cast<double>(armable));
  r.Set("closes_missing", static_cast<double>(missing));
  r.Set("closes_duplicate", static_cast<double>(duplicates));
  r.Set("query.subscriber_dropped", static_cast<double>(dropped));
  r.Set("records_sent", static_cast<double>(n - kLivePrefix));
  r.Set("queries_sent", static_cast<double>(qs.sent));
  r.Set("queries_failed", static_cast<double>(qs.failed + unanswered));
  qs.Report(&r);
  r.Set("gen.send_lateness_ms_p99", Percentile(send_lateness_ms, 0.99));
  r.Set("gen.query_lateness_ms_p99", Percentile(query_lateness_ms, 0.99));
  r.Set("gen.peak_backlog_mb", static_cast<double>(peak_backlog) / (1 << 20));
  r.Set("failed", static_cast<double>(failed + missing + duplicates + dropped +
                                      qs.failed + unanswered));
  r.Set("attempted", static_cast<double>(armable + qs.sent + 1));
  r.Set("ref_sessions", static_cast<double>(ref.sessions.size()));
  r.SetHex("ref_tiered_digest", ref.ChainedDigest(false));
  if (trace) {
    r.Set("log.scan_ns_per_line", ScanNsPerLine(stream));
    r.Set("parse.mine_ns_per_line", MineNsPerLine(stream, paced_begin));
  }
  return r.Write(out_dir + "/gen.json") ? 0 : 1;
}

// ---------------------------------------------------------------------------
// history_query

int RunHistory(const pb::Flags& flags, const std::string& out_dir) {
  const uint64_t seed = static_cast<uint64_t>(flags.Int("seed", 1));
  const int64_t seconds = flags.Int("seconds", 10);
  const bool trace = flags.Int("trace", 0) != 0;
  const Stream stream =
      BuildSynthStream(seed, kHistoryPrefix, 0);
  const Reference ref =
      RunReference(stream, true, pb::kLiveInactivityNs, stream.size(), seed);

  // The queryable state: sessions closed before the checkpoint barrier.
  std::vector<const RefSession*> closed;
  for (const auto& s : ref.sessions) {
    if (s.before_barrier) {
      closed.push_back(&s);
    }
  }
  // Hot / cold labels from insertion order: the newest sessions within half
  // the hot budget are surely hot; everything older than twice it, cold.
  size_t from_end = 0, hot_begin = closed.size(), cold_end = closed.size();
  for (size_t i = closed.size(); i-- > 0;) {
    from_end += closed[i]->bytes;
    if (from_end <= pb::kHistoryHotBytes / 2) {
      hot_begin = i;
    }
    if (from_end <= 2 * pb::kHistoryHotBytes) {
      cold_end = i;
    }
  }
  std::unordered_map<std::string, std::string> get_reply;
  std::map<std::string, std::vector<const std::string*>> frags_of;
  std::vector<std::string> hot_keys, cold_keys;
  std::unordered_set<std::string> open_ids;  // Ids with a fragment still open.
  for (const auto& s : ref.sessions) {
    if (!s.before_barrier) {
      open_ids.insert(s.id);
    }
  }
  for (size_t i = 0; i < closed.size(); ++i) {
    const RefSession& s = *closed[i];
    const std::string key = BlockKey(s.id, s.frag);
    auto b = ref.blocks.find(key);
    if (b == ref.blocks.end()) {
      continue;
    }
    get_reply[key] = b->second + ts::FormatOk(1) + "\n";
    if (i >= hot_begin) {
      hot_keys.push_back(key);
    } else if (i < cold_end) {
      cold_keys.push_back(key);
      frags_of[s.id].push_back(&b->second);
    }
  }
  std::vector<std::string> cold_ids;
  std::unordered_map<std::string, std::string> fragments_reply;
  // FRAGMENTS returns every stored fragment of an id: target only ids with no
  // fragment still open and every closed fragment in the cold range.
  std::unordered_map<std::string, size_t> fragment_count;
  for (const RefSession* s : closed) {
    ++fragment_count[s->id];
  }
  for (const auto& [id, blocks] : frags_of) {
    if (open_ids.count(id) == 0 && fragment_count[id] == blocks.size()) {
      cold_ids.push_back(id);
      fragments_reply[id] = ExpectedBlocks(blocks);
    }
  }
  // RANGE / SERVICE / TOPK pools with exact expected answers.
  std::vector<Expect> range_pool, service_pool;
  ts::Rng prng(seed ^ 0x706f6f6cull);
  const EventTime t_lo = ts::SessionSynth::kEventOrigin;
  const EventTime t_hi = stream.time.back();
  for (int i = 0; i < 256; ++i) {
    const EventTime lo = t_lo + static_cast<EventTime>(prng.NextBelow(
                                    static_cast<uint64_t>(t_hi - t_lo)));
    const EventTime hi = lo + 20 * ts::kNanosPerMilli;
    int64_t count = 0;
    for (const RefSession* s : closed) {
      count += (s->min_time < hi && s->max_time >= lo) ? 1 : 0;
    }
    Expect e;
    e.verb = kRange;
    e.request = "RANGE " + std::to_string(lo) + " " + std::to_string(hi) + " " +
                std::to_string(kQueryLimit);
    e.limit = kQueryLimit;
    e.count = std::min<int64_t>(count, kQueryLimit);
    range_pool.push_back(std::move(e));
  }
  std::map<uint32_t, int64_t> per_service;
  for (const RefSession* s : closed) {
    for (uint32_t svc : s->services) {
      ++per_service[svc];
    }
  }
  for (uint32_t svc = 0; svc < 64; ++svc) {
    Expect e;
    e.verb = kService;
    e.request = "SERVICE " + std::to_string(svc) + " " + std::to_string(kQueryLimit);
    e.limit = kQueryLimit;
    e.count = std::min<int64_t>(per_service.count(svc) ? per_service[svc] : 0, kQueryLimit);
    service_pool.push_back(std::move(e));
  }
  std::vector<std::pair<uint32_t, int64_t>> ranked(per_service.begin(), per_service.end());
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  std::string topk_reply;
  const size_t k = std::min(kTopK, ranked.size());
  for (size_t i = 0; i < k; ++i) {
    topk_reply += "TOP " + std::to_string(ranked[i].first) + " " +
                  std::to_string(ranked[i].second) + "\n";
  }
  topk_reply += ts::FormatOk(k) + "\n";
  if (hot_keys.empty() || cold_keys.empty() || cold_ids.empty()) {
    std::fprintf(stderr, "history: empty target pools\n");
    return 1;
  }

  std::printf("PORT 0\n");
  std::fflush(stdout);
  const uint16_t qport = ReadQueryPort();
  if (qport == 0) {
    return 1;
  }

  // Closed loop: each client sends its next request when the previous reply
  // is complete. Verb mix weighted toward cold point reads.
  const double weights[kNumVerbs] = {0.1, 0.35, 0.2, 0.15, 0.15, 0.05};
  std::atomic<uint64_t> transport_failures{0};
  const int64_t t_start = NowNs();
  const int64_t t_stop = t_start + seconds * ts::kNanosPerSecond;
  auto client = [&](int index, QueryStats* stats) {
    ts::FdGuard fd(ConnectBlocking(qport));
    if (!fd.valid()) {
      transport_failures.fetch_add(1);
      return;
    }
    ts::Rng rng(seed ^ (0x636c69656e74ull + static_cast<uint64_t>(index)));
    ts::LineFramer framer;
    std::vector<std::string> lines;
    std::string reply;
    char buf[64 << 10];
    while (NowNs() < t_stop) {
      double u = rng.NextDouble();
      int v = 0;
      while (v + 1 < kNumVerbs && u >= weights[v]) {
        u -= weights[v];
        ++v;
      }
      Expect e;
      e.verb = static_cast<Verb>(v);
      switch (e.verb) {
        case kGetHot:
        case kGetCold: {
          const auto& pool = e.verb == kGetHot ? hot_keys : cold_keys;
          const std::string& key = pool[rng.NextBelow(pool.size())];
          const size_t hash = key.rfind('#');
          e.request = "GET " + key.substr(0, hash) + " " + key.substr(hash + 1);
          e.bytes = &get_reply.at(key);
          break;
        }
        case kFragments: {
          const std::string& id = cold_ids[rng.NextBelow(cold_ids.size())];
          e.request = "FRAGMENTS " + id;
          e.bytes = &fragments_reply.at(id);
          break;
        }
        case kRange:
          e = range_pool[rng.NextBelow(range_pool.size())];
          break;
        case kService:
          e = service_pool[rng.NextBelow(service_pool.size())];
          break;
        default:
          e.request = "TOPK " + std::to_string(kTopK);
          e.bytes = &topk_reply;
          break;
      }
      e.request.push_back('\n');
      const int64_t t_send = NowNs();
      if (!WriteAll(fd.get(), e.request)) {
        transport_failures.fetch_add(1);
        return;
      }
      ++stats->sent;
      reply.clear();
      bool done = false;
      while (!done) {
        pollfd p{fd.get(), POLLIN, 0};
        if (::poll(&p, 1, 10'000) != 1) {
          ++stats->failed;  // Timeout.
          return;
        }
        const ssize_t r = ::read(fd.get(), buf, sizeof(buf));
        if (r <= 0) {
          ++stats->failed;  // Short reply.
          return;
        }
        framer.Feed(std::string_view(buf, static_cast<size_t>(r)), &lines);
        for (const auto& line : lines) {
          reply += line;
          reply.push_back('\n');
          if (line.compare(0, 3, "#OK") == 0 || line.compare(0, 4, "#ERR") == 0) {
            done = true;
          }
        }
        lines.clear();
      }
      const int64_t t_done = NowNs();
      stats->latency_us[e.verb].push_back(static_cast<double>(t_done - t_send) / 1e3);
      stats->reply_bytes += reply.size();
      if (!CheckReply(e, reply)) {
        ++stats->failed;
      }
    }
  };
  QueryStats stats[2];
  std::thread second(client, 1, &stats[1]);
  client(0, &stats[0]);
  second.join();
  const double elapsed = static_cast<double>(NowNs() - t_start) / 1e9;
  stats[0].Merge(stats[1]);
  const std::vector<double> all = stats[0].All();

  pb::Results r;
  stats[0].Report(&r);
  r.Set("ops_per_s", static_cast<double>(all.size()) / elapsed);
  r.Set("latency_p50_ms", Percentile(all, 0.5) / 1e3);
  r.Set("latency_tail_ms", Percentile(all, kHistoryTail) / 1e3);
  r.Set("latency_n", static_cast<double>(all.size()));
  r.Set("queries_sent", static_cast<double>(stats[0].sent));
  r.Set("queries_failed", static_cast<double>(stats[0].failed));
  r.Set("failed", static_cast<double>(stats[0].failed + transport_failures.load()));
  r.Set("attempted", static_cast<double>(stats[0].sent));
  r.Set("hot_targets", static_cast<double>(hot_keys.size()));
  r.Set("cold_targets", static_cast<double>(cold_keys.size()));
  r.Set("ref_sessions", static_cast<double>(closed.size()));
  r.Set("gen.send_lateness_ms_p99", 0);
  r.Set("gen.query_lateness_ms_p99", 0);
  r.Set("gen.peak_backlog_mb", 0);
  r.Set("query.subscriber_dropped", 0);
  if (trace) {
    r.Set("log.scan_ns_per_line", ScanNsPerLine(stream));
    r.Set("parse.mine_ns_per_line", MineNsPerLine(stream, 0));
  }
  return r.Write(out_dir + "/gen.json") ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const pb::Flags flags(argc, argv);
  if (flags.positional().empty()) {
    std::fprintf(stderr, "usage: pb_gen prepare|run --workload=W --seed=N ...\n");
    return 2;
  }
  const std::string mode = flags.positional()[0];
  if (mode == "prepare") {
    return Prepare(flags);
  }
  const std::string workload = flags.Str("workload");
  const std::string out_dir = flags.Str("out");
  if (mode != "run" || out_dir.empty()) {
    return 2;
  }
  if (workload == "firehose") {
    return RunFirehose(flags, out_dir);
  }
  if (workload == "live_tiered") {
    return RunLive(flags, out_dir);
  }
  if (workload == "history_query") {
    return RunHistory(flags, out_dir);
  }
  std::fprintf(stderr, "unknown workload %s\n", workload.c_str());
  return 2;
}
