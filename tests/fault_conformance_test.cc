// Crash/recovery conformance suite: the production ingest path — LogServer
// over real TCP -> SocketIngestSource::PollBlock -> LivePipeline::FeedBlock
// (sharded) -> SessionStore, inside a LiveService for the transport-fault
// schedules — run under hundreds of seeded fault schedules, asserting the
// closed-session multiset digest and the chained store-query digest are
// byte-identical to a fault-free run, and that every archive record arrived
// exactly once (client records_in == archive size: no loss, no duplicates).
// The kill -9 schedules wire pipeline + store by hand, because they abandon
// a live process mid-batch.
//
// Every schedule is a FaultPlan drawn from a seed; a failing run prints the
// seed and both plan texts, which replay the exact schedule (see
// docs/FAULT_TESTING.md). The exploratory lane reads TS_FAULT_SEED from the
// environment (CI passes $GITHUB_RUN_ID) and writes the failing plan to
// TS_FAULT_ARTIFACT so the run can be attached to a bug.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/analytics/session_digest.h"
#include "src/analytics/session_store.h"
#include "src/ckpt/checkpointer.h"
#include "src/ckpt/live_checkpoint.h"
#include "src/common/rng.h"
#include "src/core/live_pipeline.h"
#include "src/fault/fault_plan.h"
#include "src/fault/scripted_injector.h"
#include "src/log/wire_format.h"
#include "src/net/log_server.h"
#include "src/net/socket_ingest.h"
#include "src/service/live_service.h"
#include "src/store/cold_tier.h"
#include "src/store/tiered_digest.h"
#include "src/workload/generator.h"
#include "tests/socket_drain.h"

namespace ts {
namespace {

std::shared_ptr<std::vector<std::string>> MakeArchive(double records_per_sec,
                                                      EventTime seconds,
                                                      bool free_text = false) {
  GeneratorConfig config;
  config.seed = 99;
  config.duration_ns = seconds * kNanosPerSecond;
  config.target_records_per_sec = records_per_sec;
  config.free_text_payloads = free_text;
  TraceGenerator gen(config);
  auto lines = std::make_shared<std::vector<std::string>>();
  Epoch epoch = 0;
  std::vector<LogRecord> records;
  while (gen.NextEpoch(&epoch, &records)) {
    for (const auto& r : records) {
      lines->push_back(ToWireFormat(r));
    }
  }
  return lines;
}

// Exploratory-lane width: the per-PR CI job runs the base schedule count;
// the nightly soak sets TS_FAULT_SCHEDULE_MULTIPLIER (e.g. 5) to sweep a
// proportionally larger region of the schedule space per seed. Clamped so a
// typo'd value cannot wedge the lane past its ctest timeout.
uint64_t ScheduleMultiplier() {
  const char* text = std::getenv("TS_FAULT_SCHEDULE_MULTIPLIER");
  if (text == nullptr || *text == '\0') {
    return 1;
  }
  const uint64_t value = std::strtoull(text, nullptr, 10);
  return value < 1 ? 1 : (value > 20 ? 20 : value);
}

uint64_t WireBytes(const std::vector<std::string>& lines) {
  uint64_t total = 0;
  for (const auto& l : lines) {
    total += l.size() + 1;
  }
  return total;
}

struct RunResult {
  bool eos = false;
  uint64_t records_in = 0;
  uint64_t parse_failures = 0;
  uint64_t sessions = 0;
  uint64_t session_digest = 0;
  uint64_t store_digest = 0;
  uint64_t reconnects = 0;
  uint64_t templates = 0;        // Learned templates (mining lanes only).
  uint64_t template_digest = 0;  // FNV over the sorted (id, hits, text) dump.
};

// FNV-1a over the full template dictionary: any drift in template ids, hit
// counts, or learned text between two runs changes this value.
uint64_t TemplateDictionaryDigest(const std::vector<TemplateInfo>& dict) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const std::string& s) {
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
    h ^= '\n';
    h *= 1099511628211ull;
  };
  for (const auto& t : dict) {
    mix(std::to_string(t.id) + " " + std::to_string(t.hits) + " " + t.text);
  }
  return h;
}

// The determinism contract's reference point: the same lines fed straight
// into the pipeline, no sockets, no faults.
RunResult RunInMemory(const std::vector<std::string>& lines,
                      bool mine = false) {
  RunResult result;
  SessionStore::Options store_options;
  store_options.max_bytes = 1ull << 30;
  SessionStore store(store_options);
  std::mutex mu;
  std::set<std::string> ids;

  LivePipelineOptions options;
  options.workers = 2;
  options.mine_templates = mine;
  LivePipeline pipeline(options, [&](Session&& s) {
    thread_local std::string scratch;
    const uint64_t d = SessionDigest(s, &scratch);
    {
      std::lock_guard<std::mutex> lock(mu);
      result.session_digest ^= d;
      ids.insert(s.id);
    }
    store.Insert(std::move(s));
  });
  pipeline.FeedBlock(CopyToLineBlock(lines));
  pipeline.Finish();

  result.eos = true;
  result.records_in = pipeline.records();
  result.parse_failures = pipeline.parse_failures();
  result.sessions = pipeline.sessions_closed();
  result.store_digest = ChainedStoreDigest(store, ids);
  const auto dict = pipeline.TemplateSnapshot();
  result.templates = dict.size();
  result.template_digest = TemplateDictionaryDigest(dict);
  return result;
}

// One conformance run: serve `lines` through a fault-injected LogServer into
// a LiveService — the object ts_sessionize --serve runs — whose ingest client
// carries the client-side injector, and digest what it stores.
RunResult RunOverFaultyTransport(
    std::shared_ptr<const std::vector<std::string>> lines,
    const FaultPlan& client_plan, const FaultPlan& server_plan,
    bool mine = false) {
  RunResult result;
  ScriptedInjector client_injector(client_plan);
  ScriptedInjector server_injector(server_plan);

  LogServerOptions server_options;
  server_options.fault_injector = &server_injector;
  LogServer server(server_options, lines);
  EXPECT_TRUE(server.Start());
  std::thread server_thread([&server] { server.Run(); });

  std::mutex mu;
  std::set<std::string> ids;
  LiveServiceOptions options;
  options.pipeline.workers = 2;
  options.pipeline.mine_templates = mine;
  options.store.max_bytes = 1ull << 30;
  options.ingest.port = server.port();
  options.ingest.backoff_base_ms = 1;
  options.ingest.backoff_max_ms = 20;
  options.ingest.attempt_limit = 0;  // The plan decides when connects work.
  options.ingest.fault_injector = &client_injector;
  options.on_session = [&](const Session& s) {
    thread_local std::string scratch;
    const uint64_t d = SessionDigest(s, &scratch);
    std::lock_guard<std::mutex> lock(mu);
    result.session_digest ^= d;
    ids.insert(s.id);
  };
  LiveService service(std::move(options));
  EXPECT_TRUE(service.Start());
  result.eos = service.Ingest();
  service.Stop();
  server.Stop();
  server_thread.join();

  const LivePipeline& pipeline = service.pipeline();
  result.records_in = service.source().stats().Snapshot().records_in;
  result.reconnects = service.source().stats().Snapshot().reconnects;
  result.parse_failures = pipeline.parse_failures();
  result.sessions = pipeline.sessions_closed();
  result.store_digest = ChainedStoreDigest(*service.store(), ids);
  const auto dict = pipeline.TemplateSnapshot();
  result.templates = dict.size();
  result.template_digest = TemplateDictionaryDigest(dict);
  return result;
}

class FaultConformance : public ::testing::Test {
 protected:
  // One shared archive and fault-free baseline across all seeds: building
  // them once keeps 200+ schedules inside the suite's time budget.
  static void SetUpTestSuite() {
    archive_ = new std::shared_ptr<std::vector<std::string>>(
        MakeArchive(/*records_per_sec=*/2'000, /*seconds=*/2));
    baseline_ = new RunResult(RunInMemory(**archive_));
    ASSERT_GT((*archive_)->size(), 2'000u);
    ASSERT_GT(baseline_->sessions, 0u);
    ASSERT_EQ(baseline_->parse_failures, 0u);
  }
  static void TearDownTestSuite() {
    delete archive_;
    delete baseline_;
    archive_ = nullptr;
    baseline_ = nullptr;
  }

  static const std::vector<std::string>& archive() { return **archive_; }
  static std::shared_ptr<const std::vector<std::string>> archive_ptr() {
    return *archive_;
  }
  static const RunResult& baseline() { return *baseline_; }

  // Runs one seeded schedule and asserts full conformance: graceful end,
  // exactly-once delivery, zero parse failures, identical digests.
  void CheckSeed(uint64_t seed, const std::string& profile) {
    FaultProfile resolved;
    ASSERT_TRUE(
        FaultPlan::ResolveProfile(profile, WireBytes(archive()), &resolved));
    // Independent schedules for the two sides of the connection; both derive
    // from `seed` so one number replays the pair.
    const FaultPlan client_plan =
        FaultPlan::FromSeed(seed * 2 + 1, profile, resolved);
    const FaultPlan server_plan =
        FaultPlan::FromSeed(seed * 2 + 2, profile, resolved);
    const std::string replay = "seed " + std::to_string(seed) +
                               " — replay with:\n--- client plan ---\n" +
                               client_plan.ToText() + "--- server plan ---\n" +
                               server_plan.ToText();

    const RunResult run =
        RunOverFaultyTransport(archive_ptr(), client_plan, server_plan);
    ASSERT_TRUE(run.eos) << replay;
    EXPECT_EQ(run.records_in, archive().size()) << replay;
    EXPECT_EQ(run.parse_failures, 0u) << replay;
    EXPECT_EQ(run.sessions, baseline().sessions) << replay;
    EXPECT_EQ(run.session_digest, baseline().session_digest) << replay;
    EXPECT_EQ(run.store_digest, baseline().store_digest) << replay;
  }

 private:
  static std::shared_ptr<std::vector<std::string>>* archive_;
  static RunResult* baseline_;
};

std::shared_ptr<std::vector<std::string>>* FaultConformance::archive_ = nullptr;
RunResult* FaultConformance::baseline_ = nullptr;

TEST_F(FaultConformance, FaultFreeTransportMatchesInMemory) {
  // Schedule zero: empty plans. The socket path with injectors wired but
  // firing nothing must already match the in-memory reference.
  const RunResult run =
      RunOverFaultyTransport(archive_ptr(), FaultPlan{}, FaultPlan{});
  ASSERT_TRUE(run.eos);
  EXPECT_EQ(run.records_in, archive().size());
  EXPECT_EQ(run.reconnects, 0u);
  EXPECT_EQ(run.session_digest, baseline().session_digest);
  EXPECT_EQ(run.store_digest, baseline().store_digest);
}

TEST_F(FaultConformance, HundredMildSchedules) {
  for (uint64_t seed = 0; seed < 100; ++seed) {
    CheckSeed(seed, "mild");
    if (HasFatalFailure() || HasNonfatalFailure()) {
      return;  // The replay banner already names the seed.
    }
  }
}

TEST_F(FaultConformance, HundredAggressiveSchedules) {
  for (uint64_t seed = 100; seed < 200; ++seed) {
    CheckSeed(seed, "aggressive");
    if (HasFatalFailure() || HasNonfatalFailure()) {
      return;
    }
  }
}

TEST_F(FaultConformance, CorruptingSchedulesSurviveWithAccounting) {
  // Corruption legitimately changes bytes, so digest identity is out; the
  // contract here is weaker but still sharp: the pipeline neither crashes
  // nor wedges, the stream still ends in #EOS, nothing is double-counted
  // (records_in never exceeds the archive: corruption can only merge lines,
  // the '\n' guard means it cannot split them), and every corrupted byte is
  // visible in the injector's accounting.
  for (uint64_t seed = 500; seed < 510; ++seed) {
    FaultProfile resolved;
    ASSERT_TRUE(FaultPlan::ResolveProfile("corrupting", WireBytes(archive()),
                                          &resolved));
    const FaultPlan client_plan =
        FaultPlan::FromSeed(seed * 2 + 1, "corrupting", resolved);
    const RunResult run = RunOverFaultyTransport(archive_ptr(), client_plan,
                                                 FaultPlan{});
    ASSERT_TRUE(run.eos) << "seed " << seed << "\n" << client_plan.ToText();
    // Each corrupted byte can destroy at most one record framing (merging
    // two lines by hitting their '\n') or damage one control line (a mangled
    // #EOS is counted as a record), so the delivered count can drift from
    // the archive by at most the corruption budget in either direction.
    uint64_t corrupt_budget = 0;
    for (const auto& event : client_plan.events) {
      if (event.type == FaultType::kCorrupt) {
        corrupt_budget += event.arg;
      }
    }
    EXPECT_LE(run.records_in, archive().size() + corrupt_budget)
        << "seed " << seed;
    EXPECT_GE(run.records_in + corrupt_budget, archive().size())
        << "seed " << seed;
  }
}

// --- Deterministic severing (satellite S2) ---
//
// Server-side injector byte offsets count exactly the archive bytes written
// to the socket (hellos arrive on the recv path, which is not hooked on the
// server), so `at` offsets computed from line lengths sever the connection
// precisely on — or precisely inside — a chosen record.

class FaultBoundary : public ::testing::Test {
 protected:
  static uint64_t OffsetAfterRecords(const std::vector<std::string>& lines,
                                     size_t n) {
    uint64_t off = 0;
    for (size_t i = 0; i < n && i < lines.size(); ++i) {
      off += lines[i].size() + 1;
    }
    return off;
  }

  // Serves `lines` through a server whose plan kills at byte `kill_at`,
  // returns what one client sees end-to-end.
  static void RunWithServerKill(
      std::shared_ptr<const std::vector<std::string>> lines, uint64_t kill_at,
      size_t max_conn_buffer_bytes, std::vector<std::string>* received,
      uint64_t* reconnects, uint64_t* resumes) {
    FaultPlan plan;
    plan.events.push_back({FaultType::kKill, kill_at, 0});
    ScriptedInjector server_injector(plan);

    LogServerOptions server_options;
    server_options.fault_injector = &server_injector;
    server_options.max_conn_buffer_bytes = max_conn_buffer_bytes;
    LogServer server(server_options, lines);
    ASSERT_TRUE(server.Start());
    std::thread server_thread([&server] { server.Run(); });

    SocketIngestOptions client_options;
    client_options.port = server.port();
    client_options.backoff_base_ms = 1;
    client_options.backoff_max_ms = 20;
    SocketIngestSource client(client_options);
    ASSERT_TRUE(DrainLines(client, received));
    server.Stop();
    server_thread.join();

    *reconnects = client.stats().Snapshot().reconnects;
    *resumes = server.stats().Snapshot().resumes;
    EXPECT_EQ(server_injector.counters().kills, 1u);
  }
};

TEST_F(FaultBoundary, KillExactlyOnRecordBoundaryResumesExactlyOnce) {
  auto archive = MakeArchive(2'000, 1);
  ASSERT_GT(archive->size(), 100u);
  // Sever after record 49's trailing newline: the framer holds no partial
  // line, and the resume hello must ask for offset 50 exactly.
  const uint64_t cut = OffsetAfterRecords(*archive, 50);

  std::vector<std::string> received;
  uint64_t reconnects = 0, resumes = 0;
  RunWithServerKill(archive, cut, /*max_conn_buffer_bytes=*/256 << 10,
                    &received, &reconnects, &resumes);
  EXPECT_EQ(received, *archive);  // Exactly once, in order.
  EXPECT_EQ(reconnects, 1u);
  EXPECT_EQ(resumes, 1u);
}

TEST_F(FaultBoundary, KillMidRecordWithPartiallyFlushedBufferResumes) {
  auto archive = MakeArchive(2'000, 1);
  ASSERT_GT(archive->size(), 100u);
  // Sever in the middle of record 50, with a tiny send buffer so the server
  // is mid-flush (dozens of partial writes in flight) when the kill lands.
  // The client's framer must drop the truncated tail and resume at 50.
  const uint64_t cut =
      OffsetAfterRecords(*archive, 50) + (*archive)[50].size() / 2;

  std::vector<std::string> received;
  uint64_t reconnects = 0, resumes = 0;
  RunWithServerKill(archive, cut, /*max_conn_buffer_bytes=*/512, &received,
                    &reconnects, &resumes);
  EXPECT_EQ(received, *archive);  // The half-sent record arrives exactly once.
  EXPECT_EQ(reconnects, 1u);
  EXPECT_EQ(resumes, 1u);
}

// --- Full-process crash/recovery schedules (ts_ckpt) ---
//
// Each schedule simulates kill -9 + restart of the sessionizer process while
// the log server stays up: an "incarnation" builds a fresh Checkpointer,
// SessionStore, LivePipeline, and SocketIngestSource, restores the newest
// valid snapshot, resumes the stream from its offset, then — at a seeded
// absolute record position, possibly mid-batch — abandons everything without
// any shutdown checkpoint (in-flight state is simply lost, like SIGKILL).
// Checkpoints are taken on a seeded record cadence; the worker count is
// re-drawn per incarnation, so restores also cross shard layouts. The final
// incarnation's digests must match the fault-free in-memory baseline exactly.

struct CrashRunResult {
  RunResult run;
  int incarnations = 0;
  int crashes = 0;
  uint64_t snapshots_written = 0;
  uint64_t replayed_duplicates = 0;  // Closed sessions already in the store.
};

// One full kill-9/restart schedule against `archive_lines`. With `mine` set
// every incarnation runs the template miner, each snapshot carries its state
// ('T' frame), and the restore must resume mining exactly where the snapshot
// left off — the final dictionary digest is asserted against a fault-free run.
CrashRunResult RunCrashSchedule(
    std::shared_ptr<std::vector<std::string>> archive_lines, uint64_t seed,
    bool mine) {
  CrashRunResult out;
  Rng rng(seed ^ 0xCDB4D88C6A2E9C01ULL);
  const uint64_t total = archive_lines->size();

  const std::string dir = ::testing::TempDir() + "ts_crash_" +
                          std::to_string(::getpid()) + "_" +
                          (mine ? "m" : "p") + std::to_string(seed);
  const std::string cleanup = "rm -rf '" + dir + "'";
  EXPECT_EQ(std::system(cleanup.c_str()), 0);

  LogServerOptions server_options;
  LogServer server(server_options, archive_lines);
  EXPECT_TRUE(server.Start());
  std::thread server_thread([&server] { server.Run(); });

  // 1-3 kills per schedule, then the last incarnation runs to EOS. A hard
  // incarnation cap guards against a restore bug looping forever.
  int crashes_left = 1 + static_cast<int>(rng.NextBelow(3));
  bool eos = false;
  for (int incarnation = 0; incarnation < 16 && !eos; ++incarnation) {
    ++out.incarnations;

    CheckpointerOptions ckpt_options;
    ckpt_options.dir = dir;
    ckpt_options.retain = 2 + static_cast<size_t>(rng.NextBelow(2));
    ckpt_options.interval_ms = 0;  // Record-count cadence below.
    Checkpointer ckpt(ckpt_options);
    CheckpointState state;
    ckpt.RestoreLatest(&state);
    const uint64_t resume = state.resume_offset;
    const uint64_t base_records = state.records;
    const uint64_t base_parse_failures = state.parse_failures;
    EXPECT_LE(resume, total);

    SessionStore::Options store_options;
    store_options.max_bytes = 1ull << 30;
    SessionStore store(store_options);
    std::mutex mu;
    std::set<std::string> ids;
    uint64_t xor_digest = 0;
    uint64_t sessions = 0;
    uint64_t duplicates = 0;

    LivePipelineOptions pipeline_options;
    pipeline_options.workers = 1 + rng.NextBelow(4);
    pipeline_options.mine_templates = mine;
    LivePipeline pipeline(pipeline_options, [&](Session&& s) {
      thread_local std::string scratch;
      const bool duplicate = store.Contains(s.id, s.fragment_index);
      const uint64_t d = SessionDigest(s, &scratch);
      {
        std::lock_guard<std::mutex> lock(mu);
        if (duplicate) {
          // An exact resume offset makes replay re-derive only state the
          // snapshot does not already hold; count violations, never merge.
          ++duplicates;
          return;
        }
        xor_digest ^= d;
        ++sessions;
        ids.insert(s.id);
      }
      store.Insert(std::move(s));
    });
    RestoreLiveCheckpoint(std::move(state), &pipeline, &store);
    {
      // Sessions carried over in the snapshot count toward the digests.
      std::string scratch;
      store.ForEachSession([&](const Session& s) {
        xor_digest ^= SessionDigest(s, &scratch);
        ++sessions;
        ids.insert(s.id);
      });
    }

    SocketIngestOptions client_options;
    client_options.port = server.port();
    client_options.backoff_base_ms = 1;
    client_options.backoff_max_ms = 20;
    client_options.resume_offset = resume;
    SocketIngestSource client(client_options);

    // Crash position (absolute record index, may fall mid-batch) and
    // checkpoint cadence for this incarnation.
    const bool crash_this = crashes_left > 0 && resume < total;
    const uint64_t crash_at =
        crash_this ? resume + 1 + rng.NextBelow(total - resume) : 0;
    const uint64_t ckpt_every = 100 + rng.NextBelow(900);

    uint64_t fed = resume;   // Absolute position of the next record to feed.
    uint64_t since_ckpt = 0;
    bool crashed = false;
    LineBlock block;
    while (!crashed) {
      const auto poll = client.PollBlock(&block, /*timeout_ms=*/200);
      crashed = crash_this && crash_at - fed < block.lines.size();
      if (crashed) {
        block.lines.resize(crash_at - fed);  // SIGKILL: the rest never lands.
      }
      fed += block.lines.size();
      since_ckpt += block.lines.size();
      pipeline.FeedBlock(std::move(block));
      if (crashed) {
        break;
      }
      pipeline.Flush();
      if (poll == SocketIngestSource::Poll::kEndOfStream) {
        eos = true;
        break;
      }
      if (poll == SocketIngestSource::Poll::kFailed) {
        break;  // Leaves out.run.eos false; the caller fails the seed.
      }
      if (since_ckpt >= ckpt_every) {
        CheckpointState snap =
            CaptureLiveCheckpoint(&pipeline, store, client.records_received());
        snap.records += base_records;
        snap.parse_failures += base_parse_failures;
        EXPECT_TRUE(ckpt.Write(snap));
        ++out.snapshots_written;
        since_ckpt = 0;
      }
    }
    pipeline.Finish();  // Joins workers; a crashed incarnation's state is
                        // discarded wholesale along with store/digests.
    if (crashed) {
      ++out.crashes;
      --crashes_left;
      continue;
    }
    if (!eos) {
      break;  // Transport failure: surface as a non-conformant run.
    }
    out.run.eos = true;
    out.run.records_in = base_records + pipeline.records();
    out.run.parse_failures = base_parse_failures + pipeline.parse_failures();
    out.run.sessions = sessions;
    out.run.session_digest = xor_digest;
    out.run.store_digest = ChainedStoreDigest(store, ids);
    const auto dict = pipeline.TemplateSnapshot();
    out.run.templates = dict.size();
    out.run.template_digest = TemplateDictionaryDigest(dict);
    out.replayed_duplicates = duplicates;
  }

  server.Stop();
  server_thread.join();
  EXPECT_EQ(std::system(cleanup.c_str()), 0);
  return out;
}

// Runs one seeded kill-9/restart schedule and asserts the recovered run is
// indistinguishable from the fault-free baseline. With `mine` the template
// dictionary must match too: same ids, same hit counts, same learned text.
void CheckCrashConformance(std::shared_ptr<std::vector<std::string>> archive,
                           const RunResult& baseline, uint64_t seed,
                           bool mine) {
  const CrashRunResult out = RunCrashSchedule(archive, seed, mine);
  const std::string banner =
      std::string(mine ? "mined " : "") + "crash schedule seed " +
      std::to_string(seed) + " (" + std::to_string(out.crashes) +
      " crash(es), " + std::to_string(out.incarnations) + " incarnation(s), " +
      std::to_string(out.snapshots_written) + " snapshot(s))";
  ASSERT_TRUE(out.run.eos) << banner;
  EXPECT_EQ(out.crashes, out.incarnations - 1) << banner;
  EXPECT_EQ(out.run.records_in, archive->size()) << banner;
  EXPECT_EQ(out.run.parse_failures, 0u) << banner;
  EXPECT_EQ(out.replayed_duplicates, 0u) << banner;
  EXPECT_EQ(out.run.sessions, baseline.sessions) << banner;
  EXPECT_EQ(out.run.session_digest, baseline.session_digest) << banner;
  EXPECT_EQ(out.run.store_digest, baseline.store_digest) << banner;
  if (mine) {
    EXPECT_GT(out.run.templates, 0u) << banner;
    EXPECT_EQ(out.run.templates, baseline.templates) << banner;
    EXPECT_EQ(out.run.template_digest, baseline.template_digest) << banner;
  }
}

class CrashRecovery : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    archive_ = new std::shared_ptr<std::vector<std::string>>(
        MakeArchive(/*records_per_sec=*/2'000, /*seconds=*/2));
    baseline_ = new RunResult(RunInMemory(**archive_));
    ASSERT_GT((*archive_)->size(), 2'000u);
    ASSERT_GT(baseline_->sessions, 0u);
  }
  static void TearDownTestSuite() {
    delete archive_;
    delete baseline_;
    archive_ = nullptr;
    baseline_ = nullptr;
  }

  void CheckCrashSeed(uint64_t seed) {
    CheckCrashConformance(*archive_, *baseline_, seed, /*mine=*/false);
  }

 private:
  static std::shared_ptr<std::vector<std::string>>* archive_;
  static RunResult* baseline_;
};

std::shared_ptr<std::vector<std::string>>* CrashRecovery::archive_ = nullptr;
RunResult* CrashRecovery::baseline_ = nullptr;

TEST_F(CrashRecovery, FirstFiftyKillRestartSchedules) {
  for (uint64_t seed = 0; seed < 50; ++seed) {
    CheckCrashSeed(seed);
    if (HasFatalFailure() || HasNonfatalFailure()) {
      return;  // The banner already names the seed.
    }
  }
}

TEST_F(CrashRecovery, SecondFiftyKillRestartSchedules) {
  for (uint64_t seed = 50; seed < 100; ++seed) {
    CheckCrashSeed(seed);
    if (HasFatalFailure() || HasNonfatalFailure()) {
      return;
    }
  }
}

TEST_F(CrashRecovery, ColdStartWithEmptyCheckpointDirMatchesBaseline) {
  // Seed chosen so RunCrashSchedule still kills at least once; the very first
  // incarnation necessarily restores nothing and must start from offset 0.
  CheckCrashSeed(7919);
}

TEST_F(CrashRecovery, ExploratorySeedFromEnvironment) {
  const char* seed_text = std::getenv("TS_FAULT_SEED");
  if (seed_text == nullptr || *seed_text == '\0') {
    GTEST_SKIP() << "set TS_FAULT_SEED to run exploratory crash schedules";
  }
  const uint64_t base = std::strtoull(seed_text, nullptr, 10);
  const uint64_t schedules = 4 * ScheduleMultiplier();
  for (uint64_t i = 0; i < schedules && !HasFailure(); ++i) {
    CheckCrashSeed(base + i * 104'729);
  }
  if (HasFailure()) {
    if (const char* artifact = std::getenv("TS_FAULT_ARTIFACT")) {
      FILE* f = std::fopen(artifact, "a");
      if (f != nullptr) {
        std::fprintf(f,
                     "# ts_ckpt exploratory crash-schedule failure\n"
                     "TS_FAULT_SEED=%llu\n",
                     static_cast<unsigned long long>(base));
        std::fclose(f);
      }
    }
  }
}

// --- Template-mining conformance lanes (ts_parse) ---
//
// Mining runs on the single ingest thread in arrival order, so the rewritten
// stream — and with it the store contents and the learned dictionary — must
// be byte-identical no matter how the transport stutters (same arrival
// prefix => same miner state), and across kill -9/restart (the snapshot's
// 'T' frame must restore the miner exactly, or replayed records would split
// into fresh template ids and every digest below would diverge).

class TemplateFaultConformance : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    archive_ = new std::shared_ptr<std::vector<std::string>>(MakeArchive(
        /*records_per_sec=*/2'000, /*seconds=*/2, /*free_text=*/true));
    baseline_ = new RunResult(RunInMemory(**archive_, /*mine=*/true));
    ASSERT_GT((*archive_)->size(), 2'000u);
    ASSERT_GT(baseline_->sessions, 0u);
    ASSERT_GT(baseline_->templates, 0u);
  }
  static void TearDownTestSuite() {
    delete archive_;
    delete baseline_;
    archive_ = nullptr;
    baseline_ = nullptr;
  }

  static const std::vector<std::string>& archive() { return **archive_; }
  static std::shared_ptr<const std::vector<std::string>> archive_ptr() {
    return *archive_;
  }
  static const RunResult& baseline() { return *baseline_; }

  // One seeded fault schedule with mining on: full conformance plus an
  // identical template dictionary (ids, hit counts, learned text).
  void CheckMinedSeed(uint64_t seed, const std::string& profile) {
    FaultProfile resolved;
    ASSERT_TRUE(
        FaultPlan::ResolveProfile(profile, WireBytes(archive()), &resolved));
    const FaultPlan client_plan =
        FaultPlan::FromSeed(seed * 2 + 1, profile, resolved);
    const FaultPlan server_plan =
        FaultPlan::FromSeed(seed * 2 + 2, profile, resolved);
    const std::string replay = "mined seed " + std::to_string(seed) +
                               " — replay with:\n--- client plan ---\n" +
                               client_plan.ToText() + "--- server plan ---\n" +
                               server_plan.ToText();

    const RunResult run = RunOverFaultyTransport(*archive_, client_plan,
                                                 server_plan, /*mine=*/true);
    ASSERT_TRUE(run.eos) << replay;
    EXPECT_EQ(run.records_in, archive().size()) << replay;
    EXPECT_EQ(run.parse_failures, 0u) << replay;
    EXPECT_EQ(run.sessions, baseline().sessions) << replay;
    EXPECT_EQ(run.session_digest, baseline().session_digest) << replay;
    EXPECT_EQ(run.store_digest, baseline().store_digest) << replay;
    EXPECT_EQ(run.templates, baseline().templates) << replay;
    EXPECT_EQ(run.template_digest, baseline().template_digest) << replay;
  }

 private:
  static std::shared_ptr<std::vector<std::string>>* archive_;
  static RunResult* baseline_;
};

std::shared_ptr<std::vector<std::string>>* TemplateFaultConformance::archive_ =
    nullptr;
RunResult* TemplateFaultConformance::baseline_ = nullptr;

TEST_F(TemplateFaultConformance, FaultFreeMinedTransportMatchesInMemory) {
  const RunResult run = RunOverFaultyTransport(archive_ptr(), FaultPlan{},
                                               FaultPlan{}, /*mine=*/true);
  ASSERT_TRUE(run.eos);
  EXPECT_EQ(run.records_in, archive().size());
  EXPECT_EQ(run.session_digest, baseline().session_digest);
  EXPECT_EQ(run.store_digest, baseline().store_digest);
  EXPECT_GT(run.templates, 0u);
  EXPECT_EQ(run.templates, baseline().templates);
  EXPECT_EQ(run.template_digest, baseline().template_digest);
}

TEST_F(TemplateFaultConformance, MinedMildSchedules) {
  for (uint64_t seed = 300; seed < 310; ++seed) {
    CheckMinedSeed(seed, "mild");
    if (HasFatalFailure() || HasNonfatalFailure()) {
      return;  // The replay banner already names the seed.
    }
  }
}

TEST_F(TemplateFaultConformance, MinedAggressiveSchedules) {
  for (uint64_t seed = 310; seed < 320; ++seed) {
    CheckMinedSeed(seed, "aggressive");
    if (HasFatalFailure() || HasNonfatalFailure()) {
      return;
    }
  }
}

class TemplateCrashRecovery : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    archive_ = new std::shared_ptr<std::vector<std::string>>(MakeArchive(
        /*records_per_sec=*/2'000, /*seconds=*/2, /*free_text=*/true));
    baseline_ = new RunResult(RunInMemory(**archive_, /*mine=*/true));
    ASSERT_GT((*archive_)->size(), 2'000u);
    ASSERT_GT(baseline_->sessions, 0u);
    ASSERT_GT(baseline_->templates, 0u);
  }
  static void TearDownTestSuite() {
    delete archive_;
    delete baseline_;
    archive_ = nullptr;
    baseline_ = nullptr;
  }

  void CheckMinedCrashSeed(uint64_t seed) {
    CheckCrashConformance(*archive_, *baseline_, seed, /*mine=*/true);
  }

 private:
  static std::shared_ptr<std::vector<std::string>>* archive_;
  static RunResult* baseline_;
};

std::shared_ptr<std::vector<std::string>>* TemplateCrashRecovery::archive_ =
    nullptr;
RunResult* TemplateCrashRecovery::baseline_ = nullptr;

TEST_F(TemplateCrashRecovery, TwentyKillRestartSchedulesRestoreMinerExactly) {
  // Every snapshot in these schedules carries the miner's 'T' frame; every
  // restart re-imports it and keeps mining the resumed stream. Identical
  // final dictionaries prove restore is exact — a miner that cold-started
  // would re-learn different ids for the replayed suffix.
  for (uint64_t seed = 0; seed < 20; ++seed) {
    CheckMinedCrashSeed(seed);
    if (HasFatalFailure() || HasNonfatalFailure()) {
      return;  // The banner already names the seed.
    }
  }
}

TEST_F(TemplateCrashRecovery, ColdStartMinedScheduleMatchesBaseline) {
  // First incarnation restores nothing: the miner must build from scratch,
  // then survive the schedule's later kills via the 'T' frame.
  CheckMinedCrashSeed(7919);
}

// --- Cold-tier (tiered store) crash conformance ---
//
// Same kill -9/restart discipline as CrashRecovery, but the hot window is
// tiny: most closed sessions are evicted into an on-disk ColdTier that
// persists across incarnations exactly like the checkpoint directory, and
// every snapshot write is preceded by the FlushPending durability barrier.
// Kills land mid-spill by construction (Abandon() models the SIGKILL
// instant: whatever the spill thread had not yet made durable is lost, and
// the next incarnation re-discovers only the segments that really hit disk).
// The conformance bar: after the final incarnation reaches EOS, the tiered
// digest over hot ∪ cold is byte-identical to an unbounded fault-free
// baseline — evictions, spills, restarts and kills lose nothing and invent
// nothing. Unlike the hot-only suite, replayed duplicates are EXPECTED: a
// session evicted and made durable before a crash re-derives on replay and
// is deduplicated against the cold index instead of being re-inserted.

struct ColdCrashRunResult {
  bool eos = false;
  int incarnations = 0;
  int crashes = 0;
  uint64_t snapshots_written = 0;
  uint64_t records_in = 0;
  uint64_t parse_failures = 0;
  uint64_t replayed_duplicates = 0;
  uint64_t sessions = 0;       // |hot ∪ cold| (id, fragment) pairs.
  uint64_t cold_sessions = 0;  // Final incarnation's cold-tier population.
  uint64_t cold_segments = 0;
  uint64_t tiered_digest = 0;  // Chained digest over hot ∪ cold.
};

ColdCrashRunResult RunColdCrashSchedule(
    std::shared_ptr<std::vector<std::string>> archive_lines, uint64_t seed) {
  ColdCrashRunResult out;
  Rng rng(seed ^ 0xCDB4D88C6A2E9C01ULL);
  const uint64_t total = archive_lines->size();

  const std::string base_dir = ::testing::TempDir() + "ts_coldcrash_" +
                               std::to_string(::getpid()) + "_" +
                               std::to_string(seed);
  const std::string cleanup = "rm -rf '" + base_dir + "'";
  EXPECT_EQ(std::system(cleanup.c_str()), 0);
  const std::string ckpt_dir = base_dir + "/ckpt";
  const std::string cold_dir = base_dir + "/cold";
  EXPECT_EQ(std::system(("mkdir -p '" + base_dir + "'").c_str()), 0);

  LogServerOptions server_options;
  LogServer server(server_options, archive_lines);
  EXPECT_TRUE(server.Start());
  std::thread server_thread([&server] { server.Run(); });

  int crashes_left = 1 + static_cast<int>(rng.NextBelow(3));
  bool eos = false;
  for (int incarnation = 0; incarnation < 16 && !eos; ++incarnation) {
    ++out.incarnations;

    CheckpointerOptions ckpt_options;
    ckpt_options.dir = ckpt_dir;
    ckpt_options.retain = 2 + static_cast<size_t>(rng.NextBelow(2));
    ckpt_options.interval_ms = 0;
    Checkpointer ckpt(ckpt_options);
    CheckpointState state;
    ckpt.RestoreLatest(&state);
    const uint64_t resume = state.resume_offset;
    const uint64_t base_records = state.records;
    const uint64_t base_parse_failures = state.parse_failures;
    EXPECT_LE(resume, total);

    // Fresh ColdTier per incarnation, same directory: a restart re-discovers
    // exactly the segments the previous incarnation made durable. Declared
    // before the store so eviction-sink appends can never outlive it.
    ColdTierOptions cold_options;
    cold_options.dir = cold_dir;
    cold_options.segment_target_bytes = 16u << 10;  // Many small segments.
    ColdTier cold(cold_options);
    EXPECT_TRUE(cold.Start());

    // A hot window far smaller than the archive's session volume, so the
    // schedule spends its whole life evicting through the spill path.
    SessionStore::Options store_options;
    store_options.max_bytes = 64u << 10;
    SessionStore store(store_options);
    store.SetEvictionSink([&cold](Session&& s) { cold.Append(std::move(s)); },
                          [&cold] { cold.WaitForSpace(); });
    std::atomic<uint64_t> duplicates{0};

    LivePipelineOptions pipeline_options;
    pipeline_options.workers = 1 + rng.NextBelow(4);
    LivePipeline pipeline(pipeline_options, [&](Session&& s) {
      if (store.Contains(s.id, s.fragment_index) ||
          cold.Contains(s.id, s.fragment_index)) {
        // Already hot (restored in the snapshot) or already durable cold:
        // replay re-derived state the tiers still hold. Never merge.
        duplicates.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      store.Insert(std::move(s));
    });
    RestoreLiveCheckpoint(std::move(state), &pipeline, &store);

    SocketIngestOptions client_options;
    client_options.port = server.port();
    client_options.backoff_base_ms = 1;
    client_options.backoff_max_ms = 20;
    client_options.resume_offset = resume;
    SocketIngestSource client(client_options);

    const bool crash_this = crashes_left > 0 && resume < total;
    const uint64_t crash_at =
        crash_this ? resume + 1 + rng.NextBelow(total - resume) : 0;
    const uint64_t ckpt_every = 100 + rng.NextBelow(900);

    uint64_t fed = resume;
    uint64_t since_ckpt = 0;
    bool crashed = false;
    LineBlock block;
    while (!crashed) {
      const auto poll = client.PollBlock(&block, /*timeout_ms=*/200);
      crashed = crash_this && crash_at - fed < block.lines.size();
      if (crashed) {
        block.lines.resize(crash_at - fed);  // SIGKILL: the rest never lands.
      }
      fed += block.lines.size();
      since_ckpt += block.lines.size();
      pipeline.FeedBlock(std::move(block));
      if (crashed) {
        break;
      }
      pipeline.Flush();
      if (poll == SocketIngestSource::Poll::kEndOfStream) {
        eos = true;
        break;
      }
      if (poll == SocketIngestSource::Poll::kFailed) {
        break;
      }
      if (since_ckpt >= ckpt_every) {
        CheckpointState snap =
            CaptureLiveCheckpoint(&pipeline, store, client.records_received());
        snap.records += base_records;
        snap.parse_failures += base_parse_failures;
        // The durability barrier: every eviction that preceded this capture
        // must be durable in cold before the snapshot may exist — a restore
        // from this snapshot will not replay those sessions.
        EXPECT_TRUE(cold.FlushPending());
        EXPECT_TRUE(ckpt.Write(snap));
        ++out.snapshots_written;
        since_ckpt = 0;
      }
    }
    if (crashed) {
      // The kill instant. Everything after this — including the force-closed
      // partial sessions pipeline.Finish() flushes below — belongs to a dead
      // process and must never reach disk, or the truncated versions would
      // shadow the correct ones on replay.
      cold.Abandon();
    }
    pipeline.Finish();
    if (crashed) {
      ++out.crashes;
      --crashes_left;
      continue;
    }
    if (!eos) {
      break;  // Transport failure: surface as a non-conformant run.
    }
    EXPECT_TRUE(cold.FlushPending());
    out.eos = true;
    out.records_in = base_records + pipeline.records();
    out.parse_failures = base_parse_failures + pipeline.parse_failures();
    out.replayed_duplicates = duplicates.load(std::memory_order_relaxed);
    const ColdTier::Stats cold_stats = cold.stats();
    out.cold_sessions = cold_stats.sessions;
    out.cold_segments = cold_stats.segments;
    EXPECT_EQ(cold_stats.pending, 0u);
    EXPECT_EQ(cold_stats.write_failures, 0u);
    EXPECT_EQ(cold_stats.corrupt, 0u);

    // TieredDigest over hot ∪ cold, counting merged (id, fragment) pairs in
    // the same pass so `sessions` is comparable to the baseline's closes.
    std::set<std::string> all_ids;
    store.ForEachSession([&](const Session& s) { all_ids.insert(s.id); });
    cold.ForEachId([&](const std::string& id) { all_ids.insert(id); });
    std::string canon;
    for (const auto& id : all_ids) {
      const std::vector<Session> merged = MergeTieredFragments(
          store.GetAllFragments(id), cold.GetAllFragments(id));
      for (const auto& s : merged) {
        out.tiered_digest ^= SessionDigest(s, &canon);
        out.tiered_digest = SipHash24(out.tiered_digest);
      }
      out.sessions += merged.size();
    }
  }

  server.Stop();
  server_thread.join();
  EXPECT_EQ(std::system(cleanup.c_str()), 0);
  return out;
}

void CheckColdCrashConformance(
    std::shared_ptr<std::vector<std::string>> archive,
    const RunResult& baseline, uint64_t seed) {
  const ColdCrashRunResult out = RunColdCrashSchedule(archive, seed);
  const std::string banner =
      "cold crash schedule seed " + std::to_string(seed) + " (" +
      std::to_string(out.crashes) + " crash(es), " +
      std::to_string(out.incarnations) + " incarnation(s), " +
      std::to_string(out.snapshots_written) + " snapshot(s), " +
      std::to_string(out.cold_segments) + " cold segment(s), " +
      std::to_string(out.replayed_duplicates) + " replayed duplicate(s))";
  ASSERT_TRUE(out.eos) << banner;
  EXPECT_EQ(out.crashes, out.incarnations - 1) << banner;
  EXPECT_EQ(out.records_in, archive->size()) << banner;
  EXPECT_EQ(out.parse_failures, 0u) << banner;
  // The hot window is tiny by construction; a schedule that never spilled
  // would be testing nothing.
  EXPECT_GT(out.cold_sessions, 0u) << banner;
  EXPECT_GE(out.cold_segments, 1u) << banner;
  EXPECT_EQ(out.sessions, baseline.sessions) << banner;
  EXPECT_EQ(out.tiered_digest, baseline.store_digest) << banner;
}

class ColdTierFaultConformance : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    archive_ = new std::shared_ptr<std::vector<std::string>>(
        MakeArchive(/*records_per_sec=*/2'000, /*seconds=*/2));
    baseline_ = new RunResult(RunInMemory(**archive_));
    ASSERT_GT((*archive_)->size(), 2'000u);
    ASSERT_GT(baseline_->sessions, 0u);
  }
  static void TearDownTestSuite() {
    delete archive_;
    delete baseline_;
    archive_ = nullptr;
    baseline_ = nullptr;
  }

  void CheckColdSeed(uint64_t seed) {
    CheckColdCrashConformance(*archive_, *baseline_, seed);
  }

 private:
  static std::shared_ptr<std::vector<std::string>>* archive_;
  static RunResult* baseline_;
};

std::shared_ptr<std::vector<std::string>>* ColdTierFaultConformance::archive_ =
    nullptr;
RunResult* ColdTierFaultConformance::baseline_ = nullptr;

TEST_F(ColdTierFaultConformance, FirstTenKillRestartSchedules) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    CheckColdSeed(seed);
    if (HasFatalFailure() || HasNonfatalFailure()) {
      return;  // The banner already names the seed.
    }
  }
}

TEST_F(ColdTierFaultConformance, SecondTenKillRestartSchedules) {
  for (uint64_t seed = 10; seed < 20; ++seed) {
    CheckColdSeed(seed);
    if (HasFatalFailure() || HasNonfatalFailure()) {
      return;
    }
  }
}

TEST_F(ColdTierFaultConformance, ExploratorySeedFromEnvironment) {
  const char* seed_text = std::getenv("TS_FAULT_SEED");
  if (seed_text == nullptr || *seed_text == '\0') {
    GTEST_SKIP() << "set TS_FAULT_SEED to run exploratory cold schedules";
  }
  const uint64_t base = std::strtoull(seed_text, nullptr, 10);
  const uint64_t schedules = 4 * ScheduleMultiplier();
  for (uint64_t i = 0; i < schedules && !HasFailure(); ++i) {
    CheckColdSeed(base + i * 104'729);
  }
  if (HasFailure()) {
    if (const char* artifact = std::getenv("TS_FAULT_ARTIFACT")) {
      FILE* f = std::fopen(artifact, "a");
      if (f != nullptr) {
        std::fprintf(f,
                     "# ts_store exploratory cold-crash-schedule failure\n"
                     "TS_FAULT_SEED=%llu\n",
                     static_cast<unsigned long long>(base));
        std::fclose(f);
      }
    }
  }
}

// --- Exploratory lane (satellite S5) ---

TEST_F(FaultConformance, ExploratorySeedFromEnvironment) {
  const char* seed_text = std::getenv("TS_FAULT_SEED");
  if (seed_text == nullptr || *seed_text == '\0') {
    GTEST_SKIP() << "set TS_FAULT_SEED to run an exploratory schedule";
  }
  const uint64_t base = std::strtoull(seed_text, nullptr, 10);
  // A handful of schedules derived from the environment seed, both profiles.
  // The nightly soak widens the sweep via TS_FAULT_SCHEDULE_MULTIPLIER.
  const uint64_t schedules = 8 * ScheduleMultiplier();
  for (uint64_t i = 0; i < schedules && !HasFailure(); ++i) {
    CheckSeed(base + i * 7919, i % 2 == 0 ? "mild" : "aggressive");
  }
  if (HasFailure()) {
    if (const char* artifact = std::getenv("TS_FAULT_ARTIFACT")) {
      // Persist enough to replay: failing base seed and derived schedule
      // seeds. CheckSeed's assert output carries the full plan texts.
      FILE* f = std::fopen(artifact, "w");
      if (f != nullptr) {
        std::fprintf(f, "# ts_fault exploratory failure\nTS_FAULT_SEED=%llu\n",
                     static_cast<unsigned long long>(base));
        std::fclose(f);
      }
    }
  }
}

}  // namespace
}  // namespace ts
