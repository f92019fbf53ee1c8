// Disk-fault conformance suite: the durability layers (ts_ckpt snapshots,
// ts_store cold segments) run under seeded disk-fault schedules — ENOSPC
// windows, EIO, short and torn writes, failed fsyncs and renames — injected
// through the FsFaultInjector hooks, asserting the durable-prefix property:
// every restart lands on a fully valid snapshot plus a fully valid segment
// set, and the final tiered digest is byte-identical to a fault-free run.
//
// Layout mirrors fault_conformance_test.cc: unit tests for the scripted
// injector's byte-exact semantics, an every-failure-point atomicity sweep
// for WriteFileAtomic, degraded-mode behavior tests (checkpoint retry/drop,
// cold-tier shedding with exact accounting, prune and tmp-cleanup hygiene),
// then seeded end-to-end schedules over checkpoint/spill/restore cycles with
// an exploratory lane keyed on TS_FAULT_SEED / TS_FAULT_SCHEDULE_MULTIPLIER.
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
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
#include "src/ckpt/async_checkpointer.h"
#include "src/ckpt/checkpointer.h"
#include "src/ckpt/live_checkpoint.h"
#include "src/ckpt/snapshot_io.h"
#include "src/common/rng.h"
#include "src/core/live_pipeline.h"
#include "src/fault/fault_plan.h"
#include "src/fault/fs_fault.h"
#include "src/fault/scripted_disk_injector.h"
#include "src/log/wire_format.h"
#include "src/net/log_server.h"
#include "src/net/socket_ingest.h"
#include "src/store/cold_tier.h"
#include "src/store/tiered_digest.h"
#include "src/workload/generator.h"

namespace ts {
namespace {

FaultPlan ManualPlan(std::vector<FaultEvent> events) {
  FaultPlan plan;
  plan.events = std::move(events);
  return plan;
}

uint64_t TotalFired(const DiskFaultCountersSnapshot& c) {
  return c.enospc_failures + c.eio_failures + c.short_writes +
         c.fsync_failures + c.rename_failures + c.torn_writes;
}

bool FileExists(const std::string& path) {
  return ::access(path.c_str(), F_OK) == 0;
}

// --- ScriptedDiskInjector semantics ---

TEST(DiskFaultInjectorUnit, EnospcWindowFailsNWritesThenHeals) {
  ScriptedDiskInjector injector(ManualPlan({{FaultType::kEnospc, 0, 2}}));
  FsFaultAction a = injector.OnWrite("f", 100);
  ASSERT_EQ(a.kind, FsFaultAction::Kind::kFail);
  EXPECT_EQ(a.error, ENOSPC);
  a = injector.OnWrite("f", 100);
  ASSERT_EQ(a.kind, FsFaultAction::Kind::kFail);
  EXPECT_EQ(a.error, ENOSPC);
  // The window is spent: the volume "healed".
  EXPECT_EQ(injector.OnWrite("f", 100).kind, FsFaultAction::Kind::kProceed);
  EXPECT_EQ(injector.counters().enospc_failures, 2u);
}

TEST(DiskFaultInjectorUnit, EioHitsWritesAndPreads) {
  ScriptedDiskInjector injector(ManualPlan({{FaultType::kEio, 0, 2}}));
  FsFaultAction a = injector.OnWrite("f", 64);
  ASSERT_EQ(a.kind, FsFaultAction::Kind::kFail);
  EXPECT_EQ(a.error, EIO);
  a = injector.OnPread("f", 64, 0);
  ASSERT_EQ(a.kind, FsFaultAction::Kind::kFail);
  EXPECT_EQ(a.error, EIO);
  EXPECT_EQ(injector.OnPread("f", 64, 0).kind, FsFaultAction::Kind::kProceed);
  EXPECT_EQ(injector.counters().eio_failures, 2u);
}

TEST(DiskFaultInjectorUnit, ShortWriteClampsExactlyOnce) {
  ScriptedDiskInjector injector(ManualPlan({{FaultType::kShortWrite, 0, 3}}));
  FsFaultAction a = injector.OnWrite("f", 100);
  ASSERT_EQ(a.kind, FsFaultAction::Kind::kClamp);
  EXPECT_EQ(a.max_bytes, 3u);
  injector.OnIoBytes(3);
  EXPECT_EQ(injector.OnWrite("f", 97).kind, FsFaultAction::Kind::kProceed);
  EXPECT_EQ(injector.counters().short_writes, 1u);
}

TEST(DiskFaultInjectorUnit, FsyncAndRenameWindowsAreIndependent) {
  ScriptedDiskInjector injector(ManualPlan(
      {{FaultType::kFsyncFail, 0, 1}, {FaultType::kRenameFail, 0, 1}}));
  // A write between them is untouched: the windows attack their own calls.
  EXPECT_EQ(injector.OnWrite("f", 10).kind, FsFaultAction::Kind::kProceed);
  FsFaultAction a = injector.OnFsync("f");
  ASSERT_EQ(a.kind, FsFaultAction::Kind::kFail);
  EXPECT_EQ(a.error, EIO);
  EXPECT_EQ(injector.OnFsync("f").kind, FsFaultAction::Kind::kProceed);
  a = injector.OnRename("f.tmp", "f");
  ASSERT_EQ(a.kind, FsFaultAction::Kind::kFail);
  EXPECT_EQ(a.error, EIO);
  EXPECT_EQ(injector.OnRename("f.tmp", "f").kind,
            FsFaultAction::Kind::kProceed);
  const DiskFaultCountersSnapshot counters = injector.counters();
  EXPECT_EQ(counters.fsync_failures, 1u);
  EXPECT_EQ(counters.rename_failures, 1u);
}

TEST(DiskFaultInjectorUnit, TornWriteIsByteExact) {
  // Tear at disk offset 10: an 8-byte write proceeds, the write crossing the
  // boundary is clamped to end exactly there, and the next attempt dies EIO.
  ScriptedDiskInjector injector(ManualPlan({{FaultType::kTornWrite, 10, 0}}));
  EXPECT_EQ(injector.OnWrite("f", 8).kind, FsFaultAction::Kind::kProceed);
  injector.OnIoBytes(8);
  FsFaultAction a = injector.OnWrite("f", 8);
  ASSERT_EQ(a.kind, FsFaultAction::Kind::kClamp);
  EXPECT_EQ(a.max_bytes, 2u);
  injector.OnIoBytes(2);
  a = injector.OnWrite("f", 6);
  ASSERT_EQ(a.kind, FsFaultAction::Kind::kFail);
  EXPECT_EQ(a.error, EIO);
  EXPECT_EQ(injector.counters().torn_writes, 1u);
  // Plan exhausted: back to normal.
  EXPECT_EQ(injector.OnWrite("f", 6).kind, FsFaultAction::Kind::kProceed);
}

TEST(DiskFaultInjectorUnit, NetworkEventsAreSkippedOnTheDiskSurface) {
  // A mixed plan (one grammar covers both surfaces): the kill is a no-op
  // here, the ENOSPC behind it still fires at its offset.
  ScriptedDiskInjector injector(ManualPlan(
      {{FaultType::kKill, 0, 0}, {FaultType::kEnospc, 0, 1}}));
  FsFaultAction a = injector.OnWrite("f", 16);
  ASSERT_EQ(a.kind, FsFaultAction::Kind::kFail);
  EXPECT_EQ(a.error, ENOSPC);
  EXPECT_EQ(injector.OnWrite("f", 16).kind, FsFaultAction::Kind::kProceed);
}

TEST(DiskFaultInjectorUnit, MetricsGaugesExportCounters) {
  ScriptedDiskInjector injector(ManualPlan({{FaultType::kEnospc, 0, 1}}));
  MetricsRegistry registry;
  injector.RegisterMetrics(&registry);
  EXPECT_EQ(injector.OnWrite("f", 1).kind, FsFaultAction::Kind::kFail);
  bool saw = false;
  for (const auto& [name, value] : registry.Snapshot()) {
    if (name == "fault_disk_enospc_failures") {
      saw = true;
      EXPECT_EQ(value, 1);
    }
  }
  EXPECT_TRUE(saw);
}

TEST(DiskFaultInjectorUnit, SeededDiskPlansAreDeterministic) {
  FaultProfile profile;
  ASSERT_TRUE(FaultPlan::ResolveProfile("disk-aggressive", 1 << 16, &profile));
  const FaultPlan a = FaultPlan::FromSeed(11, "disk-aggressive", profile);
  const FaultPlan b = FaultPlan::FromSeed(11, "disk-aggressive", profile);
  EXPECT_EQ(a.ToText(), b.ToText());
  EXPECT_FALSE(a.events.empty());
}

// --- WriteFileAtomic every-failure-point sweep (satellite) ---

// Fails the Nth occurrence of one operation kind, exactly once, and clamps
// every write to `write_chunk` bytes so a multi-KB payload takes many write
// calls — letting the sweep park a failure after a partially written tmp.
class FailNthOpInjector : public FsFaultInjector {
 public:
  enum class Op { kOpen, kWrite, kFsync, kRename };

  FailNthOpInjector(Op op, int nth, int error, size_t write_chunk)
      : op_(op), nth_(nth), error_(error), write_chunk_(write_chunk) {}

  FsFaultAction OnOpen(const char* path, bool for_write) override {
    (void)path;
    return for_write ? Step(Op::kOpen, 0) : FsFaultAction{};
  }
  FsFaultAction OnWrite(const char* path, size_t len) override {
    (void)path;
    return Step(Op::kWrite, len);
  }
  FsFaultAction OnFsync(const char* path) override {
    (void)path;
    return Step(Op::kFsync, 0);
  }
  FsFaultAction OnRename(const char* from, const char* to) override {
    (void)from;
    (void)to;
    return Step(Op::kRename, 0);
  }

  int fired() const { return fired_.load(std::memory_order_relaxed); }

 private:
  FsFaultAction Step(Op op, size_t len) {
    if (op == op_ && fired_.load(std::memory_order_relaxed) == 0 &&
        ++count_ == nth_) {
      fired_.fetch_add(1, std::memory_order_relaxed);
      FsFaultAction action;
      action.kind = FsFaultAction::Kind::kFail;
      action.error = error_;
      return action;
    }
    if (op == Op::kWrite && write_chunk_ > 0 && len > write_chunk_) {
      FsFaultAction action;
      action.kind = FsFaultAction::Kind::kClamp;
      action.max_bytes = write_chunk_;
      return action;
    }
    return {};
  }

  const Op op_;
  const int nth_;
  const int error_;
  const size_t write_chunk_;
  std::atomic<int> count_{0};
  std::atomic<int> fired_{0};
};

class DiskFaultAtomicity : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "ts_diskfault_atomic_" +
           std::to_string(::getpid());
    const std::string cleanup = "rm -rf '" + dir_ + "'";
    ASSERT_EQ(std::system(cleanup.c_str()), 0);
    ASSERT_EQ(std::system(("mkdir -p '" + dir_ + "'").c_str()), 0);
  }
  void TearDown() override {
    const std::string cleanup = "rm -rf '" + dir_ + "'";
    EXPECT_EQ(std::system(cleanup.c_str()), 0);
  }
  std::string dir_;
};

std::string Payload(char fill, size_t n) {
  std::string s;
  s.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    s.push_back(static_cast<char>(fill + static_cast<char>(i % 23)));
  }
  return s;
}

TEST_F(DiskFaultAtomicity, EveryFailurePointLeavesOldIntactNeverTorn) {
  const std::string path = dir_ + "/file.snap";
  const std::string v1 = Payload('A', 6000);
  const std::string v2 = Payload('a', 6000);
  ASSERT_TRUE(WriteFileAtomic(path, v1));

  using Op = FailNthOpInjector::Op;
  struct Point {
    Op op;
    int nth;
    int error;
    const char* name;
  };
  // With writes clamped to 1KB chunks the 6KB payload takes ~6 write calls,
  // so the sweep covers a failure before any byte lands (write #1), in the
  // middle of the stream (#3), on the final chunk (#6), and at each of the
  // open / fsync / rename stages.
  const Point points[] = {
      {Op::kOpen, 1, EACCES, "open"},        {Op::kWrite, 1, ENOSPC, "write1"},
      {Op::kWrite, 3, EIO, "write3"},        {Op::kWrite, 6, ENOSPC, "write6"},
      {Op::kFsync, 1, EIO, "fsync"},         {Op::kRename, 1, EIO, "rename"},
  };
  for (const Point& p : points) {
    FailNthOpInjector injector(p.op, p.nth, p.error, /*write_chunk=*/1024);
    {
      ScopedFsFaultInjector scoped(&injector);
      EXPECT_FALSE(WriteFileAtomic(path, v2)) << p.name;
    }
    EXPECT_EQ(injector.fired(), 1) << p.name;
    // The old file is byte-for-byte intact under the final name, and the
    // failed attempt's temp file has been removed — nothing torn, nothing
    // leaked, exactly the state RestoreLatest and segment discovery expect.
    std::string back;
    ASSERT_TRUE(ReadFile(path, &back)) << p.name;
    EXPECT_EQ(back, v1) << p.name;
    EXPECT_FALSE(FileExists(path + ".tmp")) << p.name;
  }

  // Healed: the same write goes through and fully replaces the old bytes.
  ASSERT_TRUE(WriteFileAtomic(path, v2));
  std::string back;
  ASSERT_TRUE(ReadFile(path, &back));
  EXPECT_EQ(back, v2);
  EXPECT_FALSE(FileExists(path + ".tmp"));
}

TEST_F(DiskFaultAtomicity, MultiPartWriteSurvivesMidStreamFailure) {
  const std::string path = dir_ + "/parts.snap";
  const std::string header = Payload('H', 64);
  const std::string body = Payload('B', 4096);
  const std::string footer = Payload('F', 64);
  ASSERT_TRUE(WriteFileAtomic(path, {header, body, footer}));
  std::string v1;
  ASSERT_TRUE(ReadFile(path, &v1));
  ASSERT_EQ(v1.size(), header.size() + body.size() + footer.size());

  FailNthOpInjector injector(FailNthOpInjector::Op::kWrite, 3, ENOSPC,
                             /*write_chunk=*/512);
  {
    ScopedFsFaultInjector scoped(&injector);
    EXPECT_FALSE(WriteFileAtomic(path, {footer, body, header}));
  }
  EXPECT_EQ(injector.fired(), 1);
  std::string back;
  ASSERT_TRUE(ReadFile(path, &back));
  EXPECT_EQ(back, v1);
  EXPECT_FALSE(FileExists(path + ".tmp"));
}

TEST_F(DiskFaultAtomicity, ShortWritesAloneNeverFailTheWrite) {
  // A degraded disk that only ever writes tiny chunks is slow, not broken:
  // the write loop must absorb arbitrary clamping and still produce exact
  // bytes.
  const std::string path = dir_ + "/slow.snap";
  const std::string v = Payload('s', 5000);
  FailNthOpInjector injector(FailNthOpInjector::Op::kOpen, /*nth=*/1000,
                             EIO, /*write_chunk=*/7);
  {
    ScopedFsFaultInjector scoped(&injector);
    ASSERT_TRUE(WriteFileAtomic(path, v));
  }
  std::string back;
  ASSERT_TRUE(ReadFile(path, &back));
  EXPECT_EQ(back, v);
}

// --- Degraded-mode behavior ---

// A disk that fails every write while `broken` holds — the persistent-outage
// model the shed and degraded-checkpoint paths are built for.
class BrokenDiskInjector : public FsFaultInjector {
 public:
  FsFaultAction OnWrite(const char* path, size_t len) override {
    (void)path;
    (void)len;
    return Maybe();
  }
  FsFaultAction OnFsync(const char* path) override {
    (void)path;
    return Maybe();
  }
  std::atomic<bool> broken{true};

 private:
  FsFaultAction Maybe() {
    if (!broken.load(std::memory_order_relaxed)) {
      return {};
    }
    FsFaultAction action;
    action.kind = FsFaultAction::Kind::kFail;
    action.error = ENOSPC;
    return action;
  }
};

// Fails the next N preads (serving-path reads), then heals.
class FailPreadsInjector : public FsFaultInjector {
 public:
  FsFaultAction OnPread(const char* path, size_t len,
                        uint64_t offset) override {
    (void)path;
    (void)len;
    (void)offset;
    if (fail_left.fetch_sub(1, std::memory_order_relaxed) > 0) {
      FsFaultAction action;
      action.kind = FsFaultAction::Kind::kFail;
      action.error = EIO;
      return action;
    }
    fail_left.fetch_add(1, std::memory_order_relaxed);  // Undo the overshoot.
    return {};
  }
  std::atomic<int> fail_left{0};
};

// Fails every unlink while `broken` holds (prune-failure model).
class FailUnlinkInjector : public FsFaultInjector {
 public:
  FsFaultAction OnUnlink(const char* path) override {
    (void)path;
    if (!broken.load(std::memory_order_relaxed)) {
      return {};
    }
    FsFaultAction action;
    action.kind = FsFaultAction::Kind::kFail;
    action.error = EIO;
    return action;
  }
  std::atomic<bool> broken{true};
};

std::string MakeTempDir(const std::string& tag) {
  const std::string dir =
      ::testing::TempDir() + tag + "_" + std::to_string(::getpid());
  EXPECT_EQ(std::system(("rm -rf '" + dir + "'").c_str()), 0);
  EXPECT_EQ(std::system(("mkdir -p '" + dir + "'").c_str()), 0);
  return dir;
}

Session MakeSession(const std::string& id, EventTime start_ns,
                    std::vector<uint32_t> services, uint32_t fragment = 0) {
  Session s;
  s.id = id;
  s.fragment_index = fragment;
  EventTime t = start_ns;
  for (uint32_t svc : services) {
    LogRecord r;
    r.time = t;
    r.session_id = id;
    r.txn_id = *TxnId::Parse("1-2");
    r.service = svc;
    r.host = svc;
    r.kind = EventKind::kAnnotation;
    r.payload = "x=" + std::string(64, 'a');
    s.records.push_back(std::move(r));
    t += kNanosPerMilli;
  }
  return s;
}

TEST(DiskFaultDegradation, PruneFailureIsCountedAndRetriedNextRotation) {
  const std::string dir = MakeTempDir("ts_diskfault_prune");
  CheckpointerOptions options;
  options.dir = dir;
  options.retain = 1;
  options.interval_ms = 0;
  Checkpointer ckpt(options);
  CheckpointState state;
  state.resume_offset = 1;
  ASSERT_TRUE(ckpt.Write(state));
  ASSERT_EQ(ckpt.ListSnapshots().size(), 1u);

  FailUnlinkInjector injector;
  {
    ScopedFsFaultInjector scoped(&injector);
    ASSERT_TRUE(ckpt.Write(state));  // Rotation's prune hits the bad unlink.
  }
  EXPECT_GE(ckpt.prune_failures(), 1u);
  // The victim survived (unlink failed) alongside the new snapshot...
  EXPECT_EQ(ckpt.ListSnapshots().size(), 2u);
  // ...and the next healed rotation reclaims the whole backlog: prune works
  // off the directory listing, not a remembered victim set.
  ASSERT_TRUE(ckpt.Write(state));
  EXPECT_EQ(ckpt.ListSnapshots().size(), 1u);
  EXPECT_EQ(std::system(("rm -rf '" + dir + "'").c_str()), 0);
}

TEST(DiskFaultDegradation, ColdStartUnlinksStaleTmpFiles) {
  const std::string dir = MakeTempDir("ts_diskfault_tmp");
  // A crashed spill's partial write, plus an innocent bystander file the
  // cleanup must not touch.
  const std::string stale = dir + "/cold-0000000099.seg.tmp";
  const std::string bystander = dir + "/notes.txt";
  for (const std::string& path : {stale, bystander}) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("leftover", f);
    std::fclose(f);
  }

  ColdTierOptions options;
  options.dir = dir;
  ColdTier cold(options);
  ASSERT_TRUE(cold.Start());
  EXPECT_EQ(cold.stats().tmp_cleaned, 1u);
  EXPECT_FALSE(FileExists(stale));
  EXPECT_TRUE(FileExists(bystander));
  EXPECT_EQ(std::system(("rm -rf '" + dir + "'").c_str()), 0);
}

TEST(DiskFaultDegradation, ColdTierShedsWithExactAccountingAndRecovers) {
  const std::string dir = MakeTempDir("ts_diskfault_shed");
  BrokenDiskInjector disk;

  ColdTierOptions options;
  options.dir = dir;
  options.segment_target_bytes = 1;  // Spill eagerly.
  options.spill_retry_limit = 2;
  options.spill_backoff_ms = 1;
  ColdTier cold(options);
  ASSERT_TRUE(cold.Start());  // Discovery runs before the disk "breaks".

  ScopedFsFaultInjector scoped(&disk);
  const int kSessions = 8;
  for (int i = 0; i < kSessions; ++i) {
    cold.Append(MakeSession("S" + std::to_string(i), i * kNanosPerMilli,
                            {static_cast<uint32_t>(i % 3)}));
  }
  // FlushPending reports each write failure promptly (the checkpoint
  // barrier aborts its snapshot on false), while the spill thread keeps
  // retrying behind it; after spill_retry_limit consecutive failures the
  // batch is shed and the flush completes — a dead disk never wedges the
  // barrier forever.
  bool flushed = false;
  for (int i = 0; i < 10'000 && !flushed; ++i) {
    flushed = cold.FlushPending();
  }
  ASSERT_TRUE(flushed);

  ColdTier::Stats stats = cold.stats();
  EXPECT_EQ(stats.pending, 0u);
  EXPECT_GE(stats.shed_batches, 1u);
  EXPECT_EQ(stats.shed_sessions, static_cast<uint64_t>(kSessions));
  EXPECT_GT(stats.shed_bytes, 0u);
  EXPECT_TRUE(stats.shedding);
  EXPECT_GE(stats.write_failures, 2u);
  // Exact accounting: every accepted append is either durable or counted
  // shed — nothing vanishes silently.
  EXPECT_EQ(stats.spilled, stats.sessions + stats.shed_sessions);
  EXPECT_EQ(stats.sessions, 0u);
  // A shed session is a plain cold miss, never a wrong answer.
  EXPECT_FALSE(cold.Contains("S0", 0));
  EXPECT_FALSE(cold.Get("S0", 0).has_value());

  // Heal the disk: new appends spill normally and the flag clears.
  disk.broken.store(false, std::memory_order_relaxed);
  cold.Append(MakeSession("HEALED", 0, {7}));
  EXPECT_TRUE(cold.FlushPending());
  stats = cold.stats();
  EXPECT_FALSE(stats.shedding);
  EXPECT_EQ(stats.sessions, 1u);
  EXPECT_EQ(stats.spilled, stats.sessions + stats.shed_sessions);
  ASSERT_TRUE(cold.Get("HEALED", 0).has_value());
  EXPECT_EQ(std::system(("rm -rf '" + dir + "'").c_str()), 0);
}

TEST(DiskFaultDegradation, ServingPreadRetriesOnceThenCountsTheMiss) {
  const std::string dir = MakeTempDir("ts_diskfault_pread");
  ColdTierOptions options;
  options.dir = dir;
  ColdTier cold(options);
  ASSERT_TRUE(cold.Start());
  cold.Append(MakeSession("DURABLE", 0, {1, 2}));
  ASSERT_TRUE(cold.FlushPending());

  FailPreadsInjector disk;
  ScopedFsFaultInjector scoped(&disk);

  // One transient failure: the retry serves the session.
  disk.fail_left.store(1, std::memory_order_relaxed);
  ASSERT_TRUE(cold.Get("DURABLE", 0).has_value());
  ColdTier::Stats stats = cold.stats();
  EXPECT_EQ(stats.read_retries, 1u);
  EXPECT_EQ(stats.corrupt, 0u);

  // A persistent failure degrades to a counted miss — never a wrong answer,
  // never a crash, and the segment itself is untouched.
  disk.fail_left.store(2, std::memory_order_relaxed);
  EXPECT_FALSE(cold.Get("DURABLE", 0).has_value());
  stats = cold.stats();
  EXPECT_EQ(stats.read_retries, 2u);
  EXPECT_GE(stats.corrupt, 1u);

  // Healed: the same candidate serves again.
  ASSERT_TRUE(cold.Get("DURABLE", 0).has_value());
  EXPECT_EQ(std::system(("rm -rf '" + dir + "'").c_str()), 0);
}

std::shared_ptr<std::vector<std::string>> MakeArchive(double records_per_sec,
                                                      EventTime seconds) {
  GeneratorConfig config;
  config.seed = 99;
  config.duration_ns = seconds * kNanosPerSecond;
  config.target_records_per_sec = records_per_sec;
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

TEST(DiskFaultDegradation, AsyncCheckpointerDegradesThenRecovers) {
  const std::string dir = MakeTempDir("ts_diskfault_ckpt");
  const auto lines = MakeArchive(/*records_per_sec=*/500, /*seconds=*/1);

  BrokenDiskInjector disk;
  ScopedFsFaultInjector scoped(&disk);

  CheckpointerOptions ckpt_options;
  ckpt_options.dir = dir;
  ckpt_options.interval_ms = 0;
  Checkpointer ckpt(ckpt_options);

  SessionStore::Options store_options;
  store_options.max_bytes = 1ull << 30;
  SessionStore store(store_options);
  LivePipelineOptions pipeline_options;
  pipeline_options.workers = 2;
  LivePipeline pipeline(pipeline_options,
                       [&](Session&& s) { store.Insert(std::move(s)); });

  AsyncCheckpointer::Options ac_options;
  ac_options.write_retry_limit = 2;
  ac_options.write_retry_backoff_ms = 1;
  AsyncCheckpointer ac(&ckpt, &pipeline, &store, ac_options);

  const uint64_t fed = lines->size();
  pipeline.FeedBlock(CopyToLineBlock(*lines));
  pipeline.Flush();

  // Broken disk: both attempts fail, the snapshot is dropped, the episode is
  // fully counted — and ingest was never blocked on any of it.
  ASSERT_TRUE(ac.RequestCheckpoint(fed));
  ac.Drain();
  EXPECT_GE(ac.write_failures(), 2u);
  EXPECT_TRUE(ac.degraded());
  EXPECT_EQ(ac.snapshots_dropped(), 1u);
  EXPECT_EQ(ckpt.snapshots_taken(), 0u);

  MetricsRegistry registry;
  ac.RegisterMetrics(&registry);
  int64_t degraded_gauge = -1;
  int64_t failures_gauge = -1;
  for (const auto& [name, value] : registry.Snapshot()) {
    if (name == "ckpt_degraded") degraded_gauge = value;
    if (name == "ckpt_write_failures") failures_gauge = value;
  }
  EXPECT_EQ(degraded_gauge, 1);
  EXPECT_GE(failures_gauge, 2);

  // Healed disk: the next cadence tick recovers without operator action.
  disk.broken.store(false, std::memory_order_relaxed);
  ASSERT_TRUE(ac.RequestCheckpoint(fed));
  ac.Drain();
  EXPECT_FALSE(ac.degraded());
  EXPECT_EQ(ckpt.snapshots_taken(), 1u);
  CheckpointState restored;
  EXPECT_TRUE(ckpt.RestoreLatest(&restored).restored);
  EXPECT_EQ(restored.resume_offset, fed);

  pipeline.Finish();
  EXPECT_EQ(std::system(("rm -rf '" + dir + "'").c_str()), 0);
}

TEST(DiskFaultDegradation, FailedDurabilityBarrierAbortsTheSnapshot) {
  const std::string dir = MakeTempDir("ts_diskfault_barrier");
  CheckpointerOptions ckpt_options;
  ckpt_options.dir = dir;
  ckpt_options.interval_ms = 0;
  Checkpointer ckpt(ckpt_options);

  SessionStore::Options store_options;
  store_options.max_bytes = 1ull << 30;
  SessionStore store(store_options);
  LivePipelineOptions pipeline_options;
  pipeline_options.workers = 1;
  LivePipeline pipeline(pipeline_options,
                       [&](Session&& s) { store.Insert(std::move(s)); });

  std::atomic<bool> barrier_ok{false};
  AsyncCheckpointer::Options ac_options;
  ac_options.write_retry_limit = 2;
  ac_options.write_retry_backoff_ms = 1;
  ac_options.before_write = [&barrier_ok] {
    return barrier_ok.load(std::memory_order_relaxed);
  };
  AsyncCheckpointer ac(&ckpt, &pipeline, &store, ac_options);

  // The cold tier can't make the preceding evictions durable: the snapshot
  // must not be published — publishing it would teach a restore to skip
  // replaying sessions that exist nowhere.
  ASSERT_TRUE(ac.RequestCheckpoint(0));
  ac.Drain();
  EXPECT_EQ(ckpt.snapshots_taken(), 0u);
  EXPECT_GE(ac.write_failures(), 2u);
  EXPECT_TRUE(ac.degraded());

  barrier_ok.store(true, std::memory_order_relaxed);
  ASSERT_TRUE(ac.RequestCheckpoint(0));
  ac.Drain();
  EXPECT_EQ(ckpt.snapshots_taken(), 1u);
  EXPECT_FALSE(ac.degraded());

  pipeline.Finish();
  EXPECT_EQ(std::system(("rm -rf '" + dir + "'").c_str()), 0);
}

// --- Seeded end-to-end schedules (the tentpole conformance property) ---

// Exploratory-lane width, shared with the transport suite (see
// fault_conformance_test.cc): the nightly soak scales via
// TS_FAULT_SCHEDULE_MULTIPLIER, clamped against ctest timeouts.
uint64_t ScheduleMultiplier() {
  const char* text = std::getenv("TS_FAULT_SCHEDULE_MULTIPLIER");
  if (text == nullptr || *text == '\0') {
    return 1;
  }
  const uint64_t value = std::strtoull(text, nullptr, 10);
  return value < 1 ? 1 : (value > 20 ? 20 : value);
}

struct InMemoryBaseline {
  uint64_t sessions = 0;
  uint64_t store_digest = 0;
};

// The determinism contract's reference point: the same lines fed straight
// into the pipeline — no sockets, no disk, no faults.
InMemoryBaseline RunInMemory(const std::vector<std::string>& lines) {
  InMemoryBaseline result;
  SessionStore::Options store_options;
  store_options.max_bytes = 1ull << 30;
  SessionStore store(store_options);
  std::mutex mu;
  std::set<std::string> ids;
  LivePipelineOptions options;
  options.workers = 2;
  LivePipeline pipeline(options, [&](Session&& s) {
    {
      std::lock_guard<std::mutex> lock(mu);
      ids.insert(s.id);
    }
    store.Insert(std::move(s));
  });
  pipeline.FeedBlock(CopyToLineBlock(lines));
  pipeline.Finish();
  result.sessions = pipeline.sessions_closed();
  result.store_digest = ChainedStoreDigest(store, ids);
  return result;
}

struct DiskScheduleResult {
  bool eos = false;
  int incarnations = 0;
  int crashes = 0;
  uint64_t snapshots_written = 0;
  uint64_t snapshot_attempts_failed = 0;  // Aborted publishes (disk faults).
  uint64_t restore_fallbacks = 0;
  uint64_t faults_fired = 0;  // Disk-fault events that actually bit.
  uint64_t records_in = 0;
  uint64_t parse_failures = 0;
  uint64_t replayed_duplicates = 0;
  uint64_t sessions = 0;
  uint64_t cold_sessions = 0;
  uint64_t cold_segments = 0;
  uint64_t tiered_digest = 0;
};

// One seeded schedule: kill/restart cycles over the full tiered ingest path
// (LogServer -> SocketIngestSource -> LivePipeline -> SessionStore ->
// ColdTier spill, synchronous Checkpointer at a seeded cadence), with each
// incarnation's durability I/O attacked by a ScriptedDiskInjector driving a
// fresh disk-aggressive plan. The injector is installed only after restore
// and segment discovery (this suite attacks the *write* path: a durable,
// valid file that fails a read is the corruption suite's territory and would
// make the digest incomparable) and uninstalled at the kill instant — a dead
// process does no I/O — and before the final flush + digest reads.
DiskScheduleResult RunDiskFaultSchedule(
    std::shared_ptr<std::vector<std::string>> archive_lines, uint64_t seed) {
  DiskScheduleResult out;
  Rng rng(seed ^ 0xD15CFA17B3A7E901ULL);
  const uint64_t total = archive_lines->size();

  const std::string base_dir = ::testing::TempDir() + "ts_diskfault_" +
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

    // A fresh disk-fault plan per incarnation, seeded from (schedule seed,
    // incarnation) so every restart faces a new storm at new byte offsets.
    // Declared before the tier and the checkpointer: the injector must
    // outlive every thread that might consult it.
    FaultProfile disk_profile;
    EXPECT_TRUE(
        FaultPlan::ResolveProfile("disk-aggressive", 256u << 10, &disk_profile));
    ScriptedDiskInjector disk(FaultPlan::FromSeed(
        seed * 1'000'003ull + static_cast<uint64_t>(incarnation),
        "disk-aggressive", disk_profile));

    CheckpointerOptions ckpt_options;
    ckpt_options.dir = ckpt_dir;
    ckpt_options.retain = 2 + static_cast<size_t>(rng.NextBelow(2));
    ckpt_options.interval_ms = 0;
    Checkpointer ckpt(ckpt_options);
    CheckpointState state;
    const RestoreResult restored = ckpt.RestoreLatest(&state);
    out.restore_fallbacks += restored.fallbacks;
    const uint64_t resume = state.resume_offset;
    const uint64_t base_records = state.records;
    const uint64_t base_parse_failures = state.parse_failures;
    EXPECT_LE(resume, total);

    ColdTierOptions cold_options;
    cold_options.dir = cold_dir;
    cold_options.segment_target_bytes = 16u << 10;  // Many small segments.
    // Conformance runs never shed: every fault window in the plan is finite,
    // so retrying always converges, and shedding (counted loss) would make
    // the digest incomparable by design. The shed path is proven separately
    // with a permanently broken disk (ColdTierShedsWithExactAccounting...).
    cold_options.spill_retry_limit = 1'000'000;
    cold_options.spill_backoff_ms = 1;
    ColdTier cold(cold_options);
    EXPECT_TRUE(cold.Start());

    SessionStore::Options store_options;
    store_options.max_bytes = 64u << 10;  // Tiny hot window: spill constantly.
    SessionStore store(store_options);
    store.SetEvictionSink([&cold](Session&& s) { cold.Append(std::move(s)); },
                          [&cold] { cold.WaitForSpace(); });
    std::atomic<uint64_t> duplicates{0};

    LivePipelineOptions pipeline_options;
    pipeline_options.workers = 1 + rng.NextBelow(4);
    LivePipeline pipeline(pipeline_options, [&](Session&& s) {
      if (store.Contains(s.id, s.fragment_index) ||
          cold.Contains(s.id, s.fragment_index)) {
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

    // Restore + discovery ran clean; from here on the disk misbehaves.
    InstallFsFaultInjector(&disk);

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
        // The durability barrier, now under fire: the snapshot may only be
        // published once every preceding eviction is durable in cold. A
        // failed barrier or a failed snapshot write aborts the attempt —
        // exactly AsyncCheckpointer's degraded-mode contract — leaving the
        // previous (fully valid) snapshots in charge: the durable-prefix
        // property.
        if (!cold.FlushPending()) {
          ++out.snapshot_attempts_failed;
        } else if (ckpt.Write(snap)) {
          ++out.snapshots_written;
        } else {
          ++out.snapshot_attempts_failed;
        }
        since_ckpt = 0;
      }
    }
    if (crashed) {
      cold.Abandon();  // The kill instant: pending spills die with the
                       // process; durable segments stay.
    }
    // Whether this incarnation dies or finishes, the remaining teardown
    // (final flush, digest preads, next incarnation's restore) runs on a
    // healed disk: a dead process does no I/O, and read-side attacks on
    // durable files belong to the corruption suite.
    InstallFsFaultInjector(nullptr);
    out.faults_fired += TotalFired(disk.counters());
    pipeline.Finish();
    if (crashed) {
      ++out.crashes;
      --crashes_left;
      continue;
    }
    if (!eos) {
      break;  // Transport failure: surface as a non-conformant run.
    }
    // A segment write already in flight at the heal instant may still fail
    // once (it consumed its fault before the uninstall); the retry runs on
    // the healed disk and must converge.
    bool flushed = false;
    for (int i = 0; i < 100 && !flushed; ++i) {
      flushed = cold.FlushPending();
    }
    EXPECT_TRUE(flushed);
    out.eos = true;
    out.records_in = base_records + pipeline.records();
    out.parse_failures = base_parse_failures + pipeline.parse_failures();
    out.replayed_duplicates = duplicates.load(std::memory_order_relaxed);
    const ColdTier::Stats cold_stats = cold.stats();
    out.cold_sessions = cold_stats.sessions;
    out.cold_segments = cold_stats.segments;
    EXPECT_EQ(cold_stats.pending, 0u);
    // Disk faults fail writes (counted, retried); they never publish a
    // damaged segment and never shed under a finite plan.
    EXPECT_EQ(cold_stats.corrupt, 0u);
    EXPECT_EQ(cold_stats.shed_sessions, 0u);

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

// Asserts the durable-prefix property for one seed and returns how many
// disk-fault events actually fired (the fixture asserts the sweep as a whole
// drew blood — a single seed's plan is allowed to land all its offsets past
// the bytes the run happened to move).
uint64_t CheckDiskFaultConformance(
    std::shared_ptr<std::vector<std::string>> archive,
    const InMemoryBaseline& baseline, uint64_t seed) {
  const DiskScheduleResult out = RunDiskFaultSchedule(archive, seed);
  const std::string banner =
      "disk fault schedule seed " + std::to_string(seed) + " (" +
      std::to_string(out.crashes) + " crash(es), " +
      std::to_string(out.incarnations) + " incarnation(s), " +
      std::to_string(out.snapshots_written) + " snapshot(s), " +
      std::to_string(out.snapshot_attempts_failed) +
      " failed snapshot attempt(s), " + std::to_string(out.faults_fired) +
      " disk fault(s) fired, " + std::to_string(out.restore_fallbacks) +
      " restore fallback(s), " + std::to_string(out.cold_segments) +
      " cold segment(s), " + std::to_string(out.replayed_duplicates) +
      " replayed duplicate(s))";
  EXPECT_TRUE(out.eos) << banner;
  if (!out.eos) {
    return out.faults_fired;
  }
  EXPECT_EQ(out.crashes, out.incarnations - 1) << banner;
  EXPECT_EQ(out.records_in, archive->size()) << banner;
  EXPECT_EQ(out.parse_failures, 0u) << banner;
  // Every restart found a fully valid snapshot set: no restore ever fell
  // back past a damaged file, because no damaged file was ever published.
  EXPECT_EQ(out.restore_fallbacks, 0u) << banner;
  EXPECT_GT(out.cold_sessions, 0u) << banner;
  EXPECT_GE(out.cold_segments, 1u) << banner;
  EXPECT_EQ(out.sessions, baseline.sessions) << banner;
  EXPECT_EQ(out.tiered_digest, baseline.store_digest) << banner;
  return out.faults_fired;
}

class DiskFaultConformance : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    archive_ = new std::shared_ptr<std::vector<std::string>>(
        MakeArchive(/*records_per_sec=*/2'000, /*seconds=*/2));
    baseline_ = new InMemoryBaseline(RunInMemory(**archive_));
    ASSERT_GT((*archive_)->size(), 2'000u);
    ASSERT_GT(baseline_->sessions, 0u);
  }
  static void TearDownTestSuite() {
    delete archive_;
    delete baseline_;
    archive_ = nullptr;
    baseline_ = nullptr;
  }

  uint64_t CheckSeed(uint64_t seed) {
    return CheckDiskFaultConformance(*archive_, *baseline_, seed);
  }

 private:
  static std::shared_ptr<std::vector<std::string>>* archive_;
  static InMemoryBaseline* baseline_;
};

std::shared_ptr<std::vector<std::string>>* DiskFaultConformance::archive_ =
    nullptr;
InMemoryBaseline* DiskFaultConformance::baseline_ = nullptr;

TEST_F(DiskFaultConformance, FirstTenSeededSchedules) {
  uint64_t fired = 0;
  for (uint64_t seed = 0; seed < 10; ++seed) {
    fired += CheckSeed(seed);
    if (HasFatalFailure() || HasNonfatalFailure()) {
      return;  // The banner already names the seed.
    }
  }
  // The sweep as a whole must have drawn blood, or it proved nothing.
  EXPECT_GT(fired, 0u);
}

TEST_F(DiskFaultConformance, SecondTenSeededSchedules) {
  uint64_t fired = 0;
  for (uint64_t seed = 10; seed < 20; ++seed) {
    fired += CheckSeed(seed);
    if (HasFatalFailure() || HasNonfatalFailure()) {
      return;
    }
  }
  EXPECT_GT(fired, 0u);
}

TEST_F(DiskFaultConformance, ExploratorySeedFromEnvironment) {
  const char* seed_text = std::getenv("TS_FAULT_SEED");
  if (seed_text == nullptr || *seed_text == '\0') {
    GTEST_SKIP() << "set TS_FAULT_SEED to run exploratory disk schedules";
  }
  const uint64_t base = std::strtoull(seed_text, nullptr, 10);
  const uint64_t schedules = 4 * ScheduleMultiplier();
  for (uint64_t i = 0; i < schedules && !HasFailure(); ++i) {
    CheckSeed(base + i * 104'729);
  }
  if (HasFailure()) {
    if (const char* artifact = std::getenv("TS_FAULT_ARTIFACT")) {
      FILE* f = std::fopen(artifact, "a");
      if (f != nullptr) {
        std::fprintf(f,
                     "# ts_fault exploratory disk-fault-schedule failure\n"
                     "TS_FAULT_SEED=%llu\n",
                     static_cast<unsigned long long>(base));
        std::fclose(f);
      }
    }
  }
}

}  // namespace
}  // namespace ts
