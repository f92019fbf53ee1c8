// Tests for the tiered session store (src/store): cold segment format
// round-trips, the damage-tolerance property (every-byte corruption and
// every-boundary truncation degrade to a cold miss — never a crash, never a
// wrong answer), restart re-discovery, byte-identity of tiered query serving
// against an unbounded reference store, the RANGE response-budget
// regression over a 100k-session cold tier, and the stored-bytes block path
// (verbatim lines, non-canonical fallback, bounded segment handles,
// newest-first SERVICE scan, TOPK memo invalidation).
#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/analytics/session_store.h"
#include "src/ckpt/checkpoint.h"
#include "src/ckpt/snapshot_io.h"
#include "src/common/time_util.h"
#include "src/fault/fs_fault.h"
#include "src/log/wire_format.h"
#include "src/query/query_client.h"
#include "src/query/query_protocol.h"
#include "src/query/query_server.h"
#include "src/store/cold_segment.h"
#include "src/store/cold_tier.h"
#include "src/store/tiered_digest.h"

namespace ts {
namespace {

Session MakeSession(const std::string& id, EventTime start_ns,
                    EventTime end_ns, std::vector<uint32_t> services,
                    uint32_t fragment = 0, size_t payload_bytes = 8) {
  Session s;
  s.id = id;
  s.fragment_index = fragment;
  EventTime t = start_ns;
  const EventTime step =
      services.empty()
          ? 0
          : (end_ns - start_ns) / static_cast<EventTime>(services.size() + 1);
  for (uint32_t svc : services) {
    LogRecord r;
    r.time = t;
    r.session_id = id;
    r.txn_id = *TxnId::Parse("1-2");
    r.service = svc;
    r.host = svc;
    r.kind = EventKind::kAnnotation;
    r.payload = "x=" + std::string(payload_bytes, 'a');
    s.records.push_back(std::move(r));
    t += step;
  }
  if (s.records.size() >= 2) {
    s.records.back().time = end_ns;
  }
  s.first_epoch = static_cast<Epoch>(start_ns / kNanosPerSecond);
  s.last_epoch = static_cast<Epoch>(end_ns / kNanosPerSecond);
  s.closed_at = s.last_epoch;
  return s;
}

// Fresh scratch directory per test; removed (best effort) on scope exit.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag)
      : path_(::testing::TempDir() + "ts_cold_" + tag + "_" +
              std::to_string(::getpid())) {
    Wipe();
  }
  ~ScratchDir() { Wipe(); }
  const std::string& path() const { return path_; }

 private:
  void Wipe() {
    const std::string cmd = "rm -rf '" + path_ + "'";
    if (std::system(cmd.c_str()) != 0) {
      ADD_FAILURE() << "cannot wipe " << path_;
    }
  }
  std::string path_;
};

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

std::vector<Session> MakeBatch() {
  return {
      MakeSession("ALPHA", 0, kNanosPerSecond, {1, 2, 3}),
      MakeSession("BETA", kNanosPerMilli, 2 * kNanosPerSecond, {2, 4}),
      MakeSession("BETA", 3 * kNanosPerSecond, 4 * kNanosPerSecond, {5}, 1),
      MakeSession("GAMMA", 500, 600, {7, 7, 2}),
  };
}

TEST(ColdTierSegment, WriteLoadReadRoundTrip) {
  ScratchDir dir("seg_rt");
  ASSERT_EQ(::mkdir(dir.path().c_str(), 0777), 0);
  const std::string path = dir.path() + "/cold-0000000000.seg";
  const std::vector<Session> batch = MakeBatch();

  ColdSegmentIndex written;
  size_t file_bytes = 0;
  ASSERT_TRUE(WriteColdSegment(path, batch, /*first_order=*/17, &written,
                               &file_bytes));
  EXPECT_GT(file_bytes, kColdSegmentTrailerBytes);
  EXPECT_EQ(written.count, batch.size());
  EXPECT_EQ(written.first_order, 17u);
  EXPECT_EQ(written.last_order, 17u + batch.size() - 1);

  ColdSegmentIndex index;
  size_t loaded_bytes = 0;
  ASSERT_TRUE(LoadColdSegmentIndex(path, &index, &loaded_bytes));
  EXPECT_EQ(loaded_bytes, file_bytes);
  ASSERT_EQ(index.entries.size(), batch.size());
  EXPECT_EQ(index.min_time, EventTime{0});
  // BETA fragment 1 has a single record at its start time, so the segment's
  // max extent is that record, not the nominal end.
  EXPECT_EQ(index.max_time, 3 * kNanosPerSecond);

  // Per-service summary counts sessions, not records ("GAMMA" touches 7
  // twice but counts once).
  const std::vector<std::pair<uint32_t, uint64_t>> expected_counts = {
      {1, 1}, {2, 3}, {3, 1}, {4, 1}, {5, 1}, {7, 1}};
  EXPECT_EQ(index.service_counts, expected_counts);

  for (size_t i = 0; i < batch.size(); ++i) {
    const ColdSegmentEntry& e = index.entries[i];
    EXPECT_EQ(e.id, batch[i].id);
    EXPECT_EQ(e.fragment, batch[i].fragment_index);
    EXPECT_EQ(e.min_time, batch[i].MinTime());
    EXPECT_EQ(e.max_time, batch[i].MaxTime());
    Session decoded;
    ASSERT_TRUE(ReadColdSession(path, e.offset, e.length, &decoded)) << i;
    EXPECT_EQ(EncodeSessionBlock(decoded), EncodeSessionBlock(batch[i])) << i;
  }
}

TEST(ColdTierSegment, TruncationAtEveryByteFailsIndexValidation) {
  ScratchDir dir("seg_trunc");
  ASSERT_EQ(::mkdir(dir.path().c_str(), 0777), 0);
  const std::string path = dir.path() + "/cold-0000000000.seg";
  ColdSegmentIndex index;
  size_t file_bytes = 0;
  ASSERT_TRUE(WriteColdSegment(path, MakeBatch(), 0, &index, &file_bytes));
  const std::string bytes = ReadFile(path);
  ASSERT_EQ(bytes.size(), file_bytes);

  const std::string probe = dir.path() + "/cold-0000000001.seg";
  for (size_t len = 0; len < bytes.size(); ++len) {
    WriteFile(probe, bytes.substr(0, len));
    ColdSegmentIndex damaged;
    size_t damaged_bytes = 0;
    EXPECT_FALSE(LoadColdSegmentIndex(probe, &damaged, &damaged_bytes))
        << "prefix of " << len << " bytes validated";
  }
}

TEST(ColdTierSegment, EveryByteCorruptionDegradesToMissNeverWrongAnswer) {
  ScratchDir dir("seg_flip");
  ASSERT_EQ(::mkdir(dir.path().c_str(), 0777), 0);
  const std::string path = dir.path() + "/cold-0000000000.seg";
  const std::vector<Session> batch = MakeBatch();
  ColdSegmentIndex index;
  size_t file_bytes = 0;
  ASSERT_TRUE(WriteColdSegment(path, batch, 0, &index, &file_bytes));
  std::string bytes = ReadFile(path);

  // What a correct answer looks like, keyed by (id, fragment).
  std::map<std::pair<std::string, uint32_t>, std::string> canonical;
  for (const auto& s : batch) {
    canonical[{s.id, s.fragment_index}] = EncodeSessionBlock(s);
  }

  const std::string probe = dir.path() + "/cold-0000000001.seg";
  // The same damage served through a tier's ReadBlock: a lone segment in
  // its own directory, so the tier loads exactly the damaged file.
  const std::string tier_dir = dir.path() + "/tier";
  ColdTierOptions tier_options;
  tier_options.dir = tier_dir;
  for (size_t pos = 0; pos < bytes.size(); ++pos) {
    bytes[pos] = static_cast<char>(bytes[pos] ^ 0x5A);
    WriteFile(probe, bytes);
    ASSERT_EQ(std::system(("rm -rf '" + tier_dir + "'").c_str()), 0);
    ASSERT_EQ(::mkdir(tier_dir.c_str(), 0777), 0);
    WriteFile(tier_dir + "/cold-0000000000.seg", bytes);
    bytes[pos] = static_cast<char>(bytes[pos] ^ 0x5A);  // Restore.

    // Through ReadBlock every session is either a counted miss (segment
    // skipped at Start, or a frame failing its checks) or its exact block.
    {
      ColdTier tier(tier_options);
      ASSERT_TRUE(tier.Start());
      for (const auto& s : batch) {
        const ColdTier::Stats before = tier.stats();
        std::string block = "prefix";
        if (tier.ReadBlock({s.id, s.fragment_index, 0, 0}, &block)) {
          EXPECT_EQ(block, "prefix" + canonical.at({s.id, s.fragment_index}))
              << "flip at byte " << pos << " served wrong bytes for " << s.id;
          continue;
        }
        EXPECT_EQ(block, "prefix") << "flip at byte " << pos;
        const ColdTier::Stats after = tier.stats();
        EXPECT_EQ(after.misses + after.corrupt,
                  before.misses + before.corrupt + 1)
            << "flip at byte " << pos << ": uncounted miss for " << s.id;
      }
    }

    // The contract: the reader either rejects the damage (index validation
    // or frame CRC) or — if the flip misses everything it reads — returns
    // bytes identical to the original. Never garbage, never a crash.
    ColdSegmentIndex damaged;
    size_t damaged_bytes = 0;
    if (!LoadColdSegmentIndex(probe, &damaged, &damaged_bytes)) {
      continue;  // Degraded to a whole-segment miss.
    }
    for (const auto& e : damaged.entries) {
      Session decoded;
      if (!ReadColdSession(probe, e.offset, e.length, &decoded)) {
        continue;  // Degraded to a per-session miss.
      }
      const auto it = canonical.find({decoded.id, decoded.fragment_index});
      ASSERT_NE(it, canonical.end())
          << "flip at byte " << pos << " surfaced an unknown session";
      EXPECT_EQ(EncodeSessionBlock(decoded), it->second)
          << "flip at byte " << pos << " surfaced wrong bytes";
    }
  }

  // The restores were exact: the pristine file still validates.
  WriteFile(probe, bytes);
  ColdSegmentIndex pristine;
  size_t pristine_bytes = 0;
  EXPECT_TRUE(LoadColdSegmentIndex(probe, &pristine, &pristine_bytes));
}

TEST(ColdTierRestart, RediscoversSegmentsAndDedupes) {
  ScratchDir dir("restart");
  ColdTierOptions options;
  options.dir = dir.path();
  options.segment_target_bytes = 1;  // Every append cuts a segment quickly.

  std::vector<Session> spilled;
  for (int i = 0; i < 10; ++i) {
    spilled.push_back(MakeSession("R" + std::to_string(i),
                                  static_cast<EventTime>(i) * kNanosPerMilli,
                                  static_cast<EventTime>(i + 1) * kNanosPerMilli,
                                  {static_cast<uint32_t>(i % 3)}));
  }
  {
    ColdTier tier(options);
    ASSERT_TRUE(tier.Start());
    for (const auto& s : spilled) {
      tier.Append(Session(s));
    }
    ASSERT_TRUE(tier.FlushPending());
    const auto stats = tier.stats();
    EXPECT_EQ(stats.sessions, spilled.size());
    EXPECT_EQ(stats.pending, 0u);
    EXPECT_GE(stats.segments, 1u);
  }

  ColdTier reloaded(options);
  ASSERT_TRUE(reloaded.Start());
  const auto stats = reloaded.stats();
  EXPECT_EQ(stats.sessions, spilled.size());
  EXPECT_GE(stats.segments, 1u);
  EXPECT_EQ(stats.corrupt, 0u);
  for (const auto& s : spilled) {
    EXPECT_TRUE(reloaded.Contains(s.id, s.fragment_index));
    const auto got = reloaded.Get(s.id, s.fragment_index);
    ASSERT_TRUE(got.has_value()) << s.id;
    EXPECT_EQ(EncodeSessionBlock(*got), EncodeSessionBlock(s));
  }
  // Re-spill after restart (the replay path) dedupes against disk.
  reloaded.Append(Session(spilled[3]));
  EXPECT_EQ(reloaded.stats().dedup_dropped, 1u);
  EXPECT_EQ(reloaded.stats().sessions, spilled.size());

  std::vector<std::string> ids;
  reloaded.ForEachId([&](const std::string& id) { ids.push_back(id); });
  EXPECT_EQ(ids.size(), spilled.size());  // Distinct ids, ascending.
  EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
}

// Server + run thread + optional cold tier, torn down in reverse order.
class TieredServerFixture {
 public:
  TieredServerFixture(QueryServerOptions options,
                      SessionStore::Options store_options,
                      std::shared_ptr<ColdTier> cold) {
    store = std::make_shared<SessionStore>(store_options);
    metrics = std::make_shared<MetricsRegistry>();
    server = std::make_unique<QueryServer>(options, store, metrics);
    if (cold != nullptr) {
      this->cold = cold;
      server->SetColdTier(cold);
      store->SetEvictionSink(
          [cold](Session&& s) { cold->Append(std::move(s)); },
          [cold] { cold->WaitForSpace(); });
    }
    EXPECT_TRUE(server->Start());
    thread = std::thread([this] { server->Run(); });
  }
  ~TieredServerFixture() {
    server->Stop();
    thread.join();
  }

  QueryClient Client() {
    QueryClientOptions options;
    options.port = server->port();
    QueryClient client(options);
    EXPECT_TRUE(client.Connect());
    return client;
  }

  std::shared_ptr<SessionStore> store;
  std::shared_ptr<MetricsRegistry> metrics;
  std::shared_ptr<ColdTier> cold;
  std::unique_ptr<QueryServer> server;
  std::thread thread;
};

// Raw blocking socket: exact response bytes, no client-side decoding.
class RawConn {
 public:
  explicit RawConn(uint16_t port) {
    QueryClientOptions options;
    options.port = port;
    client_ = std::make_unique<QueryClient>(options);
    EXPECT_TRUE(client_->Connect());
  }

  std::string Request(const std::string& line) {
    QueryResponse response;
    EXPECT_TRUE(client_->Execute(line, &response)) << line;
    EXPECT_TRUE(response.ok) << line << ": " << response.error;
    std::string bytes;
    for (const auto& s : response.sessions) {
      AppendSessionBlock(s, &bytes);
    }
    for (const auto& [service, count] : response.top) {
      bytes += "TOP " + std::to_string(service) + " " +
               std::to_string(count) + "\n";
    }
    if (response.truncated) {
      bytes += "#TRUNCATED\n";
    }
    bytes += FormatOk(response.count) + "\n";
    return bytes;
  }

 private:
  std::unique_ptr<QueryClient> client_;
};

TEST(ColdTierServer, TieredAnswersAreByteIdenticalToUnboundedReference) {
  // Reference: everything stays hot. Tiered: a hot window ~1/5 the data set,
  // the rest spilled cold (part durable, part still pending). Every verb must
  // serve identical bytes from either server.
  std::vector<Session> sessions;
  for (int i = 0; i < 240; ++i) {
    // Every third session shares a min_time with its neighbors, so the RANGE
    // merge's tie-break (cold before hot on equal start, eviction order among
    // cold) is exercised, not just distinct keys.
    const EventTime start = static_cast<EventTime>(i / 3) * kNanosPerMilli;
    sessions.push_back(MakeSession(
        "S" + std::to_string(i), start, start + kNanosPerMilli,
        {static_cast<uint32_t>(i % 7), 7 + static_cast<uint32_t>(i % 5)}));
    if (i % 10 == 0) {
      sessions.push_back(MakeSession("S" + std::to_string(i), start + 100,
                                     start + kNanosPerMilli, {3}, 1));
    }
  }

  ScratchDir dir("identity");
  ColdTierOptions cold_options;
  cold_options.dir = dir.path();
  cold_options.segment_target_bytes = 1u << 20;  // Spill only on flush.
  auto cold = std::make_shared<ColdTier>(cold_options);
  ASSERT_TRUE(cold->Start());

  SessionStore::Options reference_store;
  reference_store.max_bytes = 1ull << 30;
  TieredServerFixture reference({}, reference_store, nullptr);
  SessionStore::Options tiered_store;
  tiered_store.max_bytes = 24u << 10;
  TieredServerFixture tiered({}, tiered_store, cold);

  for (size_t i = 0; i < sessions.size(); ++i) {
    reference.store->Insert(Session(sessions[i]));
    tiered.store->Insert(Session(sessions[i]));
    if (i == sessions.size() / 2) {
      ASSERT_TRUE(cold->FlushPending());  // First half durable on disk...
    }
  }
  ASSERT_GT(tiered.store->stats().evicted, 0u);
  ASSERT_GE(cold->stats().segments, 1u);
  ASSERT_GT(cold->stats().pending, 0u);  // ...second half still pending.

  RawConn ref_conn(reference.server->port());
  RawConn tier_conn(tiered.server->port());
  std::vector<std::string> requests = {
      "RANGE 0 999999999999 1000",
      "RANGE 20000000 50000000 97",
      "RANGE 35000000 35000001 1000",
      "TOPK 12",
      "FRAGMENTS S0",
      "FRAGMENTS S230",
      "GET MISSING",
  };
  for (int i = 0; i < 240; ++i) {
    requests.push_back("GET S" + std::to_string(i) + " 0");
  }
  for (uint32_t s = 0; s < 12; ++s) {
    requests.push_back("SERVICE " + std::to_string(s) + " 1000");
    requests.push_back("SERVICE " + std::to_string(s) + " 17");
  }
  for (const auto& request : requests) {
    EXPECT_EQ(tier_conn.Request(request), ref_conn.Request(request))
        << request;
  }
  EXPECT_GT(cold->stats().hits, 0u);

  // After a full flush (pending drained to disk) the answers must not move.
  ASSERT_TRUE(cold->FlushPending());
  EXPECT_EQ(cold->stats().pending, 0u);
  for (const auto& request : requests) {
    EXPECT_EQ(tier_conn.Request(request), ref_conn.Request(request))
        << request << " (after flush)";
  }

  // The tiered digest equals the unbounded store's chained digest.
  std::set<std::string> ids;
  reference.store->ForEachSession(
      [&](const Session& s) { ids.insert(s.id); });
  EXPECT_EQ(TieredDigest(*tiered.store, *cold, ids),
            ChainedStoreDigest(*reference.store, ids));
}

TEST(ColdTierServer, DamagedSegmentDegradesToColdMissHotStillServes) {
  ScratchDir dir("damage");
  ColdTierOptions options;
  options.dir = dir.path();
  options.segment_target_bytes = 1u << 20;
  const Session cold_session =
      MakeSession("COLD1", 0, kNanosPerMilli, {1, 2});
  const Session cold_intact =
      MakeSession("COLD2", kNanosPerMilli, 2 * kNanosPerMilli, {3});
  {
    ColdTier writer(options);
    ASSERT_TRUE(writer.Start());
    writer.Append(Session(cold_session));
    writer.Append(Session(cold_intact));
    ASSERT_TRUE(writer.FlushPending());
  }
  // Locate COLD1's frame via the index and damage one payload byte.
  const std::string path = dir.path() + "/cold-0000000000.seg";
  ColdSegmentIndex index;
  size_t file_bytes = 0;
  ASSERT_TRUE(LoadColdSegmentIndex(path, &index, &file_bytes));
  ASSERT_EQ(index.entries.size(), 2u);
  ASSERT_EQ(index.entries[0].id, "COLD1");
  std::string bytes = ReadFile(path);
  const size_t victim = index.entries[0].offset + 12;  // Inside the payload.
  bytes[victim] = static_cast<char>(bytes[victim] ^ 0xFF);
  WriteFile(path, bytes);

  auto cold = std::make_shared<ColdTier>(options);
  ASSERT_TRUE(cold->Start());
  EXPECT_EQ(cold->stats().segments, 1u);  // Index intact: segment loads.

  TieredServerFixture tiered({}, {}, cold);
  tiered.store->Insert(MakeSession("HOT1", 0, kNanosPerMilli, {9}));

  auto client = tiered.Client();
  auto damaged = client.Get("COLD1");
  EXPECT_TRUE(damaged.ok);  // A cold miss, not an error, never a crash.
  EXPECT_TRUE(damaged.sessions.empty());
  auto intact = client.Get("COLD2");
  EXPECT_TRUE(intact.ok);
  ASSERT_EQ(intact.sessions.size(), 1u);
  EXPECT_EQ(EncodeSessionBlock(intact.sessions[0]),
            EncodeSessionBlock(cold_intact));
  auto hot = client.Get("HOT1");
  EXPECT_TRUE(hot.ok);
  ASSERT_EQ(hot.sessions.size(), 1u);  // Hot serving is unaffected.

  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok);
  int64_t corrupt = -1;
  for (const auto& [name, value] : stats.stats) {
    if (name == "store_cold_corrupt") {
      corrupt = value;
    }
  }
  EXPECT_GE(corrupt, 1);  // The damage is visible in accounting.
}

TEST(ColdTierServer, WholeSegmentCorruptionIsSkippedAtStart) {
  ScratchDir dir("damage_idx");
  ColdTierOptions options;
  options.dir = dir.path();
  options.segment_target_bytes = 1u << 20;
  {
    ColdTier writer(options);
    ASSERT_TRUE(writer.Start());
    writer.Append(MakeSession("GONE", 0, kNanosPerMilli, {1}));
    ASSERT_TRUE(writer.FlushPending());
  }
  const std::string path = dir.path() + "/cold-0000000000.seg";
  std::string bytes = ReadFile(path);
  bytes[bytes.size() - 1] ^= 0x01;  // Break the trailer magic.
  WriteFile(path, bytes);

  ColdTier reloaded(options);
  ASSERT_TRUE(reloaded.Start());  // Damage is never fatal.
  EXPECT_EQ(reloaded.stats().segments, 0u);
  EXPECT_EQ(reloaded.stats().corrupt, 1u);
  EXPECT_FALSE(reloaded.Get("GONE", 0).has_value());
  // The damaged file's name stays burned: new spills pick a fresh sequence.
  reloaded.Append(MakeSession("NEW", 0, kNanosPerMilli, {1}));
  ASSERT_TRUE(reloaded.FlushPending());
  EXPECT_EQ(reloaded.stats().segments, 1u);
  EXPECT_TRUE(reloaded.Get("NEW", 0).has_value());
}

TEST(ColdTierStress, ConcurrentAppendQueryFlushIsCoherent) {
  ScratchDir dir("stress");
  ColdTierOptions options;
  options.dir = dir.path();
  options.segment_target_bytes = 8u << 10;  // Many small segments.
  ColdTier tier(options);
  ASSERT_TRUE(tier.Start());

  constexpr int kSessions = 600;
  std::thread appender([&] {
    for (int i = 0; i < kSessions; ++i) {
      tier.Append(MakeSession("X" + std::to_string(i),
                              static_cast<EventTime>(i) * 1000,
                              static_cast<EventTime>(i) * 1000 + 500,
                              {static_cast<uint32_t>(i % 5)}));
    }
  });
  std::thread flusher([&] {
    for (int i = 0; i < 5; ++i) {
      EXPECT_TRUE(tier.FlushPending());
    }
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      for (int i = 0; i < kSessions; ++i) {
        const std::string id = "X" + std::to_string((i * 7 + r) % kSessions);
        const auto got = tier.Get(id, 0);
        if (got.has_value()) {
          EXPECT_EQ(got->id, id);
        }
        tier.CollectRange(0, 1'000'000, 10);
        tier.ServiceCounts();
      }
    });
  }
  appender.join();
  flusher.join();
  for (auto& t : readers) {
    t.join();
  }
  ASSERT_TRUE(tier.FlushPending());
  const auto stats = tier.stats();
  EXPECT_EQ(stats.sessions, static_cast<uint64_t>(kSessions));
  EXPECT_EQ(stats.pending, 0u);
  EXPECT_EQ(stats.corrupt, 0u);
  EXPECT_EQ(stats.write_failures, 0u);
  for (int i = 0; i < kSessions; ++i) {
    EXPECT_TRUE(tier.Contains("X" + std::to_string(i), 0)) << i;
  }
}

TEST(ColdTierStress, OversizedSegmentTargetIsClampedAndStillSpills) {
  // Regression: a segment target larger than the pending bound used to leave
  // the spill thread asleep (WantSpill never fired) while backpressure
  // blocked forever on a backlog only the spill thread could drain. The
  // target is clamped to max_pending_bytes, so the cycle cannot arise.
  ScratchDir dir("clamp");
  ColdTierOptions options;
  options.dir = dir.path();
  options.segment_target_bytes = 64u << 20;  // Far above the pending bound.
  options.max_pending_bytes = 8u << 10;
  ColdTier tier(options);
  ASSERT_TRUE(tier.Start());

  constexpr int kSessions = 40;  // ~1 KiB each: several times the bound.
  for (int i = 0; i < kSessions; ++i) {
    tier.Append(MakeSession("B" + std::to_string(i),
                            static_cast<EventTime>(i) * 1000,
                            static_cast<EventTime>(i) * 1000 + 500, {1}, 0,
                            /*payload_bytes=*/1024));
    tier.WaitForSpace();  // Must always return: the spill thread drains.
  }
  EXPECT_GE(tier.stats().segments, 1u);  // Spill fired without any flush.
  ASSERT_TRUE(tier.FlushPending());
  EXPECT_EQ(tier.stats().sessions, static_cast<uint64_t>(kSessions));
  EXPECT_EQ(tier.stats().pending, 0u);
}

TEST(ColdTierStress, EvictionHandoffNeverLeavesASessionInvisible) {
  // Regression: victims used to leave the hot window before entering the
  // cold tier, so a concurrent GET could find an inserted session in neither
  // tier. The sink now runs inside the store's eviction critical section:
  // from the moment Insert returns, the session is continuously visible.
  ScratchDir dir("handoff");
  ColdTierOptions cold_options;
  cold_options.dir = dir.path();
  cold_options.segment_target_bytes = 8u << 10;
  auto cold = std::make_shared<ColdTier>(cold_options);
  ASSERT_TRUE(cold->Start());

  SessionStore::Options store_options;
  store_options.max_bytes = 4u << 10;  // Almost every insert evicts.
  SessionStore store(store_options);
  store.SetEvictionSink([&](Session&& s) { cold->Append(std::move(s)); },
                        [&] { cold->WaitForSpace(); });

  constexpr int kWriters = 4;
  constexpr int kPerWriter = 250;
  std::atomic<int> published[kWriters] = {};
  std::atomic<bool> stop_probing{false};
  auto id_of = [](int w, int i) {
    return "W" + std::to_string(w) + "-" + std::to_string(i);
  };

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        store.Insert(MakeSession(id_of(w, i),
                                 static_cast<EventTime>(i) * 1000,
                                 static_cast<EventTime>(i) * 1000 + 500,
                                 {static_cast<uint32_t>(w)}));
        published[w].store(i + 1, std::memory_order_release);
      }
    });
  }
  std::thread prober([&] {
    uint64_t step = 0;
    while (!stop_probing.load(std::memory_order_acquire)) {
      for (int w = 0; w < kWriters; ++w) {
        const int n = published[w].load(std::memory_order_acquire);
        if (n == 0) {
          continue;
        }
        const int i = static_cast<int>(step * 7 + static_cast<uint64_t>(w)) % n;
        const std::string id = id_of(w, i);
        if (!store.GetById(id, 0).has_value() &&
            !cold->Get(id, 0).has_value()) {
          ADD_FAILURE() << id << " visible in neither tier";
          return;
        }
      }
      ++step;
    }
  });
  for (auto& t : writers) {
    t.join();
  }
  stop_probing.store(true, std::memory_order_release);
  prober.join();

  // Nothing was lost: every session ended in exactly the hot ∪ cold union.
  ASSERT_TRUE(cold->FlushPending());
  for (int w = 0; w < kWriters; ++w) {
    for (int i = 0; i < kPerWriter; ++i) {
      EXPECT_TRUE(store.Contains(id_of(w, i), 0) ||
                  cold->Contains(id_of(w, i), 0))
          << id_of(w, i);
    }
  }
}

TEST(ColdTierStress, AbandonRacingAnActiveSpillStaysCrashEquivalent) {
  // Regression: Abandon() concurrent with an in-flight segment write used to
  // let the spill thread pop an already-cleared pending queue (UB) and
  // publish a segment after the simulated kill instant. Now the write is
  // discarded: whatever survives on disk must be exactly re-discoverable.
  for (int round = 0; round < 8; ++round) {
    ScratchDir dir("abandon" + std::to_string(round));
    ColdTierOptions options;
    options.dir = dir.path();
    options.segment_target_bytes = 1;  // Spill continuously, tiny segments.

    std::map<std::string, std::string> canonical;
    {
      ColdTier tier(options);
      ASSERT_TRUE(tier.Start());
      for (int i = 0; i < 60; ++i) {
        Session s = MakeSession("A" + std::to_string(i),
                                static_cast<EventTime>(i) * 1000,
                                static_cast<EventTime>(i) * 1000 + 500,
                                {static_cast<uint32_t>(i % 3)});
        canonical[s.id] = EncodeSessionBlock(s);
        tier.Append(std::move(s));
        if (i == 29 && round % 2 == 1) {
          // Odd rounds guarantee durable segments before the race, so the
          // reload verification below always has sessions to check; even
          // rounds leave the Abandon/spill interleaving fully open.
          ASSERT_TRUE(tier.FlushPending());
        }
      }
      tier.Abandon();  // Lands mid-write for at least some rounds.
      EXPECT_EQ(tier.stats().pending, 0u);
    }

    // The kill instant left only whole, valid segments: a restart loads them
    // all and serves back byte-identical sessions, nothing corrupt.
    ColdTier reloaded(options);
    ASSERT_TRUE(reloaded.Start());
    EXPECT_EQ(reloaded.stats().corrupt, 0u);
    EXPECT_LE(reloaded.stats().sessions, canonical.size());
    if (round % 2 == 1) {
      EXPECT_GE(reloaded.stats().sessions, 30u);
    }
    // ForEachId holds the tier lock across the callback — collect first,
    // read after, or the Get() reentry deadlocks.
    std::vector<std::string> ids;
    reloaded.ForEachId([&](const std::string& id) { ids.push_back(id); });
    for (const auto& id : ids) {
      const auto got = reloaded.Get(id, 0);
      ASSERT_TRUE(got.has_value()) << id;
      EXPECT_EQ(EncodeSessionBlock(*got), canonical.at(id)) << id;
    }
  }
}

TEST(ColdTierServer, TopkDoesNotDoubleCountPostRestoreOverlap) {
  // Post-restore a session can be hot AND durable cold at once (the snapshot
  // restored it hot while a pre-crash flush made it cold). TOPK must count
  // it once per touched service, like the unbounded reference would.
  ScratchDir dir("topk_overlap");
  ColdTierOptions cold_options;
  cold_options.dir = dir.path();
  cold_options.segment_target_bytes = 1u << 20;
  auto cold = std::make_shared<ColdTier>(cold_options);
  ASSERT_TRUE(cold->Start());

  const Session both = MakeSession("BOTH", 0, kNanosPerMilli, {1, 2});
  const Session hot_only =
      MakeSession("HOT", kNanosPerMilli, 2 * kNanosPerMilli, {1});
  const Session cold_only =
      MakeSession("COLDONLY", 2 * kNanosPerMilli, 3 * kNanosPerMilli, {2});
  cold->Append(Session(both));
  cold->Append(Session(cold_only));
  ASSERT_TRUE(cold->FlushPending());

  TieredServerFixture tiered({}, {}, cold);  // Hot budget: nothing evicts.
  tiered.store->Insert(Session(both));  // "Restored" copy of a cold session.
  tiered.store->Insert(Session(hot_only));

  auto client = tiered.Client();
  QueryResponse response;
  ASSERT_TRUE(client.Execute("TOPK 10", &response));
  ASSERT_TRUE(response.ok) << response.error;
  const std::vector<std::pair<uint32_t, uint64_t>> expected = {{1, 2}, {2, 2}};
  EXPECT_EQ(response.top, expected);  // Not {1,3},{2,3}: BOTH counted once.
}

TEST(ColdTierRangeBudget, HundredThousandSessionColdTierStreamsWithinBudget) {
  // Satellite regression: RANGE over a big cold tier must stream candidates
  // under the response budget — reading only the frames it actually sends —
  // and answer #TRUNCATED, never materialize the whole matching set.
  ScratchDir dir("budget");
  ColdTierOptions cold_options;
  cold_options.dir = dir.path();
  cold_options.segment_target_bytes = 1u << 20;
  cold_options.max_pending_bytes = 256u << 20;
  auto cold = std::make_shared<ColdTier>(cold_options);
  ASSERT_TRUE(cold->Start());

  constexpr size_t kCold = 100'000;
  for (size_t i = 0; i < kCold; ++i) {
    cold->Append(MakeSession("C" + std::to_string(i),
                             static_cast<EventTime>(i) * 1000,
                             static_cast<EventTime>(i) * 1000 + 500,
                             {static_cast<uint32_t>(i % 32)}, 0,
                             /*payload_bytes=*/4));
  }
  ASSERT_TRUE(cold->FlushPending());
  ASSERT_EQ(cold->stats().sessions, kCold);
  ASSERT_GE(cold->stats().segments, 2u);
  const uint64_t hits_before = cold->stats().hits;

  QueryServerOptions options;
  options.max_conn_buffer_bytes = 32u << 10;  // The response budget.
  TieredServerFixture tiered(options, {}, cold);
  auto client = tiered.Client();

  QueryResponse all;
  ASSERT_TRUE(client.Execute("RANGE 0 999999999999 100000", &all));
  ASSERT_TRUE(all.ok) << all.error;
  EXPECT_TRUE(all.truncated);  // 100k sessions >> 32 KiB budget.
  EXPECT_GE(all.count, 1u);
  EXPECT_LT(all.count, 2'000u);
  EXPECT_EQ(all.sessions.size(), all.count);
  for (size_t i = 0; i < all.sessions.size(); ++i) {
    // Time-ordered from the front of the tier.
    EXPECT_EQ(all.sessions[i].id, "C" + std::to_string(i));
  }
  // The budget bounded the frame reads too: only streamed sessions (plus at
  // most the one that tripped the budget) were ever materialized.
  EXPECT_LE(cold->stats().hits - hits_before, all.count + 1);

  QueryResponse limited;
  ASSERT_TRUE(client.Execute("RANGE 0 999999999999 40", &limited));
  ASSERT_TRUE(limited.ok) << limited.error;
  EXPECT_FALSE(limited.truncated);
  ASSERT_EQ(limited.sessions.size(), 40u);
  for (size_t i = 0; i < 40; ++i) {
    EXPECT_EQ(limited.sessions[i].id, "C" + std::to_string(i));
  }

  // A narrow window deep inside the tier stays cheap: index-pruned, exact.
  QueryResponse window;
  ASSERT_TRUE(
      client.Execute("RANGE 50000000 50010000 1000", &window));
  ASSERT_TRUE(window.ok) << window.error;
  EXPECT_FALSE(window.truncated);
  ASSERT_EQ(window.sessions.size(), 10u);
  EXPECT_EQ(window.sessions[0].id, "C50000");
}


// Sessions shaped to stress verbatim serving: payloads holding '|', empty
// payloads, negative and extreme times, deep txn ids with 0 and u32-max
// components, extreme service/host ids, and several fragments per id.
std::vector<Session> GeneratedSessions(uint32_t seed, int count) {
  std::mt19937 rng(seed);
  const std::vector<std::string> payloads = {
      "", "|", "a|b|c", "k=v|", "|lead", "plain text payload", "x=1 y=2"};
  std::vector<Session> out;
  const int ids = count / 3 + 1;
  for (int i = 0; i < count; ++i) {
    Session s;
    s.id = "G" + std::to_string(i % ids) + (i % 5 == 0 ? "-deep.id" : "");
    s.fragment_index = static_cast<uint32_t>(i / ids);
    s.first_epoch = rng() % 1000;
    s.last_epoch = s.first_epoch + rng() % 5;
    s.closed_at = s.last_epoch + 1;
    const int records = 1 + static_cast<int>(rng() % 12);
    for (int r = 0; r < records; ++r) {
      LogRecord record;
      switch (rng() % 8) {
        case 0:
          record.time = std::numeric_limits<int64_t>::min();
          break;
        case 1:
          record.time = std::numeric_limits<int64_t>::max();
          break;
        default:
          record.time = static_cast<int64_t>(rng() % 2'000'000) - 1'000'000;
      }
      record.session_id = s.id;
      std::vector<uint32_t> path;
      const int depth = 1 + static_cast<int>(rng() % 9);
      for (int d = 0; d < depth; ++d) {
        const uint32_t pick = rng() % 4;
        path.push_back(pick == 0   ? 0
                       : pick == 1 ? std::numeric_limits<uint32_t>::max()
                                   : rng() % 40);
      }
      record.txn_id = TxnId(std::move(path));
      record.service = rng() % 6 == 0 ? std::numeric_limits<uint32_t>::max()
                                      : rng() % 50;
      record.host = static_cast<uint32_t>(rng());
      record.kind = static_cast<EventKind>(rng() % 3);
      record.payload = payloads[rng() % payloads.size()];
      s.records.push_back(std::move(record));
    }
    out.push_back(std::move(s));
  }
  return out;
}

TEST(ColdTierSegment, ReadBlockServesStoredLinesByteIdentically) {
  ScratchDir dir("block_gen");
  ColdTierOptions options;
  options.dir = dir.path();
  options.segment_target_bytes = 16u << 10;  // Several segments.
  const std::vector<Session> sessions = GeneratedSessions(7, 300);

  auto check = [&](ColdTier& tier, const char* phase) {
    for (const auto& s : sessions) {
      const ColdTier::Candidate candidate{s.id, s.fragment_index, 0, 0};
      std::string block = "prefix";  // ReadBlock appends.
      ASSERT_TRUE(tier.ReadBlock(candidate, &block)) << phase << " " << s.id;
      Session decoded;
      ASSERT_TRUE(tier.Read(candidate, &decoded)) << phase << " " << s.id;
      EXPECT_EQ(block, "prefix" + EncodeSessionBlock(decoded))
          << phase << " " << s.id;
      EXPECT_EQ(block, "prefix" + EncodeSessionBlock(s))
          << phase << " " << s.id;
    }
    EXPECT_EQ(tier.stats().corrupt, 0u) << phase;
  };
  {
    ColdTier tier(options);
    ASSERT_TRUE(tier.Start());
    for (size_t i = 0; i < sessions.size(); ++i) {
      tier.Append(Session(sessions[i]));
      if (i == sessions.size() / 2) {
        ASSERT_TRUE(tier.FlushPending());  // First half durable...
      }
    }
    check(tier, "durable+pending");  // ...the rest pending or spilling.
    ASSERT_TRUE(tier.FlushPending());
    ASSERT_GE(tier.stats().segments, 2u);
    check(tier, "durable");
  }
  ColdTier reloaded(options);
  ASSERT_TRUE(reloaded.Start());
  check(reloaded, "reloaded");
  std::string block;
  EXPECT_FALSE(reloaded.ReadBlock({"MISSING", 0, 0, 0}, &block));
  EXPECT_TRUE(block.empty());
}

TEST(ColdTierSegment, NonCanonicalFrameServesTheDecodePathBytes) {
  // A CRC-valid 'S' frame the writer could never produce: every record line
  // parses, but several do not re-encode to themselves. Serving such a
  // frame verbatim would change the reply, so it must fall back to decode +
  // AppendSessionBlock and serve exactly what the decode path serves.
  const std::vector<std::string> lines = {
      "007|NC|1-2|svc-1|h-1|ANNOT|x",       // Leading zeros in the time.
      "-0|NC|1|svc-1|h-1|START|",           // Negative zero.
      "5|NC|1|svc-01|h-1|END|p",            // Leading zero in the service.
      "6|NC|1-02|svc-2|h-003|ANNOT|a|b",    // ...in a txn component, host.
      "8|NC|3|svc-4|h-5|END",               // No payload separator.
      "9|NC|3|svc-4|h-5|ANNOT|canonical",  // The one canonical line.
  };
  for (size_t i = 0; i + 1 < lines.size(); ++i) {
    EXPECT_FALSE(IsCanonicalWireFormat(lines[i])) << lines[i];
  }
  EXPECT_TRUE(IsCanonicalWireFormat(lines.back()));

  std::string payload;
  payload.push_back('S');
  PutBytes(&payload, "NC");
  PutU32(&payload, 2);  // Fragment.
  PutU64(&payload, 3);
  PutU64(&payload, 4);
  PutU64(&payload, 5);
  PutU32(&payload, static_cast<uint32_t>(lines.size()));
  for (const auto& line : lines) {
    PutBytes(&payload, line);
  }
  std::string frame;
  AppendFrame(&frame, payload);
  Session decoded;
  ASSERT_TRUE(DecodeStoreFramePayload(payload, &decoded));
  const std::string expected = EncodeSessionBlock(decoded);
  std::string verbatim;
  for (const auto& line : lines) {
    verbatim += line + "\n";
  }
  ASSERT_EQ(expected.find(verbatim), std::string::npos);  // They differ.

  // Lay the frame into a real segment: write a canonical stand-in of the
  // same frame length (the last payload padded by the difference), then
  // overwrite its bytes with the hand-built frame. The index stays valid.
  Session stand_in = decoded;
  std::string canonical_frame;
  StoreFrameEncoder().Append(stand_in, &canonical_frame);
  ASSERT_LT(canonical_frame.size(), frame.size());
  stand_in.records.back().payload +=
      std::string(frame.size() - canonical_frame.size(), 'z');
  const Session neighbour = MakeSession("OK", 0, kNanosPerMilli, {1, 2});

  ScratchDir dir("noncanon");
  ASSERT_EQ(::mkdir(dir.path().c_str(), 0777), 0);
  const std::string path = dir.path() + "/cold-0000000000.seg";
  ColdSegmentIndex index;
  size_t file_bytes = 0;
  ASSERT_TRUE(
      WriteColdSegment(path, {neighbour, stand_in}, 0, &index, &file_bytes));
  ASSERT_EQ(index.entries[1].length, frame.size());
  std::string bytes = ReadFile(path);
  bytes.replace(index.entries[1].offset, frame.size(), frame);
  WriteFile(path, bytes);

  ColdTierOptions options;
  options.dir = dir.path();
  ColdTier tier(options);
  ASSERT_TRUE(tier.Start());
  std::string block;
  ASSERT_TRUE(tier.ReadBlock({"NC", 2, 0, 0}, &block));
  EXPECT_EQ(block, expected);
  const auto got = tier.Get("NC", 2);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(EncodeSessionBlock(*got), expected);
  block.clear();
  ASSERT_TRUE(tier.ReadBlock({"OK", 0, 0, 0}, &block));
  EXPECT_EQ(block, EncodeSessionBlock(neighbour));
  EXPECT_EQ(tier.stats().corrupt, 0u);
}

// Fails every write while `broken` is set, so the spill thread sheds.
class FailWritesInjector : public FsFaultInjector {
 public:
  std::atomic<bool> broken{false};
  FsFaultAction OnWrite(const char* path, size_t len) override {
    (void)path;
    (void)len;
    FsFaultAction action;
    if (broken.load(std::memory_order_relaxed)) {
      action.kind = FsFaultAction::Kind::kFail;
      action.error = EIO;
    }
    return action;
  }
};

TEST(ColdTierServer, CollectByServiceNewestFirstMatchesFullScan) {
  // The oracle is the full scan CollectByService used to run: every index
  // entry (segments in file order, then pending) that touched the service,
  // sorted by spill order descending, cut at the limit. Spill orders are
  // modelled here from the appends: Start numbers segment entries in file
  // order, each accepted Append takes the next order, a shed batch consumes
  // its orders, and a deduped Append takes none.
  struct ModelEntry {
    std::string id;
    uint32_t fragment = 0;
    EventTime min_time = 0;
    uint64_t order = 0;
    std::vector<uint32_t> services;
    bool live = true;
  };
  std::vector<ModelEntry> model;
  uint64_t next_order = 0;
  auto record = [&](const Session& s, bool live) {
    ModelEntry e;
    e.id = s.id;
    e.fragment = s.fragment_index;
    e.min_time = s.MinTime();
    e.order = next_order++;
    for (const auto& r : s.records) {
      e.services.push_back(r.service);
    }
    e.live = live;
    model.push_back(std::move(e));
  };
  auto session = [](const std::string& id, int i, uint32_t fragment = 0) {
    std::vector<uint32_t> services = {static_cast<uint32_t>(i % 4)};
    if (i % 3 == 0) {
      services.push_back(4 + static_cast<uint32_t>(i % 2));
    }
    return MakeSession(id, static_cast<EventTime>(i) * 1000,
                       static_cast<EventTime>(i) * 1000 + 500, services,
                       fragment);
  };

  ScratchDir dir("svc_scan");
  ASSERT_EQ(::mkdir(dir.path().c_str(), 0777), 0);
  // Three segments written before Start; the third repeats a key of the
  // first (a duplicate both scans report, each at its own order).
  std::vector<std::vector<Session>> pre(3);
  for (int i = 0; i < 15; ++i) {
    pre[static_cast<size_t>(i / 5)].push_back(
        session("P" + std::to_string(i), i, i == 7 ? 1 : 0));
  }
  pre[2].push_back(pre[0][1]);
  for (size_t seg = 0; seg < pre.size(); ++seg) {
    ColdSegmentIndex index;
    size_t file_bytes = 0;
    ASSERT_TRUE(WriteColdSegment(
        dir.path() + "/cold-000000000" + std::to_string(seg) + ".seg",
        pre[seg], next_order, &index, &file_bytes));
    for (const auto& s : pre[seg]) {
      record(s, true);
    }
  }

  ColdTierOptions options;
  options.dir = dir.path();
  options.segment_target_bytes = 1u << 20;  // Spill only on flush.
  options.spill_retry_limit = 1;            // Shed on the first failure.
  options.spill_backoff_ms = 1;
  ColdTier tier(options);
  ASSERT_TRUE(tier.Start());
  ASSERT_EQ(tier.stats().segments, 3u);

  for (int i = 20; i < 26; ++i) {  // A durable segment of appends.
    const Session s = session("D" + std::to_string(i), i);
    tier.Append(Session(s));
    record(s, true);
  }
  tier.Append(Session(pre[1][2]));  // Already cold: deduped, no order.
  ASSERT_EQ(tier.stats().dedup_dropped, 1u);
  ASSERT_TRUE(tier.FlushPending());
  {
    FailWritesInjector disk;
    ScopedFsFaultInjector scoped(&disk);
    disk.broken.store(true);
    for (int i = 30; i < 34; ++i) {  // A batch the disk refuses: shed.
      const Session s = session("E" + std::to_string(i), i);
      tier.Append(Session(s));
      record(s, false);
    }
    ASSERT_TRUE(tier.FlushPending());
    ASSERT_EQ(tier.stats().shed_sessions, 4u);
  }
  for (int i = 40; i < 46; ++i) {  // Still pending.
    const Session s = session("F" + std::to_string(i), i);
    tier.Append(Session(s));
    record(s, true);
  }
  ASSERT_EQ(tier.stats().pending, 6u);

  for (uint32_t service = 0; service < 7; ++service) {
    for (size_t limit : {size_t{0}, size_t{1}, size_t{3}, size_t{7},
                         size_t{1000}}) {
      std::vector<const ModelEntry*> want;
      for (const auto& e : model) {
        if (e.live && std::find(e.services.begin(), e.services.end(),
                                service) != e.services.end()) {
          want.push_back(&e);
        }
      }
      std::sort(want.begin(), want.end(),
                [](const ModelEntry* a, const ModelEntry* b) {
                  return a->order > b->order;
                });
      want.resize(std::min(limit, want.size()));
      const auto got = tier.CollectByService(service, limit);
      ASSERT_EQ(got.size(), want.size())
          << "service " << service << " limit " << limit;
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].id, want[i]->id) << service << "/" << limit;
        EXPECT_EQ(got[i].fragment, want[i]->fragment);
        EXPECT_EQ(got[i].min_time, want[i]->min_time);
        EXPECT_EQ(got[i].order, want[i]->order);
      }
    }
  }
}

// Open file descriptors of this process (the listing's own fd included, so
// only differences between two calls are meaningful).
size_t OpenFdCount() {
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) {
    ADD_FAILURE() << "cannot list /proc/self/fd";
    return 0;
  }
  size_t count = 0;
  while (const dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] != '.') {
      ++count;
    }
  }
  ::closedir(dir);
  return count;
}

// A tier with more single-session segments than the handle cache holds.
std::vector<Session> SpillOnePerSegment(ColdTier* tier, size_t segments) {
  std::vector<Session> sessions;
  for (size_t i = 0; i < segments; ++i) {
    sessions.push_back(MakeSession("H" + std::to_string(i),
                                   static_cast<EventTime>(i) * 1000,
                                   static_cast<EventTime>(i) * 1000 + 500,
                                   {static_cast<uint32_t>(i % 5)}));
    tier->Append(Session(sessions.back()));
    EXPECT_TRUE(tier->FlushPending());
  }
  EXPECT_EQ(tier->stats().segments, segments);
  return sessions;
}

TEST(ColdTierStress, SegmentHandlesStayWithinTheCacheBound) {
  ScratchDir dir("handles");
  ColdTierOptions options;
  options.dir = dir.path();
  ColdTier tier(options);
  ASSERT_TRUE(tier.Start());
  const std::vector<Session> sessions =
      SpillOnePerSegment(&tier, ColdTier::kMaxOpenSegments + 16);
  const size_t baseline = OpenFdCount();
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& s : sessions) {
      std::string block;
      ASSERT_TRUE(tier.ReadBlock({s.id, 0, 0, 0}, &block));
      EXPECT_EQ(block, EncodeSessionBlock(s));
      const size_t held = OpenFdCount() - baseline;
      ASSERT_LE(held, ColdTier::kMaxOpenSegments) << s.id;
    }
  }
  EXPECT_EQ(OpenFdCount() - baseline, ColdTier::kMaxOpenSegments);
  EXPECT_EQ(tier.stats().corrupt, 0u);
  EXPECT_EQ(tier.stats().read_retries, 0u);
}

TEST(ColdTierStress, ConcurrentReadBlockDuringHandleEviction) {
  // Readers on several threads cycle through more segments than the cache
  // holds, so handles are evicted while other readers are inside pread on
  // them. Refcounted handles keep every fd open until its last reader is
  // done: every read still serves the exact bytes (and TSan sees no race).
  ScratchDir dir("handles_mt");
  ColdTierOptions options;
  options.dir = dir.path();
  ColdTier tier(options);
  ASSERT_TRUE(tier.Start());
  const std::vector<Session> sessions =
      SpillOnePerSegment(&tier, ColdTier::kMaxOpenSegments + 16);
  std::vector<std::string> want;
  for (const auto& s : sessions) {
    want.push_back(EncodeSessionBlock(s));
  }
  const size_t baseline = OpenFdCount();
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      std::mt19937 rng(static_cast<uint32_t>(t));
      std::string block;
      for (int i = 0; i < 600; ++i) {
        const size_t pick = rng() % sessions.size();
        block.clear();
        if (!tier.ReadBlock({sessions[pick].id, 0, 0, 0}, &block) ||
            block != want[pick]) {
          ADD_FAILURE() << "thread " << t << " misread " << sessions[pick].id;
          return;
        }
      }
    });
  }
  for (auto& t : readers) {
    t.join();
  }
  EXPECT_LE(OpenFdCount() - baseline, ColdTier::kMaxOpenSegments);
  EXPECT_EQ(tier.stats().corrupt, 0u);
}

TEST(ColdTierServer, TopkFollowsEveryKindOfMutation) {
  // TOPK is memoized on the store's and the cold tier's mutation
  // generations. Each step below changes the hot ∪ cold service counts
  // through a different kind of mutation; a memo that missed one would
  // serve the previous answer.
  ScratchDir dir("topk_memo");
  ColdTierOptions cold_options;
  cold_options.dir = dir.path();
  cold_options.segment_target_bytes = 1u << 20;
  cold_options.spill_retry_limit = 1;
  cold_options.spill_backoff_ms = 1;
  auto cold = std::make_shared<ColdTier>(cold_options);
  ASSERT_TRUE(cold->Start());

  const Session h1 = MakeSession("H1", 0, kNanosPerMilli, {1});
  const Session h2 = MakeSession("H2", 0, kNanosPerMilli, {2});
  const Session h3 = MakeSession("H3", 0, kNanosPerMilli, {6}, 0,
                                 /*payload_bytes=*/2048);
  // The hot budget holds H2 + H3 but not H1 + H2 + H3: inserting H3 evicts
  // exactly H1. (Footprints of copies: the store holds copies, whose string
  // capacities can be smaller than the originals'.)
  SessionStore::Options store_options;
  store_options.max_bytes = Session(h2).MemoryFootprint() +
                            Session(h3).MemoryFootprint() +
                            Session(h1).MemoryFootprint() / 2;
  TieredServerFixture tiered({}, store_options, cold);
  auto client = tiered.Client();
  using Top = std::vector<std::pair<uint32_t, uint64_t>>;
  auto topk = [&] {
    QueryResponse response;
    EXPECT_TRUE(client.Execute("TOPK 100", &response));
    EXPECT_TRUE(response.ok) << response.error;
    return response.top;
  };
  EXPECT_EQ(topk(), Top{});

  tiered.store->Insert(Session(h1));
  EXPECT_EQ(topk(), (Top{{1, 1}})) << "after insert";
  tiered.store->ImportSnapshot({h2}, 2, 0);
  EXPECT_EQ(topk(), (Top{{1, 1}, {2, 1}})) << "after import";
  cold->Append(MakeSession("C1", 0, kNanosPerMilli, {3}));
  ASSERT_TRUE(cold->FlushPending());
  EXPECT_EQ(topk(), (Top{{1, 1}, {2, 1}, {3, 1}})) << "after append";
  {
    FailWritesInjector disk;
    ScopedFsFaultInjector scoped(&disk);
    disk.broken.store(true);
    cold->Append(MakeSession("C2", 0, kNanosPerMilli, {4}));
    EXPECT_EQ(topk(), (Top{{1, 1}, {2, 1}, {3, 1}, {4, 1}}))
        << "after pending append";
    ASSERT_TRUE(cold->FlushPending());
    ASSERT_EQ(cold->stats().shed_sessions, 1u);
  }
  EXPECT_EQ(topk(), (Top{{1, 1}, {2, 1}, {3, 1}})) << "after shed";
  cold->Append(MakeSession("C3", 0, kNanosPerMilli, {5}));
  EXPECT_EQ(topk(), (Top{{1, 1}, {2, 1}, {3, 1}, {5, 1}}))
      << "after pending append";
  cold->Abandon();
  EXPECT_EQ(topk(), (Top{{1, 1}, {2, 1}, {3, 1}})) << "after abandon";
  // The abandoned tier drops the victim: the eviction loses H1.
  tiered.store->Insert(Session(h3));
  ASSERT_EQ(tiered.store->stats().evicted, 1u);
  EXPECT_EQ(topk(), (Top{{2, 1}, {3, 1}, {6, 1}})) << "after evict";
}

}  // namespace
}  // namespace ts
