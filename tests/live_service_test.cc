// LiveService end to end over loopback: a LogServer serves a generated
// archive, and the service ingests it with 2 shards, a hot window far smaller
// than the trace (so most sessions spill to the cold tier) and a checkpoint
// directory. The tiered store must hold exactly what a single-worker,
// unbounded in-memory pipeline produces, the exact-accounting identities must
// reconcile, and a second service on the same directories must restore,
// resume from the snapshot's offset and reach the same bytes.
#include <unistd.h>

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
#include "src/core/live_pipeline.h"
#include "src/log/wire_format.h"
#include "src/net/log_server.h"
#include "src/service/live_service.h"
#include "src/store/tiered_digest.h"
#include "src/workload/generator.h"

namespace ts {
namespace {

constexpr EventTime kInactivity = kNanosPerSecond;

std::shared_ptr<std::vector<std::string>> MakeArchive() {
  GeneratorConfig config;
  config.seed = 7;
  config.duration_ns = 4 * kNanosPerSecond;
  config.target_records_per_sec = 3000;
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

// The determinism contract's reference point: one worker, unbounded store,
// no sockets and no disk.
uint64_t ReferenceDigest(const std::vector<std::string>& lines) {
  SessionStore::Options store_options;
  store_options.max_bytes = 1ull << 30;
  SessionStore store(store_options);
  LivePipelineOptions options;
  options.workers = 1;
  options.inactivity_ns = kInactivity;
  LivePipeline pipeline(options,
                        [&](Session&& s) { store.Insert(std::move(s)); });
  pipeline.FeedBlock(CopyToLineBlock(lines));
  pipeline.Finish();
  std::set<std::string> ids;
  store.ForEachSession([&](const Session& s) { ids.insert(s.id); });
  return ChainedStoreDigest(store, ids);
}

uint64_t ServiceDigest(LiveService* service) {
  std::set<std::string> ids;
  service->store()->ForEachSession(
      [&](const Session& s) { ids.insert(s.id); });
  service->cold()->ForEachId([&](const std::string& id) { ids.insert(id); });
  return TieredDigest(*service->store(), *service->cold(), ids);
}

class LogServerThread {
 public:
  explicit LogServerThread(std::shared_ptr<const std::vector<std::string>> lines)
      : server_(LogServerOptions{}, std::move(lines)) {
    EXPECT_TRUE(server_.Start());
    thread_ = std::thread([this] { server_.Run(); });
  }
  ~LogServerThread() {
    server_.Stop();
    thread_.join();
  }
  uint16_t port() const { return server_.port(); }

 private:
  LogServer server_;
  std::thread thread_;
};

class LiveServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = ::testing::TempDir() + "ts_live_service_" +
            std::to_string(::getpid());
    ASSERT_EQ(std::system(("rm -rf '" + root_ + "' && mkdir -p '" + root_ +
                           "'").c_str()),
              0);
  }
  void TearDown() override {
    EXPECT_EQ(std::system(("rm -rf '" + root_ + "'").c_str()), 0);
  }

  LiveServiceOptions Options(uint16_t upstream_port) const {
    LiveServiceOptions options;
    options.pipeline.workers = 2;
    options.pipeline.inactivity_ns = kInactivity;
    options.ingest.port = upstream_port;
    options.ingest.max_records_per_poll = 256;
    options.store.max_bytes = 32 << 10;
    options.cold.emplace();
    options.cold->dir = root_ + "/cold";
    options.cold->segment_target_bytes = 64 << 10;
    options.checkpoint.emplace();
    options.checkpoint->dir = root_ + "/ckpt";
    options.checkpoint->interval_ms = 1;
    return options;
  }

  std::string root_;
};

TEST_F(LiveServiceTest, TieredRunMatchesReferenceAndRestartResumes) {
  const auto lines = MakeArchive();
  ASSERT_GT(lines->size(), 5000u);
  const uint64_t reference = ReferenceDigest(*lines);
  LogServerThread upstream(lines);

  // First incarnation: stop partway through the stream, as a SIGINT would.
  const uint64_t stop_at = lines->size() / 2;
  uint64_t resume_offset = 0;
  {
    LiveService service(Options(upstream.port()));
    ASSERT_TRUE(service.Start());
    ASSERT_TRUE(service.Ingest(
        [&] { return service.source().records_received() >= stop_at; }));
    resume_offset = service.source().records_received();
    EXPECT_GE(resume_offset, stop_at);
    EXPECT_LT(resume_offset, lines->size());

    const LiveService::Accounting a = service.GetAccounting();
    EXPECT_TRUE(a.Reconciles());
    EXPECT_EQ(a.received, resume_offset);
    EXPECT_EQ(a.parse_failures + a.blank_lines + a.shed_lines, 0u);
    EXPECT_EQ(a.open_records, 0u);  // Finish() closed everything.
    EXPECT_GT(service.store()->stats().evicted, 0u);  // The window spilled.
    bool final_written = false;
    for (const auto& note : service.TakeNotes()) {
      final_written |= note.rfind("final checkpoint at offset", 0) == 0;
    }
    EXPECT_TRUE(final_written);
  }

  // Second incarnation on the same directories: restores the final
  // snapshot, asks the server for the rest, and ends with the same bytes as
  // the reference.
  LiveService service(Options(upstream.port()));
  ASSERT_TRUE(service.Start());
  bool restored = false;
  for (const auto& note : service.TakeNotes()) {
    restored |= note.rfind("restored ", 0) == 0;
  }
  EXPECT_TRUE(restored);
  EXPECT_EQ(service.source().records_received(), resume_offset);
  ASSERT_TRUE(service.Ingest());
  EXPECT_EQ(service.source().records_received(), lines->size());
  EXPECT_EQ(service.records(), lines->size());
  EXPECT_EQ(service.GetAccounting().received, lines->size() - resume_offset);
  ASSERT_TRUE(service.cold()->FlushPending());
  EXPECT_GT(service.cold()->stats().sessions, 0u);
  EXPECT_EQ(ServiceDigest(&service), reference);
}

TEST_F(LiveServiceTest, UninterruptedTieredRunMatchesReference) {
  const auto lines = MakeArchive();
  const uint64_t reference = ReferenceDigest(*lines);
  LogServerThread upstream(lines);
  LiveService service(Options(upstream.port()));
  ASSERT_TRUE(service.Start());
  ASSERT_TRUE(service.Ingest());
  const LiveService::Accounting a = service.GetAccounting();
  EXPECT_TRUE(a.Reconciles());
  EXPECT_EQ(a.received, lines->size());
  EXPECT_EQ(a.parsed, lines->size());
  ASSERT_TRUE(service.cold()->FlushPending());
  EXPECT_EQ(ServiceDigest(&service), reference);
}

}  // namespace
}  // namespace ts
