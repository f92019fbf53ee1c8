// ChaosProxy end-to-end tests: real TCP traffic between an unmodified
// LogServer and an unmodified SocketIngestSource, attacked from the middle.
// Kills and truncations sever the proxied connection at exact byte offsets;
// the client reconnects *to the proxy* and the resume protocol must still
// deliver the archive exactly once.
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/fault/chaos_proxy.h"
#include "src/fault/fault_plan.h"
#include "src/log/wire_format.h"
#include "src/net/log_server.h"
#include "src/net/socket_ingest.h"
#include "src/workload/generator.h"
#include "tests/socket_drain.h"

namespace ts {
namespace {

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

uint64_t WireBytes(const std::vector<std::string>& lines) {
  uint64_t total = 0;
  for (const auto& l : lines) {
    total += l.size() + 1;
  }
  return total;
}

// Server + proxy, each on its own thread; joined and stopped on destruction.
class ProxiedStack {
 public:
  ProxiedStack(std::shared_ptr<const std::vector<std::string>> lines,
               FaultPlan plan)
      : server_(LogServerOptions{}, std::move(lines)) {
    started_ = server_.Start();
    if (!started_) {
      return;
    }
    server_thread_ = std::thread([this] { server_.Run(); });
    ChaosProxyOptions proxy_options;
    proxy_options.upstream_port = server_.port();
    proxy_options.plan = std::move(plan);
    proxy_ = std::make_unique<ChaosProxy>(proxy_options);
    started_ = proxy_->Start();
    if (started_) {
      proxy_thread_ = std::thread([this] { proxy_->Run(); });
    }
  }

  ~ProxiedStack() {
    if (proxy_ != nullptr) {
      proxy_->Stop();
    }
    server_.Stop();
    if (proxy_thread_.joinable()) {
      proxy_thread_.join();
    }
    if (server_thread_.joinable()) {
      server_thread_.join();
    }
  }

  bool started() const { return started_; }
  uint16_t port() const { return proxy_->port(); }
  const ChaosProxy& proxy() const { return *proxy_; }
  const LogServer& server() const { return server_; }

 private:
  LogServer server_;
  std::unique_ptr<ChaosProxy> proxy_;
  std::thread server_thread_;
  std::thread proxy_thread_;
  bool started_ = false;
};

SocketIngestOptions ClientOptions(uint16_t port) {
  SocketIngestOptions options;
  options.port = port;
  options.backoff_base_ms = 1;
  options.backoff_max_ms = 50;
  return options;
}

TEST(ChaosProxy, TransparentWithEmptyPlan) {
  auto archive = MakeArchive(2'000, 1);
  ProxiedStack stack(archive, FaultPlan{});
  ASSERT_TRUE(stack.started());

  SocketIngestSource client(ClientOptions(stack.port()));
  std::vector<std::string> received;
  ASSERT_TRUE(DrainLines(client, &received));
  EXPECT_EQ(received, *archive);
  EXPECT_EQ(client.stats().Snapshot().reconnects, 0u);
  EXPECT_EQ(stack.proxy().stats().kills, 0u);
}

TEST(ChaosProxy, KillMidStreamResumesExactlyOnce) {
  auto archive = MakeArchive(3'000, 2);
  const uint64_t total = WireBytes(*archive);
  FaultPlan plan;
  plan.events.push_back({FaultType::kKill, total / 3, 0});
  plan.events.push_back({FaultType::kKill, (2 * total) / 3, 0});
  ProxiedStack stack(archive, plan);
  ASSERT_TRUE(stack.started());

  SocketIngestSource client(ClientOptions(stack.port()));
  std::vector<std::string> received;
  ASSERT_TRUE(DrainLines(client, &received));
  EXPECT_EQ(received, *archive);  // Exactly once through two severings.
  EXPECT_EQ(client.stats().Snapshot().reconnects, 2u);
  EXPECT_EQ(stack.proxy().stats().kills, 2u);
  EXPECT_GE(stack.server().stats().Snapshot().resumes, 2u);
}

TEST(ChaosProxy, TruncationDropsBytesThenSeversAndStillConverges) {
  auto archive = MakeArchive(2'000, 1);
  const uint64_t total = WireBytes(*archive);
  FaultPlan plan;
  plan.events.push_back({FaultType::kTruncate, total / 2, 64});
  ProxiedStack stack(archive, plan);
  ASSERT_TRUE(stack.started());

  SocketIngestSource client(ClientOptions(stack.port()));
  std::vector<std::string> received;
  ASSERT_TRUE(DrainLines(client, &received));
  // The dropped bytes never reached the client, so its resume offset points
  // at the first undelivered record and the retransmit closes the gap.
  EXPECT_EQ(received, *archive);
  EXPECT_EQ(stack.proxy().stats().kills, 1u);
  EXPECT_GE(stack.proxy().stats().bytes_dropped, 1u);
}

TEST(ChaosProxy, RefusalWindowDelaysButDoesNotLose) {
  auto archive = MakeArchive(1'000, 1);
  FaultPlan plan;
  plan.events.push_back({FaultType::kRefuse, 0, 2});
  ProxiedStack stack(archive, plan);
  ASSERT_TRUE(stack.started());

  SocketIngestSource client(ClientOptions(stack.port()));
  std::vector<std::string> received;
  ASSERT_TRUE(DrainLines(client, &received));
  EXPECT_EQ(received, *archive);
  EXPECT_EQ(stack.proxy().stats().refused, 2u);
}

TEST(ChaosProxy, CorruptionIsAccountedAndFramePreserving) {
  auto archive = MakeArchive(2'000, 1);
  const uint64_t total = WireBytes(*archive);
  FaultPlan plan;
  plan.events.push_back({FaultType::kCorrupt, total / 4, 16});
  ProxiedStack stack(archive, plan);
  ASSERT_TRUE(stack.started());

  SocketIngestSource client(ClientOptions(stack.port()));
  std::vector<std::string> received;
  ASSERT_TRUE(DrainLines(client, &received));
  EXPECT_EQ(stack.proxy().stats().bytes_corrupted, 16u);
  // Corruption may merge adjacent records (a flipped '\n') but can never
  // fabricate new ones, so the count is bounded both ways.
  EXPECT_LE(received.size(), archive->size());
  EXPECT_GE(received.size() + 16, archive->size());
  for (const auto& line : received) {
    EXPECT_EQ(line.find('\n'), std::string::npos);
  }
}

TEST(ChaosProxy, SeededPlanDrivesRealTrafficDeterministically) {
  auto archive = MakeArchive(2'000, 1);
  FaultProfile profile;
  ASSERT_TRUE(
      FaultPlan::ResolveProfile("mild", WireBytes(*archive), &profile));
  const FaultPlan plan = FaultPlan::FromSeed(11, "mild", profile);

  // Two identical stacks from one seed: byte-identical delivery either way.
  std::vector<std::string> first, second;
  {
    ProxiedStack stack(archive, plan);
    ASSERT_TRUE(stack.started());
    SocketIngestSource client(ClientOptions(stack.port()));
    ASSERT_TRUE(DrainLines(client, &first));
  }
  {
    ProxiedStack stack(archive, plan);
    ASSERT_TRUE(stack.started());
    SocketIngestSource client(ClientOptions(stack.port()));
    ASSERT_TRUE(DrainLines(client, &second));
  }
  EXPECT_EQ(first, *archive);
  EXPECT_EQ(second, *archive);
}

}  // namespace
}  // namespace ts
