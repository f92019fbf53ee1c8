// Loopback integration tests for the ts_query serving subsystem.
//
// The acceptance contract: sessions queried over the wire protocol are
// byte-equivalent to the same sessions read from the SessionStore
// in-process (the server's serialization IS EncodeSessionBlock), SUBSCRIBE
// delivers every session closed after the subscriber attaches, and a slow
// subscriber costs the server a bounded buffer with exact #DROPPED
// accounting.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/analytics/session_store.h"
#include "src/log/wire_format.h"
#include "src/query/query_client.h"
#include "src/query/query_protocol.h"
#include "src/query/query_server.h"

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
    s.records.back().time = end_ns;  // Extent reaches end_ns exactly.
  }
  s.first_epoch = static_cast<Epoch>(start_ns / kNanosPerSecond);
  s.last_epoch = static_cast<Epoch>(end_ns / kNanosPerSecond);
  s.closed_at = s.last_epoch;
  return s;
}

// Server + run thread, torn down in reverse order.
class ServerFixture {
 public:
  explicit ServerFixture(QueryServerOptions options = {},
                         SessionStore::Options store_options = {}) {
    store = std::make_shared<SessionStore>(store_options);
    metrics = std::make_shared<MetricsRegistry>();
    server = std::make_unique<QueryServer>(options, store, metrics);
    EXPECT_TRUE(server->Start());
    thread = std::thread([this] { server->Run(); });
  }
  ~ServerFixture() {
    server->Stop();
    thread.join();
  }

  QueryClient Client(int sock_buf_bytes = 0) {
    QueryClientOptions options;
    options.port = server->port();
    options.sock_buf_bytes = sock_buf_bytes;
    QueryClient client(options);
    EXPECT_TRUE(client.Connect());
    return client;
  }

  std::shared_ptr<SessionStore> store;
  std::shared_ptr<MetricsRegistry> metrics;
  std::unique_ptr<QueryServer> server;
  std::thread thread;
};

// Raw blocking socket for byte-level assertions (no client-side decoding).
class RawConn {
 public:
  explicit RawConn(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  }
  ~RawConn() { ::close(fd_); }

  // Sends one request and returns the exact response bytes, through the
  // terminating "#OK ...\n" / "#ERR ...\n" line.
  std::string Request(const std::string& line) {
    const std::string out = line + "\n";
    EXPECT_EQ(::send(fd_, out.data(), out.size(), 0),
              static_cast<ssize_t>(out.size()));
    std::string response;
    char buf[4096];
    while (!Terminated(response)) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n <= 0) {
        ADD_FAILURE() << "connection lost mid-response";
        break;
      }
      response.append(buf, static_cast<size_t>(n));
    }
    return response;
  }

 private:
  // The terminator is always the final line; record lines start with a
  // decimal timestamp so they can never alias '#'-prefixed control lines.
  static bool Terminated(const std::string& response) {
    if (response.empty() || response.back() != '\n') {
      return false;
    }
    const size_t prev = response.rfind('\n', response.size() - 2);
    const size_t start = prev == std::string::npos ? 0 : prev + 1;
    return response.compare(start, 4, "#OK ") == 0 ||
           response.compare(start, 5, "#ERR ") == 0;
  }

  int fd_ = -1;
};

TEST(QueryServerWire, GetIsByteEquivalentToInProcessRead) {
  ServerFixture fixture;
  fixture.store->Insert(MakeSession("ALPHA", 0, kNanosPerSecond, {1, 2, 3}));
  fixture.store->Insert(MakeSession("BETA", 0, kNanosPerSecond, {4}));

  RawConn conn(fixture.server->port());
  const auto in_process = fixture.store->GetById("ALPHA", 0);
  ASSERT_TRUE(in_process.has_value());
  EXPECT_EQ(conn.Request("GET ALPHA 0"),
            EncodeSessionBlock(*in_process) + FormatOk(1) + "\n");
  EXPECT_EQ(conn.Request("GET MISSING"), FormatOk(0) + "\n");
}

TEST(QueryServerWire, FragmentsAndRangeAreByteEquivalentAndOrdered) {
  ServerFixture fixture;
  fixture.store->Insert(MakeSession("S", 0, kNanosPerSecond, {1}, 0));
  fixture.store->Insert(MakeSession("S", 2 * kNanosPerSecond,
                                    3 * kNanosPerSecond, {2}, 1));
  fixture.store->Insert(MakeSession("T", kNanosPerSecond / 2,
                                    2 * kNanosPerSecond, {3}));

  RawConn conn(fixture.server->port());
  std::string expected;
  for (const auto& s : fixture.store->GetAllFragments("S")) {
    AppendSessionBlock(s, &expected);
  }
  EXPECT_EQ(conn.Request("FRAGMENTS S"), expected + FormatOk(2) + "\n");

  // RANGE results ordered by start time, [lo, hi) intersect semantics.
  expected.clear();
  const auto in_range =
      fixture.store->QueryByTimeRange(0, 2 * kNanosPerSecond, 100);
  ASSERT_EQ(in_range.size(), 2u);
  EXPECT_EQ(in_range[0].id, "S");  // Starts at 0.
  EXPECT_EQ(in_range[1].id, "T");
  for (const auto& s : in_range) {
    AppendSessionBlock(s, &expected);
  }
  EXPECT_EQ(conn.Request("RANGE 0 2000000000 100"),
            expected + FormatOk(2) + "\n");
}

TEST(QueryServerClient, QueriesStatsAndTopK) {
  ServerFixture fixture;
  fixture.store->Insert(MakeSession("A", 0, kNanosPerSecond, {1, 2}));
  fixture.store->Insert(MakeSession("B", 0, kNanosPerSecond, {2}));
  fixture.metrics->Register("custom_gauge", [] { return int64_t{41}; });

  auto client = fixture.Client();
  auto get = client.Get("A");
  EXPECT_TRUE(get.ok);
  ASSERT_EQ(get.sessions.size(), 1u);
  EXPECT_EQ(get.sessions[0].id, "A");
  EXPECT_EQ(EncodeSessionBlock(get.sessions[0]),
            EncodeSessionBlock(*fixture.store->GetById("A")));

  auto by_service = client.ByService(2, 10);
  EXPECT_TRUE(by_service.ok);
  EXPECT_EQ(by_service.count, 2u);
  ASSERT_EQ(by_service.sessions.size(), 2u);
  EXPECT_EQ(by_service.sessions[0].id, "B");  // Newest first.

  auto stats = client.Stats();
  EXPECT_TRUE(stats.ok);
  bool saw_sessions = false;
  bool saw_custom = false;
  for (const auto& [name, value] : stats.stats) {
    if (name == "store_sessions") {
      saw_sessions = true;
      EXPECT_EQ(value, 2);
    }
    if (name == "custom_gauge") {
      saw_custom = true;
      EXPECT_EQ(value, 41);
    }
  }
  EXPECT_TRUE(saw_sessions);
  EXPECT_TRUE(saw_custom);

  auto top = client.TopK(1);
  EXPECT_TRUE(top.ok);
  ASSERT_EQ(top.top.size(), 1u);
  EXPECT_EQ(top.top[0].first, 2u);  // svc-2 touches both sessions.
  EXPECT_EQ(top.top[0].second, 2u);

  QueryResponse bad;
  ASSERT_TRUE(client.Execute("NOPE", &bad));
  EXPECT_FALSE(bad.ok);
  EXPECT_FALSE(bad.error.empty());
  const auto counters = fixture.server->counters();
  EXPECT_GE(counters.queries, 5u);
  EXPECT_GE(counters.errors, 1u);
}

TEST(TemplateQuery, TemplatesVerbServesRankedDictionary) {
  // A server with a template source answers TEMPLATES with TMPL lines ranked
  // by hits (descending, id ascending on ties), k-limited, text verbatim.
  auto store = std::make_shared<SessionStore>(SessionStore::Options{});
  auto metrics = std::make_shared<MetricsRegistry>();
  auto server =
      std::make_unique<QueryServer>(QueryServerOptions{}, store, metrics);
  server->SetTemplateSource([] {
    return std::vector<TemplateCount>{
        {1, 10, 100000, "alpha <*>"},
        {2, 50, 500000, "beta <*> gamma"},
        {3, 10, 100000, "delta"},
    };
  });
  ASSERT_TRUE(server->Start());
  std::thread thread([&server] { server->Run(); });
  {
    RawConn conn(server->port());
    EXPECT_EQ(conn.Request("TEMPLATES 2"),
              "TMPL 2 50 500000 beta <*> gamma\nTMPL 1 10 100000 alpha <*>\n" +
                  FormatOk(2) + "\n");

    QueryClientOptions options;
    options.port = server->port();
    QueryClient client(options);
    ASSERT_TRUE(client.Connect());
    auto response = client.Templates(10);
    EXPECT_TRUE(response.ok);
    EXPECT_EQ(response.count, 3u);
    ASSERT_EQ(response.templates.size(), 3u);
    EXPECT_EQ(response.templates[0].id, 2u);
    EXPECT_EQ(response.templates[1].id, 1u);  // Tie broken by id.
    EXPECT_EQ(response.templates[2].id, 3u);
    EXPECT_EQ(response.templates[0].text, "beta <*> gamma");
  }
  server->Stop();
  thread.join();
}

TEST(TemplateQuery, TemplatesVerbWithoutSourceIsAnError) {
  ServerFixture fixture;  // No SetTemplateSource: mining disabled.
  auto client = fixture.Client();
  auto response = client.Templates();
  EXPECT_FALSE(response.ok);
  EXPECT_NE(response.error.find("template mining disabled"),
            std::string::npos);
}

TEST(QueryServerSubscribe, DeliversEverySessionClosedAfterAttach) {
  ServerFixture fixture;
  fixture.store->Insert(MakeSession("BEFORE", 0, kNanosPerSecond, {9}));

  auto client = fixture.Client();
  ASSERT_TRUE(client.Subscribe());

  constexpr size_t kSessions = 50;
  std::thread inserter([&] {
    for (size_t i = 0; i < kSessions; ++i) {
      fixture.store->Insert(MakeSession(
          "LIVE" + std::to_string(i),
          static_cast<EventTime>(i) * kNanosPerMilli,
          static_cast<EventTime>(i + 1) * kNanosPerMilli, {1, 2}));
    }
  });

  std::set<std::string> received;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (received.size() < kSessions &&
         std::chrono::steady_clock::now() < deadline) {
    Session session;
    uint64_t dropped = 0;
    const auto event = client.Next(&session, &dropped, /*timeout_ms=*/500);
    if (event == QueryClient::Event::kSession) {
      // Byte-for-byte the same session an in-process reader gets.
      const auto in_process =
          fixture.store->GetById(session.id, session.fragment_index);
      ASSERT_TRUE(in_process.has_value());
      EXPECT_EQ(EncodeSessionBlock(session), EncodeSessionBlock(*in_process));
      received.insert(session.id);
    } else {
      ASSERT_NE(event, QueryClient::Event::kError);
      ASSERT_NE(event, QueryClient::Event::kClosed);
    }
  }
  inserter.join();
  EXPECT_EQ(received.size(), static_cast<size_t>(kSessions));
  EXPECT_EQ(received.count("BEFORE"), 0u);  // Closed before attach.
  EXPECT_EQ(client.total_dropped(), 0u);
  const auto counters = fixture.server->counters();
  EXPECT_EQ(counters.sessions_streamed, static_cast<uint64_t>(kSessions));
  EXPECT_EQ(counters.sessions_dropped, 0u);
  EXPECT_EQ(counters.subscribers_attached, 1u);
}

TEST(QueryServerSubscribe, ServiceFilterSelectsMatchingSessionsOnly) {
  ServerFixture fixture;
  auto client = fixture.Client();
  ASSERT_TRUE(client.Subscribe(/*filter_service=*/7));

  fixture.store->Insert(MakeSession("HIT1", 0, kNanosPerMilli, {6, 7}));
  fixture.store->Insert(MakeSession("MISS", 0, kNanosPerMilli, {8}));
  fixture.store->Insert(MakeSession("HIT2", 0, kNanosPerMilli, {7}));

  std::set<std::string> received;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (received.size() < 2 && std::chrono::steady_clock::now() < deadline) {
    Session session;
    if (client.Next(&session, nullptr, 200) == QueryClient::Event::kSession) {
      received.insert(session.id);
    }
  }
  EXPECT_EQ(received, (std::set<std::string>{"HIT1", "HIT2"}));
  // The non-matching session must never arrive: one more poll stays quiet.
  Session session;
  EXPECT_EQ(client.Next(&session, nullptr, 200),
            QueryClient::Event::kTimeout);
}

TEST(QueryServerSubscribe, SlowSubscriberIsBoundedWithExactDropAccounting) {
  QueryServerOptions options;
  options.max_conn_buffer_bytes = 8 << 10;  // Tiny: force drops quickly.
  // Pin the socket buffers too: without this the kernel's auto-tuned TCP
  // buffers (multi-megabyte on this host) can swallow the whole burst and no
  // drop ever happens — the bound under test must be the application's.
  options.conn_sock_buf_bytes = 16 << 10;
  ServerFixture fixture(options);

  auto client = fixture.Client(/*sock_buf_bytes=*/16 << 10);
  ASSERT_TRUE(client.Subscribe());

  // Insert far more session bytes than the subscriber's budget while the
  // client is NOT reading. Each block is ~1 KiB.
  constexpr uint64_t kSessions = 200;
  for (uint64_t i = 0; i < kSessions; ++i) {
    fixture.store->Insert(MakeSession("BULK" + std::to_string(i), 0,
                                      kNanosPerMilli, {1, 2, 3}, 0,
                                      /*payload_bytes=*/100));
  }

  // Every insert is accounted exactly once: streamed into the bounded buffer
  // or dropped. Wait until the fan-out settles.
  QueryServerCounters counters;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  do {
    counters = fixture.server->counters();
    if (counters.sessions_streamed + counters.sessions_dropped >= kSessions) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  } while (std::chrono::steady_clock::now() < deadline);
  EXPECT_EQ(counters.sessions_streamed + counters.sessions_dropped,
            static_cast<uint64_t>(kSessions));
  EXPECT_GT(counters.sessions_dropped, 0u);  // The budget really was tiny.

  // Now drain: the subscriber gets every streamed session plus #DROPPED
  // notices that account for every discarded one. Timeouts are retried
  // against a global deadline — under a loaded ctest run a single quiet
  // 2s window is load jitter, not a verdict.
  uint64_t received = 0;
  const auto drain_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (received + client.total_dropped() < kSessions &&
         std::chrono::steady_clock::now() < drain_deadline) {
    Session session;
    uint64_t dropped = 0;
    const auto event = client.Next(&session, &dropped, /*timeout_ms=*/500);
    if (event == QueryClient::Event::kSession) {
      ++received;
    } else if (event == QueryClient::Event::kError ||
               event == QueryClient::Event::kClosed) {
      break;
    }
  }
  EXPECT_EQ(received, counters.sessions_streamed);
  EXPECT_EQ(client.total_dropped(), counters.sessions_dropped);
  EXPECT_EQ(received + client.total_dropped(),
            static_cast<uint64_t>(kSessions));
}

// One slow-consumer scenario: sessions are inserted in bursts while the
// subscriber stalls and reads according to `schedule`; afterwards the drain
// must recover every streamed session and a #DROPPED notice for every
// discarded one — exact accounting, whatever the stall pattern.
struct StallSchedule {
  const char* name;
  int rounds;          // Insert bursts.
  int per_burst;       // Sessions inserted per burst (~1.3 KiB each).
  int stall_ms;        // Consumer sleep after each burst.
  int reads_per_round; // Events the consumer takes between bursts.
};

void RunStallSchedule(const StallSchedule& schedule) {
  SCOPED_TRACE(schedule.name);
  QueryServerOptions options;
  options.max_conn_buffer_bytes = 8 << 10;  // Tiny: stalls must cost drops.
  options.conn_sock_buf_bytes = 16 << 10;   // Defeat kernel buffer auto-tuning.
  ServerFixture fixture(options);
  auto client = fixture.Client(/*sock_buf_bytes=*/16 << 10);
  ASSERT_TRUE(client.Subscribe());

  const uint64_t total =
      static_cast<uint64_t>(schedule.rounds) * schedule.per_burst;
  uint64_t received = 0;
  uint64_t inserted = 0;
  for (int round = 0; round < schedule.rounds; ++round) {
    for (int i = 0; i < schedule.per_burst; ++i) {
      fixture.store->Insert(MakeSession("S" + std::to_string(inserted++), 0,
                                        kNanosPerMilli, {1, 2, 3}, 0,
                                        /*payload_bytes=*/100));
    }
    std::this_thread::sleep_for(
        std::chrono::milliseconds(schedule.stall_ms));
    for (int r = 0; r < schedule.reads_per_round;) {
      Session session;
      uint64_t dropped = 0;
      const auto event = client.Next(&session, &dropped, /*timeout_ms=*/50);
      if (event == QueryClient::Event::kSession) {
        ++received;
        ++r;
      } else if (event == QueryClient::Event::kTimeout) {
        break;  // Buffer already drained below the read budget.
      } else {
        ASSERT_EQ(event, QueryClient::Event::kDropped);
      }
    }
  }

  // Let the fan-out settle: every insert is accounted exactly once, streamed
  // into the bounded buffer or dropped.
  QueryServerCounters counters;
  const auto settle_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  do {
    counters = fixture.server->counters();
    if (counters.sessions_streamed + counters.sessions_dropped >= total) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  } while (std::chrono::steady_clock::now() < settle_deadline);
  ASSERT_EQ(counters.sessions_streamed + counters.sessions_dropped, total);
  EXPECT_GT(counters.sessions_dropped, 0u);   // The stall really cost drops.
  EXPECT_GT(counters.sessions_streamed, 0u);  // But the stream kept flowing.

  // Drain the rest with a global deadline; isolated timeouts are retried.
  const auto drain_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (received + client.total_dropped() < total &&
         std::chrono::steady_clock::now() < drain_deadline) {
    Session session;
    uint64_t dropped = 0;
    const auto event = client.Next(&session, &dropped, /*timeout_ms=*/500);
    if (event == QueryClient::Event::kSession) {
      ++received;
    } else if (event == QueryClient::Event::kError ||
               event == QueryClient::Event::kClosed) {
      break;
    }
  }
  EXPECT_EQ(received, counters.sessions_streamed);
  EXPECT_EQ(client.total_dropped(), counters.sessions_dropped);
  EXPECT_EQ(received + client.total_dropped(), total);
}

TEST(QueryServerSubscribe, DropAccountingUnderSingleLongStall) {
  RunStallSchedule({"one long stall, no reads until the drain",
                    /*rounds=*/1, /*per_burst=*/240, /*stall_ms=*/50,
                    /*reads_per_round=*/0});
}

TEST(QueryServerSubscribe, DropAccountingUnderInterleavedShortStalls) {
  RunStallSchedule({"six bursts with short stalls and partial reads",
                    /*rounds=*/6, /*per_burst=*/40, /*stall_ms=*/10,
                    /*reads_per_round=*/10});
}

TEST(QueryServerSubscribe, DropAccountingUnderSlowDripReader) {
  RunStallSchedule({"big bursts, a reader that takes one event per round",
                    /*rounds=*/3, /*per_burst=*/80, /*stall_ms=*/5,
                    /*reads_per_round=*/1});
}

TEST(QueryServerWire, OversizedMultiSessionResponseIsTruncated) {
  QueryServerOptions options;
  options.max_conn_buffer_bytes = 4 << 10;
  ServerFixture fixture(options);
  for (int i = 0; i < 50; ++i) {
    fixture.store->Insert(MakeSession("T" + std::to_string(i), 0,
                                      kNanosPerMilli, {5}, 0,
                                      /*payload_bytes=*/200));
  }
  auto client = fixture.Client();
  auto response = client.ByService(5, 1000);
  EXPECT_TRUE(response.ok);
  EXPECT_TRUE(response.truncated);
  EXPECT_EQ(response.sessions.size(), response.count);
  EXPECT_LT(response.count, 50u);
  EXPECT_GE(response.count, 1u);  // A response always makes progress.
}

// Regression: every request in one read batch used to stage its reply
// before a single flush, so pipelined replies shared one per-connection
// budget and later ones came back #TRUNCATED although the socket had room.
TEST(QueryServerWire, PipelinedRangeRepliesAreNotTruncated) {
  QueryServerOptions options;
  options.max_conn_buffer_bytes = 16 << 10;
  ServerFixture fixture(options);
  for (int i = 0; i < 20; ++i) {
    fixture.store->Insert(MakeSession("P" + std::to_string(i), 0,
                                      kNanosPerMilli, {5}, 0,
                                      /*payload_bytes=*/200));
  }
  // Eight ~5 KiB replies: far more than the budget together, far less than
  // loopback socket buffers absorb.
  constexpr int kRequests = 8;
  std::string batch;
  for (int i = 0; i < kRequests; ++i) {
    batch += "RANGE 0 1000000000 20\n";
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(fixture.server->port());
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_EQ(::send(fd, batch.data(), batch.size(), 0),
            static_cast<ssize_t>(batch.size()));
  std::string response;
  int oks = 0;
  char buf[4096];
  while (oks < kRequests) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    ASSERT_GT(n, 0) << "connection lost mid-response";
    response.append(buf, static_cast<size_t>(n));
    oks = 0;
    for (size_t pos = response.find("#OK "); pos != std::string::npos;
         pos = response.find("#OK ", pos + 1)) {
      ++oks;
    }
  }
  ::close(fd);
  EXPECT_EQ(response.find(kTruncatedLine), std::string::npos);
  size_t pos = 0;
  for (int i = 0; i < kRequests; ++i) {
    const std::string ok = FormatOk(20) + "\n";
    pos = response.find(ok, pos);
    ASSERT_NE(pos, std::string::npos) << "reply " << i << " is short";
    pos += ok.size();
  }
}

TEST(QueryServerSubscribe, RequestAfterSubscribeIsRejected) {
  ServerFixture fixture;
  auto client = fixture.Client();
  ASSERT_TRUE(client.Subscribe());
  // The protocol forbids further requests on a subscribed connection.
  QueryResponse response;
  ASSERT_TRUE(client.Execute("STATS", &response));
  EXPECT_FALSE(response.ok);
  EXPECT_FALSE(response.error.empty());
}

}  // namespace
}  // namespace ts
