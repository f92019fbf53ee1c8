// Property sweep: wire-format round trips over randomized records, and parser
// robustness against mutated lines (never crashes, never mis-accepts).
#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/log/wire_format.h"

namespace ts {
namespace {

LogRecord RandomRecord(Rng& rng) {
  LogRecord r;
  r.time = static_cast<EventTime>(rng.Next() % 2'000'000'000'000ULL);
  const size_t id_len = 8 + rng.NextBelow(24);
  static const char kChars[] =
      "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_-";
  for (size_t i = 0; i < id_len; ++i) {
    r.session_id.push_back(kChars[rng.NextBelow(sizeof(kChars) - 1)]);
  }
  std::vector<uint32_t> path;
  const size_t depth = 1 + rng.NextBelow(8);
  for (size_t i = 0; i < depth; ++i) {
    path.push_back(static_cast<uint32_t>(rng.NextBelow(1'000'000)));
  }
  r.txn_id = TxnId(std::move(path));
  r.service = static_cast<uint32_t>(rng.NextBelow(100'000));
  r.host = static_cast<uint32_t>(rng.NextBelow(10'000));
  r.kind = static_cast<EventKind>(rng.NextBelow(3));
  const size_t payload_len = rng.NextBelow(400);
  for (size_t i = 0; i < payload_len; ++i) {
    // Payload may contain anything except newline (one record per line),
    // including the field separator.
    char c = static_cast<char>(32 + rng.NextBelow(95));
    r.payload.push_back(c);
  }
  return r;
}

class WireFormatProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WireFormatProperty, RoundTripsRandomRecords) {
  Rng rng(GetParam());
  for (int i = 0; i < 2000; ++i) {
    const LogRecord r = RandomRecord(rng);
    const std::string line = ToWireFormat(r);
    auto parsed = ParseWireFormat(line);
    ASSERT_TRUE(parsed.has_value()) << line;
    EXPECT_EQ(parsed->time, r.time);
    EXPECT_EQ(parsed->session_id, r.session_id);
    EXPECT_EQ(parsed->txn_id, r.txn_id);
    EXPECT_EQ(parsed->service, r.service);
    EXPECT_EQ(parsed->host, r.host);
    EXPECT_EQ(parsed->kind, r.kind);
    EXPECT_EQ(parsed->payload, r.payload);
  }
}

TEST_P(WireFormatProperty, MutatedLinesNeverCrashParser) {
  Rng rng(GetParam() ^ 0xDEAD);
  uint64_t accepted = 0;
  for (int i = 0; i < 2000; ++i) {
    std::string line = ToWireFormat(RandomRecord(rng));
    // Mutate: truncate, splice, or corrupt bytes.
    switch (rng.NextBelow(3)) {
      case 0:
        line.resize(rng.NextBelow(line.size() + 1));
        break;
      case 1: {
        const size_t n = 1 + rng.NextBelow(5);
        for (size_t k = 0; k < n && !line.empty(); ++k) {
          line[rng.NextBelow(line.size())] =
              static_cast<char>(32 + rng.NextBelow(95));
        }
        break;
      }
      case 2:
        line.insert(rng.NextBelow(line.size() + 1), "|");
        break;
    }
    auto parsed = ParseWireFormat(line);  // Must not crash.
    if (parsed) {
      ++accepted;  // Mutations can still yield valid records; that's fine.
    }
  }
  // The parser rejects the majority of corrupted lines (structure checks on
  // 6 fields make silent acceptance rare).
  EXPECT_LT(accepted, 1500u);
}

TEST_P(WireFormatProperty, CanonicalCheckMatchesParseReencode) {
  // IsCanonicalWireFormat(line) must hold exactly when the line parses and
  // re-encodes to itself. Mutations aim at the numeric fields, where
  // non-canonical-but-valid spellings (leading zeros, "-0") live.
  Rng rng(GetParam() ^ 0xC0FFEE);
  uint64_t canonical = 0;
  uint64_t valid_non_canonical = 0;
  for (int i = 0; i < 2000; ++i) {
    std::string line = ToWireFormat(RandomRecord(rng));
    if (i % 4 != 0) {
      // One inserted digit, dash or separator anywhere, and now and then a
      // "0" or "-0" in front of the time.
      static const char kInserts[] = "0-|9";
      line.insert(rng.NextBelow(line.size() + 1), 1,
                  kInserts[rng.NextBelow(sizeof(kInserts) - 1)]);
      if (rng.NextBelow(4) == 0) {
        line.insert(0, rng.NextBelow(2) == 0 ? "0" : "-0");
      }
    }
    const auto parsed = ParseWireFormat(line);
    const bool round_trips = parsed && ToWireFormat(*parsed) == line;
    ASSERT_EQ(IsCanonicalWireFormat(line), round_trips) << line;
    canonical += round_trips ? 1 : 0;
    valid_non_canonical += parsed && !round_trips ? 1 : 0;
  }
  EXPECT_GE(canonical, 500u);  // Every unmutated line is canonical.
  EXPECT_GT(valid_non_canonical, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireFormatProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

}  // namespace
}  // namespace ts
