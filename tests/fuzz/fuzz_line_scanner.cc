// Fuzz target for the SWAR ingest scan (docs/INGEST.md): arbitrary bytes in,
// byte-for-byte agreement with the scalar reference out. Covers the three
// layers an adversarial writer can reach over the wire:
//
//   FindByte / ScanSeparators   — every reported boundary equals the scalar
//                                 scan's, at every unaligned start offset;
//   ScanRecord + Materialize    — accept/reject and every materialized field
//                                 identical to ParseWireFormat;
//   LineFramer::FeedViews       — identical framed lines / frame errors /
//                                 pending bytes to LineFramer::Feed when the
//                                 input is split at a fuzz-chosen point;
//   IsCanonicalWireFormat       — true exactly when the line parses and
//                                 re-encodes to itself (the cold tier serves
//                                 such lines verbatim).
//
// Built two ways (tests/fuzz/CMakeLists.txt):
//   - with Clang + TS_BUILD_FUZZERS=ON: a real libFuzzer binary
//     (-fsanitize=fuzzer), run as a 60s smoke in the CI sanitizer job;
//   - otherwise: a standalone main() that replays tests/fuzz/corpus/ (and
//     any files passed on argv), registered in ctest so every build — gcc
//     included — executes the corpus under the same checks.
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/arena.h"
#include "src/log/record_view.h"
#include "src/log/swar_scan.h"
#include "src/log/wire_format.h"
#include "src/net/frame_reader.h"

namespace {

using namespace ts;

void Require(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "fuzz_line_scanner: divergence: %s\n", what);
    std::abort();
  }
}

void CheckScanners(std::string_view data) {
  for (const char needle : {'|', '\n', '\0'}) {
    Require(FindByte(data.data(), data.size(), needle) ==
                FindByteScalar(data.data(), data.size(), needle),
            "FindByte != FindByteScalar");
  }
  size_t got[RecordView::kMaxSeps];
  size_t want[RecordView::kMaxSeps];
  for (size_t max_seps = 1; max_seps <= RecordView::kMaxSeps; ++max_seps) {
    const size_t got_n = ScanSeparators(data, '|', got, max_seps);
    const size_t want_n = ScanSeparatorsScalar(data, '|', want, max_seps);
    Require(got_n == want_n, "ScanSeparators count mismatch");
    for (size_t i = 0; i < got_n; ++i) {
      Require(got[i] == want[i], "ScanSeparators offset mismatch");
    }
  }
}

void CheckMaterialize(std::string_view line) {
  const RecordView swar_view = ScanRecord(line);
  const RecordView scalar_view = ScanRecordScalar(line);
  Require(swar_view.sep_count == scalar_view.sep_count,
          "ScanRecord sep_count mismatch");
  for (size_t i = 0; i < swar_view.sep_count; ++i) {
    Require(swar_view.sep[i] == scalar_view.sep[i],
            "ScanRecord sep offset mismatch");
  }

  const std::optional<LogRecord> want = ParseWireFormat(line);
  InternerPair interners;
  LogRecord got;
  const bool ok = MaterializeRecord(swar_view, &interners, &got);
  Require(ok == want.has_value(), "accept/reject divergence");
  if (ok) {
    Require(got.time == want->time, "time mismatch");
    Require(got.session_id == want->session_id, "session mismatch");
    Require(got.txn_id == want->txn_id, "txn mismatch");
    Require(got.service == want->service, "service mismatch");
    Require(got.host == want->host, "host mismatch");
    Require(got.kind == want->kind, "kind mismatch");
    Require(got.payload == want->payload, "payload mismatch");
  }
  LogRecord uncached;
  Require(MaterializeRecord(swar_view, nullptr, &uncached) == ok,
          "cached/uncached divergence");
}

void CheckCanonical(std::string_view line) {
  const std::optional<LogRecord> parsed = ParseWireFormat(line);
  bool round_trips = false;
  if (parsed) {
    std::string again;
    AppendWireFormat(*parsed, &again);
    round_trips = again == line;
  }
  Require(IsCanonicalWireFormat(line) == round_trips,
          "IsCanonicalWireFormat != parse + re-encode round trip");
}

void CheckFramer(std::string_view data, size_t split) {
  LineFramer::Options options;
  options.max_line_bytes = 128;  // Small cap: fuzz hits the oversize path.
  LineFramer copying(options);
  LineFramer viewing(options);
  std::vector<std::string> copied;
  std::vector<std::string_view> viewed;
  Arena arena;
  const std::string_view first = arena.Copy(data.substr(0, split));
  const std::string_view second = arena.Copy(data.substr(split));
  copying.Feed(data.substr(0, split), &copied);
  copying.Feed(data.substr(split), &copied);
  viewing.FeedViews(first, &arena, &viewed);
  viewing.FeedViews(second, &arena, &viewed);
  Require(viewed.size() == copied.size(), "framer line count mismatch");
  for (size_t i = 0; i < copied.size(); ++i) {
    Require(viewed[i] == copied[i], "framer line bytes mismatch");
  }
  Require(viewing.frame_errors() == copying.frame_errors(),
          "frame_errors mismatch");
  Require(viewing.pending_bytes() == copying.pending_bytes(),
          "pending_bytes mismatch");
}

void RunOneInput(const uint8_t* data, size_t size) {
  const std::string_view input(reinterpret_cast<const char*>(data), size);

  // Unaligned starts: the same bytes shifted to every offset within a word
  // must scan identically (cheap on small inputs, capped on large).
  CheckScanners(input);
  if (size <= 512) {
    std::vector<char> page(size + 8);
    for (size_t offset = 1; offset < 8; ++offset) {
      std::memcpy(page.data() + offset, data, size);
      CheckScanners(std::string_view(page.data() + offset, size));
    }
  }

  // Treat the input as one line (the framer strips '\n' before parse, so
  // embedded newlines just become part of a never-valid line — still a legal
  // parity probe), and as a byte stream split where the first input byte
  // says.
  CheckMaterialize(input);
  CheckCanonical(input);
  const size_t split = size == 0 ? 0 : data[0] % (size + 1);
  CheckFramer(input, split);
}

}  // namespace

#ifdef TS_FUZZ_STANDALONE
// Corpus-replay driver for toolchains without libFuzzer: each argv is a
// corpus file; no argv means read stdin.
#include <cstdio>

int main(int argc, char** argv) {
  auto run_file = [](std::FILE* f) {
    std::string bytes;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
      bytes.append(buf, n);
    }
    RunOneInput(reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size());
  };
  if (argc <= 1) {
    run_file(stdin);
    return 0;
  }
  for (int i = 1; i < argc; ++i) {
    std::FILE* f = std::fopen(argv[i], "rb");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", argv[i]);
      return 1;
    }
    run_file(f);
    std::fclose(f);
    std::printf("ok: %s\n", argv[i]);
  }
  return 0;
}
#else
extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  RunOneInput(data, size);
  return 0;
}
#endif
