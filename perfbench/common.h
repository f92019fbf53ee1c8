// Shared by the two benchmark processes (pb_sut and pb_gen): the fixed shape
// of each workload's system configuration, flag parsing, clocks, exact
// percentiles and the flat JSON result files run.py reads.
//
// Every constant here is a property of the workload, not a tuning knob: the
// prepared-state builder (pb_gen prepare) and the restoring SUT must agree on
// the store budget and cold-segment size, or the restored hot window would
// evict on import and the state would no longer be the one that was built.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "src/common/time_util.h"

namespace pb {

// Shard workers of the measured pipeline (steadiness rule: 2 on a 4-core box).
constexpr size_t kWorkers = 2;

// firehose: Table-1 stream replayed unpaced into an unbounded store.
constexpr ts::EventTime kFirehoseInactivityNs = ts::kNanosPerSecond;
constexpr size_t kFirehoseStoreBytes = size_t{4} << 30;

// live_tiered and history_query: synth sessions, mined payloads, tiered store.
constexpr ts::EventTime kLiveInactivityNs = ts::kNanosPerSecond;
constexpr size_t kLiveHotBytes = size_t{2} << 20;
constexpr size_t kHistoryHotBytes = size_t{4} << 20;
constexpr size_t kLiveSegmentBytes = size_t{1} << 20;
constexpr size_t kHistorySegmentBytes = size_t{4} << 20;
// Production checkpoint cadence (ts_sessionize's --ckpt_interval_s default).
constexpr int64_t kCkptIntervalMs = 2000;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// User + system CPU of the whole process, seconds.
inline double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

// Nearest-rank percentile of raw samples (exact, no bucketing). `q` in [0,1].
inline double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) {
    return 0;
  }
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

inline double Sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) {
    s += x;
  }
  return s;
}

// "--name=value" flags.
class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const char* arg = argv[i];
      if (std::strncmp(arg, "--", 2) != 0) {
        positional_.push_back(arg);
        continue;
      }
      const char* eq = std::strchr(arg, '=');
      if (eq == nullptr) {
        values_[arg + 2] = "1";
      } else {
        values_[std::string(arg + 2, eq)] = eq + 1;
      }
    }
  }
  std::string Str(const std::string& name, const std::string& fallback = "") const {
    auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
  }
  int64_t Int(const std::string& name, int64_t fallback) const {
    auto it = values_.find(name);
    return it == values_.end() ? fallback : std::stoll(it->second);
  }
  const std::vector<std::string>& positional() const { return positional_; }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

// A flat {"name": number-or-string} JSON object, written once at the end of
// a run. Digests travel as hex strings: a double cannot hold 64 bits.
class Results {
 public:
  void Set(const std::string& name, double value) { values_[name] = value; }
  void SetHex(const std::string& name, uint64_t value) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(value));
    strings_[name] = buf;
  }
  const std::map<std::string, double>& values() const { return values_; }
  bool Write(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return false;
    }
    std::fprintf(f, "{");
    bool first = true;
    for (const auto& [name, value] : values_) {
      std::fprintf(f, "%s\n  \"%s\": %.17g", first ? "" : ",", name.c_str(),
                   std::isfinite(value) ? value : 0.0);
      first = false;
    }
    for (const auto& [name, value] : strings_) {
      std::fprintf(f, "%s\n  \"%s\": \"%s\"", first ? "" : ",", name.c_str(),
                   value.c_str());
      first = false;
    }
    std::fprintf(f, "\n}\n");
    return std::fclose(f) == 0;
  }

 private:
  std::map<std::string, double> values_;
  std::map<std::string, std::string> strings_;
};

}  // namespace pb

#endif  // PERFBENCH_COMMON_H_
