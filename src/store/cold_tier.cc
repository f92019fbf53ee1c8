#include "src/store/cold_tier.h"

#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#include "src/ckpt/checkpoint.h"
#include "src/core/session_block.h"
#include "src/fault/fs_fault.h"
#include "src/log/wire_format.h"

namespace ts {
namespace {

constexpr char kSegmentPrefix[] = "cold-";
constexpr char kSegmentSuffix[] = ".seg";

std::string SegmentFileName(uint64_t seq) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%s%010" PRIu64 "%s", kSegmentPrefix, seq,
                kSegmentSuffix);
  return buf;
}

// Returns true and the numeric part if `name` looks like a segment file.
bool ParseSegmentName(const std::string& name, uint64_t* seq) {
  const size_t prefix = sizeof(kSegmentPrefix) - 1;
  const size_t suffix = sizeof(kSegmentSuffix) - 1;
  if (name.size() <= prefix + suffix ||
      name.compare(0, prefix, kSegmentPrefix) != 0 ||
      name.compare(name.size() - suffix, suffix, kSegmentSuffix) != 0) {
    return false;
  }
  const std::string digits = name.substr(prefix, name.size() - prefix - suffix);
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(digits.c_str(), &end, 10);
  if (errno != 0 || end == nullptr || *end != '\0') {
    return false;
  }
  *seq = static_cast<uint64_t>(v);
  return true;
}

std::vector<uint32_t> SortedUniqueServices(const Session& session) {
  std::vector<uint32_t> services;
  services.reserve(session.records.size());
  for (const auto& r : session.records) {
    services.push_back(r.service);
  }
  std::sort(services.begin(), services.end());
  services.erase(std::unique(services.begin(), services.end()),
                 services.end());
  return services;
}

// A segment target the pending queue can never reach (target > the pending
// bound) would leave WantSpillLocked false forever while WaitForSpace blocks
// on a backlog only the spill thread can drain — clamp it.
ColdTierOptions ClampOptions(ColdTierOptions options) {
  options.segment_target_bytes =
      std::max<size_t>(1, std::min(options.segment_target_bytes,
                                   options.max_pending_bytes));
  return options;
}

// Appends the #SESSION block of a stored frame. When every record line is
// canonical the lines go out as stored; otherwise the frame is decoded and
// re-encoded, which is what the verbatim copy would have to equal. False if
// a line does not parse (damage), leaving *out as it was.
bool AppendStoredBlock(const StoreFrameView& view, std::string* out) {
  const size_t mark = out->size();
  AppendSessionBlockHeader(view.id, view.fragment_index, view.first_epoch,
                           view.last_epoch, view.closed_at, view.records.size(),
                           out);
  if (view.records.ForEach([out](std::string_view line) {
        if (!IsCanonicalWireFormat(line)) {
          return false;
        }
        out->append(line);
        out->push_back('\n');
        return true;
      })) {
    AppendSessionBlockEnd(out);
    return true;
  }
  out->resize(mark);
  Session session;
  if (!DecodeStoreFrame(view, &session)) {
    return false;
  }
  AppendSessionBlock(session, out);
  return true;
}

}  // namespace

struct ColdTier::SegmentHandle {
  explicit SegmentHandle(std::string segment_path)
      : path(std::move(segment_path)), fd(OpenColdSegment(path)) {}
  ~SegmentHandle() {
    if (fd >= 0) {
      ::close(fd);
    }
  }
  SegmentHandle(const SegmentHandle&) = delete;
  SegmentHandle& operator=(const SegmentHandle&) = delete;

  const std::string path;  // For the fault hooks on each pread.
  const int fd;
};

ColdTier::ColdTier(const ColdTierOptions& options)
    : options_(ClampOptions(options)) {}

ColdTier::~ColdTier() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_spill_.notify_all();
  cv_state_.notify_all();
  if (spill_thread_.joinable()) {
    spill_thread_.join();
  }
}

bool ColdTier::Start() {
  if (::mkdir(options_.dir.c_str(), 0777) != 0 && errno != EEXIST) {
    return false;
  }
  DIR* dir = ::opendir(options_.dir.c_str());
  if (dir == nullptr) {
    return false;
  }
  std::vector<std::string> names;
  std::vector<std::string> stale_tmp;
  while (const dirent* entry = ::readdir(dir)) {
    uint64_t seq = 0;
    const std::string name = entry->d_name;
    if (ParseSegmentName(name, &seq)) {
      names.push_back(name);
    } else if (name.starts_with(kSegmentPrefix) && name.ends_with(".tmp")) {
      stale_tmp.push_back(name);
    }
  }
  ::closedir(dir);
  // A crashed spill's partial write: ParseSegmentName already keeps it out
  // of the segment list, but left alone it would leak disk forever. Unlink
  // failures are left for the next Start to retry.
  uint64_t cleaned = 0;
  for (const auto& name : stale_tmp) {
    const std::string path = options_.dir + "/" + name;
    if (FsFaultOnUnlink(path.c_str()).kind != FsFaultAction::Kind::kFail &&
        ::unlink(path.c_str()) == 0) {
      ++cleaned;
    }
  }
  // Name order == numeric order (zero-padded) == original spill order.
  std::sort(names.begin(), names.end());

  std::lock_guard<std::mutex> lock(mu_);
  tmp_cleaned_ += cleaned;
  for (const auto& name : names) {
    uint64_t seq = 0;
    ParseSegmentName(name, &seq);
    // Never reuse a taken name, even if the file turns out damaged.
    next_segment_seq_ = std::max(next_segment_seq_, seq + 1);
    Segment segment;
    segment.seq = seq;
    size_t file_bytes = 0;
    if (!LoadColdSegmentIndex(options_.dir + "/" + name, &segment.index,
                              &file_bytes)) {
      ++corrupt_;  // Damaged segment: skipped, never fatal.
      continue;
    }
    segment.base_order = next_order_;
    for (size_t i = 0; i < segment.index.entries.size(); ++i) {
      const auto& e = segment.index.entries[i];
      // emplace keeps the first (earliest-order) copy on a duplicate key.
      by_id_.emplace(std::make_pair(e.id, e.fragment), next_order_ + i);
    }
    for (const auto& [service, count] : segment.index.service_counts) {
      service_counts_[service] += count;
    }
    next_order_ += segment.index.count;
    disk_bytes_ += file_bytes;
    segments_.push_back(std::move(segment));
  }
  if (!segments_.empty()) {
    generation_.fetch_add(1, std::memory_order_release);
  }
  pending_front_order_ = next_order_;
  started_ = true;
  spill_thread_ = std::thread([this] { SpillLoop(); });
  return true;
}

void ColdTier::Append(Session&& session) {
  std::unique_lock<std::mutex> lock(mu_);
  if (stop_) {
    return;  // Abandoned/destroyed: the victim is lost, crash-equivalent.
  }
  const auto key = std::make_pair(session.id, session.fragment_index);
  if (by_id_.count(key) != 0) {
    ++dedup_dropped_;  // Already cold (replay after restore re-evicts).
    return;
  }
  PendingEntry entry;
  entry.bytes = session.MemoryFootprint();
  entry.min_time = session.MinTime();
  entry.max_time = session.MaxTime();
  entry.services = SortedUniqueServices(session);
  entry.session = std::move(session);
  for (uint32_t s : entry.services) {
    ++service_counts_[s];
  }
  by_id_[key] = next_order_++;
  generation_.fetch_add(1, std::memory_order_release);
  pending_bytes_ += entry.bytes;
  pending_.push_back(std::move(entry));
  ++spilled_;
  if (pending_bytes_ >= options_.segment_target_bytes) {
    cv_spill_.notify_one();
  }
}

void ColdTier::WaitForSpace() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_state_.wait(lock, [this] {
    return stop_ || pending_bytes_ < options_.max_pending_bytes;
  });
}

bool ColdTier::WantSpillLocked() const {
  return !pending_.empty() &&
         (pending_bytes_ >= options_.segment_target_bytes ||
          flush_until_ > pending_front_order_);
}

void ColdTier::SpillLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  int consecutive_failures = 0;
  for (;;) {
    cv_spill_.wait(lock, [this] { return stop_ || WantSpillLocked(); });
    if (stop_) {
      return;  // Pending discarded: crash-equivalent by design.
    }
    // Batch: front entries up to the segment target — everything when
    // flushing (one segment regardless of size keeps FlushPending O(1) waits).
    const bool flushing = flush_until_ > pending_front_order_;
    size_t k = 0;
    size_t batch_bytes = 0;
    for (const auto& e : pending_) {
      ++k;
      batch_bytes += e.bytes;
      if (!flushing && batch_bytes >= options_.segment_target_bytes) {
        break;
      }
    }
    // Copy the batch out under the lock (bounded by the segment target), so
    // serialization + fsync run with queries and appends unblocked.
    std::vector<Session> batch;
    batch.reserve(k);
    for (size_t i = 0; i < k; ++i) {
      batch.push_back(pending_[i].session);
    }
    const uint64_t base_order = pending_front_order_;
    const uint64_t seq = next_segment_seq_;
    const std::string path = options_.dir + "/" + SegmentFileName(seq);
    lock.unlock();
    ColdSegmentIndex index;
    size_t file_bytes = 0;
    const bool ok =
        WriteColdSegment(path, batch, base_order, &index, &file_bytes);
    lock.lock();
    if (stop_) {
      // Abandon() (or the destructor) raced with the write: pending_ was
      // cleared and the orders retracted, so the batch must not be popped and
      // the segment must not be published — the simulated kill instant
      // precedes the rename. Unlink so a restart re-discovers exactly what
      // the tier promised was durable.
      lock.unlock();
      ::unlink(path.c_str());
      return;
    }
    if (!ok) {
      ++write_failures_;
      ++consecutive_failures;
      if (options_.spill_retry_limit > 0 &&
          consecutive_failures >= options_.spill_retry_limit) {
        // The disk is persistently refusing this batch: shed it. Un-index
        // every entry (a shed session is a plain cold miss from here on,
        // never a wrong answer) and advance the durable frontier so the
        // queue keeps draining — bounded, exactly-accounted loss instead of
        // an ever-growing backlog wedging eviction.
        for (size_t i = 0; i < k; ++i) {
          PendingEntry& e = pending_.front();
          by_id_.erase(
              std::make_pair(e.session.id, e.session.fragment_index));
          for (uint32_t s : e.services) {
            const auto it = service_counts_.find(s);
            if (it != service_counts_.end() && --it->second == 0) {
              service_counts_.erase(it);
            }
          }
          pending_bytes_ -= e.bytes;
          shed_bytes_ += e.bytes;
          pending_.pop_front();
        }
        pending_front_order_ += k;
        generation_.fetch_add(1, std::memory_order_release);
        ++shed_batches_;
        shed_sessions_ += k;
        shedding_ = true;
        consecutive_failures = 0;
        cv_state_.notify_all();
        continue;
      }
      cv_state_.notify_all();  // Unblock FlushPending with the bad news.
      // Back off so a broken disk retries at a human pace, not a spin:
      // exponential from spill_backoff_ms, capped at ~2s.
      const int64_t wait_ms = std::min<int64_t>(
          options_.spill_backoff_ms
              << std::min(consecutive_failures - 1, 5),
          2000);
      cv_spill_.wait_for(lock, std::chrono::milliseconds(std::max<int64_t>(
                                   wait_ms, 1)),
                         [this] { return stop_; });
      continue;
    }
    consecutive_failures = 0;
    shedding_ = false;  // Disk healed; back to normal spilling.
    Segment segment;
    segment.seq = seq;
    segment.base_order = base_order;
    segment.index = std::move(index);
    segments_.push_back(std::move(segment));
    ++next_segment_seq_;
    disk_bytes_ += file_bytes;
    for (size_t i = 0; i < k; ++i) {
      pending_bytes_ -= pending_.front().bytes;
      pending_.pop_front();
    }
    pending_front_order_ += k;
    cv_state_.notify_all();
  }
}

bool ColdTier::FlushPending() {
  std::unique_lock<std::mutex> lock(mu_);
  const uint64_t target = next_order_;
  if (pending_front_order_ >= target) {
    return true;  // Nothing outstanding.
  }
  flush_until_ = std::max(flush_until_, target);
  const uint64_t failures_before = write_failures_;
  cv_spill_.notify_one();
  cv_state_.wait(lock, [&] {
    return stop_ || pending_front_order_ >= target ||
           write_failures_ > failures_before;
  });
  return pending_front_order_ >= target;
}

void ColdTier::Abandon() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    // Un-index the discarded pending entries so the tier stays consistent:
    // only what actually reached disk remains visible, as after a real kill.
    for (const auto& e : pending_) {
      by_id_.erase(std::make_pair(e.session.id, e.session.fragment_index));
      for (uint32_t s : e.services) {
        const auto it = service_counts_.find(s);
        if (it != service_counts_.end() && --it->second == 0) {
          service_counts_.erase(it);
        }
      }
    }
    pending_.clear();
    pending_bytes_ = 0;
    next_order_ = pending_front_order_;
    generation_.fetch_add(1, std::memory_order_release);
  }
  cv_spill_.notify_all();
  cv_state_.notify_all();
  if (spill_thread_.joinable()) {
    spill_thread_.join();
  }
}

int ColdTier::LocateLocked(uint64_t order, uint32_t* entry_index) const {
  if (order >= pending_front_order_) {
    *entry_index = static_cast<uint32_t>(order - pending_front_order_);
    return -1;
  }
  // Last segment whose base_order <= order.
  size_t lo = 0, hi = segments_.size();
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    if (segments_[mid].base_order <= order) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  const size_t seg = lo - 1;  // by_id_ orders always resolve; lo >= 1 here.
  *entry_index = static_cast<uint32_t>(order - segments_[seg].base_order);
  return static_cast<int>(seg);
}

bool ColdTier::Contains(const std::string& id, uint32_t fragment) const {
  std::lock_guard<std::mutex> lock(mu_);
  return by_id_.count(std::make_pair(id, fragment)) != 0;
}

std::shared_ptr<const ColdTier::SegmentHandle> ColdTier::AcquireHandle(
    uint64_t seq) {
  std::lock_guard<std::mutex> lock(handles_mu_);
  ++handle_clock_;
  for (auto& slot : handles_) {
    if (slot.seq == seq) {
      slot.last_use = handle_clock_;
      return slot.handle;
    }
  }
  auto handle = std::make_shared<const SegmentHandle>(options_.dir + "/" +
                                                      SegmentFileName(seq));
  if (handle->fd < 0) {
    return nullptr;
  }
  HandleSlot fresh{seq, handle_clock_, handle};
  if (handles_.size() < kMaxOpenSegments) {
    handles_.push_back(std::move(fresh));
  } else {
    *std::min_element(handles_.begin(), handles_.end(),
                      [](const HandleSlot& a, const HandleSlot& b) {
                        return a.last_use < b.last_use;
                      }) = std::move(fresh);
  }
  return handle;
}

void ColdTier::DropHandle(uint64_t seq, const SegmentHandle* handle) {
  std::lock_guard<std::mutex> lock(handles_mu_);
  for (size_t i = 0; i < handles_.size(); ++i) {
    if (handles_[i].seq == seq && handles_[i].handle.get() == handle) {
      handles_[i] = std::move(handles_.back());
      handles_.pop_back();
      return;
    }
  }
}

template <typename OnPending, typename OnFrame>
bool ColdTier::ReadCandidate(const Candidate& candidate,
                             OnPending&& on_pending, OnFrame&& on_frame) {
  uint64_t seq = 0;
  uint64_t offset = 0;
  uint32_t length = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = by_id_.find(std::make_pair(candidate.id, candidate.fragment));
    if (it == by_id_.end()) {
      ++misses_;
      return false;
    }
    uint32_t entry_index = 0;
    const int seg = LocateLocked(it->second, &entry_index);
    if (seg < 0) {
      // Still pending: serve the in-memory copy. (A candidate collected
      // while pending may resolve from a segment by now, and vice versa —
      // the fresh lookup makes either window race harmless.)
      on_pending(pending_[entry_index].session);
      ++hits_;
      return true;
    }
    const Segment& segment = segments_[static_cast<size_t>(seg)];
    const ColdSegmentEntry& entry = segment.index.entries[entry_index];
    seq = segment.seq;
    offset = entry.offset;
    length = entry.length;
  }
  std::string buf;
  StoreFrameView view;
  auto attempt = [&] {
    const auto handle = AcquireHandle(seq);
    std::string_view payload;
    if (handle != nullptr &&
        ReadColdFrame(handle->fd, handle->path, offset, length, &buf,
                      &payload) &&
        view.Parse(payload) && on_frame(view)) {
      return true;
    }
    if (handle != nullptr) {
      DropHandle(seq, handle.get());  // The retry reopens the file.
    }
    return false;
  };
  bool read_ok = attempt();
  if (!read_ok) {
    // One retry absorbs a transient EIO on the serving path; persistent
    // damage still degrades to a miss below.
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++read_retries_;
    }
    read_ok = attempt();
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (!read_ok || view.id != candidate.id ||
      view.fragment_index != candidate.fragment) {
    ++corrupt_;  // Damage degrades to a cold miss, never a wrong answer.
    return false;
  }
  ++hits_;
  return true;
}

bool ColdTier::Read(const Candidate& candidate, Session* out) {
  Session session;
  if (!ReadCandidate(
          candidate, [&](const Session& pending) { session = pending; },
          [&](const StoreFrameView& view) {
            return DecodeStoreFrame(view, &session);
          })) {
    return false;
  }
  *out = std::move(session);
  return true;
}

bool ColdTier::ReadBlock(const Candidate& candidate, std::string* out) {
  const size_t mark = out->size();
  const bool ok = ReadCandidate(
      candidate,
      [&](const Session& pending) { AppendSessionBlock(pending, out); },
      [&](const StoreFrameView& view) { return AppendStoredBlock(view, out); });
  if (!ok) {
    out->resize(mark);
  }
  return ok;
}

std::optional<Session> ColdTier::Get(const std::string& id, uint32_t fragment) {
  Candidate candidate;
  candidate.id = id;
  candidate.fragment = fragment;
  Session session;
  if (!Read(candidate, &session)) {
    return std::nullopt;
  }
  return session;
}

std::vector<uint32_t> ColdTier::Fragments(const std::string& id) const {
  std::vector<uint32_t> fragments;
  std::lock_guard<std::mutex> lock(mu_);
  // by_id_ is ordered: fragments of one id are contiguous and ascending.
  for (auto it = by_id_.lower_bound(std::make_pair(id, 0u));
       it != by_id_.end() && it->first.first == id; ++it) {
    fragments.push_back(it->first.second);
  }
  return fragments;
}

std::vector<Session> ColdTier::GetAllFragments(const std::string& id) {
  const std::vector<uint32_t> fragments = Fragments(id);
  std::vector<Session> out;
  out.reserve(fragments.size());
  Candidate candidate;
  candidate.id = id;
  for (uint32_t fragment : fragments) {
    candidate.fragment = fragment;
    Session session;
    if (Read(candidate, &session)) {
      out.push_back(std::move(session));
    }
  }
  return out;
}

std::vector<ColdTier::Candidate> ColdTier::CollectRange(EventTime lo,
                                                        EventTime hi,
                                                        size_t limit) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Candidate> out;
  if (limit == 0) {
    return out;
  }
  // Index-only scan: (min_time, order) pairs first, ids only for the
  // survivors — a RANGE over 100k cold sessions allocates 16 bytes per
  // match, not a session copy.
  std::vector<std::pair<EventTime, uint64_t>> matches;
  for (const auto& segment : segments_) {
    if (segment.index.min_time >= hi || segment.index.max_time < lo) {
      continue;  // Footer time range excludes the whole segment.
    }
    for (size_t i = 0; i < segment.index.entries.size(); ++i) {
      const auto& e = segment.index.entries[i];
      if (e.min_time < hi && e.max_time >= lo) {
        matches.emplace_back(e.min_time, segment.base_order + i);
      }
    }
  }
  for (size_t i = 0; i < pending_.size(); ++i) {
    const auto& e = pending_[i];
    if (e.min_time < hi && e.max_time >= lo) {
      matches.emplace_back(e.min_time, pending_front_order_ + i);
    }
  }
  const size_t keep = std::min(limit, matches.size());
  std::partial_sort(matches.begin(), matches.begin() + keep, matches.end());
  matches.resize(keep);
  out.reserve(keep);
  for (const auto& [min_time, order] : matches) {
    uint32_t entry_index = 0;
    const int seg = LocateLocked(order, &entry_index);
    Candidate candidate;
    candidate.min_time = min_time;
    candidate.order = order;
    if (seg < 0) {
      candidate.id = pending_[entry_index].session.id;
      candidate.fragment = pending_[entry_index].session.fragment_index;
    } else {
      const auto& e =
          segments_[static_cast<size_t>(seg)].index.entries[entry_index];
      candidate.id = e.id;
      candidate.fragment = e.fragment;
    }
    out.push_back(std::move(candidate));
  }
  return out;
}

std::vector<ColdTier::Candidate> ColdTier::CollectByService(
    uint32_t service, size_t limit) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Candidate> out;
  if (limit == 0 || service_counts_.count(service) == 0) {
    return out;
  }
  // Spill order ascends with position — segments in file order, entries in
  // file order, pending after every segment — so walking pending back to
  // front and then segments newest first yields the highest orders first,
  // and the walk can stop at `limit`.
  auto take = [&](const std::string& id, uint32_t fragment,
                  EventTime min_time, uint64_t order) {
    Candidate candidate;
    candidate.id = id;
    candidate.fragment = fragment;
    candidate.min_time = min_time;
    candidate.order = order;
    out.push_back(std::move(candidate));
    return out.size() < limit;
  };
  for (size_t i = pending_.size(); i-- > 0;) {
    const auto& e = pending_[i];
    if (std::binary_search(e.services.begin(), e.services.end(), service) &&
        !take(e.session.id, e.session.fragment_index, e.min_time,
              pending_front_order_ + i)) {
      return out;
    }
  }
  for (size_t s = segments_.size(); s-- > 0;) {
    const Segment& segment = segments_[s];
    if (!std::binary_search(segment.index.service_counts.begin(),
                            segment.index.service_counts.end(),
                            std::make_pair(service, uint64_t{0}),
                            [](const auto& a, const auto& b) {
                              return a.first < b.first;
                            })) {
      continue;  // Footer service summary excludes the whole segment.
    }
    const auto& entries = segment.index.entries;
    for (size_t i = entries.size(); i-- > 0;) {
      const auto& e = entries[i];
      if (std::binary_search(e.services.begin(), e.services.end(), service) &&
          !take(e.id, e.fragment, e.min_time, segment.base_order + i)) {
        return out;
      }
    }
  }
  return out;
}

std::vector<std::pair<uint32_t, uint64_t>> ColdTier::ServiceCounts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {service_counts_.begin(), service_counts_.end()};
}

void ColdTier::ForEachId(
    const std::function<void(const std::string&)>& fn) const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::string* prev = nullptr;
  for (const auto& [key, order] : by_id_) {
    if (prev == nullptr || *prev != key.first) {
      fn(key.first);
      prev = &key.first;
    }
  }
}

ColdTier::Stats ColdTier::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats stats;
  stats.segments = segments_.size();
  stats.sessions = by_id_.size();
  stats.bytes = disk_bytes_;
  stats.pending = pending_.size();
  stats.spilled = spilled_;
  stats.dedup_dropped = dedup_dropped_;
  stats.hits = hits_;
  stats.misses = misses_;
  stats.corrupt = corrupt_;
  stats.write_failures = write_failures_;
  stats.read_retries = read_retries_;
  stats.tmp_cleaned = tmp_cleaned_;
  stats.shed_batches = shed_batches_;
  stats.shed_sessions = shed_sessions_;
  stats.shed_bytes = shed_bytes_;
  stats.shedding = shedding_;
  return stats;
}

}  // namespace ts
