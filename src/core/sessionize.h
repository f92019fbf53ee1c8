// Sessionization as a data-parallel windowed group-by operator (§4.2).
//
// Records are shuffled by SipHash-2-4 of the session ID (Exchange PACT), then
// grouped per worker into in-flight sessions. A session is flushed once a fixed
// number of epochs elapse with no intervening activity ("flush on inactivity",
// §3): every emission is notification-driven — timeout is the norm, not the
// exception.
//
// Worker-local state mirrors the paper's three indexed collections:
//   (i)  messages organized by time      -> per-session record vectors tagged
//        with first/last activity epochs,
//   (ii) in-flight sessions              -> `sessions` hash map,
//   (iii) session IDs that may have expired by an epoch -> `expiry_candidates`.
//
// Role: paper reproduction. This timely operator, with OfflineSessionizer as
// ground truth, is what the figure 4-6 benches measure; the live serving path
// sessionizes with LiveCloser (src/core/live_closer.h) instead.
#ifndef SRC_CORE_SESSIONIZE_H_
#define SRC_CORE_SESSIONIZE_H_

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/core/session.h"
#include "src/log/record.h"
#include "src/timely/scope.h"

namespace ts {

struct SessionizeOptions {
  // Number of epochs that must elapse without activity before a session is
  // declared closed. With 1-second epochs, 5 means "5 seconds idle".
  Epoch inactivity_epochs = 5;

  // When true, the operator remembers flushed session IDs so that a renewed
  // session is emitted with an incremented fragment_index (used to study online
  // fragmentation, §2.2). Costs memory proportional to distinct flushed IDs;
  // disabled for long-running production pipelines.
  bool track_fragments = false;
};

// Per-worker metrics exposed for tests and benches. The shared_ptr returned by
// Sessionize keeps them alive past the computation.
struct SessionizeMetrics {
  uint64_t records_in = 0;
  uint64_t sessions_out = 0;
  uint64_t fragments_out = 0;  // Emissions with fragment_index > 0.
  size_t peak_inflight_sessions = 0;
  size_t peak_state_bytes = 0;
};

namespace sessionize_internal {

struct SessionState {
  std::vector<LogRecord> records;
  Epoch first_epoch = 0;
  Epoch last_epoch = 0;
  uint32_t fragment_index = 0;
  size_t bytes = 0;
};

struct WorkerState {
  // Collection (i): messages organized by time. Data may race ahead of
  // notifications (several epochs can be in flight concurrently), so records
  // are staged per epoch and merged into session state strictly in epoch
  // order, when the epoch's notification fires. Without this staging, a
  // fast-arriving future record would spuriously extend a session that the
  // inactivity rule should have closed.
  std::map<Epoch, std::vector<LogRecord>> pending_by_epoch;
  // Collection (ii): sessions currently in flight.
  std::unordered_map<std::string, SessionState> sessions;
  // Collection (iii): expiration candidates. A session touched at epoch e
  // becomes a candidate at e + inactivity (registered at most once per touched
  // epoch). A candidate whose session saw later activity is ignored; the later
  // candidate covers it.
  std::map<Epoch, std::vector<std::string>> expiry_candidates;
  // Only populated when track_fragments is set.
  std::unordered_map<std::string, uint32_t> flushed_counts;
  size_t state_bytes = 0;
  SessionizeMetrics metrics;
};

}  // namespace sessionize_internal

// Builds the sessionization stage on `scope`: exchange by session hash followed
// by the stateful window operator. Returns the session stream and this worker's
// metrics handle.
inline std::pair<Stream<Session>, std::shared_ptr<SessionizeMetrics>> Sessionize(
    Scope& scope, const Stream<LogRecord>& records, const SessionizeOptions& options) {
  using sessionize_internal::SessionState;
  using sessionize_internal::WorkerState;

  auto state = std::make_shared<WorkerState>();
  auto metrics = std::make_shared<SessionizeMetrics>();
  const Epoch delay = options.inactivity_epochs;
  const bool track_fragments = options.track_fragments;

  auto sessions = scope.Unary<LogRecord, Session>(
      records,
      Partition<LogRecord>::ByKey(
          [](const LogRecord& r) { return SessionHash(r.session_id); }),
      "sessionize",
      // Data plane: stage records by epoch; merging happens in epoch order on
      // notifications so late-arriving future epochs cannot leak into windows
      // the inactivity rule already closed.
      [state](Epoch epoch, std::vector<LogRecord>& data, OutputSession<Session>&,
              NotificatorHandle& notificator) {
        if (data.empty()) {
          return;
        }
        state->metrics.records_in += data.size();
        auto& staged = state->pending_by_epoch[epoch];
        for (auto& r : data) {
          state->state_bytes += r.MemoryFootprint();
          staged.push_back(std::move(r));
        }
        notificator.NotifyAt(epoch);
      },
      // Control plane, invoked in strict epoch order: (1) merge the epoch's
      // staged records into session windows, (2) flush sessions whose
      // inactivity window elapsed at this epoch.
      [state, delay, metrics, track_fragments](Epoch epoch, OutputSession<Session>& out,
                                               NotificatorHandle& notificator) {
        auto staged = state->pending_by_epoch.find(epoch);
        if (staged != state->pending_by_epoch.end()) {
          for (auto& r : staged->second) {
            auto [it, inserted] = state->sessions.try_emplace(r.session_id);
            SessionState& s = it->second;
            const bool first_touch_this_epoch = inserted || s.last_epoch != epoch;
            if (inserted) {
              s.first_epoch = epoch;
              state->state_bytes += r.session_id.capacity() + sizeof(SessionState);
              if (track_fragments) {
                auto flushed = state->flushed_counts.find(it->first);
                if (flushed != state->flushed_counts.end()) {
                  s.fragment_index = flushed->second;
                }
              }
            }
            s.last_epoch = epoch;
            s.bytes += r.MemoryFootprint();
            s.records.push_back(std::move(r));
            if (first_touch_this_epoch) {
              state->expiry_candidates[epoch + delay].push_back(it->first);
              notificator.NotifyAt(epoch + delay);
            }
          }
          state->pending_by_epoch.erase(staged);
          state->metrics.peak_inflight_sessions = std::max(
              state->metrics.peak_inflight_sessions, state->sessions.size());
          state->metrics.peak_state_bytes =
              std::max(state->metrics.peak_state_bytes, state->state_bytes);
        }
        auto candidates = state->expiry_candidates.find(epoch);
        if (candidates != state->expiry_candidates.end()) {
          for (auto& id : candidates->second) {
            auto it = state->sessions.find(id);
            if (it == state->sessions.end()) {
              continue;  // Already flushed via an earlier candidate entry.
            }
            SessionState& s = it->second;
            if (s.last_epoch + delay > epoch) {
              continue;  // Renewed activity; a later candidate covers it.
            }
            Session session;
            session.id = it->first;
            session.records = std::move(s.records);
            session.first_epoch = s.first_epoch;
            session.last_epoch = s.last_epoch;
            session.closed_at = epoch;
            session.fragment_index = s.fragment_index;
            state->state_bytes -=
                s.bytes + session.id.capacity() + sizeof(SessionState);
            ++state->metrics.sessions_out;
            if (session.fragment_index > 0) {
              ++state->metrics.fragments_out;
            }
            if (track_fragments) {
              state->flushed_counts[session.id] = session.fragment_index + 1;
            }
            state->sessions.erase(it);
            out.Give(epoch, std::move(session));
          }
          state->expiry_candidates.erase(candidates);
        }
        // Publish the metrics snapshot for this worker.
        *metrics = state->metrics;
      });
  return {sessions, metrics};
}

}  // namespace ts

#endif  // SRC_CORE_SESSIONIZE_H_
