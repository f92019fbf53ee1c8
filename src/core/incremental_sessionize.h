// Multi-versioned (incremental) sessionization — the alternative design the
// paper sketches in §3: "new messages can arrive for a session at any time and
// changes are propagated downstream to subsequent calculations immediately",
// eliminating the waiting period and letting subscribers inspect partially
// reconstructed sessions (§2.3's watermark/incremental-processing idea).
//
// Instead of buffering a session's records until the inactivity window
// expires, this operator emits a SessionUpdate for every (session, epoch) with
// activity, as soon as the epoch completes, and a final (empty) update when
// the window closes. Operator state holds only per-session metadata — records
// are forwarded, not retained — so memory is O(active sessions), not
// O(buffered records). The cost is that every downstream consumer must handle
// incremental inputs (the paper's stated reason for not making this the
// default).
//
// Role: §3 paper extension. No serving path runs it; it is measured against
// the batch operator by bench/ablation_incremental_feedback.
#ifndef SRC_CORE_INCREMENTAL_SESSIONIZE_H_
#define SRC_CORE_INCREMENTAL_SESSIONIZE_H_

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/core/sessionize.h"
#include "src/log/record.h"
#include "src/timely/scope.h"

namespace ts {

struct SessionUpdate {
  std::string id;
  std::vector<LogRecord> new_records;  // Records that arrived this epoch.
  uint32_t version = 0;                // 0, 1, 2, ... within one session window.
  Epoch epoch = 0;                     // Epoch that produced the update.
  bool is_final = false;               // Window closed; version is the last.
};

struct IncrementalMetrics {
  uint64_t records_in = 0;
  uint64_t updates_out = 0;
  uint64_t finals_out = 0;
  size_t peak_tracked_sessions = 0;
};

// Builds the incremental sessionization stage: exchange by session hash, then
// per-epoch update emission with inactivity-based finalization.
inline std::pair<Stream<SessionUpdate>, std::shared_ptr<IncrementalMetrics>>
SessionizeIncremental(Scope& scope, const Stream<LogRecord>& records,
                      const SessionizeOptions& options) {
  struct Tracked {
    Epoch last_epoch = 0;
    uint32_t next_version = 0;
  };
  struct State {
    std::map<Epoch, std::vector<LogRecord>> pending_by_epoch;
    std::unordered_map<std::string, Tracked> sessions;
    std::map<Epoch, std::vector<std::string>> expiry_candidates;
    IncrementalMetrics metrics;
  };
  auto state = std::make_shared<State>();
  auto metrics = std::make_shared<IncrementalMetrics>();
  const Epoch delay = options.inactivity_epochs;

  auto updates = scope.Unary<LogRecord, SessionUpdate>(
      records,
      Partition<LogRecord>::ByKey(
          [](const LogRecord& r) { return SessionHash(r.session_id); }),
      "sessionize_incremental",
      [state](Epoch epoch, std::vector<LogRecord>& data, OutputSession<SessionUpdate>&,
              NotificatorHandle& notificator) {
        if (data.empty()) {
          return;
        }
        state->metrics.records_in += data.size();
        auto& staged = state->pending_by_epoch[epoch];
        for (auto& r : data) {
          staged.push_back(std::move(r));
        }
        notificator.NotifyAt(epoch);
      },
      [state, delay, metrics](Epoch epoch, OutputSession<SessionUpdate>& out,
                              NotificatorHandle& notificator) {
        // 1. Emit an update per session with activity in this epoch.
        auto staged = state->pending_by_epoch.find(epoch);
        if (staged != state->pending_by_epoch.end()) {
          std::unordered_map<std::string, SessionUpdate> per_session;
          for (auto& r : staged->second) {
            auto& update = per_session[r.session_id];
            if (update.new_records.empty()) {
              update.id = r.session_id;
              update.epoch = epoch;
            }
            update.new_records.push_back(std::move(r));
          }
          state->pending_by_epoch.erase(staged);
          for (auto& [id, update] : per_session) {
            auto [it, inserted] = state->sessions.try_emplace(id);
            Tracked& t = it->second;
            const bool fresh_touch = inserted || t.last_epoch != epoch;
            t.last_epoch = epoch;
            update.version = t.next_version++;
            ++state->metrics.updates_out;
            out.Give(epoch, std::move(update));
            if (fresh_touch) {
              state->expiry_candidates[epoch + delay].push_back(id);
              notificator.NotifyAt(epoch + delay);
            }
          }
          state->metrics.peak_tracked_sessions =
              std::max(state->metrics.peak_tracked_sessions, state->sessions.size());
        }
        // 2. Finalize sessions whose inactivity window elapsed.
        auto candidates = state->expiry_candidates.find(epoch);
        if (candidates != state->expiry_candidates.end()) {
          for (auto& id : candidates->second) {
            auto it = state->sessions.find(id);
            if (it == state->sessions.end() || it->second.last_epoch + delay > epoch) {
              continue;
            }
            SessionUpdate final_update;
            final_update.id = id;
            final_update.epoch = epoch;
            final_update.version = it->second.next_version;
            final_update.is_final = true;
            ++state->metrics.finals_out;
            state->sessions.erase(it);
            out.Give(epoch, std::move(final_update));
          }
          state->expiry_candidates.erase(candidates);
        }
        *metrics = state->metrics;
      });
  return {updates, metrics};
}

}  // namespace ts

#endif  // SRC_CORE_INCREMENTAL_SESSIONIZE_H_
