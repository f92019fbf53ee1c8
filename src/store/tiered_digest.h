// TieredDigest: ChainedStoreDigest's equal for a hot + cold tiered store.
//
// The fault-conformance contract says the bytes a query client receives per
// session id are a pure function of the arrival stream. With a cold tier in
// play those bytes come from the *union* of the hot window and the cold
// segments, merged fragment-ascending with the hot copy preferred on overlap
// (a session can be both hot and cold right after a restore: the snapshot
// restored it hot while a pre-crash flush already made it durable cold) —
// exactly how the query server answers FRAGMENTS. Digesting that merge in
// sorted-id order with the same chaining as ChainedStoreDigest makes a
// tiered store byte-comparable against an unbounded fault-free baseline.
#ifndef SRC_STORE_TIERED_DIGEST_H_
#define SRC_STORE_TIERED_DIGEST_H_

#include <cstddef>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "src/analytics/session_digest.h"
#include "src/analytics/session_store.h"
#include "src/core/session.h"
#include "src/store/cold_tier.h"

namespace ts {

// The FRAGMENTS merge order over one id's hot and cold fragment indices
// (each ascending): fragment-ascending, the hot copy preferred when both
// tiers hold a fragment (the post-restore overlap). Calls on_hot(h) /
// on_cold(c) with positions in the inputs, in merged order, until one of
// them returns false. The query server streams FRAGMENTS replies in this
// order; MergeTieredFragments materializes it.
template <typename OnHot, typename OnCold>
void VisitTieredFragments(const std::vector<uint32_t>& hot,
                          const std::vector<uint32_t>& cold, OnHot&& on_hot,
                          OnCold&& on_cold) {
  size_t h = 0, c = 0;
  while (h < hot.size() || c < cold.size()) {
    if (h >= hot.size() || (c < cold.size() && cold[c] < hot[h])) {
      if (!on_cold(c++)) {
        return;
      }
      continue;
    }
    if (c < cold.size() && cold[c] == hot[h]) {
      ++c;  // Overlap after restore: the hot copy wins.
    }
    if (!on_hot(h++)) {
      return;
    }
  }
}

inline std::vector<uint32_t> FragmentIndices(
    const std::vector<Session>& sessions) {
  std::vector<uint32_t> indices;
  indices.reserve(sessions.size());
  for (const auto& s : sessions) {
    indices.push_back(s.fragment_index);
  }
  return indices;
}

// Hot and cold fragments of one id, fragment-ascending, hot preferred on a
// duplicate fragment index. Both inputs are already fragment-ascending.
inline std::vector<Session> MergeTieredFragments(std::vector<Session> hot,
                                                 std::vector<Session> cold) {
  std::vector<Session> merged;
  merged.reserve(hot.size() + cold.size());
  VisitTieredFragments(
      FragmentIndices(hot), FragmentIndices(cold),
      [&](size_t h) {
        merged.push_back(std::move(hot[h]));
        return true;
      },
      [&](size_t c) {
        merged.push_back(std::move(cold[c]));
        return true;
      });
  return merged;
}

// Chained digest over hot ∪ cold, comparable to ChainedStoreDigest of an
// unbounded store holding the same sessions. `ids` must cover both tiers
// (union of store ids and ColdTier::ForEachId).
inline uint64_t TieredDigest(const SessionStore& store, ColdTier& cold,
                             const std::set<std::string>& ids) {
  std::string canon;
  uint64_t digest = 0;
  for (const auto& id : ids) {
    const std::vector<Session> merged = MergeTieredFragments(
        store.GetAllFragments(id), cold.GetAllFragments(id));
    for (const auto& s : merged) {
      digest ^= SessionDigest(s, &canon);
      digest = SipHash24(digest);
    }
  }
  return digest;
}

}  // namespace ts

#endif  // SRC_STORE_TIERED_DIGEST_H_
