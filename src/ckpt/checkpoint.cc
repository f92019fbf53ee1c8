#include "src/ckpt/checkpoint.h"

#include <algorithm>
#include <utility>

#include "src/ckpt/snapshot_io.h"
#include "src/log/wire_format.h"

namespace ts {
namespace {

constexpr char kMagic[] = "TSCKPT";  // 6 bytes, no NUL.
constexpr size_t kMagicLen = 6;
constexpr char kTagHeader = 'H';
constexpr char kTagOpen = 'O';
constexpr char kTagCounters = 'C';
constexpr char kTagStore = 'S';
constexpr char kTagTemplates = 'T';
constexpr char kTagFooter = 'E';
constexpr size_t kCounterChunk = 4096;  // Counter entries per 'C' frame.

void AppendRecords(const std::vector<LogRecord>& records, std::string* payload,
                   std::string* scratch) {
  PutU32(payload, static_cast<uint32_t>(records.size()));
  for (const auto& r : records) {
    scratch->clear();
    AppendWireFormat(r, scratch);
    PutBytes(payload, *scratch);
  }
}

bool ParseRecords(const RecordLines& lines, std::vector<LogRecord>* records) {
  records->reserve(lines.size());
  return lines.ForEach([records](std::string_view line) {
    auto parsed = ParseWireFormat(line);
    if (!parsed) {
      return false;  // A record that no longer parses is damage, not input.
    }
    records->push_back(std::move(*parsed));
    return true;
  });
}

}  // namespace

void StoreFrameEncoder::Append(const Session& session, std::string* out) {
  payload_.clear();
  payload_.push_back(kTagStore);
  PutBytes(&payload_, session.id);
  PutU32(&payload_, session.fragment_index);
  PutU64(&payload_, session.first_epoch);
  PutU64(&payload_, session.last_epoch);
  PutU64(&payload_, session.closed_at);
  AppendRecords(session.records, &payload_, &scratch_);
  AppendFrame(out, payload_);
}

void OpenFrameEncoder::Append(std::string_view id, EventTime last_time,
                              const std::vector<LogRecord>& records,
                              std::string* out) {
  payload_.clear();
  payload_.push_back(kTagOpen);
  PutBytes(&payload_, id);
  PutU64(&payload_, static_cast<uint64_t>(last_time));
  AppendRecords(records, &payload_, &scratch_);
  AppendFrame(out, payload_);
}

void EncodeSnapshotParts(const CheckpointState& state, uint64_t open_count,
                         uint64_t store_count, std::string* head,
                         std::string* tail) {
  head->clear();
  tail->clear();
  std::string payload;
  std::string scratch;
  uint64_t frames = 0;

  payload.push_back(kTagHeader);
  payload.append(kMagic, kMagicLen);
  PutU32(&payload, kCheckpointVersion);
  PutU64(&payload, state.resume_offset);
  PutU64(&payload, state.stream);
  PutU64(&payload, static_cast<uint64_t>(state.ingest_watermark));
  PutU64(&payload, state.records);
  PutU64(&payload, state.parse_failures);
  PutU64(&payload, state.store_inserted);
  PutU64(&payload, state.store_evicted);
  PutU64(&payload, state.closers.open.size() + open_count);
  PutU64(&payload, state.closers.next_fragment.size());
  PutU64(&payload, state.store_sessions.size() + store_count);
  PutU64(&payload, state.has_miner ? 1 : 0);
  AppendFrame(head, payload);
  ++frames;

  if (state.has_miner) {
    const TemplateMinerState& miner = state.miner;
    payload.clear();
    payload.push_back(kTagTemplates);
    PutU32(&payload, miner.next_template_id);
    PutU64(&payload, miner.catch_all_hits);
    PutU64(&payload, miner.payloads_mined);
    PutU64(&payload, miner.nodes.size());
    for (const auto& node : miner.nodes) {
      PutU32(&payload, node.parent);
      PutU32(&payload, node.bucket);
      PutU32(&payload, (node.wild ? 1u : 0u) | (node.leaf ? 2u : 0u));
      PutBytes(&payload, node.token);
    }
    PutU64(&payload, miner.groups.size());
    for (const auto& group : miner.groups) {
      PutU32(&payload, group.node);
      PutU32(&payload, group.template_id);
      PutU64(&payload, group.hits);
      PutU32(&payload, static_cast<uint32_t>(group.tokens.size()));
      for (const auto& token : group.tokens) {
        PutBytes(&payload, token);
      }
      PutBytes(&payload,
               std::string_view(
                   reinterpret_cast<const char*>(group.wildcard.data()),
                   group.wildcard.size()));
    }
    AppendFrame(head, payload);
    ++frames;
  }

  for (const auto& fragment : state.closers.open) {
    payload.clear();
    payload.push_back(kTagOpen);
    PutBytes(&payload, fragment.id);
    PutU64(&payload, static_cast<uint64_t>(fragment.last_time));
    AppendRecords(fragment.records, &payload, &scratch);
    AppendFrame(head, payload);
    ++frames;
  }

  for (size_t base = 0; base < state.closers.next_fragment.size();
       base += kCounterChunk) {
    const size_t n =
        std::min(kCounterChunk, state.closers.next_fragment.size() - base);
    payload.clear();
    payload.push_back(kTagCounters);
    PutU32(&payload, static_cast<uint32_t>(n));
    for (size_t i = 0; i < n; ++i) {
      const auto& [id, next] = state.closers.next_fragment[base + i];
      PutBytes(&payload, id);
      PutU32(&payload, next);
    }
    AppendFrame(head, payload);
    ++frames;
  }

  StoreFrameEncoder store_encoder;
  for (const auto& session : state.store_sessions) {
    store_encoder.Append(session, head);
    ++frames;
  }
  frames += open_count + store_count;

  payload.clear();
  payload.push_back(kTagFooter);
  PutU64(&payload, frames);
  AppendFrame(tail, payload);
}

std::string EncodeSnapshot(const CheckpointState& state) {
  std::string head;
  std::string tail;
  EncodeSnapshotParts(state, 0, 0, &head, &tail);
  head.append(tail);
  return head;
}

bool RecordLines::Read(ByteCursor* cursor) {
  const size_t start = cursor->pos;
  if (!cursor->GetU32(&count_)) {
    return false;
  }
  const size_t lines_start = cursor->pos;
  std::string_view line;
  for (uint32_t i = 0; i < count_; ++i) {
    if (!cursor->GetBytes(&line)) {
      cursor->pos = start;
      return false;
    }
  }
  bytes_ = cursor->data.substr(lines_start, cursor->pos - lines_start);
  return true;
}

bool StoreFrameView::Parse(std::string_view payload) {
  if (payload.empty() || payload[0] != kTagStore) {
    return false;
  }
  ByteCursor cursor{payload, 1};
  return cursor.GetBytes(&id) && cursor.GetU32(&fragment_index) &&
         cursor.GetU64(&first_epoch) && cursor.GetU64(&last_epoch) &&
         cursor.GetU64(&closed_at) && records.Read(&cursor) &&
         cursor.remaining() == 0;
}

bool DecodeStoreFrame(const StoreFrameView& view, Session* out) {
  out->id = std::string(view.id);
  out->fragment_index = view.fragment_index;
  out->first_epoch = view.first_epoch;
  out->last_epoch = view.last_epoch;
  out->closed_at = view.closed_at;
  out->records.clear();
  return ParseRecords(view.records, &out->records);
}

bool DecodeStoreFramePayload(std::string_view payload, Session* out) {
  StoreFrameView view;
  return view.Parse(payload) && DecodeStoreFrame(view, out);
}

bool DecodeSnapshot(std::string_view bytes, CheckpointState* state) {
  FrameParser parser(bytes);
  std::string_view payload;

  if (!parser.Next(&payload) || payload.empty() ||
      payload[0] != kTagHeader) {
    return false;
  }
  ByteCursor header{payload, 1};
  if (header.remaining() < kMagicLen ||
      payload.compare(header.pos, kMagicLen, kMagic) != 0) {
    return false;
  }
  header.pos += kMagicLen;
  uint32_t version = 0;
  uint64_t watermark = 0, n_open = 0, n_counters = 0, n_store = 0;
  uint64_t n_templates = 0;
  if (!header.GetU32(&version) || version != kCheckpointVersion ||
      !header.GetU64(&state->resume_offset) || !header.GetU64(&state->stream) ||
      !header.GetU64(&watermark) || !header.GetU64(&state->records) ||
      !header.GetU64(&state->parse_failures) ||
      !header.GetU64(&state->store_inserted) ||
      !header.GetU64(&state->store_evicted) || !header.GetU64(&n_open) ||
      !header.GetU64(&n_counters) || !header.GetU64(&n_store) ||
      !header.GetU64(&n_templates) || n_templates > 1 ||
      header.remaining() != 0) {
    return false;
  }
  state->ingest_watermark = static_cast<EventTime>(watermark);

  uint64_t frames = 1;
  bool footer_seen = false;
  uint64_t footer_frames = 0;
  while (parser.Next(&payload)) {
    if (footer_seen || payload.empty()) {
      return false;  // Frames after the footer, or an empty payload.
    }
    ByteCursor cursor{payload, 1};
    switch (payload[0]) {
      case kTagOpen: {
        LiveCloserState::OpenFragment fragment;
        std::string_view id;
        uint64_t last_time = 0;
        RecordLines lines;
        if (!cursor.GetBytes(&id) || !cursor.GetU64(&last_time) ||
            !lines.Read(&cursor) || cursor.remaining() != 0 ||
            !ParseRecords(lines, &fragment.records)) {
          return false;
        }
        fragment.id = std::string(id);
        fragment.last_time = static_cast<EventTime>(last_time);
        state->closers.open.push_back(std::move(fragment));
        break;
      }
      case kTagCounters: {
        uint32_t n = 0;
        if (!cursor.GetU32(&n)) {
          return false;
        }
        for (uint32_t i = 0; i < n; ++i) {
          std::string_view id;
          uint32_t next = 0;
          if (!cursor.GetBytes(&id) || !cursor.GetU32(&next)) {
            return false;
          }
          state->closers.next_fragment.emplace_back(std::string(id), next);
        }
        if (cursor.remaining() != 0) {
          return false;
        }
        break;
      }
      case kTagStore: {
        Session session;
        if (!DecodeStoreFramePayload(payload, &session)) {
          return false;
        }
        state->store_sessions.push_back(std::move(session));
        break;
      }
      case kTagTemplates: {
        if (state->has_miner) {
          return false;  // At most one 'T' frame.
        }
        TemplateMinerState& miner = state->miner;
        uint64_t n_nodes = 0, n_groups = 0;
        if (!cursor.GetU32(&miner.next_template_id) ||
            !cursor.GetU64(&miner.catch_all_hits) ||
            !cursor.GetU64(&miner.payloads_mined) ||
            !cursor.GetU64(&n_nodes)) {
          return false;
        }
        miner.nodes.reserve(n_nodes);
        for (uint64_t i = 0; i < n_nodes; ++i) {
          TemplateMinerState::NodeRec node;
          uint32_t flags = 0;
          std::string_view token;
          if (!cursor.GetU32(&node.parent) || !cursor.GetU32(&node.bucket) ||
              !cursor.GetU32(&flags) || flags > 3 ||
              !cursor.GetBytes(&token)) {
            return false;
          }
          node.wild = (flags & 1u) != 0;
          node.leaf = (flags & 2u) != 0;
          node.token = std::string(token);
          miner.nodes.push_back(std::move(node));
        }
        if (!cursor.GetU64(&n_groups)) {
          return false;
        }
        miner.groups.reserve(n_groups);
        for (uint64_t i = 0; i < n_groups; ++i) {
          TemplateMinerState::GroupRec group;
          uint32_t n_tokens = 0;
          if (!cursor.GetU32(&group.node) ||
              !cursor.GetU32(&group.template_id) ||
              !cursor.GetU64(&group.hits) || !cursor.GetU32(&n_tokens)) {
            return false;
          }
          group.tokens.reserve(n_tokens);
          for (uint32_t j = 0; j < n_tokens; ++j) {
            std::string_view token;
            if (!cursor.GetBytes(&token)) {
              return false;
            }
            group.tokens.emplace_back(token);
          }
          std::string_view wildcard;
          if (!cursor.GetBytes(&wildcard) || wildcard.size() != n_tokens) {
            return false;
          }
          group.wildcard.assign(wildcard.begin(), wildcard.end());
          miner.groups.push_back(std::move(group));
        }
        if (cursor.remaining() != 0) {
          return false;
        }
        state->has_miner = true;
        break;
      }
      case kTagFooter: {
        if (!cursor.GetU64(&footer_frames) || cursor.remaining() != 0) {
          return false;
        }
        footer_seen = true;
        continue;  // Not counted in `frames`; must be the last frame.
      }
      default:
        return false;  // Unknown tag.
    }
    ++frames;
  }
  // The parser must have consumed every byte through valid frames, the footer
  // must exist, and every section the header promised must be present.
  return parser.AtEnd() && footer_seen && footer_frames == frames &&
         state->closers.open.size() == n_open &&
         state->closers.next_fragment.size() == n_counters &&
         state->store_sessions.size() == n_store &&
         (state->has_miner ? 1u : 0u) == n_templates;
}

}  // namespace ts
