#include "src/core/session_block.h"

#include <cinttypes>
#include <cstdio>

#include "src/log/wire_format.h"

namespace ts {

void AppendSessionBlockHeader(std::string_view id, uint32_t fragment_index,
                              uint64_t first_epoch, uint64_t last_epoch,
                              uint64_t closed_at, size_t records,
                              std::string* out) {
  char header[160];
  std::snprintf(header, sizeof(header),
                "#SESSION %u %" PRIu64 " %" PRIu64 " %" PRIu64 " %zu ",
                fragment_index, first_epoch, last_epoch, closed_at, records);
  out->append(header);
  out->append(id);
  out->push_back('\n');
}

void AppendSessionBlockEnd(std::string* out) {
  out->append(kSessionEnd);
  out->push_back('\n');
}

void AppendSessionBlock(const Session& session, std::string* out) {
  AppendSessionBlockHeader(session.id, session.fragment_index,
                           session.first_epoch, session.last_epoch,
                           session.closed_at, session.records.size(), out);
  for (const auto& r : session.records) {
    AppendWireFormat(r, out);
    out->push_back('\n');
  }
  AppendSessionBlockEnd(out);
}

std::string EncodeSessionBlock(const Session& session) {
  std::string out;
  AppendSessionBlock(session, &out);
  return out;
}

}  // namespace ts
