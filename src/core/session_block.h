// Session blocks: the wire form of one whole session, as the query protocol
// (src/query/query_protocol.h) serves it and the cold tier (src/store) builds
// it straight from stored record lines:
//
//   #SESSION <fragment> <first_epoch> <last_epoch> <closed_at> <nrec> <id>
//   <nrec record lines in the src/log wire format>
//   #END
//
// Every line is '\n'-terminated. Record lines start with a decimal
// timestamp, so they can never collide with the '#'-prefixed lines.
#ifndef SRC_CORE_SESSION_BLOCK_H_
#define SRC_CORE_SESSION_BLOCK_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "src/core/session.h"

namespace ts {

inline constexpr char kSessionHeaderPrefix[] = "#SESSION ";
inline constexpr char kSessionEnd[] = "#END";

// Appends the "#SESSION ..." header line of a block holding `records` lines.
void AppendSessionBlockHeader(std::string_view id, uint32_t fragment_index,
                              uint64_t first_epoch, uint64_t last_epoch,
                              uint64_t closed_at, size_t records,
                              std::string* out);

// Appends the "#END" line that closes a block.
void AppendSessionBlockEnd(std::string* out);

// Serializes `session` as one block, appending to *out. This is the
// canonical serialization: the loopback tests assert that bytes served for a
// session equal EncodeSessionBlock of the same session read from the store
// in-process.
void AppendSessionBlock(const Session& session, std::string* out);
std::string EncodeSessionBlock(const Session& session);

}  // namespace ts

#endif  // SRC_CORE_SESSION_BLOCK_H_
