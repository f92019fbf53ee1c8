#include "src/log/txn_id.h"

#include "src/common/status.h"

namespace ts {

std::optional<TxnId> TxnId::Parse(std::string_view s) {
  std::vector<uint32_t> path;
  if (!ScanTxnComponents(s, [&path](std::string_view, uint32_t value) {
        path.push_back(value);
        return true;
      })) {
    return std::nullopt;
  }
  return TxnId(std::move(path));
}

std::string TxnId::ToString() const {
  std::string out;
  AppendTo(&out);
  return out;
}

void TxnId::AppendTo(std::string* out) const {
  char buf[12];  // u32 max is 10 digits.
  for (size_t i = 0; i < path_.size(); ++i) {
    if (i > 0) {
      out->push_back('-');
    }
    auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), path_[i]);
    out->append(buf, static_cast<size_t>(ptr - buf));
  }
}

TxnId TxnId::Parent() const {
  TS_CHECK(path_.size() >= 2);
  return TxnId(std::vector<uint32_t>(path_.begin(), path_.end() - 1));
}

TxnId TxnId::Root() const {
  TS_CHECK(!path_.empty());
  return TxnId({path_.front()});
}

bool TxnId::IsAncestorOf(const TxnId& other) const {
  if (path_.size() >= other.path_.size()) {
    return false;
  }
  for (size_t i = 0; i < path_.size(); ++i) {
    if (path_[i] != other.path_[i]) {
      return false;
    }
  }
  return true;
}

size_t TxnIdHash::operator()(const TxnId& id) const {
  // FNV-1a over the components; adequate for in-process container use.
  uint64_t h = 0xcbf29ce484222325ULL;
  for (uint32_t c : id.path()) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return static_cast<size_t>(h);
}

}  // namespace ts
