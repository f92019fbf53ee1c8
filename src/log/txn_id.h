// Hierarchical transaction identifiers.
//
// The paper's logging infrastructure assigns IDs that reflect call nesting: a
// record for transaction "26-3-11-5-1" is the 1st child of the 5th child of ... of
// root transaction 26 within its session (§2.1). The sessionizer exploits this to
// rebuild trace trees without needing explicit parent pointers, and to infer
// missing interior nodes ("transaction ID of 2-10 implies there is a root
// transaction 2 and nine other siblings", §2.3).
#ifndef SRC_LOG_TXN_ID_H_
#define SRC_LOG_TXN_ID_H_

#include <charconv>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ts {

class TxnId {
 public:
  TxnId() = default;
  explicit TxnId(std::vector<uint32_t> path) : path_(std::move(path)) {}

  // Parses "26-3-11-5-1". Returns nullopt on empty input, non-numeric components,
  // or component overflow.
  static std::optional<TxnId> Parse(std::string_view s);

  std::string ToString() const;

  // Appends the "26-3-11-5-1" form to `out` without temporaries (hot on the
  // wire-encode path).
  void AppendTo(std::string* out) const;

  bool empty() const { return path_.empty(); }
  size_t depth() const { return path_.size(); }
  bool IsRoot() const { return path_.size() == 1; }

  // The root transaction index (first component). Requires !empty().
  uint32_t root() const { return path_.front(); }

  // Index among siblings (last component). Requires !empty().
  uint32_t sibling_index() const { return path_.back(); }

  // Parent ID (one component shorter). Requires depth() >= 2.
  TxnId Parent() const;

  // Root-level ID (just the first component). Requires !empty().
  TxnId Root() const;

  // True when this ID is a strict ancestor of `other` (proper prefix).
  bool IsAncestorOf(const TxnId& other) const;

  const std::vector<uint32_t>& path() const { return path_; }

  // Total order: lexicographic over components; used for deterministic tree
  // layout and as map keys.
  auto operator<=>(const TxnId& other) const = default;

 private:
  std::vector<uint32_t> path_;
};

// Walks the components of "26-3-11-5-1" in order, calling fn(text, value)
// for each. Returns false on the grammar TxnId::Parse rejects (empty input or
// component, a non-digit byte, u32 overflow) or as soon as fn returns false.
// Allocation-free: TxnId::Parse and the canonical-line check
// (src/log/wire_format.h) both read ids through it.
template <typename Fn>
bool ScanTxnComponents(std::string_view s, Fn&& fn) {
  if (s.empty()) {
    return false;
  }
  size_t start = 0;
  while (true) {
    size_t dash = s.find('-', start);
    if (dash == std::string_view::npos) {
      dash = s.size();
    }
    if (dash == start) {
      return false;  // Empty component ("1--2", leading/trailing dash).
    }
    uint32_t value = 0;
    const char* first = s.data() + start;
    const char* last = s.data() + dash;
    auto [ptr, ec] = std::from_chars(first, last, value);
    if (ec != std::errc() || ptr != last ||
        !fn(std::string_view(first, dash - start), value)) {
      return false;
    }
    if (dash == s.size()) {
      return true;
    }
    start = dash + 1;
  }
}

// Hash suitable for unordered containers.
struct TxnIdHash {
  size_t operator()(const TxnId& id) const;
};

}  // namespace ts

#endif  // SRC_LOG_TXN_ID_H_
