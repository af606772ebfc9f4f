#ifndef TOOLS_FLAG_PARSE_H_
#define TOOLS_FLAG_PARSE_H_

// Strict flag-value parsing shared by the command-line tools (rstknn_cli,
// rst_replay): a malformed value is reported naming its flag, and the tool
// exits 2.

#include <charconv>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <system_error>

namespace rst::tools {

/// Largest accepted worker-thread count.
inline constexpr uint64_t kMaxThreads = 1024;

/// Parses a decimal integer in [0, max]: digits only — no sign, no
/// surrounding junk — and no overflow.
inline bool ParseUint(std::string_view token, uint64_t max, uint64_t* out) {
  uint64_t value = 0;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (ec != std::errc() || ptr != end || value > max) return false;
  *out = value;
  return true;
}

/// A worker-count value of flag --`flag`: an integer in [1, kMaxThreads];
/// false (after a message naming the flag) otherwise.
inline bool ParseThreadCount(const std::string& value, const char* flag,
                             size_t* out) {
  uint64_t threads = 0;
  if (!ParseUint(value, kMaxThreads, &threads) || threads < 1) {
    std::fprintf(stderr, "--%s: '%s' is not a thread count in [1, %llu]\n",
                 flag, value.c_str(),
                 static_cast<unsigned long long>(kMaxThreads));
    return false;
  }
  *out = static_cast<size_t>(threads);
  return true;
}

}  // namespace rst::tools

#endif  // TOOLS_FLAG_PARSE_H_
