// log.h — tiny leveled logger. The annealer logs per-temperature progress
// at Debug; benches run at Info; tests at Warning to keep ctest quiet.
#pragma once

#include <sstream>
#include <string>

namespace dmfb {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

/// Global minimum level. Unsynchronized: the library is multi-threaded
/// (portfolio replicas, parallel routing, run_many, the compile server's
/// workers) and those threads read the level, so set it once at startup,
/// before any of them run.
void set_log_level(LogLevel level);
LogLevel log_level();

/// Emits `message` to stderr when `level` passes the global threshold.
void log_message(LogLevel level, const std::string& message);

namespace detail {
inline void append_all(std::ostringstream&) {}
template <typename T, typename... Rest>
void append_all(std::ostringstream& os, const T& value, const Rest&... rest) {
  os << value;
  append_all(os, rest...);
}
}  // namespace detail

template <typename... Args>
void log_debug(const Args&... args) {
  if (log_level() > LogLevel::kDebug) return;
  std::ostringstream os;
  detail::append_all(os, args...);
  log_message(LogLevel::kDebug, os.str());
}

template <typename... Args>
void log_info(const Args&... args) {
  if (log_level() > LogLevel::kInfo) return;
  std::ostringstream os;
  detail::append_all(os, args...);
  log_message(LogLevel::kInfo, os.str());
}

template <typename... Args>
void log_warning(const Args&... args) {
  if (log_level() > LogLevel::kWarning) return;
  std::ostringstream os;
  detail::append_all(os, args...);
  log_message(LogLevel::kWarning, os.str());
}

template <typename... Args>
void log_error(const Args&... args) {
  std::ostringstream os;
  detail::append_all(os, args...);
  log_message(LogLevel::kError, os.str());
}

}  // namespace dmfb
