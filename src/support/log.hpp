#pragma once
// Minimal leveled logger. Off, so tests, benches and examples stay quiet;
// lower kLogThreshold to narrate protocol runs while debugging.

#include <sstream>
#include <string>

namespace xcp {

enum class LogLevel { kTrace = 0, kDebug = 1, kInfo = 2, kWarn = 3, kOff = 4 };

/// Messages below this level are discarded (and compiled out).
inline constexpr LogLevel kLogThreshold = LogLevel::kOff;

/// Emits one line to stderr with a level prefix. Prefer the XCP_LOG macro.
void log_line(LogLevel level, const std::string& text);

#define XCP_LOG(level, expr)                                             \
  do {                                                                   \
    if constexpr (static_cast<int>(level) >=                             \
                  static_cast<int>(::xcp::kLogThreshold)) {              \
      std::ostringstream xcp_log_os;                                     \
      xcp_log_os << expr;                                                \
      ::xcp::log_line(level, xcp_log_os.str());                          \
    }                                                                    \
  } while (0)

}  // namespace xcp
