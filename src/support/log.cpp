#include "support/log.hpp"

#include <cstdio>

namespace xcp {

namespace {
const char* level_tag(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO ";
    case LogLevel::kWarn: return "WARN ";
    case LogLevel::kOff: return "OFF  ";
  }
  return "?";
}
}  // namespace

void log_line(LogLevel level, const std::string& text) {
  std::fprintf(stderr, "[%s] %s\n", level_tag(level), text.c_str());
}

}  // namespace xcp
