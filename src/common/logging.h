// Minimal leveled logger writing to stderr.
//
// Usage: RLL_LOG(INFO) << "epoch " << e << " loss " << loss;
// Benchmarks and examples raise the threshold to keep stdout tables clean.
//
// Each line is prefixed "[<ISO-8601 UTC> <LEVEL> t<tid> <file>:<line>]";
// the thread id is a small per-process ordinal, stable within a run. The
// initial threshold honours the RLL_LOG_LEVEL environment variable
// (debug|info|warning|error, or 0–3), read once at startup; SetLogLevel
// still overrides it at any time.

#ifndef RLL_COMMON_LOGGING_H_
#define RLL_COMMON_LOGGING_H_

#include <sstream>

namespace rll {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

/// Messages below this level are dropped. Default: kInfo, or the
/// RLL_LOG_LEVEL environment variable when set.
void SetLogLevel(LogLevel level);
LogLevel GetLogLevel();

namespace internal {

class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  std::ostringstream& stream() { return stream_; }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace internal
}  // namespace rll

#define RLL_LOG(severity)                                          \
  if (::rll::LogLevel::k##severity < ::rll::GetLogLevel()) {       \
  } else                                                           \
    ::rll::internal::LogMessage(::rll::LogLevel::k##severity,      \
                                __FILE__, __LINE__)                \
        .stream()

#endif  // RLL_COMMON_LOGGING_H_
