#include "common/logging.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>

namespace rll {

namespace {

// The startup default honours RLL_LOG_LEVEL once; SetLogLevel overrides.
LogLevel InitialLogLevel() {
  const char* env = std::getenv("RLL_LOG_LEVEL");
  if (env == nullptr || env[0] == '\0') return LogLevel::kInfo;
  if (std::strcmp(env, "debug") == 0 || std::strcmp(env, "0") == 0) {
    return LogLevel::kDebug;
  }
  if (std::strcmp(env, "info") == 0 || std::strcmp(env, "1") == 0) {
    return LogLevel::kInfo;
  }
  if (std::strcmp(env, "warning") == 0 || std::strcmp(env, "warn") == 0 ||
      std::strcmp(env, "2") == 0) {
    return LogLevel::kWarning;
  }
  if (std::strcmp(env, "error") == 0 || std::strcmp(env, "3") == 0) {
    return LogLevel::kError;
  }
  std::fprintf(stderr, "[WARN logging] unknown RLL_LOG_LEVEL '%s' ignored\n",
               env);
  return LogLevel::kInfo;
}

std::atomic<LogLevel> g_level{InitialLogLevel()};

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}

// Small per-process thread ordinal — readable in logs, and consistent from
// a thread's first log line onward.
int ThreadOrdinal() {
  static std::atomic<int> next{1};
  thread_local const int ordinal = next.fetch_add(1);
  return ordinal;
}

}  // namespace

void SetLogLevel(LogLevel level) {
  g_level.store(level, std::memory_order_relaxed);
}
LogLevel GetLogLevel() { return g_level.load(std::memory_order_relaxed); }

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level) {
  // Trim directory for compactness.
  const char* base = file;
  for (const char* p = file; *p; ++p) {
    if (*p == '/') base = p + 1;
  }
  // Log timestamps are the one legitimate wall-clock read: they label
  // output for humans and never feed computation.
  using Wall = std::chrono::system_clock;  // rll-analyze: allow(wall-clock)
  const auto now = Wall::now();
  const std::time_t seconds = Wall::to_time_t(now);
  const auto millis = std::chrono::duration_cast<std::chrono::milliseconds>(
                          now.time_since_epoch())
                          .count() %
                      1000;
  std::tm utc{};
  gmtime_r(&seconds, &utc);
  char timestamp[64];  // Generous: snprintf's worst-case int widths.
  std::snprintf(timestamp, sizeof(timestamp),
                "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ", utc.tm_year + 1900,
                utc.tm_mon + 1, utc.tm_mday, utc.tm_hour, utc.tm_min,
                utc.tm_sec, static_cast<int>(millis));
  stream_ << "[" << timestamp << " " << LevelName(level) << " t"
          << ThreadOrdinal() << " " << base << ":" << line << "] ";
}

LogMessage::~LogMessage() {
  std::fprintf(stderr, "%s\n", stream_.str().c_str());
  if (level_ == LogLevel::kError) std::fflush(stderr);
}

}  // namespace internal
}  // namespace rll
