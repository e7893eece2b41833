// Wall-clock stopwatch for benchmark harnesses and training-loop telemetry.

#ifndef RLL_COMMON_STOPWATCH_H_
#define RLL_COMMON_STOPWATCH_H_

#include <chrono>
#include <functional>
#include <utility>

namespace rll {

/// Starts on construction; ElapsedSeconds()/ElapsedMillis() read without
/// stopping, Restart() resets the origin.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  void Restart() { start_ = Clock::now(); }

  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double ElapsedMillis() const { return ElapsedSeconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Times a scope and reports the elapsed milliseconds to a callback on
/// destruction — the glue between Stopwatch and any sink (a metrics
/// histogram, a bench table row, a log line):
///
///   {
///     ScopedTimer timer([h](double ms) { h->Observe(ms); });
///     ...work...
///   }  // h->Observe(elapsed_ms)
class ScopedTimer {
 public:
  explicit ScopedTimer(std::function<void(double elapsed_ms)> on_done)
      : on_done_(std::move(on_done)) {}

  ~ScopedTimer() {
    if (on_done_) on_done_(watch_.ElapsedMillis());
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  /// Reads without stopping — the callback still fires at scope exit.
  double ElapsedMillis() const { return watch_.ElapsedMillis(); }

  /// Drops the callback; the scope exits silently.
  void Cancel() { on_done_ = nullptr; }

 private:
  Stopwatch watch_;
  std::function<void(double)> on_done_;
};

}  // namespace rll

#endif  // RLL_COMMON_STOPWATCH_H_
