// Sliding-window instruments: rates and percentiles over the last N
// seconds instead of process lifetime.
//
// Both instruments keep a ring of per-interval slots. A writer computes
// the current epoch (now / interval), claims the slot `epoch % intervals`
// with one CAS when the slot still holds an older epoch (the CAS winner
// zeroes it), and then records with relaxed atomic increments — the same
// lock-free writer contract as obs::Histogram. A snapshot aggregates the
// slots whose epoch falls inside the window.
//
// Approximation contract (monitoring-grade, documented rather than
// fought): a reader racing a slot recycle can miss or double-count the
// boundary interval's worth of observations, and the window edge is
// quantized to whole intervals. Totals are never off by more than one
// interval of traffic, which is what a scrape display needs.
//
// An instrument younger than its window has seen all of its traffic, so
// its rate is over its age, not over the whole window: a snapshot reports
// the span it divided by as `window_seconds`.
//
// Time is injectable (`*At(..., now_us)`, and the instrument's start) so
// tests drive the ring deterministically; the default overloads use the
// steady clock that backs obs::TraceNowMicros(), never the wall clock.

#ifndef RLL_OBS_WINDOW_H_
#define RLL_OBS_WINDOW_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "obs/metrics.h"

namespace rll::obs {

struct WindowOptions {
  /// Ring size: the window covers `intervals` whole intervals.
  size_t intervals = 10;
  /// Width of one interval in microseconds.
  int64_t interval_us = 1'000'000;
};

/// Event count over the trailing window.
class WindowedCounter {
 public:
  /// Starts now, on the steady clock of the default overloads.
  explicit WindowedCounter(WindowOptions options = {});
  /// Test hook: starts at `start_us` on the clock of the `*At` overloads.
  WindowedCounter(WindowOptions options, int64_t start_us);

  WindowedCounter(const WindowedCounter&) = delete;
  WindowedCounter& operator=(const WindowedCounter&) = delete;

  void Increment(uint64_t n = 1);
  /// Test hook: record at an explicit steady-clock-style timestamp.
  void IncrementAt(uint64_t n, int64_t now_us);

  struct Snapshot {
    uint64_t count = 0;
    double rate_per_sec = 0.0;
    /// The span of the rate: the window, or the instrument's age while
    /// that is shorter.
    double window_seconds = 0.0;
  };
  Snapshot GetSnapshot() const;
  Snapshot SnapshotAt(int64_t now_us) const;

  const WindowOptions& options() const { return options_; }

 private:
  struct Slot {
    std::atomic<int64_t> epoch{-1};
    std::atomic<uint64_t> count{0};
  };

  const WindowOptions options_;
  const int64_t start_us_;
  std::unique_ptr<Slot[]> slots_;
};

/// Fixed-bucket histogram over the trailing window: same bucket layout as
/// obs::Histogram (so windowed and lifetime percentiles agree when the
/// window covers the whole run), aggregated across in-window slots at
/// snapshot time.
class WindowedHistogram {
 public:
  /// Starts now, on the steady clock of the default overloads.
  explicit WindowedHistogram(HistogramOptions histogram_options = {},
                             WindowOptions window_options = {});
  /// Test hook: starts at `start_us` on the clock of the `*At` overloads.
  WindowedHistogram(HistogramOptions histogram_options,
                    WindowOptions window_options, int64_t start_us);

  WindowedHistogram(const WindowedHistogram&) = delete;
  WindowedHistogram& operator=(const WindowedHistogram&) = delete;

  void Observe(double value);
  /// Test hook: record at an explicit steady-clock-style timestamp.
  void ObserveAt(double value, int64_t now_us);

  struct Snapshot {
    uint64_t count = 0;
    double sum = 0.0;
    double mean = 0.0;
    double min = 0.0;  // 0 when the window is empty.
    double max = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    double rate_per_sec = 0.0;
    /// As WindowedCounter::Snapshot::window_seconds.
    double window_seconds = 0.0;
  };
  Snapshot GetSnapshot() const;
  Snapshot SnapshotAt(int64_t now_us) const;

  const HistogramOptions& histogram_options() const {
    return histogram_options_;
  }
  const WindowOptions& window_options() const { return window_options_; }

 private:
  struct Slot {
    std::atomic<int64_t> epoch{-1};
    std::atomic<uint64_t> count{0};
    std::atomic<double> sum{0.0};
    std::atomic<double> min{0.0};  // Valid only when count > 0.
    std::atomic<double> max{0.0};
    std::unique_ptr<std::atomic<uint64_t>[]> buckets;  // bounds.size() + 1.
  };

  Slot& ClaimSlot(int64_t now_us);

  const HistogramOptions histogram_options_;
  const WindowOptions window_options_;
  const int64_t start_us_;
  std::vector<double> bounds_;  // Shared ascending finite upper bounds.
  std::unique_ptr<Slot[]> slots_;
};

}  // namespace rll::obs

#endif  // RLL_OBS_WINDOW_H_
