#include "obs/window.h"

#include <algorithm>
#include <limits>

#include "common/check.h"
#include "obs/trace.h"

namespace rll::obs {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Lock-free running min/max (same shape as the Histogram helpers): retry
// the CAS until our value is no longer an improvement.
void AtomicMin(std::atomic<double>* target, double value) {
  double current = target->load(std::memory_order_relaxed);
  while (value < current &&
         !target->compare_exchange_weak(current, value,
                                        std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<double>* target, double value) {
  double current = target->load(std::memory_order_relaxed);
  while (value > current &&
         !target->compare_exchange_weak(current, value,
                                        std::memory_order_relaxed)) {
  }
}

void CheckWindowOptions(const WindowOptions& options) {
  RLL_CHECK_GT(options.intervals, 0u);
  RLL_CHECK_GT(options.interval_us, 0);
}

int64_t EpochOf(int64_t now_us, const WindowOptions& options) {
  RLL_DCHECK_GE(now_us, 0);
  return now_us / options.interval_us;
}

// Seconds a snapshot at now_us divides its count by: the whole window, or
// the instrument's age while that is shorter (it counted nothing before
// its start), and at least 1 µs so the rate stays finite.
double SpanSeconds(const WindowOptions& options, int64_t start_us,
                   int64_t now_us) {
  const int64_t window_us =
      static_cast<int64_t>(options.intervals) * options.interval_us;
  return static_cast<double>(
             std::clamp<int64_t>(now_us - start_us, 1, window_us)) /
         1e6;
}

}  // namespace

WindowedCounter::WindowedCounter(WindowOptions options)
    : WindowedCounter(options, TraceNowMicros()) {}

WindowedCounter::WindowedCounter(WindowOptions options, int64_t start_us)
    : options_(options), start_us_(start_us) {
  CheckWindowOptions(options_);
  slots_ = std::make_unique<Slot[]>(options_.intervals);
}

void WindowedCounter::Increment(uint64_t n) { IncrementAt(n, TraceNowMicros()); }

void WindowedCounter::IncrementAt(uint64_t n, int64_t now_us) {
  const int64_t epoch = EpochOf(now_us, options_);
  Slot& slot = slots_[static_cast<size_t>(epoch) % options_.intervals];
  int64_t seen = slot.epoch.load(std::memory_order_acquire);
  while (seen < epoch) {
    if (slot.epoch.compare_exchange_weak(seen, epoch,
                                         std::memory_order_acq_rel)) {
      // CAS winner recycles the slot for the new interval. A reader (or a
      // straggling writer) racing this reset can miss one interval's worth
      // of counts — the documented boundary approximation.
      slot.count.store(0, std::memory_order_relaxed);
      break;
    }
  }
  slot.count.fetch_add(n, std::memory_order_relaxed);
}

WindowedCounter::Snapshot WindowedCounter::GetSnapshot() const {
  return SnapshotAt(TraceNowMicros());
}

WindowedCounter::Snapshot WindowedCounter::SnapshotAt(int64_t now_us) const {
  const int64_t epoch = EpochOf(now_us, options_);
  const int64_t min_epoch =
      epoch - static_cast<int64_t>(options_.intervals) + 1;
  Snapshot snapshot;
  snapshot.window_seconds = SpanSeconds(options_, start_us_, now_us);
  for (size_t i = 0; i < options_.intervals; ++i) {
    const Slot& slot = slots_[i];
    const int64_t slot_epoch = slot.epoch.load(std::memory_order_acquire);
    if (slot_epoch < min_epoch || slot_epoch > epoch) continue;
    snapshot.count += slot.count.load(std::memory_order_relaxed);
  }
  snapshot.rate_per_sec =
      static_cast<double>(snapshot.count) / snapshot.window_seconds;
  return snapshot;
}

WindowedHistogram::WindowedHistogram(HistogramOptions histogram_options,
                                     WindowOptions window_options)
    : WindowedHistogram(histogram_options, window_options, TraceNowMicros()) {
}

WindowedHistogram::WindowedHistogram(HistogramOptions histogram_options,
                                     WindowOptions window_options,
                                     int64_t start_us)
    : histogram_options_(histogram_options),
      window_options_(window_options),
      start_us_(start_us),
      bounds_(HistogramBucketBounds(histogram_options)) {
  CheckWindowOptions(window_options_);
  slots_ = std::make_unique<Slot[]>(window_options_.intervals);
  for (size_t i = 0; i < window_options_.intervals; ++i) {
    slots_[i].buckets =
        std::make_unique<std::atomic<uint64_t>[]>(bounds_.size() + 1);
    slots_[i].min.store(kInf, std::memory_order_relaxed);
    slots_[i].max.store(-kInf, std::memory_order_relaxed);
  }
}

WindowedHistogram::Slot& WindowedHistogram::ClaimSlot(int64_t now_us) {
  const int64_t epoch = EpochOf(now_us, window_options_);
  Slot& slot =
      slots_[static_cast<size_t>(epoch) % window_options_.intervals];
  int64_t seen = slot.epoch.load(std::memory_order_acquire);
  while (seen < epoch) {
    if (slot.epoch.compare_exchange_weak(seen, epoch,
                                         std::memory_order_acq_rel)) {
      // CAS winner recycles the slot. Concurrent writers that already
      // passed the epoch check may interleave with this reset; the skew
      // is bounded by one interval of observations.
      slot.count.store(0, std::memory_order_relaxed);
      slot.sum.store(0.0, std::memory_order_relaxed);
      slot.min.store(kInf, std::memory_order_relaxed);
      slot.max.store(-kInf, std::memory_order_relaxed);
      for (size_t i = 0; i < bounds_.size() + 1; ++i) {
        slot.buckets[i].store(0, std::memory_order_relaxed);
      }
      break;
    }
  }
  return slot;
}

void WindowedHistogram::Observe(double value) {
  ObserveAt(value, TraceNowMicros());
}

void WindowedHistogram::ObserveAt(double value, int64_t now_us) {
  Slot& slot = ClaimSlot(now_us);
  const auto it = std::upper_bound(bounds_.begin(), bounds_.end(), value);
  const size_t bucket = static_cast<size_t>(it - bounds_.begin());
  slot.buckets[bucket].fetch_add(1, std::memory_order_relaxed);
  slot.count.fetch_add(1, std::memory_order_relaxed);
  slot.sum.fetch_add(value, std::memory_order_relaxed);
  AtomicMin(&slot.min, value);
  AtomicMax(&slot.max, value);
}

WindowedHistogram::Snapshot WindowedHistogram::GetSnapshot() const {
  return SnapshotAt(TraceNowMicros());
}

WindowedHistogram::Snapshot WindowedHistogram::SnapshotAt(
    int64_t now_us) const {
  const int64_t epoch = EpochOf(now_us, window_options_);
  const int64_t min_epoch =
      epoch - static_cast<int64_t>(window_options_.intervals) + 1;

  Snapshot snapshot;
  snapshot.window_seconds = SpanSeconds(window_options_, start_us_, now_us);

  std::vector<uint64_t> buckets(bounds_.size() + 1, 0);
  double min = kInf;
  double max = -kInf;
  for (size_t i = 0; i < window_options_.intervals; ++i) {
    const Slot& slot = slots_[i];
    const int64_t slot_epoch = slot.epoch.load(std::memory_order_acquire);
    if (slot_epoch < min_epoch || slot_epoch > epoch) continue;
    const uint64_t slot_count = slot.count.load(std::memory_order_relaxed);
    if (slot_count == 0) continue;
    snapshot.count += slot_count;
    snapshot.sum += slot.sum.load(std::memory_order_relaxed);
    const double slot_min = slot.min.load(std::memory_order_relaxed);
    const double slot_max = slot.max.load(std::memory_order_relaxed);
    if (slot_min < min) min = slot_min;
    if (slot_max > max) max = slot_max;
    for (size_t b = 0; b < buckets.size(); ++b) {
      buckets[b] += slot.buckets[b].load(std::memory_order_relaxed);
    }
  }
  snapshot.rate_per_sec =
      static_cast<double>(snapshot.count) / snapshot.window_seconds;
  if (snapshot.count == 0) return snapshot;

  snapshot.mean = snapshot.sum / static_cast<double>(snapshot.count);
  snapshot.min = min;
  snapshot.max = max;
  snapshot.p50 =
      QuantileFromBuckets(histogram_options_, bounds_, buckets, 0.50, min, max);
  snapshot.p95 =
      QuantileFromBuckets(histogram_options_, bounds_, buckets, 0.95, min, max);
  snapshot.p99 =
      QuantileFromBuckets(histogram_options_, bounds_, buckets, 0.99, min, max);
  return snapshot;
}

}  // namespace rll::obs
