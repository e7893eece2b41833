// Thread-safe in-process metrics: Counter, Gauge, Histogram, and a labeled
// MetricRegistry with JSONL and JSON exporters.
//
// Instruments are lock-free on the record path (relaxed atomics); the
// registry takes a mutex only on lookup, so callers on hot paths resolve
// their instrument once and then record through the returned pointer:
//
//   obs::Counter* steps = obs::MetricRegistry::Global().GetCounter(
//       "rll_adam_steps_total");
//   ...
//   steps->Increment();                       // one relaxed fetch_add
//
// Instrument pointers stay valid for the registry's lifetime (process
// lifetime for Global()). Looking up the same name + labels again returns
// the same instrument, so families of labeled series share one name:
//
//   registry.GetHistogram("rll_confidence_delta", {{"mode", "Bayesian"}});

#ifndef RLL_OBS_METRICS_H_
#define RLL_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"

namespace rll::obs {

/// Metric labels, e.g. {{"mode", "bayesian"}}. std::map keeps the key order
/// canonical so label sets compare and render deterministically.
using Labels = std::map<std::string, std::string>;

/// Monotonically increasing event count.
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins scalar (e.g. current learning rate).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Version stamp emitted by the registry exporters. Bump when the export
/// shape changes so downstream consumers (bench_gate, scrape parsers) can
/// reject files they do not understand.
inline constexpr int kMetricsSchemaVersion = 2;

struct HistogramOptions {
  enum class Buckets {
    /// Upper bounds start, start·growth, start·growth², … (durations,
    /// norms — anything spanning orders of magnitude).
    kExponential,
    /// `count` equal-width buckets over [min, max] (bounded quantities
    /// like probabilities, where exponential buckets waste resolution).
    kLinear,
  };
  Buckets buckets = Buckets::kExponential;
  size_t count = 40;      // Finite buckets; one overflow bucket is implied.
  double start = 1e-6;    // kExponential: first upper bound.
  double growth = 2.0;    // kExponential: bound ratio, > 1.
  double min = 0.0;       // kLinear range.
  double max = 1.0;
};

/// One bucket's most recent exemplar: a correlation id (e.g. a serve
/// trace_id) captured alongside an observation that landed in the bucket,
/// letting a dashboard jump from "p99 is high" to one concrete traced
/// request. trace_id 0 means the bucket has no exemplar yet.
struct HistogramExemplar {
  uint64_t trace_id = 0;
  double value = 0.0;
};

/// Fixed-bucket histogram with interpolated percentiles. Observations are
/// relaxed atomic increments; snapshots taken concurrently with writers are
/// approximate (each field is individually consistent), which is the usual
/// monitoring contract.
class Histogram {
 public:
  explicit Histogram(HistogramOptions options = {});

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Observe(double value);

  /// Observe(value), additionally stamping (trace_id, value) as the
  /// containing bucket's exemplar (last write wins). trace_id 0 records no
  /// exemplar. The id and value are separate relaxed atomics, so a racing
  /// pair of writers can mix one's id with the other's value — both still
  /// describe real observations in that bucket.
  void ObserveWithExemplar(double value, uint64_t trace_id);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double min() const;  // +inf when empty.
  double max() const;  // -inf when empty.
  double mean() const;  // 0 when empty.

  /// Value at quantile q in [0, 1], linearly interpolated inside the
  /// containing bucket and clamped to the observed [min, max]. Exact to
  /// within one bucket width; 0 when empty.
  double Percentile(double q) const;

  /// Upper bounds of the finite buckets (the overflow bucket is last,
  /// bound +inf, not included here).
  const std::vector<double>& bucket_bounds() const { return bounds_; }
  /// Snapshot of per-bucket counts, size bucket_bounds().size() + 1 (the
  /// final entry is the overflow bucket).
  std::vector<uint64_t> bucket_counts() const;

  /// Snapshot of per-bucket exemplars, same shape as bucket_counts().
  /// Entries with trace_id 0 have seen no exemplar-carrying observation.
  std::vector<HistogramExemplar> bucket_exemplars() const;

  const HistogramOptions& options() const { return options_; }

 private:
  size_t BucketFor(double value) const;

  HistogramOptions options_;
  std::vector<double> bounds_;  // Ascending finite upper bounds.
  std::unique_ptr<std::atomic<uint64_t>[]> counts_;  // bounds_.size() + 1.
  // Parallel to counts_: last exemplar per bucket (see ObserveWithExemplar).
  std::unique_ptr<std::atomic<uint64_t>[]> exemplar_ids_;
  std::unique_ptr<std::atomic<double>[]> exemplar_values_;
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_;
  std::atomic<double> max_;
};

/// Ascending finite upper bounds for `options` (the overflow bucket is
/// implied). Shared by Histogram and WindowedHistogram so both aggregate
/// into identical bucket layouts.
std::vector<double> HistogramBucketBounds(const HistogramOptions& options);

/// Interpolated quantile over a fixed bucket table: `counts` has
/// bounds.size() + 1 entries (overflow last), the overflow bucket's upper
/// edge is pinned to `observed_max`, and the result is clamped to the
/// observed [min, max]. Returns 0 when the table is empty. Shared by
/// Histogram::Percentile and WindowedHistogram snapshots.
double QuantileFromBuckets(const HistogramOptions& options,
                           const std::vector<double>& bounds,
                           const std::vector<uint64_t>& counts, double q,
                           double observed_min, double observed_max);

/// Named, labeled instrument store. One Global() registry serves the
/// process; tests construct private registries.
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  static MetricRegistry& Global();

  /// Finds or creates the instrument for (name, labels). Re-registering an
  /// existing name with a different instrument kind is a programmer error
  /// (RLL_CHECK). Histogram options apply on first creation only.
  Counter* GetCounter(const std::string& name, const Labels& labels = {});
  Gauge* GetGauge(const std::string& name, const Labels& labels = {});
  Histogram* GetHistogram(const std::string& name, const Labels& labels = {},
                          HistogramOptions options = {});

  /// One JSON object per line:
  ///   {"type":"meta","schema_version":N}
  ///   {"type":"metric","kind":"counter","name":...,"labels":{...},...}
  /// Counters/gauges carry "value"; histograms carry count/sum/min/max/
  /// p50/p95/p99 and the full bucket table as [upper_bound, count] pairs.
  /// Line order is deterministic (registration-key order).
  std::string ExportJsonl() const;

  /// One JSON object for scrape endpoints:
  ///   {"schema_version":N,"metrics":{"name{labels}":...}}
  /// Counters and gauges map to bare numbers; histograms to
  /// {"kind":"histogram","count":...,"mean","min","max","p50","p95",
  /// "p99","sum"} (no bucket table — scrapes stay small). Key order is
  /// deterministic.
  std::string ExportJson() const;

  size_t size() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    std::string name;
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry* FindOrCreate(const std::string& name, const Labels& labels,
                      Kind kind, const HistogramOptions* options);

  mutable Mutex mu_;
  // Key: name + serialized labels. Instrument pointers handed out by the
  // Get* methods stay valid after mu_ is released (std::map nodes are
  // stable and entries are never erased), which is what makes the
  // lock-free record path possible.
  std::map<std::string, Entry> entries_ RLL_GUARDED_BY(mu_);
};

}  // namespace rll::obs

#endif  // RLL_OBS_METRICS_H_
