// Small helpers shared by the perfbench workloads: a monotonic clock,
// order statistics, process facts (peak RSS, nproc) and the result record
// every run prints as its last stdout line.

#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Steady-clock nanoseconds (arbitrary epoch, monotonic).
int64_t NowNs();

/// Sleeps until NowNs() >= deadline_ns.
void SleepUntilNs(int64_t deadline_ns);

/// Nearest-rank percentile (q in [0, 1]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);
/// Samples strictly above the q-th percentile (the tail's support).
size_t SamplesBeyond(const std::vector<double>& values, double q);

/// Latency distribution in fixed memory: log-spaced buckets 0.1% wide
/// from 100 ns to 100 s, so a run's footprint does not grow with its
/// request count (peak RSS is one of the metrics). Percentiles are the
/// upper edge of the bucket holding the nearest-rank sample.
class Histogram {
 public:
  Histogram();
  void Add(double ms);
  uint64_t count() const { return count_; }
  double Percentile(double q) const;
  /// Samples strictly above Percentile(q)'s bucket.
  uint64_t Beyond(double q) const;
  /// Empties every bucket (keeps the memory).
  void Clear();

 private:
  size_t RankBucket(double q) const;
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
};

/// Peak resident set of this process in MiB (getrusage ru_maxrss).
double PeakRssMb();
/// Online CPUs.
int Nproc();

/// Compact JSON number with every significant digit (%.17g); non-finite
/// values become null so a broken metric fails validation instead of
/// printing a bogus number.
std::string JsonNum(double value);
std::string JsonStr(const std::string& value);
/// JSON array of JsonNum values.
std::string JsonList(const std::vector<double>& values);

/// One run's outcome. `metrics` and `meta` are kept in insertion order.
class Report {
 public:
  /// `span` names the span the metric is read from (traced runs), so a
  /// self-test can check that every per-layer metric has one.
  void Metric(const std::string& name, double value, const std::string& unit,
              const std::string& span = "");
  /// `json` is a complete JSON value (number, string, object...).
  void Meta(const std::string& key, const std::string& json);
  /// Records a failed correctness check; the run exits non-zero.
  void Fail(const std::string& what);
  bool correct() const { return failures_.empty(); }

  uint64_t attempted = 0;
  uint64_t failed = 0;

  std::string ToJson() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    std::string span;
  };
  std::vector<Entry> metrics_;
  std::vector<std::pair<std::string, std::string>> meta_;
  std::vector<std::string> failures_;
};

}  // namespace perfbench

#endif  // PERFBENCH_UTIL_H_
