// bench_gate: compares a fresh bench --json run against a checked-in
// BENCH_*.json baseline with per-metric tolerance bands, so perf
// regressions fail CI instead of landing silently.
//
// Understands three series shapes, because the repo emits all three:
//   * BenchReporter documents:    {"records":[{"name":..,"wall_ms":..}]}
//   * google-benchmark documents: {"benchmarks":[{"name":..,"real_time":..,
//                                  "time_unit":"ns"}]} (scaled to ms)
//   * checked-in reference files: any dotted key path to either an array
//     of {"name", "real_time_ms"|"wall_ms"} objects or an object of
//     bare numbers (e.g. --key micro_ops.threads_1 in BENCH_threads.json)
//
// Comparison is directional: a google-benchmark time (real_time,
// real_time_ms) may not rise above baseline*tolerance; other metrics go
// by name, throughput-like ones may not drop below baseline/tolerance,
// latency-like ones may not rise above baseline*tolerance, and
// unrecognized ones are held to the two-sided band. An absolute-slack escape hatch keeps sub-noise micro
// timings (p50s of a few microseconds) from tripping ratio checks.

#ifndef RLL_TOOLS_GATE_BENCH_GATE_LIB_H_
#define RLL_TOOLS_GATE_BENCH_GATE_LIB_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "serve/json.h"

namespace rll::gate {

enum class Direction {
  kLowerIsBetter,   // Latencies, wall times: current <= baseline * tol.
  kHigherIsBetter,  // Throughputs, hit rates: current >= baseline / tol.
  kBand,            // Unknown: both bounds apply.
};

struct Metric {
  std::string name;
  double value = 0.0;
  /// Set where the value is read when its member says what it is: a
  /// google-benchmark real_time or a reference real_time_ms is a time,
  /// lower-is-better whatever the benchmark is called. Unset (wall_ms,
  /// which BenchReporter also fills with counts and ratios, and bare
  /// numbers) means DirectionFor(name).
  std::optional<Direction> direction = std::nullopt;
};

/// Classifies a metric name by keyword ("latency", "_ms", "throughput",
/// "hit", ...). Unrecognized names get the conservative two-sided band.
Direction DirectionFor(const std::string& name);

const char* DirectionName(Direction direction);

struct GateOptions {
  /// Allowed degradation ratio, > 1. The default is deliberately loose:
  /// CI containers are noisy, and the gate is for 2x regressions, not 5%.
  double tolerance = 2.0;
  /// Absolute escape hatch: |current - baseline| <= abs_slack always
  /// passes, so microsecond-scale timings are not held to ratios that
  /// sit below timer noise.
  double abs_slack = 0.05;
  /// Per-metric tolerance overrides (exact name match), e.g. a known-
  /// noisy benchmark held to 10x while the rest stay at 2x.
  std::map<std::string, double> per_metric_tolerance;
  /// Baseline metrics whose name contains any of these are not compared.
  std::vector<std::string> skip_substrings;
  /// When true, a baseline metric absent from the current run fails the
  /// gate (default: reported but not fatal, so filtered runs can gate a
  /// subset).
  bool require_all = false;
};

struct MetricVerdict {
  std::string name;
  double baseline = 0.0;
  double current = 0.0;
  double ratio = 0.0;  // current / baseline; 0 when baseline is 0.
  Direction direction = Direction::kBand;
  double tolerance = 0.0;
  bool pass = true;
  bool skipped = false;
  bool missing = false;  // In the baseline but not the current run.
};

struct GateReport {
  std::vector<MetricVerdict> verdicts;  // Baseline order.
  size_t compared = 0;
  size_t failures = 0;
  size_t skipped = 0;
  size_t missing = 0;
  bool pass() const { return failures == 0; }
};

/// Pulls a (name, value) series out of a parsed bench JSON document.
/// `key` is a dotted path to the series; "" autodetects a top-level
/// "records" (BenchReporter) or "benchmarks" (google-benchmark) array.
Result<std::vector<Metric>> ExtractMetrics(const serve::JsonValue& root,
                                           const std::string& key);

/// Reads and parses `path`, then extracts as above.
Result<std::vector<Metric>> LoadMetricsFile(const std::string& path,
                                            const std::string& key);

/// Compares every baseline metric against the current run.
GateReport Compare(const std::vector<Metric>& baseline,
                   const std::vector<Metric>& current,
                   const GateOptions& options);

/// Human-readable verdict table plus a one-line PASS/FAIL summary.
std::string FormatReport(const GateReport& report);

}  // namespace rll::gate

#endif  // RLL_TOOLS_GATE_BENCH_GATE_LIB_H_
