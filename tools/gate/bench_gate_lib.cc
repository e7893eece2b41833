#include "gate/bench_gate_lib.h"

#include <cmath>
#include <fstream>
#include <sstream>
#include <unordered_map>

#include "common/strings.h"

namespace rll::gate {

namespace {

std::string Lowered(const std::string& text) {
  std::string out = text;
  for (char& c : out) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return out;
}

bool ContainsAny(const std::string& haystack,
                 const std::vector<const char*>& needles) {
  for (const char* needle : needles) {
    if (haystack.find(needle) != std::string::npos) return true;
  }
  return false;
}

std::vector<std::string> SplitPath(const std::string& key) {
  std::vector<std::string> parts;
  std::string part;
  for (char c : key) {
    if (c == '.') {
      parts.push_back(part);
      part.clear();
    } else {
      part += c;
    }
  }
  parts.push_back(part);
  return parts;
}

Result<double> TimeUnitScaleToMs(const std::string& unit) {
  if (unit == "ns") return 1e-6;
  if (unit == "us") return 1e-3;
  if (unit == "ms") return 1.0;
  if (unit == "s") return 1e3;
  return Status::InvalidArgument("unknown time_unit: " + unit);
}

/// One series entry: {"name": ..., <value member>}. Accepts the
/// BenchReporter member (wall_ms), the checked-in reference member
/// (real_time_ms), and raw google-benchmark (real_time + time_unit).
Result<Metric> MetricFromObject(const serve::JsonValue& entry) {
  if (!entry.is_object()) {
    return Status::InvalidArgument("series entry is not an object");
  }
  const serve::JsonValue* name = entry.Find("name");
  if (name == nullptr || !name->is_string()) {
    return Status::InvalidArgument("series entry has no string \"name\"");
  }
  Metric metric;
  metric.name = name->string;
  if (const serve::JsonValue* v = entry.Find("wall_ms");
      v != nullptr && v->is_number()) {
    metric.value = v->number;
    return metric;
  }
  if (const serve::JsonValue* v = entry.Find("real_time_ms");
      v != nullptr && v->is_number()) {
    metric.value = v->number;
    metric.direction = Direction::kLowerIsBetter;
    return metric;
  }
  if (const serve::JsonValue* v = entry.Find("real_time");
      v != nullptr && v->is_number()) {
    double scale = 1.0;
    if (const serve::JsonValue* unit = entry.Find("time_unit");
        unit != nullptr && unit->is_string()) {
      RLL_ASSIGN_OR_RETURN(scale, TimeUnitScaleToMs(unit->string));
    }
    metric.value = v->number * scale;
    metric.direction = Direction::kLowerIsBetter;
    return metric;
  }
  return Status::InvalidArgument("entry \"" + metric.name +
                                 "\" has no wall_ms/real_time_ms/real_time");
}

Result<std::vector<Metric>> MetricsFromNode(const serve::JsonValue& node) {
  std::vector<Metric> metrics;
  if (node.is_array()) {
    metrics.reserve(node.array.size());
    for (const serve::JsonValue& entry : node.array) {
      RLL_ASSIGN_OR_RETURN(Metric metric, MetricFromObject(entry));
      // Benchmarks built with RLL_COUNT_ALLOCS attach a per-iteration
      // allocation count; gate it as its own lower-is-better metric so an
      // allocation regression fails CI like a latency regression would.
      if (const serve::JsonValue* allocs = entry.Find("allocs_per_op");
          allocs != nullptr && allocs->is_number()) {
        metrics.push_back(
            {metric.name + ".allocs_per_op", allocs->number});
      }
      // BM_ProfilerOverhead's profiled/unprofiled time ratio: pinned the
      // same way, so a profiler that gets more expensive fails CI
      // ("overhead" is already a lower-is-better keyword).
      if (const serve::JsonValue* overhead = entry.Find("overhead_ratio");
          overhead != nullptr && overhead->is_number()) {
        metrics.push_back(
            {metric.name + ".overhead_ratio", overhead->number});
      }
      metrics.push_back(std::move(metric));
    }
    return metrics;
  }
  if (node.is_object()) {
    // An object of bare numbers (e.g. table1_methods.threads_1); members
    // that are not numbers (comments, nested detail) are not metrics.
    for (const auto& [key, value] : node.object) {
      if (value.is_number()) metrics.push_back({key, value.number});
    }
    return metrics;
  }
  return Status::InvalidArgument("series node is neither array nor object");
}

}  // namespace

Direction DirectionFor(const std::string& name) {
  const std::string lowered = Lowered(name);
  // Higher-is-better first: "cache_hit_rate" must not fall through to a
  // latency rule via some other substring.
  if (ContainsAny(lowered, {"throughput", "per_sec", "per_second", "qps",
                            "hit_rate", "hitrate", "speedup", "accuracy",
                            "agreement"})) {
    return Direction::kHigherIsBetter;
  }
  if (ContainsAny(lowered, {"latency", "_ms", "wall", "time", "rtt",
                            "overhead", "rejected", "mismatch", "failure",
                            "error", "alloc"})) {
    return Direction::kLowerIsBetter;
  }
  return Direction::kBand;
}

const char* DirectionName(Direction direction) {
  switch (direction) {
    case Direction::kLowerIsBetter:
      return "lower";
    case Direction::kHigherIsBetter:
      return "higher";
    case Direction::kBand:
      return "band";
  }
  return "band";
}

Result<std::vector<Metric>> ExtractMetrics(const serve::JsonValue& root,
                                           const std::string& key) {
  if (!key.empty()) {
    const serve::JsonValue* node = &root;
    for (const std::string& part : SplitPath(key)) {
      node = node->Find(part);
      if (node == nullptr) {
        return Status::InvalidArgument("key path not found: " + key +
                                       " (missing \"" + part + "\")");
      }
    }
    return MetricsFromNode(*node);
  }
  if (const serve::JsonValue* records = root.Find("records");
      records != nullptr) {
    return MetricsFromNode(*records);
  }
  if (const serve::JsonValue* benchmarks = root.Find("benchmarks");
      benchmarks != nullptr) {
    return MetricsFromNode(*benchmarks);
  }
  return Status::InvalidArgument(
      "document has neither \"records\" nor \"benchmarks\"; pass an "
      "explicit key path");
}

Result<std::vector<Metric>> LoadMetricsFile(const std::string& path,
                                            const std::string& key) {
  std::ifstream in(path);
  if (!in.is_open()) return Status::IOError("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  RLL_ASSIGN_OR_RETURN(serve::JsonValue root, serve::ParseJson(buffer.str()));
  auto metrics = ExtractMetrics(root, key);
  if (!metrics.ok()) {
    return Status::InvalidArgument(path + ": " +
                                   metrics.status().message());
  }
  return metrics;
}

GateReport Compare(const std::vector<Metric>& baseline,
                   const std::vector<Metric>& current,
                   const GateOptions& options) {
  std::unordered_map<std::string, double> current_by_name;
  current_by_name.reserve(current.size());
  for (const Metric& metric : current) {
    current_by_name[metric.name] = metric.value;
  }

  GateReport report;
  report.verdicts.reserve(baseline.size());
  for (const Metric& metric : baseline) {
    MetricVerdict verdict;
    verdict.name = metric.name;
    verdict.baseline = metric.value;
    verdict.direction = metric.direction.value_or(DirectionFor(metric.name));

    bool skip = false;
    for (const std::string& needle : options.skip_substrings) {
      if (!needle.empty() &&
          metric.name.find(needle) != std::string::npos) {
        skip = true;
        break;
      }
    }
    if (skip) {
      verdict.skipped = true;
      ++report.skipped;
      report.verdicts.push_back(std::move(verdict));
      continue;
    }

    const auto it = current_by_name.find(metric.name);
    if (it == current_by_name.end()) {
      verdict.missing = true;
      verdict.pass = !options.require_all;
      ++report.missing;
      if (!verdict.pass) ++report.failures;
      report.verdicts.push_back(std::move(verdict));
      continue;
    }
    verdict.current = it->second;

    double tolerance = options.tolerance;
    if (const auto override_it =
            options.per_metric_tolerance.find(metric.name);
        override_it != options.per_metric_tolerance.end()) {
      tolerance = override_it->second;
    }
    verdict.tolerance = tolerance;
    verdict.ratio = verdict.baseline != 0.0
                        ? verdict.current / verdict.baseline
                        : 0.0;

    ++report.compared;
    if (std::abs(verdict.current - verdict.baseline) <= options.abs_slack) {
      // Inside the absolute noise floor: never a regression, whatever the
      // ratio says.
      verdict.pass = true;
    } else if (verdict.baseline == 0.0) {
      // Ratio undefined. A zero baseline that grew past the slack is a
      // regression for lower-is-better metrics; growth is fine when
      // higher is better.
      verdict.pass = verdict.direction == Direction::kHigherIsBetter;
    } else {
      const bool not_too_high =
          verdict.current <= verdict.baseline * tolerance;
      const bool not_too_low =
          verdict.current >= verdict.baseline / tolerance;
      switch (verdict.direction) {
        case Direction::kLowerIsBetter:
          verdict.pass = not_too_high;
          break;
        case Direction::kHigherIsBetter:
          verdict.pass = not_too_low;
          break;
        case Direction::kBand:
          verdict.pass = not_too_high && not_too_low;
          break;
      }
    }
    if (!verdict.pass) ++report.failures;
    report.verdicts.push_back(std::move(verdict));
  }
  return report;
}

std::string FormatReport(const GateReport& report) {
  std::string out = StrFormat("  %-40s %12s %12s %8s %-7s %s\n", "metric",
                              "baseline", "current", "ratio", "dir",
                              "verdict");
  for (const MetricVerdict& verdict : report.verdicts) {
    const char* status = "ok";
    if (verdict.skipped) {
      status = "skipped";
    } else if (verdict.missing) {
      status = verdict.pass ? "missing (ignored)" : "MISSING";
    } else if (!verdict.pass) {
      status = "FAIL";
    }
    out += StrFormat("  %-40s %12.4g %12.4g %8.3f %-7s %s\n",
                     verdict.name.c_str(), verdict.baseline,
                     verdict.current, verdict.ratio,
                     DirectionName(verdict.direction), status);
  }
  out += StrFormat(
      "%s: %zu compared, %zu failed, %zu skipped, %zu missing\n",
      report.pass() ? "PASS" : "FAIL", report.compared, report.failures,
      report.skipped, report.missing);
  return out;
}

}  // namespace rll::gate
