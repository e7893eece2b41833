#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.h"
#include "common/strings.h"
#include "obs/json_util.h"

namespace rll::obs {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Lock-free running min/max: retry the CAS until our value is no longer an
// improvement (another writer may have published a better bound meanwhile).
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

std::string LabelsToJson(const Labels& labels) {
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out += ",";
    first = false;
    out += "\"" + JsonEscape(key) + "\":\"" + JsonEscape(value) + "\"";
  }
  return out + "}";
}

std::string LabelsToText(const Labels& labels) {
  if (labels.empty()) return "";
  std::vector<std::string> parts;
  parts.reserve(labels.size());
  for (const auto& [key, value] : labels) {
    parts.push_back(key + "=\"" + value + "\"");
  }
  return "{" + Join(parts, ",") + "}";
}

}  // namespace

std::vector<double> HistogramBucketBounds(const HistogramOptions& options) {
  RLL_CHECK_GT(options.count, 0u);
  std::vector<double> bounds;
  bounds.reserve(options.count);
  if (options.buckets == HistogramOptions::Buckets::kExponential) {
    RLL_CHECK_GT(options.start, 0.0);
    RLL_CHECK_GT(options.growth, 1.0);
    double bound = options.start;
    for (size_t i = 0; i < options.count; ++i) {
      bounds.push_back(bound);
      bound *= options.growth;
    }
  } else {
    RLL_CHECK_LT(options.min, options.max);
    const double width =
        (options.max - options.min) / static_cast<double>(options.count);
    for (size_t i = 0; i < options.count; ++i) {
      bounds.push_back(options.min + width * static_cast<double>(i + 1));
    }
  }
  return bounds;
}

double QuantileFromBuckets(const HistogramOptions& options,
                           const std::vector<double>& bounds,
                           const std::vector<uint64_t>& counts, double q,
                           double observed_min, double observed_max) {
  RLL_CHECK_GE(q, 0.0);
  RLL_CHECK_LE(q, 1.0);
  RLL_CHECK_EQ(counts.size(), bounds.size() + 1);
  uint64_t total = 0;
  for (uint64_t c : counts) total += c;
  if (total == 0) return 0.0;

  const double target = q * static_cast<double>(total);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    const uint64_t next = cumulative + counts[i];
    if (static_cast<double>(next) >= target) {
      // Interpolate inside bucket i. The first bucket's lower edge is the
      // range minimum (linear) or 0 (exponential); the overflow bucket is
      // pinned to the observed maximum.
      double lower;
      if (i == 0) {
        lower = options.buckets == HistogramOptions::Buckets::kLinear
                    ? options.min
                    : 0.0;
      } else {
        lower = bounds[i - 1];
      }
      const double upper = i < bounds.size() ? bounds[i] : observed_max;
      if (upper <= lower) {
        return std::clamp(upper, observed_min, observed_max);
      }
      const double frac = (target - static_cast<double>(cumulative)) /
                          static_cast<double>(counts[i]);
      // Clamp to the observed range: bucket interpolation must never
      // report a quantile outside the data.
      return std::clamp(lower + (upper - lower) * std::clamp(frac, 0.0, 1.0),
                        observed_min, observed_max);
    }
    cumulative = next;
  }
  return observed_max;
}

Histogram::Histogram(HistogramOptions options)
    : options_(options),
      bounds_(HistogramBucketBounds(options)),
      min_(kInf),
      max_(-kInf) {
  counts_ = std::make_unique<std::atomic<uint64_t>[]>(bounds_.size() + 1);
  exemplar_ids_ =
      std::make_unique<std::atomic<uint64_t>[]>(bounds_.size() + 1);
  exemplar_values_ =
      std::make_unique<std::atomic<double>[]>(bounds_.size() + 1);
}

size_t Histogram::BucketFor(double value) const {
  const auto it = std::upper_bound(bounds_.begin(), bounds_.end(), value);
  return static_cast<size_t>(it - bounds_.begin());
}

void Histogram::Observe(double value) {
  counts_[BucketFor(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  AtomicMin(&min_, value);
  AtomicMax(&max_, value);
}

void Histogram::ObserveWithExemplar(double value, uint64_t trace_id) {
  Observe(value);
  if (trace_id == 0) return;
  const size_t bucket = BucketFor(value);
  exemplar_values_[bucket].store(value, std::memory_order_relaxed);
  exemplar_ids_[bucket].store(trace_id, std::memory_order_relaxed);
}

double Histogram::min() const { return min_.load(std::memory_order_relaxed); }
double Histogram::max() const { return max_.load(std::memory_order_relaxed); }

double Histogram::mean() const {
  const uint64_t n = count();
  return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

std::vector<uint64_t> Histogram::bucket_counts() const {
  std::vector<uint64_t> out(bounds_.size() + 1);
  for (size_t i = 0; i < out.size(); ++i) {
    out[i] = counts_[i].load(std::memory_order_relaxed);
  }
  return out;
}

std::vector<HistogramExemplar> Histogram::bucket_exemplars() const {
  std::vector<HistogramExemplar> out(bounds_.size() + 1);
  for (size_t i = 0; i < out.size(); ++i) {
    out[i].trace_id = exemplar_ids_[i].load(std::memory_order_relaxed);
    out[i].value = exemplar_values_[i].load(std::memory_order_relaxed);
  }
  return out;
}

double Histogram::Percentile(double q) const {
  return QuantileFromBuckets(options_, bounds_, bucket_counts(), q, min(),
                             max());
}

MetricRegistry& MetricRegistry::Global() {
  static MetricRegistry registry;
  return registry;
}

MetricRegistry::Entry* MetricRegistry::FindOrCreate(
    const std::string& name, const Labels& labels, Kind kind,
    const HistogramOptions* options) {
  std::string key = name;
  for (const auto& [label_key, label_value] : labels) {
    key += '\x1f' + label_key + '\x1f' + label_value;
  }
  MutexLock lock(mu_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    RLL_CHECK_MSG(it->second.kind == kind,
                  "metric re-registered with a different instrument kind");
    return &it->second;
  }
  Entry entry;
  entry.kind = kind;
  entry.name = name;
  entry.labels = labels;
  switch (kind) {
    case Kind::kCounter:
      entry.counter = std::make_unique<Counter>();
      break;
    case Kind::kGauge:
      entry.gauge = std::make_unique<Gauge>();
      break;
    case Kind::kHistogram:
      entry.histogram = std::make_unique<Histogram>(
          options != nullptr ? *options : HistogramOptions{});
      break;
  }
  return &entries_.emplace(std::move(key), std::move(entry)).first->second;
}

Counter* MetricRegistry::GetCounter(const std::string& name,
                                    const Labels& labels) {
  return FindOrCreate(name, labels, Kind::kCounter, nullptr)->counter.get();
}

Gauge* MetricRegistry::GetGauge(const std::string& name,
                                const Labels& labels) {
  return FindOrCreate(name, labels, Kind::kGauge, nullptr)->gauge.get();
}

Histogram* MetricRegistry::GetHistogram(const std::string& name,
                                        const Labels& labels,
                                        HistogramOptions options) {
  return FindOrCreate(name, labels, Kind::kHistogram, &options)
      ->histogram.get();
}

size_t MetricRegistry::size() const {
  MutexLock lock(mu_);
  return entries_.size();
}

std::string MetricRegistry::ExportJsonl() const {
  MutexLock lock(mu_);
  std::string out = StrFormat("{\"type\":\"meta\",\"schema_version\":%d}\n",
                              kMetricsSchemaVersion);
  for (const auto& [key, entry] : entries_) {
    std::string line = "{\"type\":\"metric\",\"name\":\"" +
                       JsonEscape(entry.name) + "\",\"labels\":" +
                       LabelsToJson(entry.labels);
    switch (entry.kind) {
      case Kind::kCounter:
        line += StrFormat(",\"kind\":\"counter\",\"value\":%llu",
                          static_cast<unsigned long long>(
                              entry.counter->value()));
        break;
      case Kind::kGauge:
        line += ",\"kind\":\"gauge\",\"value\":" +
                JsonNumber(entry.gauge->value());
        break;
      case Kind::kHistogram: {
        const Histogram& h = *entry.histogram;
        line += StrFormat(",\"kind\":\"histogram\",\"count\":%llu",
                          static_cast<unsigned long long>(h.count()));
        line += ",\"sum\":" + JsonNumber(h.sum());
        line += ",\"mean\":" + JsonNumber(h.mean());
        line += ",\"min\":" + JsonNumber(h.count() ? h.min() : 0.0);
        line += ",\"max\":" + JsonNumber(h.count() ? h.max() : 0.0);
        line += ",\"p50\":" + JsonNumber(h.Percentile(0.50));
        line += ",\"p95\":" + JsonNumber(h.Percentile(0.95));
        line += ",\"p99\":" + JsonNumber(h.Percentile(0.99));
        line += ",\"buckets\":[";
        const std::vector<uint64_t> counts = h.bucket_counts();
        const std::vector<double>& bounds = h.bucket_bounds();
        for (size_t i = 0; i < counts.size(); ++i) {
          if (i > 0) line += ",";
          const std::string bound =
              i < bounds.size() ? JsonNumber(bounds[i]) : "null";
          line += StrFormat("[%s,%llu]", bound.c_str(),
                            static_cast<unsigned long long>(counts[i]));
        }
        line += "]";
        break;
      }
    }
    out += line + "}\n";
  }
  return out;
}

std::string MetricRegistry::ExportJson() const {
  MutexLock lock(mu_);
  std::string out = StrFormat("{\"schema_version\":%d,\"metrics\":{",
                              kMetricsSchemaVersion);
  bool first = true;
  for (const auto& [key, entry] : entries_) {
    const std::string id = entry.name + LabelsToText(entry.labels);
    if (!first) out += ",";
    first = false;
    out += "\"" + JsonEscape(id) + "\":";
    switch (entry.kind) {
      case Kind::kCounter:
        out += StrFormat("%llu", static_cast<unsigned long long>(
                                     entry.counter->value()));
        break;
      case Kind::kGauge:
        out += JsonNumber(entry.gauge->value());
        break;
      case Kind::kHistogram: {
        const Histogram& h = *entry.histogram;
        out += StrFormat("{\"kind\":\"histogram\",\"count\":%llu",
                         static_cast<unsigned long long>(h.count()));
        out += ",\"mean\":" + JsonNumber(h.mean());
        out += ",\"min\":" + JsonNumber(h.count() ? h.min() : 0.0);
        out += ",\"max\":" + JsonNumber(h.count() ? h.max() : 0.0);
        out += ",\"p50\":" + JsonNumber(h.Percentile(0.50));
        out += ",\"p95\":" + JsonNumber(h.Percentile(0.95));
        out += ",\"p99\":" + JsonNumber(h.Percentile(0.99));
        out += ",\"sum\":" + JsonNumber(h.sum()) + "}";
        break;
      }
    }
  }
  out += "}}";
  return out;
}

}  // namespace rll::obs
