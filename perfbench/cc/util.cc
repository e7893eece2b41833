#include "util.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SleepUntilNs(int64_t deadline_ns) {
  const int64_t now = NowNs();
  if (deadline_ns > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(deadline_ns - now));
  }
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = rank <= 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

size_t SamplesBeyond(const std::vector<double>& values, double q) {
  const double cut = Percentile(values, q);
  return static_cast<size_t>(
      std::count_if(values.begin(), values.end(),
                    [cut](double v) { return v > cut; }));
}

namespace {
constexpr double kHistMinMs = 1e-4;
constexpr double kHistRatio = 1.001;
constexpr size_t kHistBuckets = 20800;  // kHistMinMs * kHistRatio^N > 100 s.
}  // namespace

Histogram::Histogram() : buckets_(kHistBuckets, 0) {}

void Histogram::Add(double ms) {
  size_t index = 0;
  if (ms > kHistMinMs) {
    index = static_cast<size_t>(std::log(ms / kHistMinMs) /
                                std::log(kHistRatio)) +
            1;
  }
  ++buckets_[std::min(index, kHistBuckets - 1)];
  ++count_;
}

size_t Histogram::RankBucket(double q) const {
  const double rank = std::ceil(q * static_cast<double>(count_));
  const uint64_t target = rank < 1.0 ? 1 : static_cast<uint64_t>(rank);
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= target) return i;
  }
  return buckets_.size() - 1;
}

double Histogram::Percentile(double q) const {
  if (count_ == 0) return 0.0;
  return kHistMinMs * std::pow(kHistRatio, static_cast<double>(RankBucket(q)));
}

uint64_t Histogram::Beyond(double q) const {
  if (count_ == 0) return 0;
  uint64_t beyond = 0;
  for (size_t i = RankBucket(q) + 1; i < buckets_.size(); ++i) {
    beyond += buckets_[i];
  }
  return beyond;
}

void Histogram::Clear() {
  std::fill(buckets_.begin(), buckets_.end(), 0);
  count_ = 0;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB.
}

int Nproc() { return static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN)); }

std::string JsonNum(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string JsonStr(const std::string& value) {
  std::string out = "\"";
  for (char c : value) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonList(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += JsonNum(values[i]);
  }
  return out + "]";
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit, const std::string& span) {
  metrics_.push_back({name, value, unit, span});
}

void Report::Meta(const std::string& key, const std::string& json) {
  meta_.emplace_back(key, json);
}

void Report::Fail(const std::string& what) {
  std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  failures_.push_back(what);
}

std::string Report::ToJson() const {
  std::string out = "{\"correct\":";
  out += correct() ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"metrics\":{";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) out += ",";
    out += JsonStr(metrics_[i].name) + ":{\"value\":" +
           JsonNum(metrics_[i].value) +
           ",\"unit\":" + JsonStr(metrics_[i].unit) + "}";
  }
  out += "},\"spans\":{";
  bool first = true;
  for (const Entry& m : metrics_) {
    if (m.span.empty()) continue;
    if (!first) out += ",";
    first = false;
    out += JsonStr(m.name) + ":" + JsonStr(m.span);
  }
  out += "},\"meta\":{";
  for (size_t i = 0; i < meta_.size(); ++i) {
    if (i > 0) out += ",";
    out += JsonStr(meta_[i].first) + ":" + meta_[i].second;
  }
  out += "},\"failures\":[";
  for (size_t i = 0; i < failures_.size(); ++i) {
    if (i > 0) out += ",";
    out += JsonStr(failures_[i]);
  }
  return out + "]}";
}

}  // namespace perfbench
