#include "spans.h"

#include <cstdio>
#include <cstring>

#include "obs/trace.h"
#include "util.h"

namespace perfbench {

Spans::Spans(size_t capacity)
    : capacity_(capacity),
      base_ns_(NowNs()),
      base_trace_us_(rll::obs::TraceNowMicros()) {
  spans_.reserve(capacity_);
}

int32_t Spans::Begin(const char* name, int64_t id) {
  if (capacity_ == 0) return -1;
  int32_t index = -1;
  if (spans_.size() < capacity_) {
    index = static_cast<int32_t>(spans_.size());
    const int32_t parent = depth_ > 0 ? stack_[depth_ - 1] : -1;
    spans_.push_back({name, NowNs(), 0, parent, id});
  } else {
    ++dropped_;
  }
  if (depth_ < kMaxDepth) stack_[depth_++] = index;
  return index;
}

void Spans::End(int32_t index) {
  if (capacity_ == 0) return;
  if (index >= 0) spans_[static_cast<size_t>(index)].end_ns = NowNs();
  if (depth_ > 0) --depth_;
}

void Spans::Record(const char* name, int64_t start_ns, int64_t end_ns,
                   int64_t id) {
  if (capacity_ == 0) return;
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  const int32_t parent = depth_ > 0 ? stack_[depth_ - 1] : -1;
  spans_.push_back({name, start_ns, end_ns, parent, id});
}

void Spans::AddExternal(std::string name, int64_t start_us, int64_t dur_us,
                        uint32_t tid) {
  if (capacity_ == 0) return;
  external_.push_back({std::move(name), start_us, dur_us, tid});
}

std::vector<double> Spans::ChildTotalsNs() const {
  std::vector<double> totals(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      totals[static_cast<size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  return totals;
}

bool Spans::Matches(const Span& s, const char* name,
                    const char* parent) const {
  if (std::strcmp(s.name, name) != 0) return false;
  if (parent == nullptr) return true;
  return s.parent >= 0 &&
         std::strcmp(spans_[static_cast<size_t>(s.parent)].name, parent) == 0;
}

std::vector<double> Spans::SelfUs(const char* name, const char* parent) const {
  const std::vector<double> children = ChildTotalsNs();
  std::vector<double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (!Matches(spans_[i], name, parent)) continue;
    out.push_back(
        (static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) -
         children[i]) /
        1e3);
  }
  return out;
}

std::vector<double> Spans::DurUs(const char* name, const char* parent) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (Matches(s, name, parent)) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    }
  }
  return out;
}

bool Spans::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<double> children = ChildTotalsNs();
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
  bool first = true;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double ts = base_trace_us_ + (s.start_ns - base_ns_) / 1e3;
    const double dur = (s.end_ns - s.start_ns) / 1e3;
    std::fprintf(f,
                 "%s\n{\"name\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":0,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,"
                 "\"parent\":%d,\"id\":%lld,\"self_us\":%.3f}}",
                 first ? "" : ",", JsonStr(s.name).c_str(), ts, dur, i,
                 s.parent, static_cast<long long>(s.id),
                 dur - children[i] / 1e3);
    first = false;
  }
  for (const External& e : external_) {
    std::fprintf(f,
                 "%s\n{\"name\":%s,\"ph\":\"X\",\"pid\":2,\"tid\":%u,"
                 "\"ts\":%lld,\"dur\":%lld,\"args\":{\"source\":\"server\"}}",
                 first ? "" : ",", JsonStr(e.name).c_str(), e.tid,
                 static_cast<long long>(e.start_us),
                 static_cast<long long>(e.dur_us));
    first = false;
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
