// Benchmark-side spans for the traced run.
//
// Each span has a name (a string literal), start and end on the steady
// clock, the index of the span that was open when it began (its parent),
// and an optional fold or request id. Spans are appended to a buffer
// reserved up front, so recording inside the training step allocates
// nothing; when the buffer is full further spans are dropped and counted.
// Only the thread that owns a Spans object may record into it.
//
// Per-layer numbers are self times: a span's duration minus the durations
// of its direct children. At exit the buffer, plus any server-side spans
// handed to AddExternal, is written in Chrome trace-event format (load it
// in chrome://tracing or Perfetto).

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

class Spans {
 public:
  /// capacity 0 disables recording (every call is a cheap no-op).
  explicit Spans(size_t capacity);

  Spans(const Spans&) = delete;
  Spans& operator=(const Spans&) = delete;

  /// Opens `name` (a literal) as a child of the innermost open span and
  /// returns its index, or -1 when disabled or full.
  int32_t Begin(const char* name, int64_t id = -1);
  /// Closes the span Begin returned (must be the innermost open one).
  void End(int32_t index);

  /// Records a finished span timed elsewhere (e.g. on another thread,
  /// with NowNs()) as a child of the innermost open span.
  void Record(const char* name, int64_t start_ns, int64_t end_ns,
              int64_t id = -1);

  /// Records an already finished span (e.g. read back from the server's
  /// own tracer) for the trace file only; it has no parent here.
  /// `start_us` is on obs::TraceNowMicros()'s clock.
  void AddExternal(std::string name, int64_t start_us, int64_t dur_us,
                   uint32_t tid);

  /// Self time, in microseconds, of every span called `name` (whose
  /// parent is called `parent`, when given), in recording order.
  std::vector<double> SelfUs(const char* name,
                             const char* parent = nullptr) const;
  /// Duration, in microseconds, of the same spans.
  std::vector<double> DurUs(const char* name,
                            const char* parent = nullptr) const;

  size_t size() const { return spans_.size(); }
  size_t dropped() const { return dropped_; }

  /// Writes {"traceEvents":[...]} to `path`; false on I/O failure.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int32_t parent;
    int64_t id;
  };
  struct External {
    std::string name;
    int64_t start_us;
    int64_t dur_us;
    uint32_t tid;
  };
  static constexpr int kMaxDepth = 16;

  std::vector<double> ChildTotalsNs() const;
  bool Matches(const Span& s, const char* name, const char* parent) const;

  size_t capacity_;
  std::vector<Span> spans_;
  std::vector<External> external_;
  int32_t stack_[kMaxDepth];
  int depth_ = 0;
  size_t dropped_ = 0;
  int64_t base_ns_;
  int64_t base_trace_us_;
};

/// RAII span; a null or disabled Spans makes it free.
class SpanScope {
 public:
  SpanScope(Spans* spans, const char* name, int64_t id = -1)
      : spans_(spans),
        index_(spans != nullptr ? spans->Begin(name, id) : -1) {}
  ~SpanScope() {
    if (spans_ != nullptr) spans_->End(index_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Spans* spans_;
  int32_t index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
