// Trace spans: RAII scopes recorded into per-thread buffers and exported as
// Chrome trace-event JSON (load the file in chrome://tracing or Perfetto).
//
//   RLL_TRACE_SPAN("epoch");            // literal name
//   RLL_TRACE_SPAN_ID("fold", fold);    // "fold:3" — formatted only when on
//
// Tracing is off by default and costs a single relaxed atomic load + branch
// per span when off, so the instrumentation stays compiled into release
// builds. When on, each closed span appends one event to a thread-local
// buffer under an uncontended per-thread mutex. Nesting is implicit in the
// Chrome format: spans on the same thread nest by timestamp containment.

#ifndef RLL_OBS_TRACE_H_
#define RLL_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace rll::obs {

/// Global switch, default off. Enabling mid-run is fine; spans already open
/// record nothing.
bool TracingEnabled();
void SetTracingEnabled(bool enabled);

/// Microseconds since process start (steady clock).
int64_t TraceNowMicros();

/// Drops all recorded events (buffers stay registered).
void ClearTraceEvents();

/// Copy of one recorded span, for tests and custom exporters.
struct TraceEventView {
  std::string name;
  int64_t start_us = 0;
  int64_t dur_us = 0;
  uint32_t tid = 0;
};

/// Snapshot of every recorded event, ordered by (tid, start).
std::vector<TraceEventView> SnapshotTraceEvents();

/// trace tid → thread name (common/thread_registry) for every trace buffer
/// whose thread had named itself by the time it recorded a span. Ordered
/// by tid.
std::vector<std::pair<uint32_t, std::string>> TraceThreadNames();

/// {"displayTimeUnit":"ms","traceEvents":[...]} with one complete ("ph":"X")
/// event per span; timestamps/durations in microseconds as Chrome expects.
/// Named threads additionally get a "thread_name" metadata ("ph":"M")
/// event, so Perfetto labels their rows.
std::string TraceToChromeJson();

/// Innermost active RLL_TRACE_SPAN literal on the calling thread, nullptr
/// when none (or when span marking is off). Async-signal-safe: one
/// thread-local pointer read, maintained by TraceSpan whenever tracing OR
/// the CPU profiler is on. The pointer is the macro's string literal, so it
/// stays valid for the process lifetime.
const char* CurrentThreadSpan();

namespace internal {
void RecordSpan(std::string name, int64_t start_us, int64_t end_us);

/// True when spans must maintain the thread-local current-span mark:
/// tracing is enabled or the profiler asked for marking. One relaxed load.
bool SpanMarkingEnabled();

/// The profiler's half of SpanMarkingEnabled (tracing is the other half).
void SetProfilerSpanMarking(bool on);

/// Pushes `name` as the thread's current span; returns the previous mark
/// for PopSpanMark. Literals only — the pointer is stored, not the string.
const char* PushSpanMark(const char* name);
void PopSpanMark(const char* previous);
}  // namespace internal

/// Records a completed "name:id" span from `start_us` to now. For call
/// sites where RAII does not fit — e.g. the batcher stamping one linked
/// span per sampled row after a batch completes. No-op when tracing is
/// off; pair with TraceNowMicros() captured at the start of the work.
void RecordSpanWithId(const char* name, int64_t id, int64_t start_us);

/// RAII span. Prefer the macros; use the class directly when the scope is
/// not lexical.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) {
    if (internal::SpanMarkingEnabled()) Open(name);
  }
  /// Records "name:id" — the id is formatted only when tracing is on.
  TraceSpan(const char* name, int64_t id) {
    if (internal::SpanMarkingEnabled()) OpenWithId(name, id);
  }
  /// Records "name:id" when `with_id`, plain "name" otherwise — for call
  /// sites where a sampler decides at runtime whether the span carries a
  /// correlation id.
  TraceSpan(const char* name, int64_t id, bool with_id) {
    if (!internal::SpanMarkingEnabled()) return;
    if (with_id) {
      OpenWithId(name, id);
    } else {
      Open(name);
    }
  }
  ~TraceSpan() {
    if (marked_) internal::PopSpanMark(parent_);
    if (open_) {
      internal::RecordSpan(std::move(name_), start_us_, TraceNowMicros());
    }
  }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  void Open(const char* name);
  void OpenWithId(const char* name, int64_t id);

  // A span can be marked (current-span pointer for profiler attribution)
  // without being open (event recorded at destruction): profiling with
  // tracing off marks but never records, so the hot paths stay
  // allocation-free while being profiled.
  bool open_ = false;
  bool marked_ = false;
  const char* parent_ = nullptr;
  int64_t start_us_ = 0;
  std::string name_;
};

}  // namespace rll::obs

#define RLL_OBS_CONCAT_INNER(a, b) a##b
#define RLL_OBS_CONCAT(a, b) RLL_OBS_CONCAT_INNER(a, b)

#define RLL_TRACE_SPAN(name) \
  ::rll::obs::TraceSpan RLL_OBS_CONCAT(rll_trace_span_, __LINE__)(name)

#define RLL_TRACE_SPAN_ID(name, id)                               \
  ::rll::obs::TraceSpan RLL_OBS_CONCAT(rll_trace_span_, __LINE__)( \
      name, static_cast<int64_t>(id))

#endif  // RLL_OBS_TRACE_H_
