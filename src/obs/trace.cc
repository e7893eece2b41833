#include "obs/trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>

#include "common/mutex.h"
#include "common/strings.h"
#include "common/thread_registry.h"
#include "obs/json_util.h"

namespace rll::obs {

namespace {

// Backstop against a forgotten long-running trace, not a tuning knob: at
// ~64 bytes/event this caps a runaway thread at tens of MB.
constexpr size_t kMaxEventsPerThread = 1 << 20;

std::atomic<bool> g_enabled{false};
// The profiler's half of the marking switch (see SpanMarkingEnabled).
std::atomic<bool> g_profiler_marking{false};
// Single load on the span fast path: tracing || profiler marking, kept in
// sync by the two setters.
std::atomic<bool> g_marking{false};

// Innermost active span literal on this thread. Written only by TraceSpan
// on this thread; read by this thread's SIGPROF handler, so it must stay a
// plain pointer store/load (async-signal-safe).
thread_local const char* tls_current_span = nullptr;

struct TraceEvent {
  std::string name;
  int64_t start_us;
  int64_t dur_us;
};

// Each thread appends to its own buffer; the export path walks all buffers.
// Buffers are shared_ptr so events survive thread exit until cleared.
struct ThreadBuffer {
  Mutex mu;
  std::vector<TraceEvent> events RLL_GUARDED_BY(mu);
  uint64_t dropped RLL_GUARDED_BY(mu) = 0;
  uint32_t tid = 0;  // Written once at registration, read-only after.
  // Owning thread's registry name, captured on the first recorded span
  // (threads name themselves at entry, before any span can close).
  std::string name RLL_GUARDED_BY(mu);
};

struct BufferDirectory {
  Mutex mu;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers RLL_GUARDED_BY(mu);
  uint32_t next_tid RLL_GUARDED_BY(mu) = 1;
};

BufferDirectory& Directory() {
  static BufferDirectory directory;
  return directory;
}

ThreadBuffer& LocalBuffer() {
  thread_local std::shared_ptr<ThreadBuffer> buffer = [] {
    auto b = std::make_shared<ThreadBuffer>();
    BufferDirectory& dir = Directory();
    MutexLock lock(dir.mu);
    b->tid = dir.next_tid++;
    dir.buffers.push_back(b);
    return b;
  }();
  return *buffer;
}

std::chrono::steady_clock::time_point ProcessOrigin() {
  static const std::chrono::steady_clock::time_point origin =
      std::chrono::steady_clock::now();
  return origin;
}

}  // namespace

bool TracingEnabled() { return g_enabled.load(std::memory_order_relaxed); }

void SetTracingEnabled(bool enabled) {
  // Pin the origin before the first span so timestamps start near zero.
  ProcessOrigin();
  g_enabled.store(enabled, std::memory_order_relaxed);
  g_marking.store(
      enabled || g_profiler_marking.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
}

const char* CurrentThreadSpan() { return tls_current_span; }

int64_t TraceNowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - ProcessOrigin())
      .count();
}

void ClearTraceEvents() {
  BufferDirectory& dir = Directory();
  MutexLock lock(dir.mu);
  for (const auto& buffer : dir.buffers) {
    MutexLock buffer_lock(buffer->mu);
    buffer->events.clear();
    buffer->dropped = 0;
  }
}

std::vector<TraceEventView> SnapshotTraceEvents() {
  std::vector<TraceEventView> out;
  BufferDirectory& dir = Directory();
  MutexLock lock(dir.mu);
  for (const auto& buffer : dir.buffers) {
    MutexLock buffer_lock(buffer->mu);
    for (const TraceEvent& e : buffer->events) {
      out.push_back({e.name, e.start_us, e.dur_us, buffer->tid});
    }
  }
  std::sort(out.begin(), out.end(),
            [](const TraceEventView& a, const TraceEventView& b) {
              return a.tid != b.tid ? a.tid < b.tid
                                    : a.start_us < b.start_us;
            });
  return out;
}

std::vector<std::pair<uint32_t, std::string>> TraceThreadNames() {
  std::vector<std::pair<uint32_t, std::string>> out;
  BufferDirectory& dir = Directory();
  MutexLock lock(dir.mu);
  for (const auto& buffer : dir.buffers) {
    MutexLock buffer_lock(buffer->mu);
    if (!buffer->name.empty()) out.emplace_back(buffer->tid, buffer->name);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string TraceToChromeJson() {
  const std::vector<TraceEventView> events = SnapshotTraceEvents();
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  // Metadata first: Perfetto applies thread names wherever they appear,
  // but leading with them keeps the file readable.
  for (const auto& [tid, name] : TraceThreadNames()) {
    if (!first) out += ",";
    first = false;
    out += StrFormat(
        "\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%u,"
        "\"args\":{\"name\":\"%s\"}}",
        tid, JsonEscape(name).c_str());
  }
  for (const TraceEventView& e : events) {
    if (!first) out += ",";
    first = false;
    out += StrFormat(
        "\n{\"name\":\"%s\",\"cat\":\"rll\",\"ph\":\"X\",\"ts\":%lld,"
        "\"dur\":%lld,\"pid\":1,\"tid\":%u}",
        JsonEscape(e.name).c_str(), static_cast<long long>(e.start_us),
        static_cast<long long>(e.dur_us), e.tid);
  }
  out += "\n]}\n";
  return out;
}

void RecordSpanWithId(const char* name, int64_t id, int64_t start_us) {
  if (!TracingEnabled()) return;
  internal::RecordSpan(StrFormat("%s:%lld", name, static_cast<long long>(id)),
                       start_us, TraceNowMicros());
}

namespace internal {

void RecordSpan(std::string name, int64_t start_us, int64_t end_us) {
  ThreadBuffer& buffer = LocalBuffer();
  MutexLock lock(buffer.mu);
  if (buffer.name.empty()) buffer.name = CurrentThreadName();
  if (buffer.events.size() >= kMaxEventsPerThread) {
    ++buffer.dropped;
    return;
  }
  buffer.events.push_back(
      {std::move(name), start_us, end_us - start_us});
}

bool SpanMarkingEnabled() {
  return g_marking.load(std::memory_order_relaxed);
}

void SetProfilerSpanMarking(bool on) {
  ProcessOrigin();
  g_profiler_marking.store(on, std::memory_order_relaxed);
  g_marking.store(on || g_enabled.load(std::memory_order_relaxed),
                  std::memory_order_relaxed);
}

const char* PushSpanMark(const char* name) {
  const char* previous = tls_current_span;
  tls_current_span = name;
  return previous;
}

void PopSpanMark(const char* previous) { tls_current_span = previous; }

}  // namespace internal

void TraceSpan::Open(const char* name) {
  marked_ = true;
  parent_ = internal::PushSpanMark(name);
  if (!TracingEnabled()) return;  // Profiler-only marking: no event.
  open_ = true;
  name_ = name;
  start_us_ = TraceNowMicros();
}

void TraceSpan::OpenWithId(const char* name, int64_t id) {
  // The mark is the base literal: profiler attribution groups by span
  // kind, not by correlation id.
  marked_ = true;
  parent_ = internal::PushSpanMark(name);
  if (!TracingEnabled()) return;
  open_ = true;
  name_ = StrFormat("%s:%lld", name, static_cast<long long>(id));
  start_us_ = TraceNowMicros();
}

}  // namespace rll::obs
