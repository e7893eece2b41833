// Tests for the sampling CPU profiler (obs/profiler.h): deterministic
// capture through the injectable sampler hook (hz = 0, no timer), folded
// stack round-trips, span attribution across nested spans and pool worker
// threads, report bookkeeping (drops, clears, per-thread totals), and a
// real-timer smoke run that doubles as the TSan signal-safety check.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_registry.h"
#include "common/threading.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "serve/json.h"

namespace rll::obs {

// External linkage + noinline: dladdr only resolves dynamic symbols, so
// this gives the captured stacks one guaranteed demangleable rll:: frame
// (anonymous-namespace test frames are local symbols and render as hex).
__attribute__((noinline)) void ProfilerTestCaptureFrame() {
  CaptureSampleNow();
  asm volatile("");  // Not a tail call: keep this frame on the stack.
}

namespace {

// The profiler is process-global state; every test starts from a stopped,
// empty profile so order and sharding cannot leak samples across tests.
class ProfilerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    StopCpuProfiler();
    ClearProfile();
  }
  void TearDown() override {
    StopCpuProfiler();
    ClearProfile();
  }
};

// Burns CPU the optimizer cannot elide, so the hz > 0 smoke test reliably
// consumes process CPU time and receives SIGPROF deliveries.
double BusyWork(size_t iters) {
  volatile double acc = 1.0;
  for (size_t i = 0; i < iters; ++i) {
    acc = acc * 1.000001 + 0.5;
  }
  return acc;
}

// One parsed line of ProfileToFolded() output.
struct FoldedLine {
  std::vector<std::string> frames;
  uint64_t count = 0;
};

std::vector<FoldedLine> ParseFolded(const std::string& folded) {
  std::vector<FoldedLine> lines;
  size_t pos = 0;
  while (pos < folded.size()) {
    const size_t eol = folded.find('\n', pos);
    EXPECT_NE(eol, std::string::npos) << "folded output must end in \\n";
    if (eol == std::string::npos) break;
    const std::string line = folded.substr(pos, eol - pos);
    pos = eol + 1;
    FoldedLine parsed;
    const size_t space = line.rfind(' ');
    EXPECT_NE(space, std::string::npos) << "no count in: " << line;
    if (space == std::string::npos) continue;
    parsed.count = std::strtoull(line.c_str() + space + 1, nullptr, 10);
    EXPECT_GT(parsed.count, 0u) << line;
    std::string stack = line.substr(0, space);
    size_t start = 0;
    while (true) {
      const size_t semi = stack.find(';', start);
      if (semi == std::string::npos) {
        parsed.frames.push_back(stack.substr(start));
        break;
      }
      parsed.frames.push_back(stack.substr(start, semi - start));
      start = semi + 1;
    }
    lines.push_back(std::move(parsed));
  }
  return lines;
}

uint64_t SpanSamples(const ProfileReport& report, const std::string& span) {
  for (const ProfileSpanTotal& total : report.by_span) {
    if (total.span == span) return total.samples;
  }
  return 0;
}

// ------------------------------------------------ deterministic capture

TEST_F(ProfilerTest, InjectedSamplerRecordsExactCounts) {
  ASSERT_TRUE(StartCpuProfiler({.hz = 0}).ok());
  for (int i = 0; i < 7; ++i) CaptureSampleNow();
  StopCpuProfiler();

  const ProfileReport report = CollectProfile();
  EXPECT_EQ(report.samples, 7u);
  EXPECT_EQ(report.dropped, 0u);
  EXPECT_EQ(report.unattributed, 0u);
  EXPECT_EQ(report.hz, 0);
  // No span was open, so every sample lands in the "(none)" bucket.
  EXPECT_EQ(SpanSamples(report, "(none)"), 7u);
}

TEST_F(ProfilerTest, HzZeroArmsNoTimer) {
  ASSERT_TRUE(StartCpuProfiler({.hz = 0}).ok());
  EXPECT_TRUE(CpuProfilerRunning());
  // Burn real CPU: with no ITIMER_PROF armed, nothing may be recorded.
  BusyWork(2'000'000);
  StopCpuProfiler();
  EXPECT_FALSE(CpuProfilerRunning());
  EXPECT_EQ(CollectProfile().samples, 0u);
}

TEST_F(ProfilerTest, StartValidatesOptions) {
  EXPECT_EQ(StartCpuProfiler({.hz = -1}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(StartCpuProfiler({.hz = kMaxProfileHz + 1}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(StartCpuProfiler({.hz = 0, .max_samples_per_thread = 0}).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(StartCpuProfiler({.hz = 0}).ok());
  EXPECT_EQ(StartCpuProfiler({.hz = 0}).code(),
            StatusCode::kFailedPrecondition);
  StopCpuProfiler();
  StopCpuProfiler();  // Idempotent.
}

TEST_F(ProfilerTest, FullBufferCountsDrops) {
  ASSERT_TRUE(StartCpuProfiler({.hz = 0, .max_samples_per_thread = 4}).ok());
  for (int i = 0; i < 10; ++i) CaptureSampleNow();
  StopCpuProfiler();

  const ProfileReport report = CollectProfile();
  EXPECT_EQ(report.samples, 4u);
  EXPECT_EQ(report.dropped, 6u);
  // The drop total is also attributed to the thread that dropped.
  uint64_t thread_dropped = 0;
  for (const ProfileThreadTotal& t : report.by_thread) {
    thread_dropped += t.dropped;
  }
  EXPECT_EQ(thread_dropped, 6u);
}

TEST_F(ProfilerTest, ClearProfileDropsSamplesButKeepsRegistration) {
  ASSERT_TRUE(StartCpuProfiler({.hz = 0}).ok());
  CaptureSampleNow();
  CaptureSampleNow();
  StopCpuProfiler();
  ASSERT_EQ(CollectProfile().samples, 2u);

  ClearProfile();
  EXPECT_EQ(CollectProfile().samples, 0u);

  // The buffer survives a clear: a new session records again immediately.
  ASSERT_TRUE(StartCpuProfiler({.hz = 0}).ok());
  CaptureSampleNow();
  StopCpuProfiler();
  EXPECT_EQ(CollectProfile().samples, 1u);
}

// ------------------------------------------------------ span attribution

TEST_F(ProfilerTest, SamplesCarryInnermostSpan) {
  ASSERT_TRUE(StartCpuProfiler({.hz = 0}).ok());
  {
    RLL_TRACE_SPAN("outer");
    CaptureSampleNow();  // -> outer
    {
      RLL_TRACE_SPAN("inner");
      CaptureSampleNow();  // -> inner
      CaptureSampleNow();  // -> inner
    }
    CaptureSampleNow();  // -> outer again after inner closed
  }
  CaptureSampleNow();  // -> (none)
  StopCpuProfiler();

  const ProfileReport report = CollectProfile();
  EXPECT_EQ(report.samples, 5u);
  EXPECT_EQ(SpanSamples(report, "outer"), 2u);
  EXPECT_EQ(SpanSamples(report, "inner"), 2u);
  EXPECT_EQ(SpanSamples(report, "(none)"), 1u);
}

TEST_F(ProfilerTest, SpanMarkingWorksWithTracingOff) {
  // The whole point of profiler-driven marking: spans attribute samples
  // even though tracing never turned on, and no trace events are recorded.
  ASSERT_FALSE(TracingEnabled());
  ClearTraceEvents();
  ASSERT_TRUE(StartCpuProfiler({.hz = 0}).ok());
  {
    RLL_TRACE_SPAN("marked_only");
    CaptureSampleNow();
  }
  StopCpuProfiler();
  EXPECT_EQ(SpanSamples(CollectProfile(), "marked_only"), 1u);
  EXPECT_TRUE(SnapshotTraceEvents().empty());
}

TEST_F(ProfilerTest, PoolWorkerSamplesAttributeToPoolTaskSpan) {
  SetGlobalThreads(2);
  // Touch the pool so its workers exist (they register their profiler slot
  // and name themselves "rll-pool-<id>" at startup).
  ParallelFor(0, 4, 1, [](size_t, size_t) {});

  ASSERT_TRUE(StartCpuProfiler({.hz = 0}).ok());
  std::atomic<int> captured{0};
  // Enough chunks that the workers (not just the caller) take some: inside
  // a dispatched chunk the innermost span is the pool's own "pool_task".
  ParallelFor(0, 16, 1, [&](size_t, size_t) {
    CaptureSampleNow();
    captured.fetch_add(1, std::memory_order_relaxed);
  });
  StopCpuProfiler();

  const ProfileReport report = CollectProfile();
  EXPECT_EQ(report.samples, static_cast<uint64_t>(captured.load()));
  EXPECT_EQ(SpanSamples(report, "pool_task"),
            static_cast<uint64_t>(captured.load()));

  // Worker threads show up by their registry names.
  std::vector<std::string> names;
  for (const ProfileThreadTotal& t : report.by_thread) {
    if (t.samples > 0) names.push_back(t.name);
  }
  bool saw_pool_worker = false;
  for (const std::string& name : names) {
    if (name.rfind("rll-pool-", 0) == 0) saw_pool_worker = true;
  }
  EXPECT_TRUE(saw_pool_worker)
      << "no rll-pool-* thread recorded samples";
  SetGlobalThreads(0);
}

// ------------------------------------------------------- report formats

TEST_F(ProfilerTest, FoldedRoundTripMatchesReport) {
  SetCurrentThreadName("rll-test-main");
  ASSERT_TRUE(StartCpuProfiler({.hz = 0}).ok());
  {
    RLL_TRACE_SPAN("fold_span");
    for (int i = 0; i < 5; ++i) ProfilerTestCaptureFrame();
  }
  CaptureSampleNow();
  StopCpuProfiler();

  const ProfileReport report = CollectProfile();
  const std::string folded = ProfileToFolded();
  const std::vector<FoldedLine> lines = ParseFolded(folded);
  ASSERT_FALSE(lines.empty());

  uint64_t total = 0;
  std::map<std::string, uint64_t> span_counts;
  for (const FoldedLine& line : lines) {
    ASSERT_FALSE(line.frames.empty());
    // Every stack is rooted at the span pseudo-frame.
    ASSERT_EQ(line.frames.front().rfind("span:", 0), 0u) << folded;
    span_counts[line.frames.front().substr(5)] += line.count;
    total += line.count;
    for (const std::string& frame : line.frames) {
      EXPECT_FALSE(frame.empty());
      // ';' is the folded separator; frames must have been sanitized.
      EXPECT_EQ(frame.find(';'), std::string::npos);
    }
  }
  EXPECT_EQ(total, report.samples);
  EXPECT_EQ(span_counts["fold_span"], 5u);
  EXPECT_EQ(span_counts["(none)"], 1u);

  // Identical sample set => byte-identical export (lines are sorted).
  EXPECT_EQ(folded, ProfileToFolded());

  // The exported capture helper must have been symbolized by name.
  EXPECT_NE(folded.find("rll::obs::ProfilerTestCaptureFrame()"),
            std::string::npos)
      << folded;
}

TEST_F(ProfilerTest, JsonReportParsesAndMatchesTotals) {
  ASSERT_TRUE(StartCpuProfiler({.hz = 0}).ok());
  {
    RLL_TRACE_SPAN("json_span");
    for (int i = 0; i < 3; ++i) CaptureSampleNow();
  }
  StopCpuProfiler();

  const auto root = serve::ParseJson(ProfileToJson(/*top_n=*/5));
  ASSERT_TRUE(root.ok()) << root.status().ToString();
  const serve::JsonValue* samples = root->Find("samples");
  ASSERT_NE(samples, nullptr);
  EXPECT_EQ(samples->number, 3.0);
  const serve::JsonValue* by_span = root->Find("by_span");
  ASSERT_NE(by_span, nullptr);
  ASSERT_TRUE(by_span->is_array());
  bool found = false;
  for (const serve::JsonValue& entry : by_span->array) {
    const serve::JsonValue* span = entry.Find("span");
    if (span != nullptr && span->is_string() && span->string == "json_span") {
      found = true;
      const serve::JsonValue* count = entry.Find("samples");
      ASSERT_NE(count, nullptr);
      EXPECT_EQ(count->number, 3.0);
    }
  }
  EXPECT_TRUE(found);
  ASSERT_NE(root->Find("threads"), nullptr);
  ASSERT_NE(root->Find("top"), nullptr);
  EXPECT_LE(root->Find("top")->array.size(), 5u);
}

// --------------------------------------------- real-timer smoke (+ TSan)
//
// With hz > 0 the kernel delivers SIGPROF on whichever thread is burning
// CPU; under TSan this exercises the handler's lock-free buffer writes
// against concurrent registration and the reader's acquire loads.

TEST_F(ProfilerTest, TimerSmokeCapturesBusyLoop) {
  SetGlobalThreads(2);
  ParallelFor(0, 4, 1, [](size_t, size_t) {});

  ASSERT_TRUE(StartCpuProfiler({.hz = 200}).ok());
  {
    RLL_TRACE_SPAN("busy");
    // ~250ms of CPU across the pool: at 200 Hz the process should land
    // tens of samples; assert only "some", timing is not deterministic.
    ParallelFor(0, 8, 1,
                [](size_t, size_t) { BusyWork(12'000'000); });
  }
  StopCpuProfiler();
  SetGlobalThreads(0);

  const ProfileReport report = CollectProfile();
  EXPECT_GT(report.samples, 0u);
  EXPECT_EQ(report.hz, 200);
  // Totals are internally consistent: per-thread counts sum to the total.
  uint64_t per_thread = 0;
  for (const ProfileThreadTotal& t : report.by_thread) {
    per_thread += t.samples;
  }
  EXPECT_EQ(per_thread, report.samples);
  // by_symbol self totals also sum to the total (every sample has a leaf).
  uint64_t self_total = 0;
  for (const ProfileSymbolTotal& s : report.by_symbol) {
    self_total += s.self;
  }
  EXPECT_EQ(self_total, report.samples);
}

}  // namespace
}  // namespace rll::obs
