// Tests for the observability layer: metric instrument semantics (including
// concurrent writers), histogram percentiles, registry families and
// exporters, trace spans + Chrome JSON validity, and the trainer observer
// hooks on a tiny synthetic run.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "core/rll_trainer.h"
#include "crowd/worker_pool.h"
#include "data/synthetic.h"
#include "obs/json_util.h"
#include "obs/metrics.h"
#include "obs/observer.h"
#include "obs/trace.h"
#include "obs/window.h"

namespace rll::obs {
namespace {

// ------------------------------------------------------- JSON mini-checker

// Minimal recursive-descent JSON validity checker, enough to verify the
// exporters emit parseable documents without a JSON library dependency.
class JsonChecker {
 public:
  static bool Valid(const std::string& text) {
    JsonChecker checker(text);
    checker.SkipWs();
    const bool ok = checker.Value();
    checker.SkipWs();
    return ok && checker.pos_ == checker.text_.size();
  }

 private:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  static bool IsDigit(int c) { return c >= '0' && c <= '9'; }
  int Peek() const {
    return pos_ < text_.size() ? static_cast<unsigned char>(text_[pos_]) : -1;
  }
  bool Eat(char c) {
    if (Peek() != c) return false;
    ++pos_;
    return true;
  }
  void SkipWs() {
    while (true) {
      const int c = Peek();
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') return;
      ++pos_;
    }
  }

  bool Literal(const char* word) {
    for (const char* p = word; *p != '\0'; ++p) {
      if (!Eat(*p)) return false;
    }
    return true;
  }

  bool String() {
    if (!Eat('"')) return false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        ++pos_;
      }
    }
    return false;
  }

  bool Number() {
    bool digits = false;
    if (Peek() == '-') ++pos_;
    while (IsDigit(Peek())) {
      ++pos_;
      digits = true;
    }
    if (Eat('.')) {
      while (IsDigit(Peek())) ++pos_;
    }
    if (Peek() == 'e' || Peek() == 'E') {
      ++pos_;
      if (Peek() == '+' || Peek() == '-') ++pos_;
      while (IsDigit(Peek())) ++pos_;
    }
    return digits;
  }

  bool Object() {
    if (!Eat('{')) return false;
    SkipWs();
    if (Eat('}')) return true;
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (!Eat(':')) return false;
      if (!Value()) return false;
      SkipWs();
      if (Eat(',')) continue;
      return Eat('}');
    }
  }

  bool Array() {
    if (!Eat('[')) return false;
    SkipWs();
    if (Eat(']')) return true;
    while (true) {
      if (!Value()) return false;
      SkipWs();
      if (Eat(',')) continue;
      return Eat(']');
    }
  }

  bool Value() {
    SkipWs();
    switch (Peek()) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

TEST(JsonCheckerTest, AcceptsAndRejects) {
  EXPECT_TRUE(JsonChecker::Valid(R"({"a":[1,2.5,-3e-2],"b":"x\"y","c":null})"));
  EXPECT_TRUE(JsonChecker::Valid("[]"));
  EXPECT_FALSE(JsonChecker::Valid(R"({"a":})"));
  EXPECT_FALSE(JsonChecker::Valid("{1:2}"));
  EXPECT_FALSE(JsonChecker::Valid(R"({"a":1} extra)"));
}

TEST(JsonUtilTest, EscapesAndFormats) {
  EXPECT_EQ(JsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
  EXPECT_EQ(JsonNumber(std::nan("")), "null");
  EXPECT_EQ(JsonNumber(1.5), "1.5");
}

// ------------------------------------------------------------- instruments

TEST(CounterTest, IncrementSemantics) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  c.Increment(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(CounterTest, ConcurrentIncrementsAreExact) {
  Counter c;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.Increment();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge g;
  g.Set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.Add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);
}

TEST(HistogramTest, LinearBucketPercentiles) {
  HistogramOptions options;
  options.buckets = HistogramOptions::Buckets::kLinear;
  options.min = 0.0;
  options.max = 100.0;
  options.count = 100;
  Histogram h(options);
  for (int v = 1; v <= 100; ++v) h.Observe(static_cast<double>(v));

  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_NEAR(h.mean(), 50.5, 1e-9);
  // Uniform data in unit-width buckets: percentiles are exact to within
  // one bucket width.
  EXPECT_NEAR(h.Percentile(0.5), 50.0, 2.0);
  EXPECT_NEAR(h.Percentile(0.95), 95.0, 2.0);
  EXPECT_NEAR(h.Percentile(0.99), 99.0, 2.0);
  EXPECT_LE(h.Percentile(0.0), h.Percentile(1.0));
}

TEST(HistogramTest, ExponentialBucketsSpanMagnitudes) {
  HistogramOptions options;
  options.buckets = HistogramOptions::Buckets::kExponential;
  options.start = 1e-3;
  options.growth = 2.0;
  options.count = 20;
  Histogram h(options);
  for (double v : {0.002, 0.02, 0.2, 2.0, 20.0}) h.Observe(v);

  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.min(), 0.002);
  EXPECT_DOUBLE_EQ(h.max(), 20.0);
  const double p10 = h.Percentile(0.1);
  const double p90 = h.Percentile(0.9);
  EXPECT_LE(p10, p90);
  EXPECT_GE(p10, 0.0);
  EXPECT_LE(p90, 20.0 + 1e-9);
}

TEST(HistogramTest, OverflowBucketCatchesOutliers) {
  HistogramOptions options;
  options.buckets = HistogramOptions::Buckets::kLinear;
  options.min = 0.0;
  options.max = 1.0;
  options.count = 10;
  Histogram h(options);
  h.Observe(0.5);
  h.Observe(1e6);  // Beyond the last finite bound.

  const std::vector<uint64_t> counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), h.bucket_bounds().size() + 1);
  EXPECT_EQ(counts.back(), 1u);
  EXPECT_DOUBLE_EQ(h.max(), 1e6);
  // The top percentile lands in the overflow bucket, pinned to the
  // observed maximum rather than infinity.
  EXPECT_LE(h.Percentile(1.0), 1e6 + 1e-9);
}

TEST(HistogramTest, ExemplarsStampTheContainingBucket) {
  HistogramOptions options;
  options.buckets = HistogramOptions::Buckets::kLinear;
  options.min = 0.0;
  options.max = 10.0;
  options.count = 10;
  Histogram h(options);

  h.Observe(0.5);                     // Plain observation: no exemplar.
  h.ObserveWithExemplar(2.5, 101);    // Bucket [2, 3).
  h.ObserveWithExemplar(2.7, 202);    // Same bucket: last write wins.
  h.ObserveWithExemplar(1e6, 303);    // Overflow bucket.
  h.ObserveWithExemplar(4.5, 0);      // trace_id 0: counted, no exemplar.

  EXPECT_EQ(h.count(), 5u);  // Exemplar observes still count normally.
  const std::vector<HistogramExemplar> exemplars = h.bucket_exemplars();
  ASSERT_EQ(exemplars.size(), h.bucket_bounds().size() + 1);
  EXPECT_EQ(exemplars[0].trace_id, 0u);  // Plain Observe left none.
  EXPECT_EQ(exemplars[2].trace_id, 202u);
  EXPECT_DOUBLE_EQ(exemplars[2].value, 2.7);
  EXPECT_EQ(exemplars[4].trace_id, 0u);  // trace_id 0 records nothing.
  EXPECT_EQ(exemplars.back().trace_id, 303u);
  EXPECT_DOUBLE_EQ(exemplars.back().value, 1e6);
}

TEST(HistogramTest, ConcurrentObservesKeepExactCount) {
  Histogram h;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.Observe(1e-4 * (t + 1) * (i % 100 + 1));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(h.count(), static_cast<uint64_t>(kThreads) * kPerThread);
  uint64_t bucket_total = 0;
  for (uint64_t c : h.bucket_counts()) bucket_total += c;
  EXPECT_EQ(bucket_total, h.count());
}

// ---------------------------------------------------------------- registry

TEST(MetricRegistryTest, SameNameAndLabelsReturnSameInstrument) {
  MetricRegistry registry;
  Counter* a = registry.GetCounter("requests", {{"route", "train"}});
  Counter* b = registry.GetCounter("requests", {{"route", "train"}});
  Counter* c = registry.GetCounter("requests", {{"route", "eval"}});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(registry.size(), 2u);
}

TEST(MetricRegistryTest, HistogramOptionsApplyOnFirstCreation) {
  MetricRegistry registry;
  HistogramOptions options;
  options.buckets = HistogramOptions::Buckets::kLinear;
  options.count = 7;
  Histogram* h = registry.GetHistogram("h", {}, options);
  EXPECT_EQ(h->bucket_bounds().size(), 7u);
  // A second lookup with different options returns the existing instrument.
  HistogramOptions other;
  other.count = 3;
  EXPECT_EQ(registry.GetHistogram("h", {}, other), h);
  EXPECT_EQ(h->bucket_bounds().size(), 7u);
}

TEST(MetricRegistryTest, ExportersEmitEveryInstrument) {
  MetricRegistry registry;
  registry.GetCounter("events_total")->Increment(3);
  registry.GetGauge("lr", {{"opt", "adam"}})->Set(0.001);
  registry.GetHistogram("latency_ms")->Observe(1.5);

  const std::string jsonl = registry.ExportJsonl();
  std::istringstream lines(jsonl);
  std::string line;
  size_t metric_lines = 0;
  size_t meta_lines = 0;
  bool first = true;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    EXPECT_TRUE(JsonChecker::Valid(line)) << line;
    if (line.find("\"type\":\"meta\"") != std::string::npos) {
      // The schema header must come first so stream consumers can
      // version-dispatch before reading any metric line.
      EXPECT_TRUE(first) << line;
      EXPECT_NE(line.find("\"schema_version\""), std::string::npos) << line;
      ++meta_lines;
    } else {
      EXPECT_NE(line.find("\"type\":\"metric\""), std::string::npos) << line;
      ++metric_lines;
    }
    first = false;
  }
  EXPECT_EQ(meta_lines, 1u);
  EXPECT_EQ(metric_lines, 3u);
}

TEST(MetricRegistryTest, ExportJsonIsValidAndVersioned) {
  MetricRegistry registry;
  registry.GetCounter("events_total")->Increment(3);
  registry.GetGauge("lr", {{"opt", "adam"}})->Set(0.001);
  registry.GetHistogram("latency_ms")->Observe(1.5);

  const std::string json = registry.ExportJson();
  EXPECT_TRUE(JsonChecker::Valid(json)) << json;
  EXPECT_NE(json.find(StrFormat("\"schema_version\":%d",
                                kMetricsSchemaVersion)),
            std::string::npos);
  EXPECT_NE(json.find("\"events_total\":3"), std::string::npos) << json;
  EXPECT_NE(json.find("lr{opt=\\\"adam\\\"}"), std::string::npos) << json;
  // Histograms export as an object with the full summary.
  for (const char* key : {"\"kind\":\"histogram\"", "\"count\":", "\"p50\":",
                          "\"p95\":", "\"p99\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  // Keys are emitted in sorted order, so exports diff cleanly run-to-run.
  EXPECT_LT(json.find("events_total"), json.find("latency_ms"));
  EXPECT_LT(json.find("latency_ms"), json.find("lr{opt="));
}

// ---------------------------------------------------------------- windowed

TEST(WindowedCounterTest, CountsWithinWindowAndComputesRate) {
  WindowOptions options;
  options.intervals = 5;
  options.interval_us = 1'000'000;
  WindowedCounter counter(options, /*start_us=*/0);

  const int64_t t0 = 100'000'000;  // Arbitrary steady-clock origin.
  counter.IncrementAt(3, t0);
  counter.IncrementAt(2, t0 + 1'000'000);

  const auto snapshot = counter.SnapshotAt(t0 + 1'000'000);
  EXPECT_EQ(snapshot.count, 5u);
  EXPECT_DOUBLE_EQ(snapshot.window_seconds, 5.0);
  EXPECT_DOUBLE_EQ(snapshot.rate_per_sec, 1.0);
}

TEST(WindowedCounterTest, YoungInstrumentRatesOverItsAge) {
  // 20 events 0.2 s after start are 100/s, not 20 per 10 s window.
  const int64_t start = 5'000'000;
  WindowedCounter counter(WindowOptions{}, start);
  counter.IncrementAt(20, start + 100'000);
  const auto young = counter.SnapshotAt(start + 200'000);
  EXPECT_EQ(young.count, 20u);
  EXPECT_DOUBLE_EQ(young.window_seconds, 0.2);
  EXPECT_DOUBLE_EQ(young.rate_per_sec, 100.0);
  // A snapshot at the start itself stays finite.
  EXPECT_DOUBLE_EQ(counter.SnapshotAt(start).window_seconds, 1e-6);
  // Older than the window, the rate is over the whole window again.
  counter.IncrementAt(30, start + 9'500'000);
  const auto grown = counter.SnapshotAt(start + 10'500'000);
  EXPECT_EQ(grown.count, 30u);  // The first 20 aged out.
  EXPECT_DOUBLE_EQ(grown.window_seconds, 10.0);
  EXPECT_DOUBLE_EQ(grown.rate_per_sec, 3.0);
}

TEST(WindowedCounterTest, DefaultClockStartsAtConstruction) {
  // A counter made now and read at once is far younger than its 10 s
  // window, so its rate is over less than the window.
  WindowedCounter counter;
  counter.Increment(20);
  const auto snapshot = counter.GetSnapshot();
  EXPECT_EQ(snapshot.count, 20u);
  EXPECT_LT(snapshot.window_seconds, 10.0);
  EXPECT_GT(snapshot.window_seconds, 0.0);
  EXPECT_DOUBLE_EQ(snapshot.rate_per_sec, 20.0 / snapshot.window_seconds);
}

TEST(WindowedCounterTest, OldIntervalsAgeOutOfTheWindow) {
  WindowOptions options;
  options.intervals = 3;
  options.interval_us = 1'000'000;
  WindowedCounter counter(options);

  const int64_t t0 = 50'000'000;
  counter.IncrementAt(10, t0);
  // Within the 3s window the burst is visible...
  EXPECT_EQ(counter.SnapshotAt(t0 + 2'000'000).count, 10u);
  // ...one interval past the edge it is gone, even though its slot has
  // not been recycled by a writer.
  EXPECT_EQ(counter.SnapshotAt(t0 + 3'000'000).count, 0u);
}

TEST(WindowedCounterTest, SlotRecyclingZeroesStaleEpochs) {
  WindowOptions options;
  options.intervals = 2;
  options.interval_us = 1'000'000;
  WindowedCounter counter(options);

  const int64_t t0 = 1'000'000;
  counter.IncrementAt(7, t0);
  // Same ring slot (epoch + intervals), much later: the old count must
  // not leak into the fresh interval.
  counter.IncrementAt(1, t0 + 2'000'000);
  EXPECT_EQ(counter.SnapshotAt(t0 + 2'000'000).count, 1u);
}

TEST(WindowedHistogramTest, PercentilesMatchLifetimeHistogram) {
  // Identical observation stream through a lifetime Histogram and a
  // WindowedHistogram whose window covers all of it: the shared bucket
  // math must produce identical percentiles.
  HistogramOptions histogram_options;
  WindowOptions window_options;
  window_options.intervals = 100;
  Histogram lifetime(histogram_options);
  WindowedHistogram windowed(histogram_options, window_options);

  Rng rng(7);
  const int64_t t0 = 10'000'000;
  for (int i = 0; i < 2000; ++i) {
    const double value = std::exp(rng.Normal() * 1.5);
    lifetime.Observe(value);
    // Spread across 50 intervals, all inside the 100-interval window.
    windowed.ObserveAt(value, t0 + (i % 50) * window_options.interval_us);
  }

  const auto snapshot =
      windowed.SnapshotAt(t0 + 49 * window_options.interval_us);
  EXPECT_EQ(snapshot.count, lifetime.count());
  // Slot sums accumulate in a different order than the lifetime total, so
  // the aggregate can differ by a few ulps.
  EXPECT_NEAR(snapshot.sum, lifetime.sum(), 1e-8);
  EXPECT_DOUBLE_EQ(snapshot.min, lifetime.min());
  EXPECT_DOUBLE_EQ(snapshot.max, lifetime.max());
  EXPECT_DOUBLE_EQ(snapshot.p50, lifetime.Percentile(0.50));
  EXPECT_DOUBLE_EQ(snapshot.p95, lifetime.Percentile(0.95));
  EXPECT_DOUBLE_EQ(snapshot.p99, lifetime.Percentile(0.99));
}

TEST(WindowedHistogramTest, WindowForgetsOldLoad) {
  WindowOptions window_options;
  window_options.intervals = 4;
  WindowedHistogram windowed({}, window_options);

  const int64_t t0 = 20'000'000;
  // A slow burst, then — well past the window — a fast one.
  for (int i = 0; i < 100; ++i) windowed.ObserveAt(80.0, t0);
  const int64_t t1 = t0 + 10 * window_options.interval_us;
  for (int i = 0; i < 100; ++i) windowed.ObserveAt(1.0, t1);

  const auto snapshot = windowed.SnapshotAt(t1);
  EXPECT_EQ(snapshot.count, 100u);
  EXPECT_DOUBLE_EQ(snapshot.max, 1.0);
  EXPECT_LT(snapshot.p99, 2.0);  // The 80ms burst aged out.
}

TEST(WindowedHistogramTest, YoungInstrumentRatesOverItsAge) {
  const int64_t start = 7'000'000;
  WindowedHistogram windowed(HistogramOptions{}, WindowOptions{}, start);
  for (int i = 0; i < 50; ++i) windowed.ObserveAt(1.0, start + 400'000);
  const auto young = windowed.SnapshotAt(start + 500'000);
  EXPECT_EQ(young.count, 50u);
  EXPECT_DOUBLE_EQ(young.window_seconds, 0.5);
  EXPECT_DOUBLE_EQ(young.rate_per_sec, 100.0);
  EXPECT_DOUBLE_EQ(windowed.SnapshotAt(start + 60'000'000).window_seconds,
                   10.0);
}

TEST(WindowedHistogramTest, EmptyWindowSnapshotsToZeros) {
  WindowedHistogram windowed;
  const auto snapshot = windowed.SnapshotAt(123'000'000);
  EXPECT_EQ(snapshot.count, 0u);
  EXPECT_DOUBLE_EQ(snapshot.min, 0.0);
  EXPECT_DOUBLE_EQ(snapshot.max, 0.0);
  EXPECT_DOUBLE_EQ(snapshot.p99, 0.0);
  EXPECT_DOUBLE_EQ(snapshot.rate_per_sec, 0.0);
}

TEST(WindowedHistogramTest, ConcurrentWritersLoseNothingWithinAnInterval) {
  // All writers land in one interval (no recycling races), so the relaxed
  // counters must account for every observation. Run under TSan, this is
  // also the data-race check for the lock-free writer path.
  WindowOptions window_options;
  window_options.intervals = 8;
  window_options.interval_us = 60'000'000;  // 60s: one interval, no wrap.
  WindowedHistogram windowed({}, window_options);
  WindowedCounter counter({8, 60'000'000});

  constexpr int kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&windowed, &counter, t] {
      for (int i = 0; i < kPerThread; ++i) {
        windowed.Observe(static_cast<double>(t + 1));
        counter.Increment();
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const auto histogram_snapshot = windowed.GetSnapshot();
  EXPECT_EQ(histogram_snapshot.count,
            static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(histogram_snapshot.min, 1.0);
  EXPECT_DOUBLE_EQ(histogram_snapshot.max, static_cast<double>(kThreads));
  EXPECT_EQ(counter.GetSnapshot().count,
            static_cast<uint64_t>(kThreads) * kPerThread);
}

// ------------------------------------------------------------------- trace

TEST(TraceTest, DisabledRecordsNothing) {
  SetTracingEnabled(false);
  ClearTraceEvents();
  {
    RLL_TRACE_SPAN("ignored");
  }
  EXPECT_TRUE(SnapshotTraceEvents().empty());
}

TEST(TraceTest, NestedSpansContainEachOther) {
  SetTracingEnabled(true);
  ClearTraceEvents();
  {
    RLL_TRACE_SPAN("outer");
    {
      RLL_TRACE_SPAN_ID("inner", 3);
    }
  }
  SetTracingEnabled(false);

  const std::vector<TraceEventView> events = SnapshotTraceEvents();
  ASSERT_EQ(events.size(), 2u);
  // Snapshot order is (tid, start): the outer span opened first.
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_EQ(events[1].name, "inner:3");
  EXPECT_EQ(events[0].tid, events[1].tid);
  EXPECT_GE(events[1].start_us, events[0].start_us);
  EXPECT_LE(events[1].start_us + events[1].dur_us,
            events[0].start_us + events[0].dur_us);
}

TEST(TraceTest, ThreadsGetDistinctTrackIds) {
  SetTracingEnabled(true);
  ClearTraceEvents();
  std::thread worker([] {
    RLL_TRACE_SPAN("worker_span");
  });
  {
    RLL_TRACE_SPAN("main_span");
  }
  worker.join();
  SetTracingEnabled(false);

  const std::vector<TraceEventView> events = SnapshotTraceEvents();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_NE(events[0].tid, events[1].tid);
}

TEST(TraceTest, ChromeJsonIsValidAndComplete) {
  SetTracingEnabled(true);
  ClearTraceEvents();
  {
    RLL_TRACE_SPAN("epoch");
    {
      RLL_TRACE_SPAN("batch");
    }
  }
  SetTracingEnabled(false);

  const std::string json = TraceToChromeJson();
  EXPECT_TRUE(JsonChecker::Valid(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"epoch\""), std::string::npos);
  EXPECT_NE(json.find("\"batch\""), std::string::npos);
}

// --------------------------------------------------------------- observers

data::Dataset TinyAnnotatedDataset(Rng* rng) {
  data::SyntheticConfig config;
  config.num_examples = 120;
  config.positive_fraction = 0.6;
  config.linear_dims = 4;
  config.xor_dims = 2;
  config.noise_dims = 2;
  data::Dataset d = GenerateSynthetic(config, rng);
  crowd::WorkerPool pool({.num_workers = 8}, rng);
  pool.Annotate(&d, 5, rng);
  return d;
}

core::RllTrainerOptions TinyTrainerOptions() {
  core::RllTrainerOptions options;
  options.model.hidden_dims = {8, 4};
  options.epochs = 4;
  options.groups_per_epoch = 64;
  options.batch_size = 16;
  return options;
}

class RecordingObserver : public TrainerObserver {
 public:
  void OnTrainBegin(const TrainBeginStats& stats) override {
    events.push_back("begin");
    begin = stats;
  }
  void OnBatchEnd(const BatchStats& stats) override {
    ++batches;
    last_batch = stats;
  }
  void OnEpochEnd(const EpochStats& stats) override {
    events.push_back("epoch");
    epochs.push_back(stats);
  }
  void OnValidation(const ValidationStats& /*stats*/) override {
    ++validations;
  }
  void OnEarlyStop(int /*epoch*/, int /*best_epoch*/) override {
    ++early_stops;
  }
  void OnTrainEnd(const TrainEndStats& stats) override {
    events.push_back("end");
    end = stats;
  }

  std::vector<std::string> events;
  std::vector<EpochStats> epochs;
  TrainBeginStats begin;
  BatchStats last_batch;
  TrainEndStats end;
  int batches = 0;
  int validations = 0;
  int early_stops = 0;
};

TEST(TrainerObserverTest, CallbackOrderAndCounts) {
  Rng rng(17);
  data::Dataset d = TinyAnnotatedDataset(&rng);
  core::RllTrainerOptions options = TinyTrainerOptions();
  RecordingObserver recorder;
  options.observers.push_back(&recorder);

  core::RllTrainer trainer(options, &rng);
  auto summary = trainer.Train(d.features(), d.MajorityVoteLabels(),
                               std::vector<double>(d.size(), 1.0));
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();

  ASSERT_FALSE(recorder.events.empty());
  EXPECT_EQ(recorder.events.front(), "begin");
  EXPECT_EQ(recorder.events.back(), "end");
  EXPECT_EQ(recorder.epochs.size(), 4u);
  EXPECT_EQ(recorder.begin.num_examples, d.size());
  EXPECT_EQ(recorder.begin.planned_epochs, 4);
  EXPECT_GT(recorder.batches, 0);
  EXPECT_EQ(recorder.end.epochs_run, 4);
  EXPECT_FALSE(recorder.end.stopped_early);
  for (size_t e = 0; e < recorder.epochs.size(); ++e) {
    EXPECT_EQ(recorder.epochs[e].epoch, static_cast<int>(e));
    EXPECT_TRUE(std::isfinite(recorder.epochs[e].train_loss));
    EXPECT_GT(recorder.epochs[e].mean_grad_norm, 0.0);
    EXPECT_GT(recorder.epochs[e].groups_per_sec, 0.0);
  }
  EXPECT_TRUE(std::isfinite(recorder.last_batch.grad_norm));
}

TEST(TrainerObserverTest, ValidationHooksFire) {
  Rng rng(23);
  data::Dataset d = TinyAnnotatedDataset(&rng);
  core::RllTrainerOptions options = TinyTrainerOptions();
  options.epochs = 6;
  options.validation_fraction = 0.25;
  options.validation_groups = 32;
  RecordingObserver recorder;
  options.observers.push_back(&recorder);

  core::RllTrainer trainer(options, &rng);
  auto summary = trainer.Train(d.features(), d.MajorityVoteLabels(),
                               std::vector<double>(d.size(), 1.0));
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(recorder.validations, recorder.end.epochs_run);
  if (recorder.end.stopped_early) {
    EXPECT_EQ(recorder.early_stops, 1);
  }
}

TEST(TrainerObserverTest, MetricsObserverRecordsIntoRegistry) {
  MetricRegistry registry;
  Rng rng(29);
  data::Dataset d = TinyAnnotatedDataset(&rng);
  core::RllTrainerOptions options = TinyTrainerOptions();
  MetricsObserver metrics(&registry);
  options.observers.push_back(&metrics);

  core::RllTrainer trainer(options, &rng);
  ASSERT_TRUE(trainer
                  .Train(d.features(), d.MajorityVoteLabels(),
                         std::vector<double>(d.size(), 1.0))
                  .ok());
  EXPECT_EQ(registry.GetCounter("rll_trainer_epochs_total")->value(), 4u);
  EXPECT_EQ(registry.GetCounter("rll_trainer_runs_total")->value(), 1u);
  EXPECT_EQ(registry.GetHistogram("rll_trainer_epoch_loss")->count(), 4u);
  EXPECT_GT(registry.GetGauge("rll_trainer_groups_per_sec")->value(), 0.0);
}

TEST(TrainerObserverTest, JsonlObserverWritesValidLines) {
  const std::string path =
      testing::TempDir() + "/rll_obs_test_history.jsonl";
  Rng rng(31);
  data::Dataset d = TinyAnnotatedDataset(&rng);
  core::RllTrainerOptions options = TinyTrainerOptions();
  JsonlObserver jsonl(path);
  ASSERT_TRUE(jsonl.status().ok()) << jsonl.status().ToString();
  options.observers.push_back(&jsonl);

  core::RllTrainer trainer(options, &rng);
  ASSERT_TRUE(trainer
                  .Train(d.features(), d.MajorityVoteLabels(),
                         std::vector<double>(d.size(), 1.0))
                  .ok());
  jsonl.Close();
  ASSERT_TRUE(jsonl.status().ok()) << jsonl.status().ToString();

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  // train_begin + 4 epochs + train_end.
  ASSERT_EQ(lines.size(), 6u);
  for (const std::string& l : lines) {
    EXPECT_TRUE(JsonChecker::Valid(l)) << l;
  }
  EXPECT_NE(lines.front().find("\"type\":\"train_begin\""),
            std::string::npos);
  EXPECT_NE(lines[1].find("\"type\":\"epoch\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"grad_norm\""), std::string::npos);
  EXPECT_NE(lines.back().find("\"type\":\"train_end\""), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rll::obs
