// Tests for the bench regression gate (tools/gate/): metric extraction
// from the three JSON shapes the repo emits, direction heuristics,
// tolerance-band comparison (including an injected 2x latency
// regression), and self-comparison of the checked-in baselines.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/check.h"
#include "gate/bench_gate_lib.h"
#include "serve/json.h"

namespace rll::gate {
namespace {

std::vector<Metric> Extract(const std::string& json,
                            const std::string& key = "") {
  auto parsed = serve::ParseJson(json);
  RLL_CHECK(parsed.ok());
  auto metrics = ExtractMetrics(*parsed, key);
  RLL_CHECK_MSG(metrics.ok(), metrics.status().ToString().c_str());
  return *metrics;
}

TEST(GateExtractTest, ReadsBenchReporterRecords) {
  const auto metrics = Extract(
      R"({"bench":"x","records":[
           {"name":"closed_loop","wall_ms":12.5,"throughput":100.0},
           {"name":"latency_p99_ms","wall_ms":3.5,"throughput":null}]})");
  ASSERT_EQ(metrics.size(), 2u);
  EXPECT_EQ(metrics[0].name, "closed_loop");
  EXPECT_DOUBLE_EQ(metrics[0].value, 12.5);
  EXPECT_EQ(metrics[1].name, "latency_p99_ms");
  EXPECT_DOUBLE_EQ(metrics[1].value, 3.5);
}

TEST(GateExtractTest, ScalesGoogleBenchmarkTimeUnits) {
  const auto metrics = Extract(
      R"({"benchmarks":[
           {"name":"BM_Matmul/32","real_time":2500000.0,"time_unit":"ns"},
           {"name":"BM_Dot/8","real_time":1500.0,"time_unit":"us"},
           {"name":"BM_Slow","real_time":2.0,"time_unit":"s"}]})");
  ASSERT_EQ(metrics.size(), 3u);
  EXPECT_DOUBLE_EQ(metrics[0].value, 2.5);    // ns -> ms
  EXPECT_DOUBLE_EQ(metrics[1].value, 1.5);    // us -> ms
  EXPECT_DOUBLE_EQ(metrics[2].value, 2000.0); // s -> ms
}

TEST(GateExtractTest, WalksDottedKeyPaths) {
  const std::string doc =
      R"({"micro_ops":{"threads_1":[{"name":"BM_A","real_time_ms":1.25}]},
          "table1_methods":{"threads_1":{"glad":0.9,"majority":0.8}}})";
  const auto array_metrics = Extract(doc, "micro_ops.threads_1");
  ASSERT_EQ(array_metrics.size(), 1u);
  EXPECT_EQ(array_metrics[0].name, "BM_A");
  EXPECT_DOUBLE_EQ(array_metrics[0].value, 1.25);

  // Objects of bare numbers become (key, value) metrics.
  const auto object_metrics = Extract(doc, "table1_methods.threads_1");
  ASSERT_EQ(object_metrics.size(), 2u);
}

TEST(GateExtractTest, RejectsUnknownShapesAndPaths) {
  auto parsed = serve::ParseJson(R"({"other":[1,2]})");
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(ExtractMetrics(*parsed, "").ok());
  EXPECT_FALSE(ExtractMetrics(*parsed, "missing.path").ok());
  EXPECT_FALSE(LoadMetricsFile("/nonexistent/bench.json", "").ok());
}

TEST(GateExtractTest, LiftsAllocsPerOpIntoItsOwnMetric) {
  const auto metrics = Extract(
      R"({"benchmarks":[
           {"name":"BM_MulInto/64","real_time_ms":0.5,"allocs_per_op":0},
           {"name":"BM_Matmul/64","real_time_ms":0.6}]})");
  ASSERT_EQ(metrics.size(), 3u);
  EXPECT_EQ(metrics[0].name, "BM_MulInto/64.allocs_per_op");
  EXPECT_DOUBLE_EQ(metrics[0].value, 0.0);
  EXPECT_EQ(metrics[1].name, "BM_MulInto/64");
  EXPECT_EQ(metrics[2].name, "BM_Matmul/64");
}

TEST(GateExtractTest, LiftsOverheadRatioIntoItsOwnMetric) {
  const auto metrics = Extract(
      R"({"benchmarks":[
           {"name":"BM_ProfilerOverhead","real_time_ms":12.0,
            "overhead_ratio":1.02}]})");
  ASSERT_EQ(metrics.size(), 2u);
  EXPECT_EQ(metrics[0].name, "BM_ProfilerOverhead.overhead_ratio");
  EXPECT_DOUBLE_EQ(metrics[0].value, 1.02);
  // "overhead" is a lower-is-better keyword: a profiler that gets more
  // expensive fails the gate like a latency regression would.
  EXPECT_EQ(DirectionFor(metrics[0].name), Direction::kLowerIsBetter);
  EXPECT_EQ(metrics[1].name, "BM_ProfilerOverhead");
}

TEST(GateCompareTest, AllocRegressionFromZeroBaselineFails) {
  // The steady-state loops are pinned at zero allocations; any growth past
  // the absolute slack must fail even though the ratio is undefined.
  const std::vector<Metric> baseline = {{"BM_MulInto/64.allocs_per_op", 0.0}};
  const std::vector<Metric> regressed = {{"BM_MulInto/64.allocs_per_op", 3.0}};
  GateOptions options;
  EXPECT_TRUE(Compare(baseline, baseline, options).pass());
  EXPECT_FALSE(Compare(baseline, regressed, options).pass());
}

TEST(GateDirectionTest, ClassifiesByKeyword) {
  EXPECT_EQ(DirectionFor("latency_p99_ms"), Direction::kLowerIsBetter);
  EXPECT_EQ(DirectionFor("embed_wall_ms"), Direction::kLowerIsBetter);
  EXPECT_EQ(DirectionFor("metricsz_scrape_rtt_ms"),
            Direction::kLowerIsBetter);
  EXPECT_EQ(DirectionFor("cache_hit_rate"), Direction::kHigherIsBetter);
  EXPECT_EQ(DirectionFor("windowed_p99_agreement"),
            Direction::kHigherIsBetter);
  EXPECT_EQ(DirectionFor("rows_per_sec"), Direction::kHigherIsBetter);
  EXPECT_EQ(DirectionFor("allocs_per_op"), Direction::kLowerIsBetter);
  EXPECT_EQ(DirectionFor("BM_MulInto/64.allocs_per_op"),
            Direction::kLowerIsBetter);
  EXPECT_EQ(DirectionFor("mean_batch_size"), Direction::kBand);
}

TEST(GateDirectionTest, TimesAreLowerIsBetterWhateverTheBenchIsCalled) {
  // "BM_RllTrainingStepArena" matches no keyword, but real_time and
  // real_time_ms are times: a step 10x faster than its baseline passes
  // the 6x gate and one 7x slower fails it.
  const auto baseline = Extract(
      R"({"micro_ops":{"threads_1":[
           {"name":"BM_RllTrainingStepArena","real_time_ms":3.088,
            "allocs_per_op":0.0},
           {"name":"BM_ProfilerOverhead","real_time_ms":12.0,
            "overhead_ratio":1.02}]}})",
      "micro_ops.threads_1");
  const auto run = [](double step_ns, double allocs, double overhead) {
    return Extract(
        R"({"benchmarks":[{"name":"BM_RllTrainingStepArena","real_time":)" +
        std::to_string(step_ns) +
        R"(,"time_unit":"ns","allocs_per_op":)" + std::to_string(allocs) +
        R"(},{"name":"BM_ProfilerOverhead","real_time":12.0,)"
        R"("time_unit":"ms","overhead_ratio":)" +
        std::to_string(overhead) + "}]}");
  };
  for (const auto& metrics : {baseline, run(308800.0, 0.0, 1.02)}) {
    ASSERT_EQ(metrics.size(), 4u);
    EXPECT_EQ(metrics[1].direction, Direction::kLowerIsBetter);
    EXPECT_EQ(metrics[3].direction, Direction::kLowerIsBetter);
    // The lifted counts keep their keyword directions.
    EXPECT_EQ(metrics[0].name, "BM_RllTrainingStepArena.allocs_per_op");
    EXPECT_FALSE(metrics[0].direction.has_value());
    EXPECT_EQ(metrics[2].name, "BM_ProfilerOverhead.overhead_ratio");
    EXPECT_FALSE(metrics[2].direction.has_value());
  }
  GateOptions options;
  options.tolerance = 6.0;
  const GateReport faster = Compare(baseline, run(308800.0, 0.0, 1.02),
                                    options);
  EXPECT_TRUE(faster.pass()) << FormatReport(faster);
  EXPECT_EQ(faster.verdicts[1].direction, Direction::kLowerIsBetter);
  EXPECT_FALSE(Compare(baseline, run(21616000.0, 0.0, 1.02), options).pass());
  // An allocation or a costlier profiler still fails; fewer allocations
  // and a cheaper profiler do not.
  EXPECT_FALSE(Compare(baseline, run(3088000.0, 1.0, 1.02), options).pass());
  options.per_metric_tolerance["BM_ProfilerOverhead.overhead_ratio"] = 1.05;
  EXPECT_FALSE(Compare(baseline, run(3088000.0, 0.0, 1.2), options).pass());
  EXPECT_TRUE(Compare(baseline, run(3088000.0, 0.0, 0.9), options).pass());
}

TEST(GateDirectionTest, WallMsAndBareNumbersGoByName) {
  // BenchReporter stores counts and ratios under wall_ms too, so a
  // wall_ms or bare-number metric keeps keyword classification.
  const auto records = Extract(
      R"({"records":[{"name":"max_batch_observed","wall_ms":12.0},
                     {"name":"cache_hit_rate","wall_ms":0.9}]})");
  const auto bare = Extract(R"({"t":{"glad":0.9}})", "t");
  ASSERT_EQ(records.size(), 2u);
  ASSERT_EQ(bare.size(), 1u);
  EXPECT_FALSE(records[0].direction.has_value());
  EXPECT_FALSE(records[1].direction.has_value());
  EXPECT_FALSE(bare[0].direction.has_value());
  GateOptions options;
  const std::vector<Metric> grown = {{"max_batch_observed", 100.0},
                                     {"cache_hit_rate", 0.9}};
  EXPECT_FALSE(Compare(records, grown, options).pass());  // Band.
  const std::vector<Metric> starved = {{"max_batch_observed", 12.0},
                                       {"cache_hit_rate", 0.1}};
  EXPECT_FALSE(Compare(records, starved, options).pass());  // Higher.
}

TEST(GateCompareTest, PassesIdenticalRunsAndCatchesRegression) {
  const std::vector<Metric> baseline = {{"latency_p99_ms", 10.0},
                                        {"rows_per_sec", 100.0}};
  GateOptions options;  // tolerance 2.0

  EXPECT_TRUE(Compare(baseline, baseline, options).pass());

  // Injected 2x latency regression (2.5x to clear the 2.0 band): fails.
  const std::vector<Metric> slower = {{"latency_p99_ms", 25.0},
                                      {"rows_per_sec", 100.0}};
  const GateReport report = Compare(baseline, slower, options);
  EXPECT_FALSE(report.pass());
  EXPECT_EQ(report.failures, 1u);
  EXPECT_EQ(report.verdicts[0].name, "latency_p99_ms");
  EXPECT_FALSE(report.verdicts[0].pass);
  EXPECT_NE(FormatReport(report).find("FAIL"), std::string::npos);

  // A throughput collapse fails the higher-is-better bound.
  const std::vector<Metric> starved = {{"latency_p99_ms", 10.0},
                                       {"rows_per_sec", 20.0}};
  EXPECT_FALSE(Compare(baseline, starved, options).pass());
  // A throughput improvement does not.
  const std::vector<Metric> faster = {{"latency_p99_ms", 1.0},
                                      {"rows_per_sec", 900.0}};
  EXPECT_TRUE(Compare(baseline, faster, options).pass());
}

TEST(GateCompareTest, AbsoluteSlackShieldsSubNoiseTimings) {
  // p50 of 1us "tripling" to 3us is timer noise, not a regression.
  const std::vector<Metric> baseline = {{"latency_p50_ms", 0.001}};
  const std::vector<Metric> current = {{"latency_p50_ms", 0.003}};
  GateOptions options;
  EXPECT_TRUE(Compare(baseline, current, options).pass());
  options.abs_slack = 0.0;
  EXPECT_FALSE(Compare(baseline, current, options).pass());
}

TEST(GateCompareTest, PerMetricToleranceAndSkip) {
  const std::vector<Metric> baseline = {{"noisy_wall_ms", 1.0},
                                        {"steady_wall_ms", 1.0}};
  const std::vector<Metric> current = {{"noisy_wall_ms", 8.0},
                                       {"steady_wall_ms", 1.0}};
  GateOptions options;
  EXPECT_FALSE(Compare(baseline, current, options).pass());
  options.per_metric_tolerance["noisy_wall_ms"] = 10.0;
  EXPECT_TRUE(Compare(baseline, current, options).pass());

  options.per_metric_tolerance.clear();
  options.skip_substrings = {"noisy"};
  const GateReport report = Compare(baseline, current, options);
  EXPECT_TRUE(report.pass());
  EXPECT_EQ(report.skipped, 1u);
  EXPECT_EQ(report.compared, 1u);
}

TEST(GateCompareTest, MissingMetricsFailOnlyUnderRequireAll) {
  const std::vector<Metric> baseline = {{"a_wall_ms", 1.0},
                                        {"b_wall_ms", 1.0}};
  const std::vector<Metric> current = {{"a_wall_ms", 1.0}};
  GateOptions options;
  GateReport lenient = Compare(baseline, current, options);
  EXPECT_TRUE(lenient.pass());
  EXPECT_EQ(lenient.missing, 1u);
  options.require_all = true;
  EXPECT_FALSE(Compare(baseline, current, options).pass());
}

// The checked-in baselines must always gate-pass against themselves:
// this pins the whole pipeline (file load, shape detection, extraction,
// direction rules, comparison) on the real artifacts CI uses.
TEST(GateSelfTest, CheckedInBaselinesSelfCompare) {
  const std::string root = RLL_SOURCE_DIR;
  auto serve_metrics = LoadMetricsFile(root + "/BENCH_serve.json", "");
  ASSERT_TRUE(serve_metrics.ok()) << serve_metrics.status().ToString();
  ASSERT_FALSE(serve_metrics->empty());
  {
    GateOptions options;
    options.require_all = true;
    EXPECT_TRUE(Compare(*serve_metrics, *serve_metrics, options).pass());
  }
  auto threads =
      LoadMetricsFile(root + "/BENCH_threads.json", "micro_ops.threads_1");
  ASSERT_TRUE(threads.ok()) << threads.status().ToString();
  ASSERT_FALSE(threads->empty());
  GateOptions options;
  options.require_all = true;
  EXPECT_TRUE(Compare(*threads, *threads, options).pass());
}

}  // namespace
}  // namespace rll::gate
