// perfbench: the repository's end-to-end benchmark. One process runs one
// workload and prints, as its last stdout line, a JSON record with the
// metrics, run metadata and correctness verdict; run.py builds this
// binary, runs it and reduces that record to the result line BENCHMARK.json
// describes. See README.md.
//
// Usage:
//   perfbench --workload train|serve-hot|serve-cold|serve-reload
//             --seed N --seconds S --work-dir DIR
//             [--trace-out FILE] [--inject embed-bit|neighbor-swap]
//
// Built without PERFBENCH_TRACED it measures the end-to-end metrics of
// the named workload. Built with it, it is the traced run: every layer's
// spans, all four workloads (the named one for S seconds, the rest for a
// short slice), written as a Chrome trace to --trace-out.

#include <malloc.h>
#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/threading.h"
#include "workloads.h"
#ifdef PERFBENCH_TRACED
#include "obs/alloc_count.h"
#endif

namespace perfbench {

uint64_t AllocationsNow() {
#ifdef PERFBENCH_TRACED
  return rll::obs::AllocationCount();
#else
  return 0;
#endif
}

namespace {

#ifdef PERFBENCH_TRACED
constexpr bool kTraced = true;
#else
constexpr bool kTraced = false;
#endif

/// Traced run: time given to train when another workload is named.
constexpr double kTrainSliceS = 2.0;
constexpr size_t kSpanCapacity = size_t{1} << 19;

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "train|serve-hot|serve-cold|serve-reload --seed N --seconds S "
               "--work-dir DIR [--trace-out FILE] [--inject "
               "embed-bit|neighbor-swap]\n",
               why);
  return 2;
}

bool MakeDirs(const std::string& path) {
  for (size_t i = 1; i <= path.size(); ++i) {
    if (i < path.size() && path[i] != '/') continue;
    const std::string prefix = path.substr(0, i);
    if (mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) return false;
  }
  return true;
}

int Main(int argc, char** argv) {
  // glibc raises its mmap threshold whenever a large mmapped block is
  // freed, so whether later large blocks stay resident after free depends
  // on how threads interleave, and peak RSS came out bimodal (about 20 MB
  // apart) run to run. Pinning the threshold at its documented starting
  // value (128 KiB) makes it repeatable; small allocations, which are all
  // the request path makes, are unaffected.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  RunConfig config;
  std::string trace_out;
  bool have_seed = false, have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && config.seconds > 0;
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else if (flag == "--inject") {
      config.inject = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  const bool serving = config.workload == "serve-hot" ||
                       config.workload == "serve-cold" ||
                       config.workload == "serve-reload";
  if (config.workload != "train" && !serving) return Usage("bad --workload");
  if (!have_seed || !have_seconds) return Usage("bad --seed or --seconds");
  if (config.work_dir.empty()) return Usage("--work-dir is required");
  if (!config.inject.empty() && config.inject != "embed-bit" &&
      config.inject != "neighbor-swap") {
    return Usage("bad --inject");
  }
  if (!MakeDirs(config.work_dir)) return Usage("cannot create --work-dir");
  config.traced = kTraced;

  Report report;
  Spans spans(kTraced ? kSpanCapacity : 0);
  if (kTraced) {
#ifdef PERFBENCH_TRACED
    if (!rll::obs::AllocCountingActive()) {
      report.Fail("traced build lacks the counting operator new");
    }
#endif
    const bool train = config.workload == "train";
    RunTrain(config, train ? config.seconds : kTrainSliceS, train, &spans,
             &report);
    if (report.correct()) RunServe(config, &spans, &report);
    // One attempt: the traced sweep. Its op counts are in the metadata.
    report.attempted = 1;
    report.failed = report.correct() ? 0 : 1;
    report.Meta("spans", std::to_string(spans.size()));
    report.Meta("spans_dropped", std::to_string(spans.dropped()));
    if (!trace_out.empty() && !spans.WriteChromeTrace(trace_out)) {
      report.Fail("cannot write " + trace_out);
    }
  } else if (serving) {
    RunServe(config, nullptr, &report);
  } else {
    RunTrain(config, config.seconds, true, nullptr, &report);
  }
  report.Meta("workload", JsonStr(config.workload));
  report.Meta("seed", std::to_string(config.seed));
  report.Meta("seconds", JsonNum(config.seconds));
  report.Meta("nproc", std::to_string(Nproc()));
  report.Meta("pool_threads", std::to_string(rll::GlobalThreadCount()));
  report.Meta("traced", kTraced ? "true" : "false");
  std::printf("%s\n", report.ToJson().c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
