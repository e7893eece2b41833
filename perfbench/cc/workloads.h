// The four perfbench workloads. Each runs in two modes:
//
//   untraced  end-to-end metrics only (perfbench built without
//             PERFBENCH_TRACED); the workload named on the command line.
//   traced    per-layer metrics. The named workload gets the full time
//             budget and the other three a short slice each, so every
//             traced run reports every per-layer metric.
//
// See README.md for why each workload exists and what each metric means.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "spans.h"
#include "util.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  /// Scratch directory for generated inputs and bundles (inside the
  /// checkout).
  std::string work_dir;
  /// Self-test fault injection: "" (off), "embed-bit" or "neighbor-swap"
  /// corrupts one sampled response before it is checked.
  std::string inject;
};

/// Operator-new calls so far; 0 in the untraced build, which must not
/// reference obs::AllocationCount() (that would link the counting
/// operator new into the binary whose numbers are the end-to-end ones).
uint64_t AllocationsNow();

/// train: one fold of the paper's 5-fold protocol per op.
void RunTrain(const RunConfig& config, double budget_s, bool primary,
              Spans* spans, Report* report);

/// serve-hot / serve-cold / serve-reload over a loopback EventServer.
/// Untraced: runs config.workload. Traced: runs all three phases, the
/// named one (if any) for the full budget.
void RunServe(const RunConfig& config, Spans* spans, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
