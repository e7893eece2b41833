// Resampling statistics for experiment reporting: bootstrap confidence
// intervals on a metric and a paired permutation test for "is method A
// really better than method B on the same folds/examples?".

#ifndef RLL_CLASSIFY_STATS_H_
#define RLL_CLASSIFY_STATS_H_

#include <vector>

#include "common/rng.h"
#include "common/status.h"

namespace rll::classify {

struct BootstrapCi {
  double mean = 0.0;
  double lower = 0.0;  // e.g. 2.5th percentile.
  double upper = 0.0;  // e.g. 97.5th percentile.
};

/// Percentile-bootstrap CI of the mean of `values` (e.g. per-fold
/// accuracies). `confidence` in (0, 1), default 95%.
Result<BootstrapCi> BootstrapMeanCi(const std::vector<double>& values,
                                    Rng* rng, double confidence = 0.95,
                                    int resamples = 10000);

struct PairedTestResult {
  /// Mean of a − b.
  double mean_difference = 0.0;
  /// Two-sided p-value under the sign-flip permutation null.
  double p_value = 1.0;
};

/// Paired permutation (sign-flip) test on per-item paired scores, e.g.
/// per-fold accuracy of two methods evaluated on identical folds. Exact
/// when 2^n <= resamples, Monte Carlo otherwise.
Result<PairedTestResult> PairedPermutationTest(
    const std::vector<double>& a, const std::vector<double>& b, Rng* rng,
    int resamples = 10000);

}  // namespace rll::classify

#endif  // RLL_CLASSIFY_STATS_H_
