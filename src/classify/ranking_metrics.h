// Threshold-free ranking metric over predicted scores: ROC AUC.
// Complements the thresholded metrics in classify/metrics.h.

#ifndef RLL_CLASSIFY_RANKING_METRICS_H_
#define RLL_CLASSIFY_RANKING_METRICS_H_

#include <vector>

namespace rll::classify {

/// Area under the ROC curve via the rank-sum (Mann–Whitney) statistic, with
/// ties counted as half. Returns 0.5 when either class is absent.
double RocAuc(const std::vector<int>& truth,
              const std::vector<double>& scores);

}  // namespace rll::classify

#endif  // RLL_CLASSIFY_RANKING_METRICS_H_
