#include "classify/ranking_metrics.h"

#include <algorithm>
#include <numeric>

#include "common/check.h"

namespace rll::classify {

double RocAuc(const std::vector<int>& truth,
              const std::vector<double>& scores) {
  RLL_CHECK_EQ(truth.size(), scores.size());
  const size_t n = truth.size();
  size_t num_pos = 0;
  for (int y : truth) num_pos += (y == 1);
  const size_t num_neg = n - num_pos;
  if (num_pos == 0 || num_neg == 0) return 0.5;

  // Ranks with ties averaged.
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(),
            [&scores](size_t a, size_t b) { return scores[a] < scores[b]; });
  std::vector<double> rank(n);
  size_t i = 0;
  while (i < n) {
    size_t j = i;
    while (j + 1 < n && scores[order[j + 1]] == scores[order[i]]) ++j;
    const double avg_rank = 0.5 * static_cast<double>(i + j) + 1.0;
    for (size_t k = i; k <= j; ++k) rank[order[k]] = avg_rank;
    i = j + 1;
  }
  double pos_rank_sum = 0.0;
  for (size_t k = 0; k < n; ++k) {
    if (truth[k] == 1) pos_rank_sum += rank[k];
  }
  const double np = static_cast<double>(num_pos);
  const double nn = static_cast<double>(num_neg);
  return (pos_rank_sum - np * (np + 1.0) / 2.0) / (np * nn);
}

}  // namespace rll::classify
