#include "classify/stats.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace rll::classify {

Result<BootstrapCi> BootstrapMeanCi(const std::vector<double>& values,
                                    Rng* rng, double confidence,
                                    int resamples) {
  if (values.empty()) return Status::InvalidArgument("no values");
  if (confidence <= 0.0 || confidence >= 1.0) {
    return Status::InvalidArgument("confidence must be in (0, 1)");
  }
  if (resamples < 100) {
    return Status::InvalidArgument("need >= 100 resamples");
  }
  const size_t n = values.size();
  double total = 0.0;
  for (double v : values) total += v;

  std::vector<double> means(static_cast<size_t>(resamples));
  for (double& m : means) {
    double s = 0.0;
    for (size_t i = 0; i < n; ++i) {
      s += values[static_cast<size_t>(rng->UniformInt(n))];
    }
    m = s / static_cast<double>(n);
  }
  std::sort(means.begin(), means.end());
  const double alpha = (1.0 - confidence) / 2.0;
  auto percentile = [&means](double q) {
    const double pos = q * static_cast<double>(means.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, means.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return means[lo] * (1.0 - frac) + means[hi] * frac;
  };

  BootstrapCi ci;
  ci.mean = total / static_cast<double>(n);
  ci.lower = percentile(alpha);
  ci.upper = percentile(1.0 - alpha);
  return ci;
}

Result<PairedTestResult> PairedPermutationTest(const std::vector<double>& a,
                                               const std::vector<double>& b,
                                               Rng* rng, int resamples) {
  if (a.size() != b.size()) {
    return Status::InvalidArgument("paired vectors must match in size");
  }
  if (a.empty()) return Status::InvalidArgument("no pairs");
  const size_t n = a.size();
  std::vector<double> diff(n);
  double observed = 0.0;
  for (size_t i = 0; i < n; ++i) {
    diff[i] = a[i] - b[i];
    observed += diff[i];
  }
  observed /= static_cast<double>(n);

  PairedTestResult result;
  result.mean_difference = observed;
  const double threshold = std::fabs(observed) - 1e-15;

  if (n <= 20 && (1u << n) <= static_cast<unsigned>(resamples)) {
    // Exact enumeration of all sign assignments.
    const size_t total = 1u << n;
    size_t at_least = 0;
    for (size_t mask = 0; mask < total; ++mask) {
      double s = 0.0;
      for (size_t i = 0; i < n; ++i) {
        s += (mask >> i) & 1u ? -diff[i] : diff[i];
      }
      if (std::fabs(s / static_cast<double>(n)) >= threshold) ++at_least;
    }
    result.p_value = static_cast<double>(at_least) /
                     static_cast<double>(total);
  } else {
    // Monte Carlo with the +1 correction (Davison & Hinkley).
    size_t at_least = 0;
    for (int r = 0; r < resamples; ++r) {
      double s = 0.0;
      for (size_t i = 0; i < n; ++i) {
        s += rng->Bernoulli(0.5) ? -diff[i] : diff[i];
      }
      if (std::fabs(s / static_cast<double>(n)) >= threshold) ++at_least;
    }
    result.p_value = static_cast<double>(at_least + 1) /
                     static_cast<double>(resamples + 1);
  }
  return result;
}

}  // namespace rll::classify
