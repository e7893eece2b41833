#include "baselines/raykar.h"

#include <cmath>

#include "crowd/aggregator.h"

namespace rll::baselines {

Result<RaykarModel> FitRaykar(const data::Dataset& train,
                              const RaykarOptions& options) {
  RLL_RETURN_IF_ERROR(crowd::CheckAnnotated(train));
  const size_t n = train.size();
  const size_t num_workers = train.NumWorkers();

  RaykarModel model;
  model.posterior.resize(n);
  for (size_t i = 0; i < n; ++i) {
    model.posterior[i] =
        static_cast<double>(train.PositiveVotes(i)) /
        static_cast<double>(train.annotations(i).size());
  }
  model.sensitivity.assign(num_workers, 0.7);
  model.specificity.assign(num_workers, 0.7);

  for (model.iterations = 0;
       model.iterations < options.max_em_iterations; ++model.iterations) {
    // ---- M-step 1: worker parameters from posterior-weighted counts.
    std::vector<double> sens_num(num_workers, options.smoothing);
    std::vector<double> sens_den(num_workers, 2.0 * options.smoothing);
    std::vector<double> spec_num(num_workers, options.smoothing);
    std::vector<double> spec_den(num_workers, 2.0 * options.smoothing);
    for (size_t i = 0; i < n; ++i) {
      const double p = model.posterior[i];
      for (const data::Annotation& a : train.annotations(i)) {
        sens_den[a.worker_id] += p;
        spec_den[a.worker_id] += 1.0 - p;
        if (a.label == 1) {
          sens_num[a.worker_id] += p;
        } else {
          spec_num[a.worker_id] += 1.0 - p;
        }
      }
    }
    for (size_t w = 0; w < num_workers; ++w) {
      model.sensitivity[w] = sens_num[w] / sens_den[w];
      model.specificity[w] = spec_num[w] / spec_den[w];
    }

    // ---- M-step 2: classifier on soft targets.
    classify::LogisticRegression lr(options.classifier);
    RLL_RETURN_IF_ERROR(lr.Fit(train.features(), model.posterior));
    model.classifier = lr;

    // ---- E-step: posterior from classifier prior × vote likelihoods.
    const std::vector<double> prior =
        model.classifier.PredictProba(train.features());
    double max_delta = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const double pi = std::min(std::max(prior[i], 1e-9), 1.0 - 1e-9);
      double log1 = std::log(pi);
      double log0 = std::log(1.0 - pi);
      for (const data::Annotation& a : train.annotations(i)) {
        const double sens =
            std::min(std::max(model.sensitivity[a.worker_id], 1e-6),
                     1.0 - 1e-6);
        const double spec =
            std::min(std::max(model.specificity[a.worker_id], 1e-6),
                     1.0 - 1e-6);
        if (a.label == 1) {
          log1 += std::log(sens);
          log0 += std::log(1.0 - spec);
        } else {
          log1 += std::log(1.0 - sens);
          log0 += std::log(spec);
        }
      }
      const double mx = std::max(log0, log1);
      const double z = std::exp(log0 - mx) + std::exp(log1 - mx);
      const double p1 = std::exp(log1 - mx) / z;
      max_delta = std::max(max_delta, std::fabs(p1 - model.posterior[i]));
      model.posterior[i] = p1;
    }
    if (max_delta < options.tolerance) {
      model.converged = true;
      ++model.iterations;
      break;
    }
  }
  return model;
}

}  // namespace rll::baselines
