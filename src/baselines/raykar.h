// Raykar et al., "Learning from Crowds" (JMLR 2010) — the full joint EM
// behind the paper's SoftProb reference [20]: latent true labels, per-worker
// sensitivity/specificity, and a logistic-regression classifier are
// estimated together. The classifier acts as the prior in the E-step, so
// feature information disambiguates split votes and vote information
// calibrates the workers.
//
//   E-step: p_i = P(z_i=1 | x_i, votes) ∝ σ(wᵀx_i)·Π_w sens/spec terms
//   M-step: sensitivity_w, specificity_w from posterior-weighted counts;
//           w from logistic regression on soft targets p_i.

#ifndef RLL_BASELINES_RAYKAR_H_
#define RLL_BASELINES_RAYKAR_H_

#include <vector>

#include "classify/logistic_regression.h"
#include "common/status.h"
#include "data/dataset.h"

namespace rll::baselines {

struct RaykarOptions {
  int max_em_iterations = 30;
  /// Converged when max |Δposterior| < tolerance.
  double tolerance = 1e-4;
  /// Laplace smoothing on the sensitivity/specificity counts.
  double smoothing = 0.5;
  classify::LogisticRegressionOptions classifier;
};

struct RaykarModel {
  std::vector<double> sensitivity;       // Per worker, P(vote 1 | z = 1).
  std::vector<double> specificity;       // Per worker, P(vote 0 | z = 0).
  std::vector<double> posterior;         // Per example, P(z = 1).
  classify::LogisticRegression classifier;
  int iterations = 0;
  bool converged = false;
};

/// Runs the joint EM on a crowd-annotated dataset. Fails when any example
/// lacks annotations or the classifier fit fails.
Result<RaykarModel> FitRaykar(const data::Dataset& train,
                              const RaykarOptions& options = {});

}  // namespace rll::baselines

#endif  // RLL_BASELINES_RAYKAR_H_
