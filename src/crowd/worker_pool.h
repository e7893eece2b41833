// Simulated crowd-worker pool.
//
// Substitutes the paper's human annotators with the canonical generative
// model its own baselines assume: each worker is a "two-coin" annotator with
// latent sensitivity (accuracy on positives) and specificity (accuracy on
// negatives) drawn from Beta distributions, and each item has a GLAD-style
// difficulty that attenuates every worker's ability toward a coin flip. This
// produces exactly the inconsistency patterns the paper describes (unanimous
// 5–0 votes beside split 3–2 votes) and lets experiments vary d, worker
// quality, and task ambiguity.

#ifndef RLL_CROWD_WORKER_POOL_H_
#define RLL_CROWD_WORKER_POOL_H_

#include <vector>

#include "common/rng.h"
#include "data/dataset.h"

namespace rll::crowd {

struct WorkerPoolConfig {
  /// Total workers available; each example is labeled by a random subset.
  size_t num_workers = 25;
  /// Beta prior for per-worker sensitivity. Mean α/(α+β) = 0.78 by default:
  /// competent but far from expert, as in education crowdsourcing.
  double sensitivity_alpha = 7.0;
  double sensitivity_beta = 2.0;
  /// Beta prior for per-worker specificity.
  double specificity_alpha = 7.0;
  double specificity_beta = 2.0;
  /// Beta prior for per-item difficulty t ∈ [0,1]; t = 1 reduces every
  /// worker to a coin flip, t = 0 leaves ability intact. Education tasks
  /// are ambiguous, so difficulty is substantial by default (mean 0.375).
  /// Set difficulty_alpha <= 0 to disable difficulty entirely (t = 0).
  double difficulty_alpha = 1.5;
  double difficulty_beta = 2.5;
};

class WorkerPool {
 public:
  /// Draws per-worker abilities from the configured priors.
  WorkerPool(const WorkerPoolConfig& config, Rng* rng);

  /// Injects exact abilities (tests / planted-recovery experiments).
  /// Item difficulty is disabled — votes follow the pure two-coin model
  /// that Dawid–Skene and GLAD assume.
  WorkerPool(std::vector<double> sensitivity, std::vector<double> specificity);

  size_t num_workers() const { return sensitivity_.size(); }
  const std::vector<double>& sensitivity() const { return sensitivity_; }
  const std::vector<double>& specificity() const { return specificity_; }
  /// Per-item difficulties drawn during the last Annotate call.
  const std::vector<double>& last_difficulties() const {
    return last_difficulties_;
  }

  /// Expected accuracy of worker w marginalized over a balanced class prior
  /// at difficulty 0.
  double WorkerAccuracy(size_t w) const;

  /// Labels every example in the dataset with `votes_per_example` distinct
  /// random workers (replacing prior annotations). Requires
  /// votes_per_example <= num_workers(). Draws one base seed from `rng` and
  /// derives a private per-example stream from it, so examples are
  /// annotated as parallel pool tasks with thread-count-independent votes.
  void Annotate(data::Dataset* dataset, size_t votes_per_example, Rng* rng);

  /// One vote from worker w on an item with the given true label and
  /// difficulty t ∈ [0,1].
  int Vote(size_t w, int true_label, double difficulty, Rng* rng) const;

 private:
  WorkerPoolConfig config_;
  std::vector<double> sensitivity_;
  std::vector<double> specificity_;
  std::vector<double> last_difficulties_;
};

}  // namespace rll::crowd

#endif  // RLL_CROWD_WORKER_POOL_H_
