#include "crowd/worker_pool.h"

#include "common/threading.h"

namespace rll::crowd {

WorkerPool::WorkerPool(const WorkerPoolConfig& config, Rng* rng)
    : config_(config) {
  RLL_CHECK_GT(config.num_workers, 0u);
  sensitivity_.reserve(config.num_workers);
  specificity_.reserve(config.num_workers);
  for (size_t w = 0; w < config.num_workers; ++w) {
    sensitivity_.push_back(
        rng->Beta(config.sensitivity_alpha, config.sensitivity_beta));
    specificity_.push_back(
        rng->Beta(config.specificity_alpha, config.specificity_beta));
  }
}

WorkerPool::WorkerPool(std::vector<double> sensitivity,
                       std::vector<double> specificity)
    : sensitivity_(std::move(sensitivity)),
      specificity_(std::move(specificity)) {
  RLL_CHECK_EQ(sensitivity_.size(), specificity_.size());
  RLL_CHECK(!sensitivity_.empty());
  config_.difficulty_alpha = 0.0;  // Pure two-coin model.
}

double WorkerPool::WorkerAccuracy(size_t w) const {
  RLL_CHECK_LT(w, num_workers());
  return 0.5 * (sensitivity_[w] + specificity_[w]);
}

int WorkerPool::Vote(size_t w, int true_label, double difficulty,
                     Rng* rng) const {
  RLL_CHECK_LT(w, num_workers());
  RLL_CHECK(true_label == 0 || true_label == 1);
  RLL_CHECK(difficulty >= 0.0 && difficulty <= 1.0);
  const double ability = true_label == 1 ? sensitivity_[w] : specificity_[w];
  // Difficulty attenuates ability toward a coin flip.
  const double p_correct = 0.5 + (ability - 0.5) * (1.0 - difficulty);
  const bool correct = rng->Bernoulli(p_correct);
  return correct ? true_label : 1 - true_label;
}

void WorkerPool::Annotate(data::Dataset* dataset, size_t votes_per_example,
                          Rng* rng) {
  RLL_CHECK_GT(votes_per_example, 0u);
  RLL_CHECK_LE(votes_per_example, num_workers());
  dataset->ClearAnnotations();
  last_difficulties_.resize(dataset->size());
  // One base draw, then a private stream per example: an example's vote
  // pattern depends only on (base seed, example index), never on how
  // examples are batched across pool workers. Distinct examples write
  // distinct annotation and difficulty slots, so no locking is needed.
  const uint64_t base_seed = rng->Next();
  ParallelFor(0, dataset->size(), 64, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      Rng ex_rng(SplitSeed(base_seed, i));
      const double t =
          config_.difficulty_alpha > 0.0
              ? ex_rng.Beta(config_.difficulty_alpha, config_.difficulty_beta)
              : 0.0;
      last_difficulties_[i] = t;
      const std::vector<size_t> workers =
          ex_rng.SampleWithoutReplacement(num_workers(), votes_per_example);
      for (size_t w : workers) {
        dataset->AddAnnotation(
            i, {w, Vote(w, dataset->true_label(i), t, &ex_rng)});
      }
    }
  });
}

}  // namespace rll::crowd
