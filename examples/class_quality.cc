// Class-quality scenario (the paper's "class" application): predict whether
// an online 1-on-1 class is of good quality from interaction features, with
// 5 crowd votes per 65-minute video — the regime where labels are most
// expensive and most inconsistent.
//
// Demonstrates the diagnostic side of the library:
//   1. Dawid–Skene worker-reliability report (who to re-hire);
//   2. GLAD item-difficulty histogram (which videos need expert review);
//   3. the RLL-Bayesian pipeline, plus a model bundle for serving.
//
// Run: ./build/examples/class_quality

#include <algorithm>
#include <cstdio>

#include "core/model_bundle.h"
#include "core/pipeline.h"
#include "crowd/dawid_skene.h"
#include "crowd/glad.h"
#include "crowd/worker_pool.h"
#include "data/standardize.h"
#include "data/synthetic.h"

int main() {
  using namespace rll;

  Rng rng(42);
  data::Dataset dataset = GenerateSynthetic(data::ClassSimConfig(), &rng);
  crowd::WorkerPool workers({.num_workers = 25}, &rng);
  workers.Annotate(&dataset, 5, &rng);

  std::printf("CLASS QUALITY — 472 simulated 1v1 class videos, 5 votes "
              "each\n\n");

  // ---- 1. Worker reliability via Dawid–Skene.
  crowd::DawidSkene ds;
  auto ds_result = ds.Run(dataset);
  if (!ds_result.ok()) {
    std::fprintf(stderr, "%s\n", ds_result.status().ToString().c_str());
    return 1;
  }
  std::printf("Dawid–Skene worker report (%d EM iterations):\n",
              ds_result->iterations);
  std::vector<size_t> order(ds_result->worker_quality.size());
  for (size_t w = 0; w < order.size(); ++w) order[w] = w;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return ds_result->worker_quality[a] > ds_result->worker_quality[b];
  });
  std::printf("  best workers :");
  for (size_t i = 0; i < 3; ++i) {
    std::printf("  #%zu (%.2f, true %.2f)", order[i],
                ds_result->worker_quality[order[i]],
                workers.WorkerAccuracy(order[i]));
  }
  std::printf("\n  worst workers:");
  for (size_t i = order.size() - 3; i < order.size(); ++i) {
    std::printf("  #%zu (%.2f, true %.2f)", order[i],
                ds_result->worker_quality[order[i]],
                workers.WorkerAccuracy(order[i]));
  }
  std::printf("\n\n");

  // ---- 2. Item difficulty via GLAD.
  crowd::Glad glad;
  auto glad_result = glad.Run(dataset);
  if (!glad_result.ok()) {
    std::fprintf(stderr, "%s\n", glad_result.status().ToString().c_str());
    return 1;
  }
  std::vector<double> difficulty = glad_result->item_difficulty;
  std::sort(difficulty.begin(), difficulty.end());
  std::printf("GLAD item difficulty (1/beta): median %.2f, p90 %.2f — the "
              "top decile\nare the videos worth routing to experts.\n\n",
              difficulty[difficulty.size() / 2],
              difficulty[difficulty.size() * 9 / 10]);

  // ---- 3. RLL-Bayesian pipeline + model bundle.
  core::RllPipelineOptions options;
  options.trainer.model.hidden_dims = {64, 32};
  options.trainer.epochs = 12;
  options.trainer.confidence_mode = crowd::ConfidenceMode::kBayesian;
  auto outcome = core::RunRllCrossValidation(dataset, options, &rng);
  if (!outcome.ok()) {
    std::fprintf(stderr, "%s\n", outcome.status().ToString().c_str());
    return 1;
  }
  std::printf("RLL-Bayesian, 5-fold CV: accuracy %.3f (+/- %.3f), "
              "F1 %.3f (+/- %.3f)\n",
              outcome->mean.accuracy, outcome->stddev.accuracy,
              outcome->mean.f1, outcome->stddev.f1);

  // Train a final model on everything and save it, with its standardizer,
  // as a bundle the server loads.
  data::Standardizer standardizer;
  const Matrix features = standardizer.FitTransform(dataset.features());
  const std::vector<int> labels = dataset.MajorityVoteLabels();
  core::RllTrainer trainer(options.trainer, &rng);
  auto train_status = trainer.Train(
      features, labels,
      crowd::LabelConfidence(dataset, labels,
                             crowd::ConfidenceMode::kBayesian));
  if (!train_status.ok()) {
    std::fprintf(stderr, "%s\n", train_status.status().ToString().c_str());
    return 1;
  }
  const char* path = "class_quality.ckpt";
  auto bundle = core::ModelBundle::Create(standardizer, trainer.model(), &rng);
  const Status saved = bundle.ok() ? bundle->Save(path) : bundle.status();
  if (!saved.ok()) {
    std::fprintf(stderr, "%s\n", saved.ToString().c_str());
    return 1;
  }
  std::printf("model bundle written to %s; serve it with\n"
              "  ./build/tools/rll_cli serve --model %s\n",
              path, path);
  return 0;
}
