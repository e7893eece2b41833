// train workload: one fold of the paper's protocol per op.
//
// The op is the body of core::RunRllCrossValidation's fold loop:
// standardize on the train split, copy the crowd annotations, run
// core::TrainRllAndPredict (majority vote, Bayesian confidence, RLL
// training, logistic regression on the embeddings) and score the held-out
// split. Folds 0-4 run in turn, each with its own SplitSeed stream, so a
// 10 s run yields far more samples than whole-CV ops would. Training runs
// at 4 epochs on a 1-thread global pool: every GEMM of a 64-group step is
// below the parallel floor in tensor/ops.cc, so the kernels are the same
// at any --threads value, and parallel folds (the main source of
// run-to-run spread) are ruled out.
//
// The traced run splits the same op into its public calls and, to see
// inside RllTrainer::Train without touching src/, replays the trainer's
// epoch/batch loop from public calls with a span per stage. The replay's
// final parameters must equal the real trainer's bit for bit, which pins
// it to the code it stands in for.

#include <cmath>
#include <cstddef>
#include <cstring>
#include <vector>

#include "autograd/ops.h"
#include "classify/logistic_regression.h"
#include "classify/metrics.h"
#include "common/arena.h"
#include "common/rng.h"
#include "common/threading.h"
#include "core/group_sampler.h"
#include "core/pipeline.h"
#include "core/rll_model.h"
#include "core/rll_trainer.h"
#include "crowd/confidence.h"
#include "crowd/worker_pool.h"
#include "data/csv.h"
#include "data/dataset.h"
#include "data/kfold.h"
#include "data/standardize.h"
#include "data/synthetic.h"
#include "nn/optimizer.h"
#include "workloads.h"

namespace perfbench {
namespace {

using rll::Matrix;
using rll::Rng;
namespace core = rll::core;
namespace data = rll::data;

constexpr size_t kFolds = 5;
constexpr int kEpochs = 4;
constexpr size_t kWorkers = 25;
constexpr size_t kVotes = 5;
constexpr int kSetupReps = 9;
/// Mean held-out accuracy must stay above this. At 4 epochs, seeds 0-39
/// score 0.775-0.861 (always predicting the majority class scores 0.643);
/// the margin admits a kernel change that legitimately changes rounding,
/// not a collapsed or diverged encoder.
constexpr double kAccuracyFloor = 0.72;
/// Streams derived from --seed.
constexpr uint64_t kDataStream = 1;
constexpr uint64_t kCvStream = 2;

core::RllPipelineOptions PipelineOptions() {
  core::RllPipelineOptions options;
  options.trainer.epochs = kEpochs;
  options.trainer.confidence_mode = rll::crowd::ConfidenceMode::kBayesian;
  return options;
}

struct Inputs {
  std::string features_csv;
  std::string annotations_csv;
};

/// Generates oral-sim (880x16, 5 votes from a 25-worker pool) and saves it
/// as the two CSVs the workload loads. Not timed.
bool WriteInputs(const RunConfig& config, Inputs* inputs, Report* report) {
  Rng rng(rll::SplitSeed(config.seed, kDataStream));
  data::Dataset dataset = data::GenerateSynthetic(data::OralSimConfig(), &rng);
  rll::crowd::WorkerPool pool({.num_workers = kWorkers}, &rng);
  pool.Annotate(&dataset, kVotes, &rng);
  inputs->features_csv = config.work_dir + "/features.csv";
  inputs->annotations_csv = config.work_dir + "/annotations.csv";
  rll::Status status = data::SaveFeaturesCsv(inputs->features_csv, dataset);
  if (status.ok()) {
    status = data::SaveAnnotationsCsv(inputs->annotations_csv, dataset);
  }
  if (!status.ok()) {
    report->Fail("writing train inputs: " + status.ToString());
    return false;
  }
  return true;
}

struct Folds {
  data::Dataset dataset;
  std::vector<data::Split> splits;
  uint64_t base_seed = 0;
};

/// The workload's set-up: both CSVs loaded, folds built exactly as
/// RunRllCrossValidation builds them from an Rng seeded with
/// SplitSeed(seed, kCvStream).
bool LoadFolds(const RunConfig& config, const Inputs& inputs, Spans* spans,
               Folds* folds, Report* report) {
  {
    SpanScope span(spans, "data.load");
    auto loaded = data::LoadFeaturesCsv(inputs.features_csv);
    if (!loaded.ok()) {
      report->Fail("loading features: " + loaded.status().ToString());
      return false;
    }
    folds->dataset = *std::move(loaded);
    const rll::Status status =
        data::LoadAnnotationsCsv(inputs.annotations_csv, &folds->dataset);
    if (!status.ok()) {
      report->Fail("loading annotations: " + status.ToString());
      return false;
    }
  }
  SpanScope span(spans, "data.kfold");
  Rng cv_rng(rll::SplitSeed(config.seed, kCvStream));
  folds->splits =
      data::StratifiedKFold(folds->dataset.true_labels(), kFolds, &cv_rng);
  folds->base_seed = cv_rng.Next();
  return true;
}

struct FoldOutcome {
  std::vector<int> predicted;
  rll::classify::EvalMetrics metrics;
};

struct FoldSplit {
  data::Dataset train;  // Standardized, annotations copied.
  data::Dataset test;   // Raw; expert labels score the fold.
  Matrix test_features;
};

FoldSplit SplitFold(const Folds& folds, size_t fold, Spans* spans) {
  const data::Split& split = folds.splits[fold];
  data::Dataset train = folds.dataset.Subset(split.train);
  data::Dataset test = folds.dataset.Subset(split.test);
  Matrix train_features = train.features();
  Matrix test_features = test.features();
  {
    SpanScope span(spans, "data.standardize", static_cast<int64_t>(fold));
    data::Standardizer standardizer;
    train_features = standardizer.FitTransform(train_features);
    test_features = standardizer.Transform(test_features);
  }
  data::Dataset train_std(train_features, train.true_labels());
  for (size_t i = 0; i < train.size(); ++i) {
    for (const data::Annotation& a : train.annotations(i)) {
      train_std.AddAnnotation(i, a);
    }
  }
  return {std::move(train_std), std::move(test), std::move(test_features)};
}

/// The untraced op: RunRllCrossValidation's fold body, verbatim.
rll::Result<FoldOutcome> RunFold(const Folds& folds, size_t fold,
                                 const core::RllPipelineOptions& options) {
  FoldSplit s = SplitFold(folds, fold, nullptr);
  Rng fold_rng(rll::SplitSeed(folds.base_seed, fold));
  RLL_ASSIGN_OR_RETURN(
      std::vector<int> predicted,
      core::TrainRllAndPredict(s.train, s.test_features, options, &fold_rng));
  FoldOutcome out;
  out.metrics = rll::classify::Evaluate(s.test.true_labels(), predicted);
  out.predicted = std::move(predicted);
  return out;
}

bool SameMetrics(const rll::classify::EvalMetrics& a,
                 const rll::classify::EvalMetrics& b) {
  return std::memcmp(&a, &b, sizeof(a)) == 0;
}

bool AllFinite(const Matrix& m) {
  for (size_t i = 0; i < m.size(); ++i) {
    if (!std::isfinite(m[i])) return false;
  }
  return true;
}

/// op_p50_ms: the mean over passes of five consecutive folds of each
/// pass's median fold (a trailing partial pass is left out). The host's
/// fast and slow stretches make fold times two-humped, and a median over
/// the whole run jumps from one hump to the other as their mix changes
/// between runs, where the mean of per-pass medians moves in proportion;
/// a pass's median still ignores one slow fold.
double OpP50Ms(const std::vector<double>& fold_ms) {
  std::vector<double> pass_medians;
  for (size_t i = 0; i + kFolds <= fold_ms.size(); i += kFolds) {
    pass_medians.push_back(Median(std::vector<double>(
        fold_ms.begin() + static_cast<std::ptrdiff_t>(i),
        fold_ms.begin() + static_cast<std::ptrdiff_t>(i + kFolds))));
  }
  return pass_medians.empty() ? Median(fold_ms) : Mean(pass_medians);
}

// ------------------------------------------------------------ untraced

void RunUntraced(const RunConfig& config, const Inputs& inputs,
                 Report* report) {
  // Set-up is timed once before the folds and again after every pass over
  // the five folds, outside the timed ops and wall_s, so its median mixes
  // the stretches of host speed the run sees; repetitions back to back
  // all see one stretch, and run medians came out two-humped (about 4.3
  // or 6.8 ms).
  std::vector<double> setup_s;
  Folds folds;
  auto time_setup = [&](Folds* into) {
    const int64_t t0 = NowNs();
    const bool ok = LoadFolds(config, inputs, nullptr, into, report);
    setup_s.push_back((NowNs() - t0) / 1e9);
    return ok;
  };
  if (!time_setup(&folds)) return;

  const core::RllPipelineOptions options = PipelineOptions();
  std::vector<FoldOutcome> first(kFolds);
  std::vector<bool> seen(kFolds, false);
  std::vector<double> op_ms;
  uint64_t attempted = 0, failed = 0, groups = 0;

  auto run_op = [&](size_t fold) -> double {
    const int64_t t0 = NowNs();
    rll::Result<FoldOutcome> outcome = RunFold(folds, fold, options);
    const double ms = (NowNs() - t0) / 1e6;
    ++attempted;
    if (!outcome.ok()) {
      ++failed;
      report->Fail("fold " + std::to_string(fold) + ": " +
                   outcome.status().ToString());
      return ms;
    }
    for (int label : outcome->predicted) {
      if (label != 0 && label != 1) {
        report->Fail("fold " + std::to_string(fold) +
                     " predicted a label outside {0,1}");
        break;
      }
    }
    if (!seen[fold]) {
      seen[fold] = true;
      first[fold] = *std::move(outcome);
    } else if (outcome->predicted != first[fold].predicted ||
               !SameMetrics(outcome->metrics, first[fold].metrics)) {
      report->Fail("fold " + std::to_string(fold) +
                   " is not bitwise identical to its first run");
    }
    groups += static_cast<uint64_t>(options.trainer.epochs) *
              options.trainer.groups_per_epoch;
    return ms;
  };

  run_op(0);  // Warm-up: faults in code and data pages; not timed.
  attempted = 0;
  groups = 0;
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(config.seconds * 1e9);
  int64_t setup_ns = 0;  // Set-up inside the loop, left out of wall_s.
  for (size_t i = 0; NowNs() < end; ++i) {
    op_ms.push_back(run_op(i % kFolds));
    if (i % kFolds == kFolds - 1) {
      const int64_t t0 = NowNs();
      Folds again;
      if (!time_setup(&again)) return;
      setup_ns += NowNs() - t0;
    }
  }
  const double wall_s = (NowNs() - start - setup_ns) / 1e9;
  const double peak_rss_mb = PeakRssMb();  // Before the check's own state.

  // The op must be the paper's protocol: RunRllCrossValidation on the same
  // data and stream gives the same per-fold scores.
  Rng cv_rng(rll::SplitSeed(config.seed, kCvStream));
  auto cv = core::RunRllCrossValidation(folds.dataset, options, &cv_rng);
  double accuracy = 0.0;
  if (!cv.ok()) {
    report->Fail("RunRllCrossValidation: " + cv.status().ToString());
  } else {
    for (size_t f = 0; f < kFolds; ++f) {
      if (seen[f] && !SameMetrics(cv->per_fold[f], first[f].metrics)) {
        report->Fail("fold " + std::to_string(f) +
                     " differs from RunRllCrossValidation's fold");
      }
    }
    accuracy = cv->mean.accuracy;
    if (!(accuracy > kAccuracyFloor)) {
      report->Fail("mean held-out accuracy " + JsonNum(accuracy) +
                   " is not above the floor " + JsonNum(kAccuracyFloor));
    }
  }

  report->attempted = attempted;
  report->failed = failed;
  report->Metric("setup_s", Median(setup_s), "s");
  report->Metric("peak_rss_mb", peak_rss_mb, "MiB");
  report->Metric("op_p50_ms", OpP50Ms(op_ms), "ms");
  report->Metric("op_tail_ms", Percentile(op_ms, 0.90), "ms");
  report->Metric("throughput_per_s", static_cast<double>(groups) / wall_s,
                 "1/s");
  report->Metric("ok_ratio",
                 attempted > 0 ? static_cast<double>(attempted - failed) /
                                     static_cast<double>(attempted)
                               : 0.0,
                 "ratio");
  report->Meta("train", "{\"ops\":" + std::to_string(op_ms.size()) +
                            ",\"setup_reps\":" + std::to_string(setup_s.size()) +
                            ",\"tail_percentile\":90,\"samples_beyond_tail\":" +
                            std::to_string(SamplesBeyond(op_ms, 0.90)) +
                            ",\"epochs\":" + std::to_string(kEpochs) +
                            ",\"folds\":" + std::to_string(kFolds) +
                            ",\"groups_trained\":" + std::to_string(groups) +
                            ",\"wall_s\":" + JsonNum(wall_s) +
                            ",\"mean_accuracy\":" + JsonNum(accuracy) +
                            ",\"accuracy_floor\":" + JsonNum(kAccuracyFloor) +
                            ",\"op_ms\":" + JsonList(op_ms) + "}");
}

// -------------------------------------------------------------- traced

/// Matmul flops of one training step, from the encoder's layer shapes:
/// forward and the weight gradient for every layer, plus the input
/// gradient for every layer but the first (its input is a constant), for
/// the anchor and each of the k+1 candidate slots.
double GemmFlopsPerStep(const core::RllTrainerOptions& trainer,
                        size_t input_dim) {
  std::vector<size_t> dims = {input_dim};
  dims.insert(dims.end(), trainer.model.hidden_dims.begin(),
              trainer.model.hidden_dims.end());
  const double b = static_cast<double>(trainer.batch_size);
  double per_pass = 0.0;
  for (size_t l = 0; l + 1 < dims.size(); ++l) {
    const double mn = 2.0 * b * static_cast<double>(dims[l]) *
                      static_cast<double>(dims[l + 1]);
    per_pass += mn * (l == 0 ? 2.0 : 3.0);
  }
  return per_pass * static_cast<double>(trainer.negatives_per_group + 2);
}

struct StepStats {
  std::vector<double> allocs;  // Per step, first step of each replay excluded.
};

/// RllTrainer::Train's loop (no validation holdout, no observers), from
/// public calls, with a span per stage. `rng` must be in the state the
/// real trainer's rng had; returns the trained parameters.
rll::Result<std::vector<Matrix>> ReplayTrainer(
    const core::RllTrainerOptions& opts, const Matrix& features,
    const std::vector<int>& labels, const std::vector<double>& confidence,
    Rng* rng, Spans* spans, StepStats* stats) {
  core::RllModelConfig model_config = opts.model;
  model_config.input_dim = features.cols();
  core::RllModel model(model_config, rng);
  const uint64_t train_seed = rng->Next();
  core::GroupSampler sampler(labels,
                             {.negatives_per_group = opts.negatives_per_group});
  rll::nn::Adam optimizer(model.Parameters(), opts.adam);
  const size_t k = opts.negatives_per_group;
  rll::Arena arena;
  int64_t step = 0;
  for (int epoch = 0; epoch < opts.epochs; ++epoch) {
    Rng epoch_rng(rll::SplitSeed(train_seed, static_cast<uint64_t>(epoch)));
    std::vector<core::Group> groups;
    {
      SpanScope span(spans, "core.sample", epoch);
      RLL_ASSIGN_OR_RETURN(groups,
                           sampler.Sample(opts.groups_per_epoch, &epoch_rng));
    }
    for (size_t start = 0; start < groups.size(); start += opts.batch_size) {
      const uint64_t allocs_before = AllocationsNow();
      {
        SpanScope step_span(spans, "core.step", step);
        const size_t end = std::min(start + opts.batch_size, groups.size());
        const size_t batch = end - start;
        {
          rll::ArenaScope scope(&arena);
          rll::ScratchVector<size_t> anchor_idx(batch);
          rll::ScratchVector<size_t> slot_idx((k + 1) * batch);
          for (size_t b = 0; b < batch; ++b) {
            const core::Group& g = groups[start + b];
            anchor_idx[b] = g.anchor;
            slot_idx[b] = g.positive;
            for (size_t s = 0; s < k; ++s) {
              slot_idx[(s + 1) * batch + b] = g.negatives[s];
            }
          }
          rll::ag::Var anchor_emb;
          rll::ag::VarList candidate_embs;
          candidate_embs.reserve(k + 1);
          {
            // Same ForwardTrain order as the trainer (anchor, then slots),
            // so dropout draws, when configured, line up too.
            SpanScope span(spans, "nn.forward", step);
            anchor_emb = model.ForwardTrain(
                rll::ag::Constant(features.GatherRows(anchor_idx.data(), batch)),
                &epoch_rng);
            for (size_t s = 0; s <= k; ++s) {
              candidate_embs.push_back(model.ForwardTrain(
                  rll::ag::Constant(features.GatherRows(
                      slot_idx.data() + s * batch, batch)),
                  &epoch_rng));
            }
          }
          rll::MatrixList slot_confidence;
          slot_confidence.reserve(k + 1);
          for (size_t s = 0; s <= k; ++s) {
            Matrix delta(batch, 1);
            for (size_t b = 0; b < batch; ++b) {
              delta(b, 0) = confidence[slot_idx[s * batch + b]];
            }
            slot_confidence.push_back(std::move(delta));
          }
          rll::ag::Var loss;
          {
            SpanScope span(spans, "core.loss", step);
            loss = core::GroupNllLoss(anchor_emb, candidate_embs,
                                      slot_confidence, opts.eta);
          }
          {
            SpanScope span(spans, "autograd.backward", step);
            rll::ag::Backward(loss);
          }
          SpanScope span(spans, "nn.adam", step);
          optimizer.Step();
          optimizer.ZeroGrad();
        }
        SpanScope span(spans, "common.arena_reset", step);
        arena.Reset();
      }
      if (step > 0) {
        stats->allocs.push_back(
            static_cast<double>(AllocationsNow() - allocs_before));
      }
      ++step;
    }
  }
  std::vector<Matrix> params;
  for (const rll::ag::Var& p : model.Parameters()) params.push_back(p->value);
  return params;
}

void RunTraced(const RunConfig& config, const Inputs& inputs, double budget_s,
               bool primary, Spans* spans, Report* report) {
  Folds folds;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    if (!LoadFolds(config, inputs, spans, &folds, report)) return;
  }
  const core::RllPipelineOptions options = PipelineOptions();
  std::vector<double> untraced_fold_ms;
  std::vector<double> traced_fold_ms;
  StepStats step_stats;
  const int64_t end = NowNs() + static_cast<int64_t>(budget_s * 1e9);
  for (size_t i = 0; i < kFolds || NowNs() < end; ++i) {
    const size_t fold = i % kFolds;
    // Untraced: the same op the end-to-end run times.
    int64_t t0 = NowNs();
    rll::Result<FoldOutcome> reference = RunFold(folds, fold, options);
    untraced_fold_ms.push_back((NowNs() - t0) / 1e6);
    if (!reference.ok()) {
      report->Fail("fold " + std::to_string(fold) + ": " +
                   reference.status().ToString());
      return;
    }

    // Traced: TrainRllAndPredict split into its public calls.
    t0 = NowNs();
    std::vector<int> predicted;
    rll::classify::EvalMetrics metrics;
    std::vector<Matrix> trained;
    rll::Rng replay_rng(0);
    Matrix train_emb, test_emb;
    std::vector<int> labels;
    std::vector<double> confidence;
    FoldSplit s;
    {
      SpanScope fold_span(spans, "fold", static_cast<int64_t>(fold));
      s = SplitFold(folds, fold, spans);
      {
        SpanScope span(spans, "crowd.aggregate", static_cast<int64_t>(fold));
        labels = s.train.MajorityVoteLabels();
      }
      {
        SpanScope span(spans, "crowd.confidence", static_cast<int64_t>(fold));
        confidence = rll::crowd::LabelConfidence(
            s.train, labels, options.trainer.confidence_mode,
            options.trainer.prior_strength);
      }
      Rng fold_rng(rll::SplitSeed(folds.base_seed, fold));
      replay_rng = fold_rng;  // The replay starts where the trainer starts.
      core::RllTrainer trainer(options.trainer, &fold_rng);
      {
        SpanScope span(spans, "core.train", static_cast<int64_t>(fold));
        auto summary = trainer.Train(s.train.features(), labels, confidence);
        if (!summary.ok()) {
          report->Fail("RllTrainer::Train: " + summary.status().ToString());
          return;
        }
      }
      {
        SpanScope span(spans, "nn.embed", static_cast<int64_t>(fold));
        train_emb = trainer.model().Embed(s.train.features());
        test_emb = trainer.model().Embed(s.test_features);
      }
      rll::classify::LogisticRegression lr(options.classifier);
      {
        SpanScope span(spans, "classify.fit", static_cast<int64_t>(fold));
        const rll::Status status = lr.Fit(train_emb, labels);
        if (!status.ok()) {
          report->Fail("LogisticRegression::Fit: " + status.ToString());
          return;
        }
      }
      {
        SpanScope span(spans, "classify.predict", static_cast<int64_t>(fold));
        predicted = lr.Predict(test_emb);
        metrics = rll::classify::Evaluate(s.test.true_labels(), predicted);
      }
      for (const rll::ag::Var& p : trainer.model().Parameters()) {
        trained.push_back(p->value);
      }
    }
    traced_fold_ms.push_back((NowNs() - t0) / 1e6);
    if (predicted != reference->predicted ||
        !SameMetrics(metrics, reference->metrics)) {
      report->Fail("traced fold " + std::to_string(fold) +
                   " differs from TrainRllAndPredict");
    }
    if (!AllFinite(train_emb) || !AllFinite(test_emb)) {
      report->Fail("fold " + std::to_string(fold) +
                   " produced non-finite embeddings");
    }

    // Inside Train: the replayed loop, which must land on the same
    // parameters.
    rll::Result<std::vector<Matrix>> replayed = [&] {
      SpanScope span(spans, "core.train_replay", static_cast<int64_t>(fold));
      return ReplayTrainer(options.trainer, s.train.features(), labels,
                           confidence, &replay_rng, spans, &step_stats);
    }();
    if (!replayed.ok()) {
      report->Fail("replayed trainer: " + replayed.status().ToString());
      return;
    }
    bool same = replayed->size() == trained.size();
    for (size_t p = 0; same && p < trained.size(); ++p) {
      same = (*replayed)[p].size() == trained[p].size() &&
             std::memcmp((*replayed)[p].data(), trained[p].data(),
                         trained[p].size() * sizeof(double)) == 0;
    }
    if (!same) {
      report->Fail("replayed training loop diverged from RllTrainer::Train");
    }
  }

  auto ms = [&](const char* name, const char* parent = nullptr) {
    return Median(spans->SelfUs(name, parent)) / 1e3;
  };
  report->Metric("data.load_ms", ms("data.load"), "ms", "data.load");
  report->Metric("data.kfold_ms", ms("data.kfold"), "ms", "data.kfold");
  const double standardize = ms("data.standardize", "fold");
  const double aggregate = ms("crowd.aggregate");
  const double confidence = ms("crowd.confidence");
  const double train = ms("core.train");
  const double embed = ms("nn.embed");
  const double fit = ms("classify.fit");
  const double predict = ms("classify.predict");
  report->Metric("data.standardize_ms", standardize, "ms", "data.standardize");
  report->Metric("crowd.aggregate_ms", aggregate, "ms", "crowd.aggregate");
  report->Metric("crowd.confidence_ms", confidence, "ms", "crowd.confidence");
  report->Metric("core.train_ms", train, "ms", "core.train");
  const double sample = ms("core.sample");
  const double forward = ms("nn.forward");
  const double loss = ms("core.loss");
  const double backward = ms("autograd.backward");
  const double adam = ms("nn.adam");
  const double reset_us = Median(spans->SelfUs("common.arena_reset"));
  report->Metric("core.sample_ms", sample, "ms", "core.sample");
  report->Metric("nn.forward_ms", forward, "ms", "nn.forward");
  report->Metric("core.loss_ms", loss, "ms", "core.loss");
  report->Metric("autograd.backward_ms", backward, "ms", "autograd.backward");
  report->Metric("nn.adam_ms", adam, "ms", "nn.adam");
  report->Metric("common.arena_reset_us", reset_us, "us", "common.arena_reset");
  const double flops =
      GemmFlopsPerStep(options.trainer, folds.dataset.dim());
  report->Metric("tensor.gemm_flops", flops, "flop", "core.step");
  report->Metric("tensor.gemm_gflops", flops / ((forward + backward) * 1e6),
                 "GFLOP/s", "core.step");
  report->Metric("common.allocs_per_step", Mean(step_stats.allocs), "count",
                 "core.step");
  report->Metric("nn.embed_ms", embed, "ms", "nn.embed");
  report->Metric("classify.fit_ms", fit, "ms", "classify.fit");
  report->Metric("classify.predict_ms", predict, "ms", "classify.predict");

  // Residuals against untraced timings, from means (medians of different
  // stages come from different folds and do not add up): the real
  // trainer's time per batch (core.train has no spans inside it) and the
  // untraced op.
  const double steps_per_epoch = std::ceil(
      static_cast<double>(options.trainer.groups_per_epoch) /
      static_cast<double>(options.trainer.batch_size));
  auto mean_ms = [&](const char* name, const char* parent = nullptr) {
    return Mean(spans->SelfUs(name, parent)) / 1e3;
  };
  const double batch_ms = mean_ms("core.train") /
                          (steps_per_epoch * options.trainer.epochs);
  const double step_stages =
      mean_ms("core.sample") / steps_per_epoch + mean_ms("nn.forward") +
      mean_ms("core.loss") + mean_ms("autograd.backward") +
      mean_ms("nn.adam") + mean_ms("common.arena_reset");
  report->Metric("core.step_residual_pct",
                 100.0 * (batch_ms - step_stages) / batch_ms, "%", "core.step");
  const double fold_ms = Mean(untraced_fold_ms);
  const double fold_stages =
      mean_ms("data.standardize", "fold") + mean_ms("crowd.aggregate") +
      mean_ms("crowd.confidence") + mean_ms("core.train") +
      mean_ms("nn.embed") + mean_ms("classify.fit") +
      mean_ms("classify.predict");
  report->Metric("core.fold_residual_pct",
                 100.0 * (fold_ms - fold_stages) / fold_ms, "%", "fold");
  report->Meta("train_traced",
               "{\"folds\":" + std::to_string(traced_fold_ms.size()) +
                   ",\"steps\":" +
                   std::to_string(spans->DurUs("core.step").size()) +
                   ",\"untraced_fold_p50_ms\":" +
                   JsonNum(OpP50Ms(untraced_fold_ms)) +
                   ",\"traced_fold_p50_ms\":" +
                   JsonNum(OpP50Ms(traced_fold_ms)) + "}");
  if (primary) {
    // Interleaved in one process, so host speed drift cancels.
    report->Meta("traced_op_p50_ms", JsonNum(OpP50Ms(traced_fold_ms)));
    report->Meta("untraced_op_p50_ms", JsonNum(OpP50Ms(untraced_fold_ms)));
  }
}

}  // namespace

void RunTrain(const RunConfig& config, double budget_s, bool primary,
              Spans* spans, Report* report) {
  rll::SetGlobalThreads(1);
  Inputs inputs;
  if (!WriteInputs(config, &inputs, report)) return;
  if (config.traced) {
    SpanScope span(spans, "phase.train");
    RunTraced(config, inputs, budget_s, primary, spans, report);
  } else {
    RunUntraced(config, inputs, report);
  }
}

}  // namespace perfbench
