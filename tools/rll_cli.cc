// rll_cli — command-line front end for the RLL library.
//
//   rll_cli synth     --preset oral|class --features F.csv --annotations A.csv
//                     [--seed N] [--votes D] [--workers W]
//   rll_cli describe  --features F.csv [--annotations A.csv]
//   rll_cli aggregate --features F.csv --annotations A.csv
//                     [--method mv|em|glad|iwmv]
//   rll_cli evaluate  --features F.csv --annotations A.csv
//                     [--mode none|mle|bayesian|worker] [--folds K]
//                     [--epochs E] [--k-negatives K] [--eta X] [--seed N]
//   rll_cli tune      --features F.csv --annotations A.csv [--epochs E]
//   rll_cli train     --features F.csv --annotations A.csv --model OUT
//                     [--mode ...] [--epochs E] [--seed N]
//   rll_cli embed     --features F.csv --model M --output EMB.csv
//   rll_cli retrieve  --features F.csv --model M --query ROW [--k K]
//   rll_cli serve     --model M [--corpus F.csv] [--host H] [--port P]
//                     [--max-batch N] [--batch-timeout-us U] [--max-queue Q]
//                     [--cache-size C] [--k K] [--trace-sample N]
//   rll_cli top       --port P [--host H] [--interval-ms MS] [--count N]
//
// Every command also accepts the common flags:
//   --threads N             global thread-pool size (results are identical
//                           at any value; default RLL_THREADS env or 1)
//   --log-level debug|info|warning|error
//   --metrics-out M.jsonl   per-epoch training series + metric registry dump
//   --trace-out T.json      Chrome trace-event file (chrome://tracing)
//   --profile-out P.folded  sampling CPU profile as collapsed stacks (a
//                           .json path writes the aggregated report);
//   --profile-hz N          sample rate for --profile-out (default 99)
//
// The features CSV is "f0,...,fN,label" (label = expert ground truth, used
// only for evaluation); annotations are long-format
// "example_id,worker_id,label". `synth` writes both files from the
// simulated paper datasets so the whole flow is runnable offline.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "baselines/label_source.h"
#include "classify/metrics.h"
#include "classify/ranking_metrics.h"
#include "common/check.h"
#include "common/logging.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "common/thread_registry.h"
#include "common/threading.h"
#include "core/embedding_index.h"
#include "core/model_bundle.h"
#include "core/tuning.h"
#include "core/pipeline.h"
#include "crowd/agreement.h"
#include "crowd/dawid_skene.h"
#include "crowd/glad.h"
#include "crowd/iwmv.h"
#include "crowd/majority_vote.h"
#include "crowd/worker_pool.h"
#include "data/csv.h"
#include "data/standardize.h"
#include "data/synthetic.h"
#include "obs/metrics.h"
#include "obs/observer.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "serve/json.h"
#include "serve/server_core.h"
#include "serve/event/event_server.h"
#include "serve/event/reload_manager.h"

namespace rll::cli {
namespace {

struct Args {
  std::string command;
  std::map<std::string, std::string> flags;

  std::string Get(const std::string& key, const std::string& fallback) const {
    auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  }
  /// A floating-point flag, or `fallback` when it is absent. Parse has
  /// checked the value against DoubleFlagFloors.
  double GetDouble(const std::string& key, double fallback) const {
    auto it = flags.find(key);
    double v = fallback;
    if (it != flags.end()) {
      RLL_CHECK_MSG(ParseDouble(it->second, &v),
                    "floating-point flag missing from DoubleFlagFloors");
    }
    return v;
  }
  /// An integer flag, or `fallback` when it is absent. Parse has checked
  /// the value against IntFlagMinimums, so a cast to size_t of a count
  /// flag cannot wrap.
  int64_t GetInt(const std::string& key, int64_t fallback) const {
    auto it = flags.find(key);
    int64_t v = fallback;
    if (it != flags.end()) {
      RLL_CHECK_MSG(ParseInt(it->second, &v),
                    "integer flag missing from IntFlagMinimums");
    }
    return v;
  }
  bool Has(const std::string& key) const { return flags.count(key) > 0; }
};

int Usage() {
  std::fprintf(
      stderr,
      "usage: rll_cli <command> [--flag value]\n"
      "  synth     --preset oral|class --features F --annotations A\n"
      "            [--seed N] [--votes D] [--workers W]\n"
      "  describe  --features F [--annotations A]\n"
      "  aggregate --features F --annotations A [--method mv|em|glad|iwmv]\n"
      "  evaluate  --features F --annotations A [--mode "
      "none|mle|bayesian|worker]\n"
      "            [--folds K] [--epochs E] [--k-negatives K] [--eta X] "
      "[--seed N]\n"
      "  tune      --features F --annotations A [--epochs E] [--seed N]\n"
      "  train     --features F --annotations A --model OUT [--mode ...] "
      "[--epochs E]\n"
      "  embed     --features F --model M --output EMB\n"
      "  retrieve  --features F --model M --query ROW [--k K]\n"
      "  serve     --model M [--corpus F] [--host H] [--port P]\n"
      "            [--max-batch N] [--batch-timeout-us U] [--max-queue Q]\n"
      "            [--cache-size C] [--k K] [--trace-sample N]\n"
      "            [--shards S] [--max-connections N] [--watch-bundle MS]\n"
      "  top       --port P [--host H] [--interval-ms MS] [--count N]\n"
      "common flags (any command):\n"
      "  --threads N              thread-pool size (same results at any N)\n"
      "  --log-level debug|info|warning|error\n"
      "  --metrics-out M.jsonl    training series + metric registry dump\n"
      "  --trace-out T.json       Chrome trace (open in chrome://tracing)\n"
      "  --profile-out P.folded   CPU profile, collapsed stacks (a .json\n"
      "                           path writes the aggregated report "
      "instead)\n"
      "  --profile-hz N           profiler sample rate (default 99)\n");
  return 2;
}

// Flags accepted by every command (observability) and per command. A flag
// outside the union is a hard error: silently ignoring a typo like
// --k-negative would run with the default and report misleading numbers.
const std::set<std::string>& CommonFlags() {
  static const std::set<std::string> flags = {
      "threads",   "log-level",   "metrics-out",
      "trace-out", "profile-out", "profile-hz"};
  return flags;
}

const std::map<std::string, std::set<std::string>>& CommandFlags() {
  static const std::map<std::string, std::set<std::string>> flags = {
      {"synth",
       {"preset", "features", "annotations", "seed", "votes", "workers"}},
      {"describe", {"features", "annotations"}},
      {"aggregate", {"features", "annotations", "method"}},
      {"evaluate",
       {"features", "annotations", "mode", "folds", "epochs", "k-negatives",
        "eta", "seed", "groups"}},
      {"tune",
       {"features", "annotations", "epochs", "seed", "groups",
        "k-negatives"}},
      {"train",
       {"features", "annotations", "model", "mode", "epochs", "k-negatives",
        "eta", "seed", "groups"}},
      {"embed", {"features", "model", "output"}},
      {"retrieve", {"features", "model", "query", "k"}},
      {"serve",
       {"model", "corpus", "host", "port", "max-batch", "batch-timeout-us",
        "max-queue", "cache-size", "k", "trace-sample", "shards",
        "max-connections", "watch-bundle"}},
      {"top", {"host", "port", "interval-ms", "count"}},
  };
  return flags;
}

// Every integer flag and the least value it takes. Parse rejects a value
// that is not an integer or is below its minimum before any command reads
// a file or starts a thread: a negative count would otherwise wrap to
// 2^64 - 1 when cast to size_t.
const std::map<std::string, int64_t>& IntFlagMinimums() {
  static const std::map<std::string, int64_t> minimums = {
      {"batch-timeout-us", 0}, {"cache-size", 0},
      {"count", 0},            {"epochs", 1},
      {"folds", 2},            {"groups", 1},
      {"interval-ms", 0},      {"k", 1},
      {"k-negatives", 1},      {"max-batch", 1},
      {"max-connections", 1},  {"max-queue", 1},
      {"port", 0},             {"profile-hz", 1},
      {"query", 0},            {"seed", INT64_MIN},
      {"shards", 1},           {"threads", 0},
      {"trace-sample", 0},     {"votes", 1},
      {"watch-bundle", 0},     {"workers", 1},
  };
  return minimums;
}

// Every floating-point flag and the value it must exceed. Parse rejects a
// value that is not a finite number above its floor: a loss temperature
// of 0, below 0, NaN or infinity has no meaning.
const std::map<std::string, double>& DoubleFlagFloors() {
  static const std::map<std::string, double> floors = {{"eta", 0.0}};
  return floors;
}

Result<Args> Parse(int argc, char** argv) {
  if (argc < 2) return Status::InvalidArgument("missing command");
  Args args;
  args.command = argv[1];
  const auto allowed = CommandFlags().find(args.command);
  if (allowed == CommandFlags().end()) {
    return Status::InvalidArgument("unknown command: " + args.command);
  }
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0) {
      return Status::InvalidArgument("expected --flag, got: " + flag);
    }
    if (i + 1 >= argc) {
      return Status::InvalidArgument("flag needs a value: " + flag);
    }
    const std::string name = flag.substr(2);
    if (allowed->second.count(name) == 0 && CommonFlags().count(name) == 0) {
      return Status::InvalidArgument("unknown flag --" + name +
                                     " for command '" + args.command + "'");
    }
    const std::string value = argv[++i];
    const auto minimum = IntFlagMinimums().find(name);
    if (minimum != IntFlagMinimums().end()) {
      int64_t v = 0;
      if (!ParseInt(value, &v)) {
        return Status::InvalidArgument("--" + name +
                                       " wants an integer, got '" + value +
                                       "'");
      }
      if (v < minimum->second) {
        return Status::InvalidArgument(StrFormat(
            "--%s must be >= %lld, got %lld", name.c_str(),
            static_cast<long long>(minimum->second),
            static_cast<long long>(v)));
      }
    }
    const auto floor = DoubleFlagFloors().find(name);
    if (floor != DoubleFlagFloors().end()) {
      double v = 0.0;
      if (!ParseDouble(value, &v) || !std::isfinite(v)) {
        return Status::InvalidArgument("--" + name +
                                       " wants a finite number, got '" +
                                       value + "'");
      }
      if (!(v > floor->second)) {
        return Status::InvalidArgument(StrFormat(
            "--%s must be > %g, got %s", name.c_str(), floor->second,
            value.c_str()));
      }
    }
    args.flags[name] = value;
  }
  return args;
}

// ---------------------------------------------------------- observability

// Wired from the common --log-level/--metrics-out/--trace-out flags before
// command dispatch; Finish() flushes trace and metric files afterwards.
// Commands that train pass `observers` into RllTrainerOptions.
struct ObsSession {
  std::string metrics_path;
  std::string trace_path;
  std::string profile_path;
  std::unique_ptr<obs::JsonlObserver> jsonl;
  std::unique_ptr<obs::MetricsObserver> metrics;
  std::unique_ptr<obs::ProgressObserver> progress;
  std::vector<obs::TrainerObserver*> observers;
};

Result<ObsSession> SetupObservability(const Args& args) {
  const std::string level = args.Get("log-level", "");
  if (!level.empty()) {
    if (level == "debug") {
      SetLogLevel(LogLevel::kDebug);
    } else if (level == "info") {
      SetLogLevel(LogLevel::kInfo);
    } else if (level == "warning") {
      SetLogLevel(LogLevel::kWarning);
    } else if (level == "error") {
      SetLogLevel(LogLevel::kError);
    } else {
      return Status::InvalidArgument("unknown --log-level: " + level +
                                     " (want debug|info|warning|error)");
    }
  }
  ObsSession session;
  session.metrics_path = args.Get("metrics-out", "");
  session.trace_path = args.Get("trace-out", "");
  if (!session.metrics_path.empty()) {
    session.jsonl = std::make_unique<obs::JsonlObserver>(session.metrics_path);
    RLL_RETURN_IF_ERROR(session.jsonl->status());
    session.metrics = std::make_unique<obs::MetricsObserver>();
    session.observers.push_back(session.jsonl.get());
    session.observers.push_back(session.metrics.get());
  }
  session.progress = std::make_unique<obs::ProgressObserver>(5);
  session.observers.push_back(session.progress.get());
  if (!session.trace_path.empty()) obs::SetTracingEnabled(true);
  session.profile_path = args.Get("profile-out", "");
  if (args.Has("profile-hz") && session.profile_path.empty()) {
    return Status::InvalidArgument("--profile-hz requires --profile-out");
  }
  if (!session.profile_path.empty()) {
    obs::ProfilerOptions options;
    const int64_t hz = args.GetInt("profile-hz", options.hz);
    if (hz < 1 || hz > obs::kMaxProfileHz) {
      return Status::InvalidArgument(
          StrFormat("--profile-hz must be in [1, %d]", obs::kMaxProfileHz));
    }
    options.hz = static_cast<int>(hz);
    RLL_RETURN_IF_ERROR(obs::StartCpuProfiler(options));
  }
  return session;
}

int FinishObservability(ObsSession* session) {
  int rc = 0;
  if (session->jsonl != nullptr) {
    session->jsonl->Close();
    if (!session->jsonl->status().ok()) {
      std::fprintf(stderr, "%s\n",
                   session->jsonl->status().ToString().c_str());
      rc = 1;
    }
    // Append the registry dump so one file carries both the per-epoch
    // series and the end-of-run aggregates.
    std::ofstream out(session->metrics_path, std::ios::app);
    if (!out.is_open()) {
      std::fprintf(stderr, "cannot append metrics to %s\n",
                   session->metrics_path.c_str());
      rc = 1;
    } else {
      out << obs::MetricRegistry::Global().ExportJsonl();
    }
  }
  if (!session->trace_path.empty()) {
    obs::SetTracingEnabled(false);
    std::ofstream out(session->trace_path);
    if (!out.is_open()) {
      std::fprintf(stderr, "cannot open %s for write\n",
                   session->trace_path.c_str());
      rc = 1;
    } else {
      out << obs::TraceToChromeJson();
    }
  }
  if (!session->profile_path.empty()) {
    obs::StopCpuProfiler();
    std::ofstream out(session->profile_path);
    if (!out.is_open()) {
      std::fprintf(stderr, "cannot open %s for write\n",
                   session->profile_path.c_str());
      rc = 1;
    } else {
      // A .json destination gets the aggregated report; anything else the
      // collapsed stacks flamegraph.pl expects.
      const std::string& path = session->profile_path;
      const bool json = path.size() >= 5 &&
                        path.compare(path.size() - 5, 5, ".json") == 0;
      out << (json ? obs::ProfileToJson() : obs::ProfileToFolded());
      if (json) out << "\n";
    }
  }
  return rc;
}

// Training-path commands print their fully-resolved configuration to
// stderr so logs capture the exact run parameters, defaults included.
void EchoRunConfig(const Args& args, crowd::ConfidenceMode mode,
                   const core::RllPipelineOptions& options, bool with_folds) {
  std::fprintf(
      stderr,
      "run config: command=%s mode=%s seed=%lld epochs=%d groups=%zu "
      "k-negatives=%zu eta=%g threads=%zu%s\n",
      args.command.c_str(), crowd::ConfidenceModeName(mode),
      static_cast<long long>(args.GetInt("seed", 7)), options.trainer.epochs,
      options.trainer.groups_per_epoch, options.trainer.negatives_per_group,
      options.trainer.eta, GlobalThreadCount(),
      with_folds ? StrFormat(" folds=%zu", options.folds).c_str() : "");
}

Result<data::Dataset> LoadAnnotatedDataset(const Args& args) {
  const std::string features = args.Get("features", "");
  const std::string annotations = args.Get("annotations", "");
  if (features.empty() || annotations.empty()) {
    return Status::InvalidArgument(
        "--features and --annotations are required");
  }
  RLL_ASSIGN_OR_RETURN(data::Dataset dataset,
                       data::LoadFeaturesCsv(features));
  RLL_RETURN_IF_ERROR(data::LoadAnnotationsCsv(annotations, &dataset));
  return dataset;
}

Result<crowd::ConfidenceMode> ParseMode(const std::string& mode) {
  if (mode == "none") return crowd::ConfidenceMode::kNone;
  if (mode == "mle") return crowd::ConfidenceMode::kMle;
  if (mode == "bayesian") return crowd::ConfidenceMode::kBayesian;
  if (mode == "worker") return crowd::ConfidenceMode::kWorkerAware;
  return Status::InvalidArgument("unknown --mode: " + mode);
}

core::RllPipelineOptions PipelineOptionsFrom(const Args& args,
                                             crowd::ConfidenceMode mode,
                                             const ObsSession& obs_session) {
  core::RllPipelineOptions options;
  options.trainer.model.hidden_dims = {64, 32};
  options.trainer.epochs = static_cast<int>(args.GetInt("epochs", 15));
  options.trainer.groups_per_epoch =
      static_cast<size_t>(args.GetInt("groups", 1024));
  options.trainer.negatives_per_group =
      static_cast<size_t>(args.GetInt("k-negatives", 3));
  options.trainer.eta = args.GetDouble("eta", 10.0);
  options.trainer.confidence_mode = mode;
  options.trainer.observers = obs_session.observers;
  options.folds = static_cast<size_t>(args.GetInt("folds", 5));
  return options;
}

// ------------------------------------------------------------------ synth

int RunSynth(const Args& args) {
  const std::string preset = args.Get("preset", "oral");
  data::SyntheticConfig config;
  if (preset == "oral") {
    config = data::OralSimConfig();
  } else if (preset == "class") {
    config = data::ClassSimConfig();
  } else {
    std::fprintf(stderr, "unknown --preset: %s\n", preset.c_str());
    return 2;
  }
  const std::string features = args.Get("features", "");
  const std::string annotations = args.Get("annotations", "");
  if (features.empty() || annotations.empty()) {
    std::fprintf(stderr, "--features and --annotations are required\n");
    return 2;
  }

  // Each example's votes come from distinct workers.
  const size_t workers = static_cast<size_t>(args.GetInt("workers", 25));
  const size_t votes = static_cast<size_t>(args.GetInt("votes", 5));
  if (votes > workers) {
    std::fprintf(stderr, "--votes must be <= --workers (%zu), got %zu\n",
                 workers, votes);
    return 2;
  }

  Rng rng(static_cast<uint64_t>(args.GetInt("seed", 42)));
  data::Dataset dataset = GenerateSynthetic(config, &rng);
  crowd::WorkerPool pool({.num_workers = workers}, &rng);
  pool.Annotate(&dataset, votes, &rng);

  Status status = data::SaveFeaturesCsv(features, dataset);
  if (status.ok()) status = data::SaveAnnotationsCsv(annotations, dataset);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu examples (%zu features, pos fraction %.3f) to %s\n",
              dataset.size(), dataset.dim(), dataset.PositiveFraction(),
              features.c_str());
  std::printf("wrote %zu-vote annotations to %s\n", votes,
              annotations.c_str());
  return 0;
}

// -------------------------------------------------------------- aggregate

int RunAggregate(const Args& args) {
  auto dataset = LoadAnnotatedDataset(args);
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
    return 1;
  }
  const std::string method = args.Get("method", "mv");
  std::unique_ptr<crowd::Aggregator> aggregator;
  if (method == "mv") {
    aggregator = std::make_unique<crowd::MajorityVote>();
  } else if (method == "em") {
    aggregator = std::make_unique<crowd::DawidSkene>();
  } else if (method == "glad") {
    aggregator = std::make_unique<crowd::Glad>();
  } else if (method == "iwmv") {
    aggregator = std::make_unique<crowd::Iwmv>();
  } else {
    std::fprintf(stderr, "unknown --method: %s\n", method.c_str());
    return 2;
  }

  auto result = aggregator->Run(*dataset);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  const auto metrics =
      classify::Evaluate(dataset->true_labels(), result->labels);
  std::printf("%s on %zu examples (%d iterations%s):\n",
              aggregator->name().c_str(), dataset->size(),
              result->iterations, result->converged ? "" : ", NOT converged");
  std::printf("  label recovery: %s\n", ToString(metrics).c_str());
  std::printf("  AUC of posterior: %.3f\n",
              classify::RocAuc(dataset->true_labels(),
                               result->prob_positive));
  auto agreement = crowd::ComputeAgreement(*dataset);
  if (agreement.ok()) {
    std::printf("  inter-annotator: kappa=%.3f unanimous=%.1f%%\n",
                agreement->fleiss_kappa,
                100.0 * agreement->unanimous_fraction);
  }
  if (!result->worker_quality.empty()) {
    std::printf("  worker quality:");
    for (size_t w = 0; w < result->worker_quality.size(); ++w) {
      std::printf(" %zu:%.2f", w, result->worker_quality[w]);
    }
    std::printf("\n");
  }
  return 0;
}

// --------------------------------------------------------------- evaluate

int RunEvaluate(const Args& args, const ObsSession& obs_session) {
  auto dataset = LoadAnnotatedDataset(args);
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
    return 1;
  }
  auto mode = ParseMode(args.Get("mode", "bayesian"));
  if (!mode.ok()) {
    std::fprintf(stderr, "%s\n", mode.status().ToString().c_str());
    return 2;
  }
  const core::RllPipelineOptions options =
      PipelineOptionsFrom(args, *mode, obs_session);
  // Every fold needs at least one row to hold out.
  if (options.folds > dataset->size()) {
    std::fprintf(stderr,
                 "--folds must be <= the %zu loaded rows, got %zu\n",
                 dataset->size(), options.folds);
    return 2;
  }
  EchoRunConfig(args, *mode, options, /*with_folds=*/true);
  Rng rng(static_cast<uint64_t>(args.GetInt("seed", 7)));
  auto outcome = core::RunRllCrossValidation(*dataset, options, &rng);
  if (!outcome.ok()) {
    std::fprintf(stderr, "%s\n", outcome.status().ToString().c_str());
    return 1;
  }
  std::printf("RLL (%s confidence), %zu-fold CV on %zu examples:\n",
              crowd::ConfidenceModeName(*mode), options.folds,
              dataset->size());
  std::printf("  mean : %s\n", ToString(outcome->mean).c_str());
  std::printf("  std  : %s\n", ToString(outcome->stddev).c_str());
  for (size_t f = 0; f < outcome->per_fold.size(); ++f) {
    std::printf("  fold %zu: %s\n", f, ToString(outcome->per_fold[f]).c_str());
  }
  return 0;
}

// ------------------------------------------------------------------ train

// Writes a model bundle (see core/model_bundle.h for the file format).
int RunTrain(const Args& args, const ObsSession& obs_session) {
  auto dataset = LoadAnnotatedDataset(args);
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
    return 1;
  }
  const std::string model_path = args.Get("model", "");
  if (model_path.empty()) {
    std::fprintf(stderr, "--model is required\n");
    return 2;
  }
  auto mode = ParseMode(args.Get("mode", "bayesian"));
  if (!mode.ok()) {
    std::fprintf(stderr, "%s\n", mode.status().ToString().c_str());
    return 2;
  }
  const core::RllPipelineOptions options =
      PipelineOptionsFrom(args, *mode, obs_session);
  EchoRunConfig(args, *mode, options, /*with_folds=*/false);

  Rng rng(static_cast<uint64_t>(args.GetInt("seed", 7)));
  data::Standardizer standardizer;
  const Matrix features = standardizer.FitTransform(dataset->features());
  const std::vector<int> labels = dataset->MajorityVoteLabels();
  const std::vector<double> confidence = crowd::LabelConfidence(
      *dataset, labels, *mode, options.trainer.prior_strength);

  core::RllTrainer trainer(options.trainer, &rng);
  auto summary = trainer.Train(features, labels, confidence);
  if (!summary.ok()) {
    std::fprintf(stderr, "%s\n", summary.status().ToString().c_str());
    return 1;
  }

  auto bundle = core::ModelBundle::Create(standardizer, trainer.model(),
                                          &rng);
  Status status =
      bundle.ok() ? bundle->Save(model_path) : bundle.status();
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("trained %d epochs (final group NLL %.4f) on %zu examples\n",
              options.trainer.epochs, summary->epoch_losses.back(),
              dataset->size());
  std::printf("model bundle written to %s\n", model_path.c_str());
  return 0;
}

// ------------------------------------------------------------------ embed

int RunEmbed(const Args& args) {
  const std::string features_path = args.Get("features", "");
  const std::string model_path = args.Get("model", "");
  const std::string output_path = args.Get("output", "");
  if (features_path.empty() || model_path.empty() || output_path.empty()) {
    std::fprintf(stderr, "--features, --model and --output are required\n");
    return 2;
  }
  auto dataset = data::LoadFeaturesCsv(features_path);
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
    return 1;
  }

  auto bundle = core::ModelBundle::Load(model_path);
  if (!bundle.ok()) {
    std::fprintf(stderr, "%s\n", bundle.status().ToString().c_str());
    return 1;
  }
  auto embedded = bundle->Embed(dataset->features());
  if (!embedded.ok()) {
    std::fprintf(stderr, "%s\n", embedded.status().ToString().c_str());
    return 1;
  }
  const Matrix& embeddings = *embedded;

  std::ofstream out(output_path);
  if (!out.is_open()) {
    std::fprintf(stderr, "cannot open %s for write\n", output_path.c_str());
    return 1;
  }
  for (size_t c = 0; c < embeddings.cols(); ++c) out << "e" << c << ",";
  out << "label\n";
  for (size_t r = 0; r < embeddings.rows(); ++r) {
    for (size_t c = 0; c < embeddings.cols(); ++c) {
      out << StrFormat("%.8g", embeddings(r, c)) << ",";
    }
    out << dataset->true_label(r) << "\n";
  }
  std::printf("wrote %zu %zu-dim embeddings to %s\n", embeddings.rows(),
              embeddings.cols(), output_path.c_str());
  return 0;
}

// --------------------------------------------------------------- describe

int RunDescribe(const Args& args) {
  const std::string features_path = args.Get("features", "");
  if (features_path.empty()) {
    std::fprintf(stderr, "--features is required\n");
    return 2;
  }
  auto dataset = data::LoadFeaturesCsv(features_path);
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
    return 1;
  }
  std::printf("%zu examples, %zu features, positive fraction %.3f "
              "(pos:neg = %.2f)\n",
              dataset->size(), dataset->dim(), dataset->PositiveFraction(),
              dataset->PositiveFraction() /
                  std::max(1e-9, 1.0 - dataset->PositiveFraction()));

  const std::string annotations_path = args.Get("annotations", "");
  if (annotations_path.empty()) return 0;
  Status status = data::LoadAnnotationsCsv(annotations_path,
                                           &dataset.value());
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("%zu distinct workers\n", dataset->NumWorkers());
  auto agreement = crowd::ComputeAgreement(*dataset);
  if (agreement.ok()) {
    std::printf("agreement: kappa=%.3f observed=%.3f unanimous=%.1f%% "
                "MV-accuracy=%.3f\n",
                agreement->fleiss_kappa, agreement->observed_agreement,
                100.0 * agreement->unanimous_fraction,
                agreement->majority_vote_accuracy);
    std::printf("positive-vote histogram:");
    for (size_t v = 0; v < agreement->vote_histogram.size(); ++v) {
      std::printf(" %zu:%zu", v, agreement->vote_histogram[v]);
    }
    std::printf("\n");
  } else {
    std::printf("(agreement stats unavailable: %s)\n",
                agreement.status().ToString().c_str());
  }
  return 0;
}

// ------------------------------------------------------------------- tune

int RunTune(const Args& args, const ObsSession& obs_session) {
  auto dataset = LoadAnnotatedDataset(args);
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
    return 1;
  }
  core::TuningOptions options;
  options.pipeline = PipelineOptionsFrom(
      args, crowd::ConfidenceMode::kBayesian, obs_session);
  EchoRunConfig(args, crowd::ConfidenceMode::kBayesian, options.pipeline,
                /*with_folds=*/false);
  Rng rng(static_cast<uint64_t>(args.GetInt("seed", 7)));
  const std::vector<double> grid = {1.0, 2.0, 5.0, 10.0, 20.0};
  auto result = core::TuneEta(*dataset, options, &rng, grid);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("held-out eta selection (%.0f%% holdout, majority-vote "
              "target):\n",
              100.0 * options.held_out_fraction);
  for (size_t i = 0; i < grid.size(); ++i) {
    std::printf("  eta=%-5.1f held-out acc=%.3f%s\n", grid[i],
                result->held_out_accuracy[i],
                grid[i] == result->best_value ? "  <-- selected" : "");
  }
  return 0;
}

// --------------------------------------------------------------- retrieve

int RunRetrieve(const Args& args) {
  const std::string features_path = args.Get("features", "");
  const std::string model_path = args.Get("model", "");
  if (features_path.empty() || model_path.empty() || !args.Has("query")) {
    std::fprintf(stderr, "--features, --model and --query are required\n");
    return 2;
  }
  auto dataset = data::LoadFeaturesCsv(features_path);
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
    return 1;
  }
  const int64_t query = args.GetInt("query", 0);
  if (static_cast<size_t>(query) >= dataset->size()) {
    std::fprintf(stderr, "--query out of range [0, %zu)\n", dataset->size());
    return 2;
  }
  auto bundle = core::ModelBundle::Load(model_path);
  if (!bundle.ok()) {
    std::fprintf(stderr, "%s\n", bundle.status().ToString().c_str());
    return 1;
  }
  auto embeddings = bundle->Embed(dataset->features());
  if (!embeddings.ok()) {
    std::fprintf(stderr, "%s\n", embeddings.status().ToString().c_str());
    return 1;
  }
  core::EmbeddingIndex index;
  if (!index.Build(*embeddings).ok()) {
    std::fprintf(stderr, "index build failed\n");
    return 1;
  }
  const size_t k = static_cast<size_t>(args.GetInt("k", 5));
  auto neighbors = index.Query(
      embeddings->Row(static_cast<size_t>(query)), k + 1);
  if (!neighbors.ok()) {
    std::fprintf(stderr, "%s\n", neighbors.status().ToString().c_str());
    return 1;
  }
  std::printf("nearest neighbours of example %lld (label %d):\n",
              static_cast<long long>(query),
              dataset->true_label(static_cast<size_t>(query)));
  for (const core::Neighbor& n : *neighbors) {
    if (n.index == static_cast<size_t>(query)) continue;
    std::printf("  example %-6zu label %d  cosine %.4f\n", n.index,
                dataset->true_label(n.index), n.similarity);
  }
  return 0;
}

// ------------------------------------------------------------------ serve

// Written by the SIGINT/SIGTERM handler; polled by the accept loop so
// Ctrl-C produces a graceful drain instead of an abort.
volatile std::sig_atomic_t g_stop_requested = 0;
void HandleStopSignal(int /*signum*/) { g_stop_requested = 1; }

int RunServe(const Args& args) {
  const std::string model_path = args.Get("model", "");
  if (model_path.empty()) {
    std::fprintf(stderr, "--model is required\n");
    return 2;
  }
  auto bundle = core::ModelBundle::Load(model_path);
  if (!bundle.ok()) {
    std::fprintf(stderr, "%s\n", bundle.status().ToString().c_str());
    return 1;
  }

  // The corpus (a features CSV with expert labels) enables predict and
  // neighbors; without it the server only answers embed requests.
  data::Dataset corpus;
  const data::Dataset* corpus_ptr = nullptr;
  const std::string corpus_path = args.Get("corpus", "");
  if (!corpus_path.empty()) {
    auto loaded = data::LoadFeaturesCsv(corpus_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
      return 1;
    }
    corpus = std::move(*loaded);
    corpus_ptr = &corpus;
  }

  serve::ServerCoreOptions core_options;
  core_options.batcher.max_batch =
      static_cast<size_t>(args.GetInt("max-batch", 32));
  core_options.batcher.batch_timeout_us = args.GetInt("batch-timeout-us", 200);
  core_options.batcher.max_queue =
      static_cast<size_t>(args.GetInt("max-queue", 256));
  core_options.cache_capacity =
      static_cast<size_t>(args.GetInt("cache-size", 1024));
  core_options.default_k = static_cast<size_t>(args.GetInt("k", 5));
  core_options.trace_sample_every =
      static_cast<uint64_t>(args.GetInt("trace-sample", 0));
  const size_t shards = static_cast<size_t>(args.GetInt("shards", 1));
  // One index shard per event-plane worker. A neighbors query scans the
  // shards one after another on the worker that handles it, so the count
  // changes the partition, not the answer (core/sharded_index.h).
  core_options.shards = shards;
  auto server_core = serve::ServerCore::Create(std::move(*bundle), corpus_ptr,
                                               core_options, model_path);
  if (!server_core.ok()) {
    std::fprintf(stderr, "%s\n", server_core.status().ToString().c_str());
    return 1;
  }
  serve::ServerCore* core = server_core->get();

  // The reload thread serves reloadz verbs and, with --watch-bundle N,
  // polls the model file every N ms and swaps on mtime change.
  const long long watch_ms = args.GetInt("watch-bundle", 0);
  serve::ReloadManagerOptions reload_options;
  reload_options.watch_path = model_path;
  reload_options.watch_interval_ms = watch_ms;
  serve::ReloadManager reload_manager(core, reload_options);
  reload_manager.Start();
  core->SetReloadRequestHandler([&reload_manager](const std::string& path) {
    return reload_manager.RequestReload(path);
  });

  serve::EventServerOptions server_options;
  server_options.host = args.Get("host", "127.0.0.1");
  server_options.port = static_cast<int>(args.GetInt("port", 0));
  server_options.shards = shards;
  server_options.max_connections =
      static_cast<size_t>(args.GetInt("max-connections", 1024));
  serve::EventServer server(server_options, core);
  Status status = server.Start();
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }

  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  // Scraped by scripts (and the CI smoke test) to find the bound port, so
  // it goes to stdout and is flushed before the blocking accept loop.
  std::printf("serving on %s:%d\n", server_options.host.c_str(),
              server.port());
  std::fflush(stdout);
  std::fprintf(stderr,
               "model=%s corpus=%zu rows predict=%s neighbors=%s "
               "max-batch=%zu batch-timeout-us=%lld max-queue=%zu "
               "cache-size=%zu trace-sample=%llu shards=%zu "
               "watch-bundle=%lld\n",
               model_path.c_str(), core->corpus_size(),
               core->supports_predict() ? "on" : "off",
               core->supports_neighbors() ? "on" : "off",
               core_options.batcher.max_batch,
               static_cast<long long>(core_options.batcher.batch_timeout_us),
               core_options.batcher.max_queue, core_options.cache_capacity,
               static_cast<unsigned long long>(
                   core_options.trace_sample_every),
               shards, watch_ms);

  status = server.Serve(&g_stop_requested);
  server.Stop();
  reload_manager.Stop();
  core->Shutdown();
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  const serve::MicroBatcher& batcher = core->batcher();
  std::fprintf(stderr,
               "serve summary: batches=%llu rows=%llu max-batch-observed=%llu "
               "rejected=%llu cache-hit-rate=%.3f\n",
               static_cast<unsigned long long>(batcher.batches_run()),
               static_cast<unsigned long long>(batcher.rows_batched()),
               static_cast<unsigned long long>(batcher.max_batch_observed()),
               static_cast<unsigned long long>(batcher.rejected()),
               core->cache().HitRate());
  return 0;
}

// -------------------------------------------------------------------- top
//
// `rll_cli top` scrapes a running server's metricsz on an interval and
// renders a one-screen summary, like top(1) for the serving stack. Each
// scrape opens a fresh connection, so it also exercises the accept path.

int ConnectTcp(const std::string& host, int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Sends one request line and reads one newline-terminated response.
Result<std::string> RequestOverTcp(const std::string& host, int port,
                                   const std::string& line) {
  const int fd = ConnectTcp(host, port);
  if (fd < 0) {
    return Status::IOError("cannot connect to " + host + ":" +
                           std::to_string(port));
  }
  const std::string out = line + "\n";
  size_t sent = 0;
  while (sent < out.size()) {
    const ssize_t n = ::send(fd, out.data() + sent, out.size() - sent, 0);
    if (n <= 0) {
      ::close(fd);
      return Status::IOError("send failed");
    }
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    response.append(buffer, static_cast<size_t>(n));
    if (response.find('\n') != std::string::npos) break;
  }
  ::close(fd);
  const size_t eol = response.find('\n');
  if (eol == std::string::npos) {
    return Status::IOError("connection closed before a full response line");
  }
  response.resize(eol);
  return response;
}

const serve::JsonValue* FindPath(const serve::JsonValue* root,
                                 const std::vector<const char*>& path) {
  for (const char* key : path) {
    if (root == nullptr) return nullptr;
    root = root->Find(key);
  }
  return root;
}

double NumberAt(const serve::JsonValue* root,
                const std::vector<const char*>& path, double fallback) {
  const serve::JsonValue* v = FindPath(root, path);
  return v != nullptr && v->is_number() ? v->number : fallback;
}

/// Sums the "serve_requests_total{...}" members of the cumulative metrics
/// object whose type is embed, predict or neighbors: the data-plane
/// requests the windowed rate counts. Admin requests are left out, so a
/// scrape never counts itself. `errors_only` restricts to entries whose
/// status label != ok.
double SumRequestCounters(const serve::JsonValue* metrics, bool errors_only) {
  if (metrics == nullptr || !metrics->is_object()) return 0.0;
  double total = 0.0;
  for (const auto& [key, value] : metrics->object) {
    if (key.rfind("serve_requests_total{", 0) != 0 || !value.is_number()) {
      continue;
    }
    bool data_plane = false;
    for (const char* type :
         {"type=\"embed\"", "type=\"predict\"", "type=\"neighbors\""}) {
      data_plane = data_plane || key.find(type) != std::string::npos;
    }
    if (!data_plane) continue;
    if (errors_only && key.find("status=\"ok\"") != std::string::npos) {
      continue;
    }
    total += value.number;
  }
  return total;
}

int RunTop(const Args& args) {
  const std::string host = args.Get("host", "127.0.0.1");
  const int port = static_cast<int>(args.GetInt("port", 0));
  if (port <= 0) {
    std::fprintf(stderr, "--port is required\n");
    return 2;
  }
  const int64_t interval_ms = args.GetInt("interval-ms", 1000);
  const int64_t count = args.GetInt("count", 0);  // 0 = until Ctrl-C.
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);
  const bool tty = ::isatty(STDOUT_FILENO) != 0;

  for (int64_t scrape = 0; (count == 0 || scrape < count) &&
                           g_stop_requested == 0;
       ++scrape) {
    if (scrape > 0) {
      // Sleep in short slices so Ctrl-C stays responsive mid-interval.
      int64_t remaining = interval_ms;
      while (remaining > 0 && g_stop_requested == 0) {
        const int64_t slice = std::min<int64_t>(remaining, 50);
        std::this_thread::sleep_for(std::chrono::milliseconds(slice));
        remaining -= slice;
      }
      if (g_stop_requested != 0) break;
    }

    Stopwatch rtt;
    auto line = RequestOverTcp(host, port,
                               "{\"id\":\"top\",\"type\":\"metricsz\"}");
    const double rtt_ms = rtt.ElapsedMillis();
    if (!line.ok()) {
      std::fprintf(stderr, "%s\n", line.status().ToString().c_str());
      return 1;
    }
    auto doc = serve::ParseJson(*line);
    if (!doc.ok()) {
      std::fprintf(stderr, "unparseable metricsz response: %s\n",
                   doc.status().ToString().c_str());
      return 1;
    }
    const serve::JsonValue* ok = doc->Find("ok");
    if (ok == nullptr || !ok->is_bool() || !ok->boolean) {
      std::fprintf(stderr, "metricsz answered an error: %s\n",
                   line->c_str());
      return 1;
    }
    const serve::JsonValue* payload = doc->Find("payload");
    const serve::JsonValue* cumulative =
        FindPath(payload, {"cumulative", "metrics"});

    const double uptime_s = NumberAt(payload, {"uptime_s"}, 0.0);
    const double total_requests =
        SumRequestCounters(cumulative, /*errors_only=*/false);
    const double total_errors =
        SumRequestCounters(cumulative, /*errors_only=*/true);
    const double window_rate =
        NumberAt(payload, {"windowed", "requests", "rate_per_sec"}, 0.0);
    const double window_seconds =
        NumberAt(payload, {"windowed", "requests", "window_seconds"}, 0.0);
    const double p50 =
        NumberAt(payload, {"windowed", "latency_ms", "all", "p50"}, 0.0);
    const double p95 =
        NumberAt(payload, {"windowed", "latency_ms", "all", "p95"}, 0.0);
    const double p99 =
        NumberAt(payload, {"windowed", "latency_ms", "all", "p99"}, 0.0);
    const double queue_depth =
        NumberAt(cumulative, {"serve_queue_depth"}, 0.0);
    const double mean_batch =
        NumberAt(cumulative, {"serve_batch_size", "mean"}, 0.0);
    const double batches =
        NumberAt(cumulative, {"serve_batches_total"}, 0.0);
    const double rejected =
        NumberAt(cumulative, {"serve_rejected_total"}, 0.0);
    const double hits =
        NumberAt(cumulative, {"serve_cache_hits_total"}, 0.0);
    const double misses =
        NumberAt(cumulative, {"serve_cache_misses_total"}, 0.0);
    const double hit_rate =
        hits + misses > 0.0 ? hits / (hits + misses) : 0.0;

    if (tty) std::printf("\x1b[H\x1b[2J");  // Home + clear: refresh in place.
    std::printf("rll top — %s:%d   scrape %lld   uptime %.1fs   rtt %.2fms\n",
                host.c_str(), port, static_cast<long long>(scrape + 1),
                uptime_s, rtt_ms);
    std::printf(
        "requests   total %.0f   errors %.0f   %.1f/s over %.1fs window\n",
        total_requests, total_errors, window_rate, window_seconds);
    std::printf("latency ms windowed p50 %.3f   p95 %.3f   p99 %.3f\n", p50,
                p95, p99);
    std::printf(
        "batcher    batches %.0f   mean batch %.2f   queue depth %.0f   "
        "rejected %.0f\n",
        batches, mean_batch, queue_depth, rejected);
    std::printf("cache      hits %.0f   misses %.0f   hit rate %.3f\n", hits,
                misses, hit_rate);
    std::fflush(stdout);
  }
  return 0;
}

int Dispatch(const Args& args, const ObsSession& obs_session) {
  if (args.command == "synth") return RunSynth(args);
  if (args.command == "describe") return RunDescribe(args);
  if (args.command == "aggregate") return RunAggregate(args);
  if (args.command == "evaluate") return RunEvaluate(args, obs_session);
  if (args.command == "tune") return RunTune(args, obs_session);
  if (args.command == "train") return RunTrain(args, obs_session);
  if (args.command == "embed") return RunEmbed(args);
  if (args.command == "retrieve") return RunRetrieve(args);
  if (args.command == "serve") return RunServe(args);
  if (args.command == "top") return RunTop(args);
  std::fprintf(stderr, "unknown command: %s\n", args.command.c_str());
  return Usage();
}

int Main(int argc, char** argv) {
  // Before SetupObservability: the profiler captures each thread's name at
  // registration, and starting with --profile-out registers this thread.
  SetCurrentThreadName("rll-main");
  auto args = Parse(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "%s\n", args.status().ToString().c_str());
    return Usage();
  }
  const int64_t threads = args->GetInt("threads", 0);
  if (threads > 0) SetGlobalThreads(static_cast<size_t>(threads));
  auto obs_session = SetupObservability(*args);
  if (!obs_session.ok()) {
    std::fprintf(stderr, "%s\n", obs_session.status().ToString().c_str());
    return 2;
  }
  const int rc = Dispatch(*args, *obs_session);
  const int obs_rc = FinishObservability(&obs_session.value());
  return rc != 0 ? rc : obs_rc;
}

}  // namespace
}  // namespace rll::cli

int main(int argc, char** argv) { return rll::cli::Main(argc, argv); }
