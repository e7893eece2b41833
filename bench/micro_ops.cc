// Microbenchmarks of the substrate the experiments run on: dense kernels,
// autograd forward/backward, RLL group sampling and training steps, and
// aggregator iterations. Run in Release mode for meaningful numbers.
//
// Unlike the table harnesses (which take --json via bench_common.h), this
// binary uses google-benchmark's native machine-readable output:
//   ./micro_ops --benchmark_out=micro.json --benchmark_out_format=json
// It does honor --threads N (stripped before google-benchmark sees the
// flag) to size the global thread pool for the parallel kernels.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "autograd/ops.h"
#include "common/arena.h"
#include "common/stopwatch.h"
#include "common/thread_registry.h"
#include "common/threading.h"
#include "obs/alloc_count.h"
#include "obs/profiler.h"
#include "baselines/raykar.h"
#include "classify/logistic_regression.h"
#include "classify/pca.h"
#include "core/embedding_index.h"
#include "core/group_sampler.h"
#include "core/rll_model.h"
#include "crowd/dawid_skene.h"
#include "crowd/glad.h"
#include "crowd/iwmv.h"
#include "crowd/worker_pool.h"
#include "data/synthetic.h"
#include "nn/mlp.h"
#include "nn/optimizer.h"
#include "tensor/init.h"
#include "tensor/ops.h"
#include "text/linguistic_features.h"
#include "text/text_dataset.h"

namespace rll {
namespace {

// Attaches an "allocs_per_op" user counter to the enclosing benchmark:
// operator-new calls made during the timed loop divided by iterations.
// Construct it immediately before `for (auto _ : state)` so setup
// allocations stay out of the count. Surfaces in the JSON output, where
// tools/gate treats it as its own lower-is-better metric — loops that are
// allocation-free at steady state pin (near) zero and CI holds them there.
// No-op when the build does not define RLL_COUNT_ALLOCS.
class AllocCounter {
 public:
  explicit AllocCounter(benchmark::State& state)
      : state_(state), start_(obs::AllocationCount()) {}
  ~AllocCounter() { Done(); }

  /// Call immediately after the timed loop when the benchmark does more
  /// work before returning (SetItemsProcessed and friends allocate, and
  /// scope exit would charge that to the loop).
  void Done() {
    if (done_) return;
    done_ = true;
    if (!obs::AllocCountingActive() || state_.iterations() == 0) return;
    state_.counters["allocs_per_op"] =
        static_cast<double>(obs::AllocationCount() - start_) /
        static_cast<double>(state_.iterations());
  }

 private:
  benchmark::State& state_;
  const uint64_t start_;
  bool done_ = false;
};

// out = op(A)·op(B) through one reused output, the way every caller runs
// the kernel; GFLOP/s counts 2·m·n·k flops per call. Expected
// allocs_per_op: 0, Bᵀ included (its packing buffer is warmed by the
// first call).
void BM_Gemm(benchmark::State& state, size_t m, size_t k, size_t n,
             bool trans_a, bool trans_b) {
  Rng rng(1);
  const Matrix a =
      trans_a ? RandomNormal(k, m, &rng) : RandomNormal(m, k, &rng);
  const Matrix b =
      trans_b ? RandomNormal(n, k, &rng) : RandomNormal(k, n, &rng);
  Matrix out;
  Gemm(a, trans_a, b, trans_b, out);  // Warm the buffers.
  AllocCounter allocs(state);
  for (auto _ : state) {
    Gemm(a, trans_a, b, trans_b, out);
    benchmark::DoNotOptimize(out.data());
  }
  allocs.Done();
  state.counters["GFLOP/s"] = benchmark::Counter(
      2e-9 * static_cast<double>(m * n * k) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
// One 64-group RLL training step through the 16→64→32 encoder: forward
// X·W₁ and H·W₂, backward dY·W₂ᵀ, Hᵀ·dY and Xᵀ·dH.
BENCHMARK_CAPTURE(BM_Gemm, train_x_w1, 64, 16, 64, false, false);
BENCHMARK_CAPTURE(BM_Gemm, train_h_w2, 64, 64, 32, false, false);
BENCHMARK_CAPTURE(BM_Gemm, train_dy_w2t, 64, 32, 64, false, true);
BENCHMARK_CAPTURE(BM_Gemm, train_ht_dy, 64, 64, 32, true, false);
BENCHMARK_CAPTURE(BM_Gemm, train_xt_dh, 16, 64, 64, true, false);
// Both encoder layers of a 1-row and a 16-row serve embed.
BENCHMARK_CAPTURE(BM_Gemm, serve1_l1, 1, 16, 64, false, false);
BENCHMARK_CAPTURE(BM_Gemm, serve1_l2, 1, 64, 32, false, false);
BENCHMARK_CAPTURE(BM_Gemm, serve16_l1, 16, 16, 64, false, false);
BENCHMARK_CAPTURE(BM_Gemm, serve16_l2, 16, 64, 32, false, false);
BENCHMARK_CAPTURE(BM_Gemm, square64, 64, 64, 64, false, false);
BENCHMARK_CAPTURE(BM_Gemm, square256, 256, 256, 256, false, false);

// The tanh kernel over 4096 elements in place; time_per_elem is the time
// per element (seconds in the JSON output). The kernel evaluates both of
// its branches on every lane, so applying it again to its own (shrinking)
// output times the same work as fresh input. Expected allocs_per_op: 0.
void BM_Tanh(benchmark::State& state) {
  constexpr size_t kElems = 4096;
  Rng rng(4);
  Matrix m = RandomNormal(kElems, 1, &rng, 0.0, 2.0);
  AllocCounter allocs(state);
  for (auto _ : state) {
    TanhInPlace(m);
    benchmark::DoNotOptimize(m.data());
    benchmark::ClobberMemory();
  }
  allocs.Done();
  state.counters["time_per_elem"] = benchmark::Counter(
      static_cast<double>(kElems) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_Tanh);

void BM_RowCosine(benchmark::State& state) {
  Rng rng(2);
  Matrix a = RandomNormal(256, 32, &rng);
  Matrix b = RandomNormal(256, 32, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RowCosine(a, b));
  }
}
BENCHMARK(BM_RowCosine);

void BM_MlpForward(benchmark::State& state) {
  Rng rng(3);
  nn::Mlp mlp({.dims = {16, 64, 32}}, &rng);
  Matrix x = RandomNormal(64, 16, &rng);
  AllocCounter allocs(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mlp.Embed(x));
  }
}
BENCHMARK(BM_MlpForward);

void BM_MlpEmbedWorkspace(benchmark::State& state) {
  // BM_MlpForward minus the result copy: EmbedInto against a caller
  // workspace is the serve batcher's steady-state call, here at 1 and 16
  // rows (serve batches) and 64 (a training batch). Expected
  // allocs_per_op: 0 after the first pass warms the buffers.
  Rng rng(3);
  nn::Mlp mlp({.dims = {16, 64, 32}}, &rng);
  Matrix x = RandomNormal(static_cast<size_t>(state.range(0)), 16, &rng);
  Workspace ws;
  mlp.EmbedInto(x, ws);
  AllocCounter allocs(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mlp.EmbedInto(x, ws));
  }
}
BENCHMARK(BM_MlpEmbedWorkspace)->Arg(1)->Arg(16)->Arg(64);

void BM_MlpForwardBackward(benchmark::State& state) {
  Rng rng(4);
  nn::Mlp mlp({.dims = {16, 64, 32}}, &rng);
  nn::Adam adam(mlp.Parameters(), {});
  Matrix x = RandomNormal(64, 16, &rng);
  for (auto _ : state) {
    adam.ZeroGrad();
    ag::Var loss = ag::Mean(ag::Square(mlp.Forward(ag::Constant(x))));
    ag::Backward(loss);
    adam.Step();
  }
}
BENCHMARK(BM_MlpForwardBackward);

void BM_GroupSampling(benchmark::State& state) {
  Rng rng(5);
  std::vector<int> labels(880);
  for (size_t i = 0; i < labels.size(); ++i) labels[i] = rng.Bernoulli(0.64);
  core::GroupSampler sampler(labels, {.negatives_per_group = 3});
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Sample(1024, &rng));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_GroupSampling);

void BM_RllTrainingStepArena(benchmark::State& state) {
  // One batch (64 groups, k = 3) through the paper-scale encoder —
  // forward, loss, backward, Adam — on the arena memory plane, the shape
  // RllTrainer runs: graph nodes, gradients, and index blocks land in an
  // arena that Reset() recycles between steps. Expected allocs_per_op: 0
  // once the first step has sized the chunks.
  Rng rng(6);
  data::Dataset d = GenerateSynthetic(data::OralSimConfig(), &rng);
  core::RllModel model(
      {.input_dim = d.dim(), .hidden_dims = {64, 32}}, &rng);
  nn::Adam adam(model.Parameters(), {});
  std::vector<int> labels = d.true_labels();
  core::GroupSampler sampler(labels, {.negatives_per_group = 3});
  auto groups = sampler.Sample(64, &rng);
  std::vector<size_t> anchors, slot0, slot1, slot2, slot3;
  for (const core::Group& g : *groups) {
    anchors.push_back(g.anchor);
    slot0.push_back(g.positive);
    slot1.push_back(g.negatives[0]);
    slot2.push_back(g.negatives[1]);
    slot3.push_back(g.negatives[2]);
  }
  const std::vector<std::vector<size_t>*> slots = {&slot0, &slot1, &slot2,
                                                   &slot3};
  std::vector<Matrix> conf(4, Matrix(64, 1, 0.9));
  Arena arena;
  const auto step = [&] {
    {
      ArenaScope scope(&arena);
      ag::Var anchor_emb = model.Forward(
          ag::Constant(d.features().GatherRows(anchors.data(), 64)));
      ag::VarList cands;
      cands.reserve(4);
      MatrixList slot_conf(conf.begin(), conf.end());
      for (const auto* slot : slots) {
        cands.push_back(model.Forward(
            ag::Constant(d.features().GatherRows(slot->data(), 64))));
      }
      ag::Var loss = core::GroupNllLoss(anchor_emb, cands, slot_conf, 10.0);
      ag::Backward(loss);
      adam.Step();
      // Inside the scope, like the trainer: the arena-backed grads must
      // be released while their headers are intact.
      adam.ZeroGrad();
    }
    arena.Reset();
  };
  step();  // Size the arena chunks; the timed loop is the steady state.
  AllocCounter allocs(state);
  for (auto _ : state) {
    step();
  }
  allocs.Done();
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_RllTrainingStepArena);

data::Dataset AnnotatedDataset(size_t votes) {
  Rng rng(7);
  data::Dataset d = GenerateSynthetic(data::OralSimConfig(), &rng);
  crowd::WorkerPool pool({.num_workers = 25}, &rng);
  pool.Annotate(&d, votes, &rng);
  return d;
}

void BM_DawidSkene(benchmark::State& state) {
  data::Dataset d = AnnotatedDataset(5);
  crowd::DawidSkene ds;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ds.Run(d));
  }
}
BENCHMARK(BM_DawidSkene);

void BM_Glad(benchmark::State& state) {
  data::Dataset d = AnnotatedDataset(5);
  crowd::Glad glad;
  for (auto _ : state) {
    benchmark::DoNotOptimize(glad.Run(d));
  }
}
BENCHMARK(BM_Glad);

void BM_WorkerAnnotation(benchmark::State& state) {
  Rng rng(8);
  data::Dataset d = GenerateSynthetic(data::OralSimConfig(), &rng);
  crowd::WorkerPool pool({.num_workers = 25}, &rng);
  for (auto _ : state) {
    pool.Annotate(&d, 5, &rng);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(d.size() * 5));
}
BENCHMARK(BM_WorkerAnnotation);

void BM_SyntheticGeneration(benchmark::State& state) {
  Rng rng(9);
  const data::SyntheticConfig config = data::OralSimConfig();
  for (auto _ : state) {
    benchmark::DoNotOptimize(GenerateSynthetic(config, &rng));
  }
}
BENCHMARK(BM_SyntheticGeneration);

void BM_Iwmv(benchmark::State& state) {
  data::Dataset d = AnnotatedDataset(5);
  crowd::Iwmv iwmv;
  for (auto _ : state) {
    benchmark::DoNotOptimize(iwmv.Run(d));
  }
}
BENCHMARK(BM_Iwmv);

void BM_RaykarEm(benchmark::State& state) {
  data::Dataset d = AnnotatedDataset(5);
  baselines::RaykarOptions options;
  options.max_em_iterations = 10;
  for (auto _ : state) {
    benchmark::DoNotOptimize(baselines::FitRaykar(d, options));
  }
}
BENCHMARK(BM_RaykarEm);

void BM_PcaFit(benchmark::State& state) {
  Rng rng(10);
  Matrix x = RandomNormal(880, 16, &rng);
  for (auto _ : state) {
    classify::Pca pca({.num_components = 8});
    benchmark::DoNotOptimize(pca.Fit(x));
  }
}
BENCHMARK(BM_PcaFit);

// LogisticRegression::Fit to its default tolerance on 32-dim embeddings:
// at the fold shape (704 train rows, perfbench train's classify.fit_ms)
// and at the serve corpus shape (20,000 rows, serve set-up's and every
// reload's classify.head_fit_ms). `iterations` is the Newton steps a fit
// takes; allocs_per_op counts the fit's own buffers and metric lookups.
void BM_LogisticRegressionFit(benchmark::State& state, size_t rows) {
  Rng rng(12);
  const Matrix x = RandomNormal(rows, 32, &rng);
  std::vector<int> labels(rows);
  for (size_t i = 0; i < rows; ++i) {
    labels[i] = x(i, 0) + rng.Normal() > 0.0 ? 1 : 0;
  }
  classify::LogisticRegression lr;
  AllocCounter allocs(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lr.Fit(x, labels));
  }
  state.counters["iterations"] = lr.iterations();
}
BENCHMARK_CAPTURE(BM_LogisticRegressionFit, fold_704x32, 704)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_LogisticRegressionFit, serve_20000x32, 20000)
    ->Unit(benchmark::kMillisecond);

// The fit's worst case, every step to the cap: 17×8 features x·e^{4·N(0,1)}
// under random labels (the cap case of LogisticRegressionTest.
// StopsAboveTheToleranceAndCountsIt), where the line search halves α
// several times a step.
void BM_LogisticRegressionFitToTheCap(benchmark::State& state) {
  Rng rng(9);
  Matrix x = RandomNormal(17, 8, &rng);
  for (size_t i = 0; i < x.size(); ++i) x[i] *= std::exp(4.0 * rng.Normal());
  std::vector<int> labels(x.rows());
  for (int& label : labels) label = rng.Bernoulli(0.5) ? 1 : 0;
  classify::LogisticRegression lr;
  AllocCounter allocs(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lr.Fit(x, labels));
  }
  state.counters["iterations"] = lr.iterations();
}
BENCHMARK(BM_LogisticRegressionFitToTheCap)->Unit(benchmark::kMillisecond);

void BM_TranscriptGeneration(benchmark::State& state) {
  Rng rng(11);
  const text::SpeakerProfile profile;
  const text::Vocabulary& v = text::Vocabulary::Default();
  for (auto _ : state) {
    benchmark::DoNotOptimize(text::GenerateTranscript(profile, v, 120, &rng));
  }
}
BENCHMARK(BM_TranscriptGeneration);

void BM_LinguisticFeatureExtraction(benchmark::State& state) {
  Rng rng(12);
  const text::Vocabulary& v = text::Vocabulary::Default();
  const text::Transcript t =
      text::GenerateTranscript(text::SpeakerProfile{}, v, 120, &rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(text::ExtractFeatures(t, v));
  }
}
BENCHMARK(BM_LinguisticFeatureExtraction);

void BM_ProfilerOverhead(benchmark::State& state) {
  // Cost of running the sampling profiler at its default 99 Hz: each
  // iteration times the same reused-buffer gemm burst twice, unprofiled
  // then profiled, and the accumulated ratio lands in "overhead_ratio"
  // (1.0 = free). tools/gate pins it lower-is-better; the ROADMAP target
  // is <= 1.05. Interleaving the two bursts inside one iteration cancels
  // machine drift that back-to-back runs would absorb into the ratio.
  Rng rng(1);
  const size_t n = 64;
  Matrix a = RandomNormal(n, n, &rng);
  Matrix b = RandomNormal(n, n, &rng);
  Matrix out;
  Gemm(a, false, b, false, out);  // Warm the buffer.
  constexpr int kReps = 200;
  if (obs::CpuProfilerRunning()) {
    state.SkipWithError("profiler already armed (--profile-out?)");
    return;
  }
  double base_ms = 0.0;
  double profiled_ms = 0.0;
  for (auto _ : state) {
    Stopwatch unprofiled;
    for (int r = 0; r < kReps; ++r) {
      Gemm(a, false, b, false, out);
      benchmark::DoNotOptimize(out.data());
    }
    base_ms += unprofiled.ElapsedMillis();
    if (!obs::StartCpuProfiler({.hz = 99}).ok()) {
      state.SkipWithError("StartCpuProfiler failed");
      return;
    }
    Stopwatch profiled;
    for (int r = 0; r < kReps; ++r) {
      Gemm(a, false, b, false, out);
      benchmark::DoNotOptimize(out.data());
    }
    profiled_ms += profiled.ElapsedMillis();
    obs::StopCpuProfiler();
    obs::ClearProfile();  // Keep per-thread buffers from filling up.
  }
  if (base_ms > 0.0) {
    state.counters["overhead_ratio"] = profiled_ms / base_ms;
  }
}
BENCHMARK(BM_ProfilerOverhead);

void BM_EmbeddingIndexQuery(benchmark::State& state) {
  Rng rng(13);
  Matrix corpus = RandomNormal(880, 32, &rng);
  core::EmbeddingIndex index;
  if (!index.Build(corpus).ok()) return;
  Matrix query = RandomNormal(1, 32, &rng);
  index.Query(query, 10);  // Warm the per-thread scratch buffers.
  AllocCounter allocs(state);
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.Query(query, 10));
  }
}
BENCHMARK(BM_EmbeddingIndexQuery);

}  // namespace
}  // namespace rll

int main(int argc, char** argv) {
  rll::SetCurrentThreadName("rll-bench-main");
  // Strip --threads N (and the profiler flags) before google-benchmark
  // rejects them as unknown.
  std::string profile_out;
  int profile_hz = 0;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      rll::SetGlobalThreads(
          static_cast<size_t>(std::strtoull(argv[i + 1], nullptr, 10)));
      ++i;
      continue;
    }
    if (std::strcmp(argv[i], "--profile-out") == 0 && i + 1 < argc) {
      profile_out = argv[++i];
      continue;
    }
    if (std::strcmp(argv[i], "--profile-hz") == 0 && i + 1 < argc) {
      profile_hz = static_cast<int>(std::strtol(argv[++i], nullptr, 10));
      continue;
    }
    argv[kept++] = argv[i];
  }
  argc = kept;
  if (!profile_out.empty()) {
    // Whole-run profile; BM_ProfilerOverhead skips itself when it finds
    // the profiler already armed.
    rll::obs::ProfilerOptions options;
    if (profile_hz > 0) options.hz = profile_hz;
    const rll::Status started = rll::obs::StartCpuProfiler(options);
    if (!started.ok()) {
      std::fprintf(stderr, "%s\n", started.ToString().c_str());
      return 1;
    }
  }
  // Results move 2-4x with the GEMM and tanh kernels' vector level.
  benchmark::AddCustomContext("kernel_isa", rll::KernelIsa());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!profile_out.empty()) {
    rll::obs::StopCpuProfiler();
    std::FILE* f = std::fopen(profile_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s for write\n", profile_out.c_str());
      return 1;
    }
    const bool json =
        profile_out.size() >= 5 &&
        profile_out.compare(profile_out.size() - 5, 5, ".json") == 0;
    const std::string profile = json ? rll::obs::ProfileToJson() + "\n"
                                     : rll::obs::ProfileToFolded();
    std::fwrite(profile.data(), 1, profile.size(), f);
    std::fclose(f);
  }
  return 0;
}
