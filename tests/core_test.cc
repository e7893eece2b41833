// Tests for the RLL core: group sampler invariants, the confidence-weighted
// group loss (values + gradients), trainer behaviour, and the CV pipeline.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "autograd/gradcheck.h"
#include "common/threading.h"
#include "core/embedding_eval.h"
#include "core/embedding_index.h"
#include "core/group_sampler.h"
#include "core/model_bundle.h"
#include "core/pipeline.h"
#include "core/rll_model.h"
#include "core/rll_trainer.h"
#include "crowd/worker_pool.h"
#include "data/synthetic.h"
#include "tensor/init.h"
#include "tensor/ops.h"

namespace rll::core {
namespace {

// Small, fast synthetic dataset with crowd annotations.
data::Dataset SmallAnnotatedDataset(Rng* rng, size_t n = 160) {
  data::SyntheticConfig config;
  config.num_examples = n;
  config.positive_fraction = 0.6;
  config.linear_dims = 4;
  config.xor_dims = 2;
  config.noise_dims = 4;
  config.clusters_per_class = 2;
  config.linear_sep = 1.6;
  config.xor_sep = 2.6;
  config.cluster_spread = 0.8;
  data::Dataset d = GenerateSynthetic(config, rng);
  crowd::WorkerPool pool({.num_workers = 12}, rng);
  pool.Annotate(&d, 5, rng);
  return d;
}

RllTrainerOptions FastTrainerOptions() {
  RllTrainerOptions options;
  options.model.hidden_dims = {16, 8};
  options.epochs = 6;
  options.groups_per_epoch = 256;
  options.batch_size = 32;
  return options;
}

// ------------------------------------------------------------ GroupSampler

TEST(GroupSamplerTest, GroupInvariants) {
  Rng rng(1);
  std::vector<int> labels(50);
  for (size_t i = 0; i < labels.size(); ++i) labels[i] = i % 3 == 0;
  GroupSampler sampler(labels, {.negatives_per_group = 4});
  auto groups = sampler.Sample(500, &rng);
  ASSERT_TRUE(groups.ok());
  ASSERT_EQ(groups->size(), 500u);
  for (const Group& g : *groups) {
    EXPECT_NE(g.anchor, g.positive);
    EXPECT_EQ(labels[g.anchor], 1);
    EXPECT_EQ(labels[g.positive], 1);
    EXPECT_EQ(g.negatives.size(), 4u);
    std::set<size_t> negs(g.negatives.begin(), g.negatives.end());
    EXPECT_EQ(negs.size(), 4u);  // Distinct negatives.
    for (size_t neg : g.negatives) EXPECT_EQ(labels[neg], 0);
  }
}

TEST(GroupSamplerTest, CoversAllPositivesAsAnchors) {
  Rng rng(2);
  std::vector<int> labels = {1, 1, 1, 1, 0, 0, 0, 0};
  GroupSampler sampler(labels, {.negatives_per_group = 2});
  auto groups = sampler.Sample(400, &rng);
  ASSERT_TRUE(groups.ok());
  std::set<size_t> anchors;
  for (const Group& g : *groups) anchors.insert(g.anchor);
  EXPECT_EQ(anchors.size(), 4u);
}

TEST(GroupSamplerTest, FailsWithTooFewPositives) {
  Rng rng(3);
  GroupSampler sampler({1, 0, 0, 0}, {.negatives_per_group = 2});
  EXPECT_EQ(sampler.Sample(1, &rng).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(GroupSamplerTest, FailsWithTooFewNegatives) {
  Rng rng(4);
  GroupSampler sampler({1, 1, 0}, {.negatives_per_group = 2});
  EXPECT_EQ(sampler.Sample(1, &rng).status().code(),
            StatusCode::kFailedPrecondition);
}

// ------------------------------------------------------------ GroupNllLoss

TEST(GroupLossTest, PerfectRetrievalGivesLowLoss) {
  // Anchor identical to the positive, orthogonal to negatives → with high
  // η the softmax should put almost all mass on slot 0.
  Matrix anchor = {{1.0, 0.0}, {0.0, 1.0}};
  Matrix pos = anchor;
  Matrix neg = {{-1.0, 0.0}, {0.0, -1.0}};
  MatrixList conf(2, Matrix(2, 1, 1.0));
  ag::Var loss = GroupNllLoss(ag::Constant(anchor),
                              {ag::Constant(pos), ag::Constant(neg)}, conf,
                              /*eta=*/10.0);
  EXPECT_LT(loss->value(0, 0), 1e-6);
}

TEST(GroupLossTest, UniformScoresGiveLogK1) {
  // All candidates equally similar → loss = log(#candidates).
  Matrix anchor = {{1.0, 0.0}};
  Matrix cand = {{1.0, 0.0}};
  MatrixList conf(4, Matrix(1, 1, 1.0));
  ag::Var loss = GroupNllLoss(
      ag::Constant(anchor),
      {ag::Constant(cand), ag::Constant(cand), ag::Constant(cand),
       ag::Constant(cand)},
      conf, 10.0);
  EXPECT_NEAR(loss->value(0, 0), std::log(4.0), 1e-9);
}

TEST(GroupLossTest, LowConfidencePositiveRaisesItsWeightInLossLess) {
  // Down-weighting the positive slot's δ shrinks its score, making the
  // same geometry yield a larger loss.
  Matrix anchor = {{1.0, 0.2}};
  Matrix pos = {{0.9, 0.3}};
  Matrix neg = {{-0.5, 1.0}};
  MatrixList full_conf = {Matrix(1, 1, 1.0), Matrix(1, 1, 1.0)};
  MatrixList weak_conf = {Matrix(1, 1, 0.3), Matrix(1, 1, 1.0)};
  ag::Var strong = GroupNllLoss(
      ag::Constant(anchor), {ag::Constant(pos), ag::Constant(neg)},
      full_conf, 5.0);
  ag::Var weak = GroupNllLoss(
      ag::Constant(anchor), {ag::Constant(pos), ag::Constant(neg)},
      weak_conf, 5.0);
  EXPECT_GT(weak->value(0, 0), strong->value(0, 0));
}

TEST(GroupLossTest, GradCheckThroughEmbeddings) {
  Rng rng(5);
  ag::Var anchor = ag::Parameter(RandomNormal(3, 4, &rng));
  ag::Var pos = ag::Parameter(RandomNormal(3, 4, &rng));
  ag::Var neg1 = ag::Parameter(RandomNormal(3, 4, &rng));
  ag::Var neg2 = ag::Parameter(RandomNormal(3, 4, &rng));
  MatrixList conf;
  for (int s = 0; s < 3; ++s) {
    Matrix c(3, 1);
    for (size_t i = 0; i < 3; ++i) c(i, 0) = 0.3 + 0.2 * (s + 1);
    conf.push_back(c);
  }
  auto r = ag::CheckGradients({anchor, pos, neg1, neg2}, [&] {
    return GroupNllLoss(anchor, {pos, neg1, neg2}, conf, 8.0);
  });
  EXPECT_LT(r.max_relative_error, 1e-5);
}

// ---------------------------------------------------------------- RllModel

TEST(RllModelTest, EmbedShapeAndBounds) {
  Rng rng(6);
  RllModel model({.input_dim = 10, .hidden_dims = {8, 4}}, &rng);
  EXPECT_EQ(model.embedding_dim(), 4u);
  Matrix x = RandomNormal(5, 10, &rng);
  Matrix e = model.Embed(x);
  EXPECT_EQ(e.rows(), 5u);
  EXPECT_EQ(e.cols(), 4u);
  for (size_t i = 0; i < e.size(); ++i) {
    EXPECT_GE(e[i], -1.0);
    EXPECT_LE(e[i], 1.0);
  }
}

// --------------------------------------------------------------- RllTrainer

TEST(RllTrainerTest, LossDecreasesOverTraining) {
  Rng rng(8);
  data::Dataset d = SmallAnnotatedDataset(&rng);
  RllTrainer trainer(FastTrainerOptions(), &rng);
  auto summary = trainer.Train(d.features(), d.MajorityVoteLabels(),
                               std::vector<double>(d.size(), 1.0));
  ASSERT_TRUE(summary.ok());
  ASSERT_EQ(summary->epoch_losses.size(), 6u);
  EXPECT_LT(summary->epoch_losses.back(), summary->epoch_losses.front());
}

TEST(RllTrainerTest, TrainedEmbeddingsSeparateClasses) {
  Rng rng(9);
  data::Dataset d = SmallAnnotatedDataset(&rng);
  RllTrainerOptions options = FastTrainerOptions();
  options.epochs = 10;
  RllTrainer trainer(options, &rng);
  const std::vector<int> labels = d.MajorityVoteLabels();
  ASSERT_TRUE(trainer
                  .Train(d.features(), labels,
                         std::vector<double>(d.size(), 1.0))
                  .ok());
  // Mean intra-class cosine must exceed mean inter-class cosine.
  const Matrix emb = trainer.model().Embed(d.features());
  double intra = 0.0, inter = 0.0;
  size_t intra_n = 0, inter_n = 0;
  for (size_t i = 0; i < d.size(); i += 3) {
    for (size_t j = i + 1; j < d.size(); j += 3) {
      Matrix a = emb.Row(i);
      Matrix b = emb.Row(j);
      const double cos = RowCosine(a, b)(0, 0);
      if (d.true_label(i) == d.true_label(j)) {
        intra += cos;
        ++intra_n;
      } else {
        inter += cos;
        ++inter_n;
      }
    }
  }
  EXPECT_GT(intra / intra_n, inter / inter_n + 0.2);
}

TEST(RllTrainerTest, ValidationTracksAndRestoresBest) {
  Rng rng(60);
  data::Dataset d = SmallAnnotatedDataset(&rng, 200);
  RllTrainerOptions options = FastTrainerOptions();
  options.epochs = 12;
  options.validation_fraction = 0.25;
  options.patience = 3;
  options.validation_groups = 128;
  RllTrainer trainer(options, &rng);
  auto summary = trainer.Train(d.features(), d.MajorityVoteLabels(),
                               std::vector<double>(d.size(), 1.0));
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  ASSERT_FALSE(summary->validation_losses.empty());
  EXPECT_EQ(summary->validation_losses.size(),
            summary->epoch_losses.size());
  // best_epoch is the argmin of the validation curve.
  size_t argmin = 0;
  for (size_t e = 1; e < summary->validation_losses.size(); ++e) {
    if (summary->validation_losses[e] <
        summary->validation_losses[argmin]) {
      argmin = e;
    }
  }
  EXPECT_EQ(static_cast<size_t>(summary->best_epoch), argmin);
  if (summary->stopped_early) {
    EXPECT_LT(summary->epoch_losses.size(),
              static_cast<size_t>(options.epochs));
  }
}

TEST(RllTrainerTest, ValidationRejectsTinyDatasets) {
  Rng rng(61);
  RllTrainerOptions options = FastTrainerOptions();
  options.validation_fraction = 0.2;
  RllTrainer trainer(options, &rng);
  // 10 examples → 2-example validation split cannot form groups.
  Matrix x(10, 4);
  std::vector<int> labels = {1, 1, 1, 1, 1, 0, 0, 0, 0, 0};
  EXPECT_EQ(trainer.Train(x, labels, std::vector<double>(10, 1.0))
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
}

TEST(RllTrainerTest, ValidationFractionBoundsChecked) {
  Rng rng(62);
  RllTrainerOptions options = FastTrainerOptions();
  options.validation_fraction = 1.0;
  RllTrainer trainer(options, &rng);
  Matrix x(20, 4);
  std::vector<int> labels(20, 0);
  for (size_t i = 0; i < 10; ++i) labels[i] = 1;
  EXPECT_EQ(trainer.Train(x, labels, std::vector<double>(20, 1.0))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(GroupSamplerTest, ExcludedLabelsNeverSampled) {
  Rng rng(63);
  // Index 2 and 5 are held out (-1): they must appear in no group.
  std::vector<int> labels = {1, 1, -1, 0, 0, -1, 1, 0};
  GroupSampler sampler(labels, {.negatives_per_group = 2});
  auto groups = sampler.Sample(200, &rng);
  ASSERT_TRUE(groups.ok());
  for (const Group& g : *groups) {
    EXPECT_NE(g.anchor, 2u);
    EXPECT_NE(g.anchor, 5u);
    EXPECT_NE(g.positive, 2u);
    EXPECT_NE(g.positive, 5u);
    for (size_t neg : g.negatives) {
      EXPECT_NE(neg, 2u);
      EXPECT_NE(neg, 5u);
    }
  }
}

TEST(RllTrainerTest, ValidatesInputSizes) {
  Rng rng(10);
  RllTrainer trainer(FastTrainerOptions(), &rng);
  Matrix x(10, 4);
  EXPECT_FALSE(trainer.Train(x, std::vector<int>(9, 1),
                             std::vector<double>(10, 1.0))
                   .ok());
  EXPECT_FALSE(trainer.Train(x, std::vector<int>(10, 1),
                             std::vector<double>(10, 2.0))
                   .ok());  // Confidence > 1.
  EXPECT_FALSE(
      trainer.Train(Matrix(), {}, {}).ok());
}

TEST(RllTrainerTest, FailsWhenGroupsInfeasible) {
  Rng rng(11);
  RllTrainer trainer(FastTrainerOptions(), &rng);
  Matrix x(5, 3);
  // All positive: no negatives to sample.
  EXPECT_FALSE(trainer.Train(x, std::vector<int>(5, 1),
                             std::vector<double>(5, 1.0))
                   .ok());
}

// ----------------------------------------------------------- EmbeddingEval

TEST(EmbeddingEvalTest, PerfectlySeparatedClusters) {
  // Class 1 along +x, class 0 along −x: margin ≈ 2, silhouette ≈ 1.
  Matrix emb = {{1, 0.01}, {1, -0.01}, {-1, 0.01}, {-1, -0.01}};
  const std::vector<int> labels = {1, 1, 0, 0};
  const EmbeddingQuality q = EvaluateEmbeddings(emb, labels);
  EXPECT_GT(q.intra_class_cosine, 0.99);
  EXPECT_LT(q.inter_class_cosine, -0.99);
  EXPECT_GT(q.cosine_margin, 1.9);
  EXPECT_GT(q.silhouette, 0.9);
  EXPECT_DOUBLE_EQ(KnnAccuracy(emb, labels, 1), 1.0);
}

TEST(EmbeddingEvalTest, RandomEmbeddingsHaveNoMargin) {
  Rng rng(40);
  Matrix emb = RandomNormal(60, 8, &rng);
  std::vector<int> labels(60);
  for (size_t i = 0; i < labels.size(); ++i) labels[i] = rng.Bernoulli(0.5);
  const EmbeddingQuality q = EvaluateEmbeddings(emb, labels);
  EXPECT_NEAR(q.cosine_margin, 0.0, 0.1);
  EXPECT_NEAR(q.silhouette, 0.0, 0.1);
  EXPECT_NEAR(KnnAccuracy(emb, labels, 5), 0.5, 0.2);
}

TEST(EmbeddingEvalTest, KnnTiesGoToTheLowerIndex) {
  // Rows 0-2 are one point, so each one's 1-NN ties between the other
  // two; for rows 1 and 2 those two have different labels. Rows 3-4 are
  // another point. With ties to the lower index rows 0-2 predict 0, 1, 1
  // and all miss (0.4 overall); ties to the higher index would give 0.8.
  const Matrix emb = {{1, 0}, {1, 0}, {1, 0}, {-1, 0}, {-1, 0}};
  const std::vector<int> labels = {1, 0, 0, 1, 1};
  EXPECT_DOUBLE_EQ(KnnAccuracy(emb, labels, 1), 0.4);
}

TEST(EmbeddingEvalTest, TrainingImprovesIntrinsicQuality) {
  Rng rng(41);
  data::Dataset d = SmallAnnotatedDataset(&rng);
  RllTrainerOptions options = FastTrainerOptions();
  options.epochs = 10;
  RllTrainer trainer(options, &rng);
  const std::vector<int> labels = d.MajorityVoteLabels();
  ASSERT_TRUE(trainer
                  .Train(d.features(), labels,
                         std::vector<double>(d.size(), 1.0))
                  .ok());
  const EmbeddingQuality before =
      EvaluateEmbeddings(d.features(), d.true_labels());
  const EmbeddingQuality after =
      EvaluateEmbeddings(trainer.model().Embed(d.features()),
                         d.true_labels());
  EXPECT_GT(after.cosine_margin, before.cosine_margin);
}

// ---------------------------------------------------------- EmbeddingIndex

TEST(EmbeddingIndexTest, ExactSelfMatch) {
  Rng rng(42);
  Matrix corpus = RandomNormal(20, 6, &rng);
  EmbeddingIndex index;
  ASSERT_TRUE(index.Build(corpus).ok());
  for (size_t q : {0u, 7u, 19u}) {
    auto neighbors = index.Query(corpus.Row(q), 1);
    ASSERT_TRUE(neighbors.ok());
    EXPECT_EQ((*neighbors)[0].index, q);
    EXPECT_NEAR((*neighbors)[0].similarity, 1.0, 1e-9);
  }
}

TEST(EmbeddingIndexTest, ResultsSortedBySimilarity) {
  Rng rng(43);
  Matrix corpus = RandomNormal(30, 4, &rng);
  EmbeddingIndex index;
  ASSERT_TRUE(index.Build(corpus).ok());
  auto neighbors = index.Query(RandomNormal(1, 4, &rng), 10);
  ASSERT_TRUE(neighbors.ok());
  ASSERT_EQ(neighbors->size(), 10u);
  for (size_t i = 1; i < neighbors->size(); ++i) {
    EXPECT_GE((*neighbors)[i - 1].similarity, (*neighbors)[i].similarity);
  }
}

TEST(EmbeddingIndexTest, KClampedToCorpusSize) {
  Matrix corpus = {{1, 0}, {0, 1}};
  EmbeddingIndex index;
  ASSERT_TRUE(index.Build(corpus).ok());
  auto neighbors = index.Query(Matrix({{1, 1}}), 99);
  ASSERT_TRUE(neighbors.ok());
  EXPECT_EQ(neighbors->size(), 2u);
}

TEST(EmbeddingIndexTest, CosineIsScaleInvariant) {
  Matrix corpus = {{2, 0}, {0, 5}};
  EmbeddingIndex index;
  ASSERT_TRUE(index.Build(corpus).ok());
  auto neighbors = index.Query(Matrix({{100, 1}}), 1);
  ASSERT_TRUE(neighbors.ok());
  EXPECT_EQ((*neighbors)[0].index, 0u);  // Direction, not magnitude.
}

TEST(EmbeddingIndexTest, AddGrowsCorpus) {
  Matrix corpus = {{1, 0}};
  EmbeddingIndex index;
  ASSERT_TRUE(index.Build(corpus).ok());
  auto added = index.Add(Matrix({{0, 1}}));
  ASSERT_TRUE(added.ok());
  EXPECT_EQ(*added, 1u);
  EXPECT_EQ(index.size(), 2u);
  auto neighbors = index.Query(Matrix({{0, 2}}), 1);
  ASSERT_TRUE(neighbors.ok());
  EXPECT_EQ((*neighbors)[0].index, 1u);
}

TEST(EmbeddingIndexTest, QueryIdenticalAcrossThreadCounts) {
  // 16,384 × 32 multiply-adds are past Gemm's serial floor, so threads 2
  // and 4 split the scan over the pool. Every similarity must equal a
  // naive left-to-right dot over the normalized rows, bit for bit, ranked
  // by (similarity desc, index asc).
  constexpr size_t kRows = 16384, kDim = 32;
  Rng rng(44);
  const Matrix corpus = RandomNormal(kRows, kDim, &rng);
  const Matrix query = RandomNormal(1, kDim, &rng);
  auto unit = [](const double* row) {
    std::vector<double> out(row, row + kDim);
    double norm = 0.0;
    for (double v : out) norm += v * v;
    norm = std::max(std::sqrt(norm), 1e-12);
    for (double& v : out) v /= norm;
    return out;
  };
  const std::vector<double> q = unit(query.data());
  std::vector<Neighbor> expected(kRows);
  for (size_t r = 0; r < kRows; ++r) {
    const std::vector<double> row = unit(corpus.row_data(r));
    double dot = 0.0;
    for (size_t c = 0; c < kDim; ++c) dot += row[c] * q[c];
    expected[r] = {r, dot};
  }
  std::sort(expected.begin(), expected.end(),
            [](const Neighbor& a, const Neighbor& b) {
              if (a.similarity != b.similarity) {
                return a.similarity > b.similarity;
              }
              return a.index < b.index;
            });

  EmbeddingIndex index;
  ASSERT_TRUE(index.Build(corpus).ok());
  for (size_t threads : {1u, 2u, 4u}) {
    SetGlobalThreads(threads);
    auto got = index.Query(query, kRows);
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(got->size(), kRows);
    for (size_t i = 0; i < kRows; ++i) {
      ASSERT_EQ((*got)[i].index, expected[i].index)
          << "threads " << threads << " rank " << i;
      // Bitwise, not approximate.
      ASSERT_EQ((*got)[i].similarity, expected[i].similarity)
          << "threads " << threads << " rank " << i;
    }
  }
  SetGlobalThreads(0);
}

TEST(EmbeddingIndexTest, ErrorContracts) {
  EmbeddingIndex index;
  EXPECT_EQ(index.Query(Matrix({{1.0}}), 1).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_FALSE(index.Build(Matrix()).ok());
  ASSERT_TRUE(index.Build(Matrix({{1, 0}})).ok());
  EXPECT_FALSE(index.Query(Matrix({{1, 0, 0}}), 1).ok());  // Dim mismatch.
  EXPECT_FALSE(index.Query(Matrix({{1, 0}}), 0).ok());     // k = 0.
  EXPECT_FALSE(index.Add(Matrix({{1, 0, 0}})).ok());
}

// -------------------------------------------------------------- ModelBundle

// A well-formed v2 bundle for a dims=2,3 tanh encoder: header, mean,
// stddev, weight, bias. Tests corrupt one piece at a time.
constexpr char kTinyHeader[] =
    "rll-bundle v2 dims=2,3 hidden=tanh output=tanh\n";
constexpr char kTinyBody[] =
    "matrix 1 2\n0 0\nmatrix 1 2\n1 1\n"
    "matrix 2 3\n1 2 3 4 5 6\nmatrix 1 3\n0 0 0\n";

Result<ModelBundle> LoadText(const std::string& text) {
  // One file per test: ctest runs each test in its own process, in
  // parallel, and a shared path lets one test load another's bundle.
  const std::string path =
      ::testing::TempDir() + "/bundle_text_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".ckpt";
  {
    std::ofstream f(path);
    f << text;
  }
  return ModelBundle::Load(path);
}

TEST(ModelBundleTest, SaveLoadEmbedRoundTrip) {
  Rng rng(50);
  Matrix raw = RandomNormal(20, 6, &rng, 5.0, 2.0);
  data::Standardizer standardizer;
  standardizer.Fit(raw);
  RllModel model({.input_dim = 6, .hidden_dims = {5, 3}}, &rng);

  auto bundle = ModelBundle::Create(standardizer, model, &rng);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  const std::string path = ::testing::TempDir() + "/bundle.ckpt";
  ASSERT_TRUE(bundle->Save(path).ok());

  auto loaded = ModelBundle::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->input_dim(), 6u);
  EXPECT_EQ(loaded->embedding_dim(), 3u);

  auto original = bundle->Embed(raw);
  auto restored = loaded->Embed(raw);
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(original->AllClose(*restored));
  // And the bundle path equals manual standardize + embed.
  EXPECT_TRUE(
      original->AllClose(model.Embed(standardizer.Transform(raw))));
}

TEST(ModelBundleTest, ConcurrentLoadsNeverSeeAPartialSave) {
  // Two bundles of the paper's encoder saved in turn over one path while a
  // reader loads it in a loop, as a server watching its bundle does.
  Rng rng(52);
  Matrix raw = RandomNormal(20, 16, &rng);
  data::Standardizer standardizer;
  standardizer.Fit(raw);
  std::vector<ModelBundle> bundles;
  for (int i = 0; i < 2; ++i) {
    RllModel model({.input_dim = 16, .hidden_dims = {64, 32}}, &rng);
    auto bundle = ModelBundle::Create(standardizer, model, &rng);
    ASSERT_TRUE(bundle.ok());
    bundles.push_back(std::move(*bundle));
  }
  const std::string dir = ::testing::TempDir() + "/atomic_save";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/bundle.ckpt";
  ASSERT_TRUE(bundles[0].Save(path).ok());
  std::atomic<bool> done{false};
  std::atomic<int> loads{0};
  std::string first_error;
  std::thread reader([&] {
    while (!done.load()) {
      auto loaded = ModelBundle::Load(path);
      if (!loaded.ok() && first_error.empty()) {
        first_error = loaded.status().ToString();
      }
      loads.fetch_add(1);
    }
  });
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(bundles[i % 2].Save(path).ok());
  }
  done.store(true);
  reader.join();
  EXPECT_TRUE(first_error.empty()) << first_error;
  EXPECT_GT(loads.load(), 0);
  // Only the bundle is left in the directory: no temporary file.
  size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().filename(), "bundle.ckpt");
    ++files;
  }
  EXPECT_EQ(files, 1u);
}

TEST(ModelBundleTest, FailedSaveLeavesTheOldBundle) {
  Rng rng(53);
  data::Standardizer standardizer;
  standardizer.Fit(RandomNormal(10, 4, &rng));
  RllModel model({.input_dim = 4, .hidden_dims = {3}}, &rng);
  auto bundle = ModelBundle::Create(standardizer, model, &rng);
  ASSERT_TRUE(bundle.ok());
  // A directory in the bundle's place: the rename fails.
  const std::string dir = ::testing::TempDir() + "/failed_save";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir + "/bundle.ckpt/occupied");
  EXPECT_FALSE(bundle->Save(dir + "/bundle.ckpt").ok());
  size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    EXPECT_EQ(entry.path().filename(), "bundle.ckpt");
    ++files;
  }
  EXPECT_EQ(files, 1u);
  EXPECT_TRUE(std::filesystem::is_directory(dir + "/bundle.ckpt/occupied"));
  // A directory that does not exist: nothing to create the file in.
  EXPECT_FALSE(bundle->Save(dir + "/missing/bundle.ckpt").ok());
}

TEST(ModelBundleTest, CreateRejectsMismatchedDims) {
  Rng rng(51);
  data::Standardizer standardizer;
  standardizer.Fit(Matrix(4, 7));
  RllModel model({.input_dim = 6, .hidden_dims = {3}}, &rng);
  EXPECT_FALSE(ModelBundle::Create(standardizer, model, &rng).ok());
}

TEST(ModelBundleTest, CreateRejectsUnfittedStandardizer) {
  Rng rng(52);
  RllModel model({.input_dim = 6, .hidden_dims = {3}}, &rng);
  EXPECT_FALSE(
      ModelBundle::Create(data::Standardizer(), model, &rng).ok());
}

TEST(ModelBundleTest, LoadRejectsCorruptFiles) {
  ASSERT_TRUE(LoadText(std::string(kTinyHeader) + kTinyBody).ok());
  // Weight without its bias: the file ends one matrix early.
  EXPECT_FALSE(LoadText(std::string(kTinyHeader) +
                        "matrix 1 2\n0 0\nmatrix 1 2\n1 1\n"
                        "matrix 2 3\n1 2 3 4 5 6\n")
                   .ok());
  EXPECT_FALSE(ModelBundle::Load("/nonexistent/bundle").ok());
}

TEST(ModelBundleTest, EmbedRejectsWrongWidth) {
  Rng rng(53);
  data::Standardizer standardizer;
  standardizer.Fit(Matrix(4, 6, 1.0));
  RllModel model({.input_dim = 6, .hidden_dims = {3}}, &rng);
  auto bundle = ModelBundle::Create(standardizer, model, &rng);
  ASSERT_TRUE(bundle.ok());
  EXPECT_FALSE(bundle->Embed(Matrix(2, 5)).ok());
}

TEST(ModelBundleTest, V2RoundTripsNonDefaultArchitecture) {
  // Shapes alone cannot tell activations apart; the v2 header must
  // reconstruct a relu/none LayerNorm encoder exactly.
  Rng rng(54);
  Matrix raw = RandomNormal(12, 5, &rng, 2.0, 1.5);
  data::Standardizer standardizer;
  standardizer.Fit(raw);
  RllModelConfig config;
  config.input_dim = 5;
  config.hidden_dims = {6, 4};
  config.hidden_activation = nn::Activation::kRelu;
  config.output_activation = nn::Activation::kNone;
  config.layer_norm = true;
  RllModel model(config, &rng);

  auto bundle = ModelBundle::Create(standardizer, model, &rng);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  const std::string path = ::testing::TempDir() + "/bundle_v2.ckpt";
  ASSERT_TRUE(bundle->Save(path).ok());

  auto loaded = ModelBundle::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const RllModelConfig& restored = loaded->model().config();
  EXPECT_EQ(restored.hidden_activation, nn::Activation::kRelu);
  EXPECT_EQ(restored.output_activation, nn::Activation::kNone);
  EXPECT_TRUE(restored.layer_norm);
  ASSERT_EQ(restored.hidden_dims, config.hidden_dims);

  auto original = bundle->Embed(raw);
  auto reloaded = loaded->Embed(raw);
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(reloaded.ok());
  // %.17g round-trips doubles exactly, so the restored encoder is not just
  // close — it is the same function, bit for bit.
  EXPECT_TRUE(*original == *reloaded);
}

TEST(ModelBundleTest, RejectsHeaderlessFile) {
  // A v2 file minus its header line (the pre-header layout) is not a
  // bundle: without the header nothing fixes the architecture.
  Rng rng(55);
  Matrix raw = RandomNormal(10, 4, &rng);
  data::Standardizer standardizer;
  standardizer.Fit(raw);
  RllModel model({.input_dim = 4, .hidden_dims = {5, 3}}, &rng);
  auto bundle = ModelBundle::Create(standardizer, model, &rng);
  ASSERT_TRUE(bundle.ok());
  const std::string v2_path = ::testing::TempDir() + "/bundle_headered.ckpt";
  ASSERT_TRUE(bundle->Save(v2_path).ok());

  const std::string headerless_path =
      ::testing::TempDir() + "/bundle_headerless.ckpt";
  {
    std::ifstream in(v2_path);
    std::ofstream out(headerless_path);
    std::string line;
    ASSERT_TRUE(static_cast<bool>(std::getline(in, line)));  // Drop header.
    EXPECT_EQ(line.rfind("rll-bundle", 0), 0u);
    while (std::getline(in, line)) out << line << "\n";
  }

  auto loaded = ModelBundle::Load(headerless_path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("not a bundle header"),
            std::string::npos)
      << loaded.status().ToString();
}

TEST(ModelBundleTest, RejectsMalformedHeaders) {
  const std::vector<std::string> bad_headers = {
      "rll-bundle v99 dims=2,3 hidden=tanh output=tanh",  // Bad version.
      "rll-bundle v2 hidden=tanh output=tanh",            // Missing dims.
      "rll-bundle v2 dims=2,3 hidden=swish output=tanh",  // Bad activation.
      "rll-bundle v2 dims=2,3 hidden=tanh output=tanh shiny=1",  // Unknown.
      "rll-bundle v2 dims=2,3 hidden=tanh output=tanh embed_dim=7",
      "rll-bundle v2 dims=2 hidden=tanh output=tanh",     // Too few dims.
      // The encoder is built from the header before its parameters are
      // read: widths no file this small could hold must fail, not abort
      // in the allocator.
      "rll-bundle v2 dims=1000000000000,3 hidden=tanh output=tanh",
      "rll-bundle v2 dims=2,1000000000000 hidden=tanh output=tanh",
  };
  for (const std::string& header : bad_headers) {
    EXPECT_FALSE(LoadText(header + "\n" + kTinyBody).ok())
        << "accepted header: " << header;
  }
}

TEST(ModelBundleTest, RejectsParameterShapeMismatchAgainstHeader) {
  const std::string path = ::testing::TempDir() + "/shape_mismatch.ckpt";
  {
    std::ofstream f(path);
    // Header declares dims=2,3 but the weight matrix is 2x4.
    f << "rll-bundle v2 dims=2,3 hidden=tanh output=tanh layer_norm=0\n"
      << "matrix 1 2\n0 0\nmatrix 1 2\n1 1\n"
      << "matrix 2 4\n1 2 3 4 5 6 7 8\nmatrix 1 4\n0 0 0 0\n";
  }
  EXPECT_FALSE(ModelBundle::Load(path).ok());
}

TEST(ModelBundleTest, RejectsOversizedMatrixHeadersWithoutAborting) {
  // Sizing a matrix from its own header would abort the process here:
  // std::bad_alloc for the first header, std::length_error for the second
  // (-1 wraps to SIZE_MAX). Either in place of the mean's header or of a
  // parameter's, Load must fail instead.
  const std::string good = std::string(kTinyHeader) + kTinyBody;
  ASSERT_TRUE(LoadText(good).ok());
  for (const std::string bad : {"matrix 1 1000000000000", "matrix 1 -1"}) {
    for (const std::string target : {"matrix 1 2", "matrix 2 3"}) {
      std::string text = good;
      text.replace(text.find(target), target.size(), bad);
      EXPECT_FALSE(LoadText(text).ok()) << bad << " for " << target;
    }
  }
}

TEST(ModelBundleTest, RejectsTrailingData) {
  Rng rng(56);
  Matrix raw = RandomNormal(10, 4, &rng);
  data::Standardizer standardizer;
  standardizer.Fit(raw);
  RllModel model({.input_dim = 4, .hidden_dims = {3}}, &rng);
  auto bundle = ModelBundle::Create(standardizer, model, &rng);
  ASSERT_TRUE(bundle.ok());
  const std::string path = ::testing::TempDir() + "/bundle_trailing.ckpt";
  ASSERT_TRUE(bundle->Save(path).ok());
  ASSERT_TRUE(ModelBundle::Load(path).ok());
  {
    std::ofstream f(path, std::ios::app);
    f << "an appended line\n";
  }
  EXPECT_FALSE(ModelBundle::Load(path).ok());
  // Trailing whitespace alone is still a complete bundle.
  EXPECT_TRUE(LoadText(std::string(kTinyHeader) + kTinyBody + "\n\n").ok());
}

// ----------------------------------------------------------------- Pipeline

TEST(PipelineTest, CrossValidationProducesFoldMetrics) {
  Rng rng(12);
  data::Dataset d = SmallAnnotatedDataset(&rng, 120);
  RllPipelineOptions options;
  options.trainer = FastTrainerOptions();
  options.folds = 3;
  auto outcome = RunRllCrossValidation(d, options, &rng);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->per_fold.size(), 3u);
  EXPECT_GT(outcome->mean.accuracy, 0.5);  // Far above chance on easy data.
  EXPECT_LE(outcome->mean.accuracy, 1.0);
}

TEST(PipelineTest, RequiresAnnotations) {
  Rng rng(13);
  data::SyntheticConfig config;
  config.num_examples = 60;
  data::Dataset d = GenerateSynthetic(config, &rng);
  RllPipelineOptions options;
  options.trainer = FastTrainerOptions();
  EXPECT_EQ(RunRllCrossValidation(d, options, &rng).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(PipelineTest, DeterministicGivenSeed) {
  RllPipelineOptions options;
  options.trainer = FastTrainerOptions();
  options.folds = 3;
  auto run = [&options](uint64_t seed) {
    Rng rng(seed);
    data::Dataset d = SmallAnnotatedDataset(&rng, 120);
    Rng eval_rng(seed + 1);
    auto outcome = RunRllCrossValidation(d, options, &eval_rng);
    EXPECT_TRUE(outcome.ok());
    return outcome->mean.accuracy;
  };
  EXPECT_DOUBLE_EQ(run(99), run(99));
}

}  // namespace
}  // namespace rll::core
