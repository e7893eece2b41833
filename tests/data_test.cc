// Tests for the data substrate: Dataset semantics, stratified K-fold,
// standardization, CSV round-trips, and the synthetic education generator's
// statistical properties.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <set>

#include "common/rng.h"
#include "data/csv.h"
#include "data/dataset.h"
#include "data/kfold.h"
#include "data/standardize.h"
#include "data/synthetic.h"
#include "tensor/init.h"
#include "tensor/ops.h"

namespace rll::data {
namespace {

Dataset TinyDataset() {
  Matrix features = {{1, 2}, {3, 4}, {5, 6}, {7, 8}};
  Dataset d(features, {1, 0, 1, 0});
  // Example 0: 3-of-3 positive votes, 1: 1-of-3, 2: 2-of-3, 3: 0-of-3.
  d.AddAnnotation(0, {0, 1});
  d.AddAnnotation(0, {1, 1});
  d.AddAnnotation(0, {2, 1});
  d.AddAnnotation(1, {0, 0});
  d.AddAnnotation(1, {1, 1});
  d.AddAnnotation(1, {2, 0});
  d.AddAnnotation(2, {0, 1});
  d.AddAnnotation(2, {3, 1});
  d.AddAnnotation(2, {4, 0});
  d.AddAnnotation(3, {2, 0});
  d.AddAnnotation(3, {3, 0});
  d.AddAnnotation(3, {4, 0});
  return d;
}

// ---------------------------------------------------------------- Dataset

TEST(DatasetTest, BasicAccessors) {
  Dataset d = TinyDataset();
  EXPECT_EQ(d.size(), 4u);
  EXPECT_EQ(d.dim(), 2u);
  EXPECT_EQ(d.true_label(2), 1);
  EXPECT_TRUE(d.FullyAnnotated());
  EXPECT_EQ(d.NumWorkers(), 5u);
}

TEST(DatasetTest, PositiveVotesAndMajority) {
  Dataset d = TinyDataset();
  EXPECT_EQ(d.PositiveVotes(0), 3u);
  EXPECT_EQ(d.PositiveVotes(1), 1u);
  EXPECT_EQ(d.MajorityVote(0), 1);
  EXPECT_EQ(d.MajorityVote(1), 0);
  EXPECT_EQ(d.MajorityVote(2), 1);
  EXPECT_EQ(d.MajorityVote(3), 0);
  EXPECT_EQ(d.MajorityVoteLabels(), (std::vector<int>{1, 0, 1, 0}));
}

TEST(DatasetTest, MajorityVoteTieBreaksPositive) {
  Matrix f(1, 1);
  Dataset d(f, {0});
  d.AddAnnotation(0, {0, 1});
  d.AddAnnotation(0, {1, 0});
  EXPECT_EQ(d.MajorityVote(0), 1);
}

TEST(DatasetTest, PositiveFraction) {
  Dataset d = TinyDataset();
  EXPECT_DOUBLE_EQ(d.PositiveFraction(), 0.5);
}

TEST(DatasetTest, SubsetCarriesAnnotations) {
  Dataset d = TinyDataset();
  Dataset sub = d.Subset({2, 0});
  EXPECT_EQ(sub.size(), 2u);
  EXPECT_EQ(sub.true_label(0), 1);
  EXPECT_EQ(sub.PositiveVotes(0), 2u);  // Was example 2.
  EXPECT_EQ(sub.PositiveVotes(1), 3u);  // Was example 0.
  EXPECT_DOUBLE_EQ(sub.features()(0, 0), 5.0);
}

TEST(DatasetTest, ClearAnnotations) {
  Dataset d = TinyDataset();
  d.ClearAnnotations();
  EXPECT_FALSE(d.FullyAnnotated());
  EXPECT_EQ(d.NumWorkers(), 0u);
}

// ------------------------------------------------------------------ KFold

TEST(KFoldTest, TrainTestSplitPartitions) {
  Rng rng(1);
  Split split = TrainTestSplit(100, 0.25, &rng);
  EXPECT_EQ(split.test.size(), 25u);
  EXPECT_EQ(split.train.size(), 75u);
  std::set<size_t> all(split.train.begin(), split.train.end());
  all.insert(split.test.begin(), split.test.end());
  EXPECT_EQ(all.size(), 100u);
}

TEST(KFoldTest, EveryExampleTestedExactlyOnce) {
  Rng rng(2);
  std::vector<int> labels(37);
  for (size_t i = 0; i < labels.size(); ++i) labels[i] = i % 3 == 0;
  const auto splits = StratifiedKFold(labels, 5, &rng);
  ASSERT_EQ(splits.size(), 5u);
  std::multiset<size_t> tested;
  for (const Split& s : splits) {
    tested.insert(s.test.begin(), s.test.end());
    // Train and test are disjoint and cover everything.
    std::set<size_t> train(s.train.begin(), s.train.end());
    for (size_t t : s.test) EXPECT_EQ(train.count(t), 0u);
    EXPECT_EQ(s.train.size() + s.test.size(), labels.size());
  }
  for (size_t i = 0; i < labels.size(); ++i) EXPECT_EQ(tested.count(i), 1u);
}

TEST(KFoldTest, FoldsPreserveClassRatio) {
  Rng rng(3);
  std::vector<int> labels(200);
  for (size_t i = 0; i < 140; ++i) labels[i] = 1;  // 70% positive.
  rng.Shuffle(&labels);
  const auto splits = StratifiedKFold(labels, 5, &rng);
  for (const Split& s : splits) {
    size_t pos = 0;
    for (size_t i : s.test) pos += (labels[i] == 1);
    const double frac = static_cast<double>(pos) / s.test.size();
    EXPECT_NEAR(frac, 0.7, 0.05);
  }
}

// ------------------------------------------------------------ Standardize

TEST(StandardizeTest, ZeroMeanUnitVariance) {
  Rng rng(4);
  Matrix x = RandomNormal(200, 5, &rng, 3.0, 2.0);
  Standardizer s;
  Matrix z = s.FitTransform(x);
  Matrix mean = ColMean(z);
  for (size_t c = 0; c < 5; ++c) {
    EXPECT_NEAR(mean[c], 0.0, 1e-9);
    double var = 0.0;
    for (size_t r = 0; r < z.rows(); ++r) var += z(r, c) * z(r, c);
    EXPECT_NEAR(var / z.rows(), 1.0, 1e-9);
  }
}

TEST(StandardizeTest, ConstantColumnMapsToZero) {
  Matrix x(10, 1, 7.0);
  Standardizer s;
  Matrix z = s.FitTransform(x);
  for (size_t i = 0; i < z.size(); ++i) EXPECT_DOUBLE_EQ(z[i], 0.0);
}

TEST(StandardizeTest, TransformUsesTrainStatistics) {
  Matrix train = {{0.0}, {2.0}};  // mean 1, std 1.
  Matrix test = {{3.0}};
  Standardizer s;
  s.Fit(train);
  EXPECT_DOUBLE_EQ(s.Transform(test)(0, 0), 2.0);
}

// ------------------------------------------------------------------- CSV

TEST(CsvTest, FeaturesRoundTrip) {
  Dataset d = TinyDataset();
  const std::string path = ::testing::TempDir() + "/features.csv";
  ASSERT_TRUE(SaveFeaturesCsv(path, d).ok());
  Result<Dataset> back = LoadFeaturesCsv(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->size(), d.size());
  EXPECT_EQ(back->true_labels(), d.true_labels());
  EXPECT_TRUE(back->features().AllClose(d.features(), 0.0, 0.0));
}

TEST(CsvTest, AnnotationsRoundTrip) {
  Dataset d = TinyDataset();
  const std::string fpath = ::testing::TempDir() + "/f2.csv";
  const std::string apath = ::testing::TempDir() + "/a2.csv";
  ASSERT_TRUE(SaveFeaturesCsv(fpath, d).ok());
  ASSERT_TRUE(SaveAnnotationsCsv(apath, d).ok());
  Result<Dataset> back = LoadFeaturesCsv(fpath);
  ASSERT_TRUE(back.ok());
  ASSERT_TRUE(LoadAnnotationsCsv(apath, &back.value()).ok());
  for (size_t i = 0; i < d.size(); ++i) {
    EXPECT_EQ(back->PositiveVotes(i), d.PositiveVotes(i));
    EXPECT_EQ(back->annotations(i).size(), d.annotations(i).size());
  }
}

TEST(CsvTest, LoadRejectsMalformedRows) {
  const std::string path = ::testing::TempDir() + "/bad.csv";
  {
    std::ofstream f(path);
    f << "f0,label\n1.5,1\nnot_a_number,0\n";
  }
  EXPECT_FALSE(LoadFeaturesCsv(path).ok());
}

// Fails closed on a cell strtod reads as NaN or infinity, with the error
// an unparsable cell gets; an underflow still reads as a zero of its sign.
Result<Dataset> LoadOneFeatureCell(const std::string& cell) {
  const std::string path = ::testing::TempDir() + "/one_cell.csv";
  {
    std::ofstream f(path);
    f << "f0,f1,label\n1.5,0.25,1\n" << cell << ",2,0\n";
  }
  return LoadFeaturesCsv(path);
}

void ExpectBadDoubleCell(const std::string& cell) {
  const Result<Dataset> result = LoadOneFeatureCell(cell);
  ASSERT_FALSE(result.ok()) << cell;
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << cell;
  EXPECT_NE(result.status().message().find("row 3 col 0: bad double '" +
                                           cell + "'"),
            std::string::npos)
      << result.status().message();
}

TEST(CsvTest, LoadRejectsNanCell) {
  for (const char* cell : {"nan", "NaN", "-nan", "nan(0x1)"}) {
    ExpectBadDoubleCell(cell);
  }
}

TEST(CsvTest, LoadRejectsInfinityCell) {
  for (const char* cell : {"inf", "-inf", "Infinity"}) ExpectBadDoubleCell(cell);
}

TEST(CsvTest, LoadRejectsOverflowingCell) {
  for (const char* cell : {"1e999", "-1e999", "0x1p1024"}) {
    ExpectBadDoubleCell(cell);
  }
}

TEST(CsvTest, LoadReadsAnUnderflowAsASignedZero) {
  for (const char* cell : {"1e-400", "-1e-400"}) {
    const Result<Dataset> result = LoadOneFeatureCell(cell);
    ASSERT_TRUE(result.ok()) << cell << ": " << result.status().ToString();
    const double v = result->features()(1, 0);
    EXPECT_EQ(v, 0.0) << cell;
    EXPECT_EQ(std::signbit(v), cell[0] == '-') << cell;
  }
}

TEST(CsvTest, LoadRejectsBadLabel) {
  const std::string path = ::testing::TempDir() + "/bad2.csv";
  {
    std::ofstream f(path);
    f << "f0,label\n1.5,2\n";
  }
  EXPECT_FALSE(LoadFeaturesCsv(path).ok());
}

TEST(CsvTest, AnnotationsRejectOutOfRangeExample) {
  Dataset d = TinyDataset();
  const std::string path = ::testing::TempDir() + "/bad3.csv";
  {
    std::ofstream f(path);
    f << "example_id,worker_id,label\n99,0,1\n";
  }
  EXPECT_EQ(LoadAnnotationsCsv(path, &d).code(), StatusCode::kOutOfRange);
}

TEST(CsvTest, FuzzedInputsNeverCrash) {
  // Random junk must produce clean Status errors (or valid parses), never
  // aborts or UB — the CSV layer is the library's untrusted-input surface.
  Rng rng(77);
  const std::string path = ::testing::TempDir() + "/fuzz.csv";
  const std::string charset = "0123456789.,-+eE \tabcxyz\"';\n";
  for (int trial = 0; trial < 200; ++trial) {
    {
      std::ofstream f(path);
      f << "f0,f1,label\n";
      const size_t len = 1 + rng.UniformInt(120u);
      for (size_t i = 0; i < len; ++i) {
        f << charset[rng.UniformInt(charset.size())];
      }
    }
    auto result = LoadFeaturesCsv(path);
    if (result.ok()) {
      // Whatever parsed must be self-consistent.
      EXPECT_EQ(result->features().rows(), result->size());
      EXPECT_EQ(result->dim(), 2u);
    }
  }
}

TEST(CsvTest, FuzzedAnnotationsNeverCrash) {
  Rng rng(78);
  Matrix features(5, 1);
  Dataset d(features, {1, 0, 1, 0, 1});
  const std::string path = ::testing::TempDir() + "/fuzz_ann.csv";
  const std::string charset = "0123456789,-\n ab";
  for (int trial = 0; trial < 200; ++trial) {
    {
      std::ofstream f(path);
      f << "example_id,worker_id,label\n";
      const size_t len = 1 + rng.UniformInt(80u);
      for (size_t i = 0; i < len; ++i) {
        f << charset[rng.UniformInt(charset.size())];
      }
    }
    Status status = LoadAnnotationsCsv(path, &d);
    if (status.ok()) {
      // Any accepted annotation must be in range.
      for (size_t i = 0; i < d.size(); ++i) {
        for (const Annotation& a : d.annotations(i)) {
          EXPECT_TRUE(a.label == 0 || a.label == 1);
        }
      }
    }
  }
}

TEST(CsvTest, HandlesWindowsLineEndingsGracefully) {
  const std::string path = ::testing::TempDir() + "/crlf.csv";
  {
    std::ofstream f(path);
    f << "f0,label\r\n1.5,1\r\n";
  }
  // CRLF labels fail integer parsing ("1\r") — a clean error, not a crash.
  auto result = LoadFeaturesCsv(path);
  if (!result.ok()) {
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }
}

// -------------------------------------------------------------- Synthetic

TEST(SyntheticTest, RespectsSizeAndRatioOral) {
  Rng rng(5);
  Dataset d = GenerateSynthetic(OralSimConfig(), &rng);
  EXPECT_EQ(d.size(), 880u);
  EXPECT_EQ(d.dim(), OralSimConfig().TotalDims());
  // pos:neg = 1.8 → positive fraction ≈ 0.643.
  EXPECT_NEAR(d.PositiveFraction(), 1.8 / 2.8, 0.01);
}

TEST(SyntheticTest, RespectsSizeAndRatioClass) {
  Rng rng(6);
  Dataset d = GenerateSynthetic(ClassSimConfig(), &rng);
  EXPECT_EQ(d.size(), 472u);
  EXPECT_EQ(d.dim(), ClassSimConfig().TotalDims());
  EXPECT_NEAR(d.PositiveFraction(), 2.1 / 3.1, 0.01);
}

TEST(SyntheticTest, DeterministicGivenSeed) {
  Rng a(7), b(7);
  Dataset d1 = GenerateSynthetic(OralSimConfig(), &a);
  Dataset d2 = GenerateSynthetic(OralSimConfig(), &b);
  EXPECT_TRUE(d1.features().AllClose(d2.features(), 0.0, 0.0));
  EXPECT_EQ(d1.true_labels(), d2.true_labels());
}

TEST(SyntheticTest, ClassesAreStatisticallySeparable) {
  // Class-conditional means must differ in the informative block: compare
  // the mean feature vectors of the two classes.
  Rng rng(8);
  SyntheticConfig config = OralSimConfig();
  config.mix_features = false;  // Keep the informative block identifiable.
  Dataset d = GenerateSynthetic(config, &rng);
  Matrix pos_mean(1, d.dim()), neg_mean(1, d.dim());
  size_t np = 0, nn = 0;
  for (size_t i = 0; i < d.size(); ++i) {
    Matrix* target = d.true_label(i) == 1 ? &pos_mean : &neg_mean;
    (d.true_label(i) == 1 ? np : nn)++;
    for (size_t c = 0; c < d.dim(); ++c) {
      (*target)[c] += d.features()(i, c);
    }
  }
  pos_mean *= 1.0 / static_cast<double>(np);
  neg_mean *= 1.0 / static_cast<double>(nn);
  const double gap = Norm(Sub(pos_mean, neg_mean));
  EXPECT_GT(gap, 0.5);  // Signal present...
  EXPECT_LT(gap, 20.0);  // ...but not trivially separable.
}

TEST(SyntheticTest, NoiseDimensionsCarryNoSignal) {
  Rng rng(9);
  SyntheticConfig config = OralSimConfig();
  config.mix_features = false;
  Dataset d = GenerateSynthetic(config, &rng);
  // Mean |class-mean difference| over the pure-noise block must be tiny.
  for (size_t c = config.linear_dims + config.xor_dims; c < d.dim();
       c += 11) {
    double pos = 0.0, neg = 0.0;
    size_t np = 0, nn = 0;
    for (size_t i = 0; i < d.size(); ++i) {
      if (d.true_label(i) == 1) {
        pos += d.features()(i, c);
        ++np;
      } else {
        neg += d.features()(i, c);
        ++nn;
      }
    }
    EXPECT_LT(std::fabs(pos / np - neg / nn), 0.35) << "noise col " << c;
  }
}

TEST(SyntheticTest, GeneratorValidatesConfig) {
  Rng rng(10);
  SyntheticConfig config;
  config.positive_fraction = 1.5;  // Invalid.
  EXPECT_DEATH(GenerateSynthetic(config, &rng), "positive_fraction");
}

}  // namespace
}  // namespace rll::data
