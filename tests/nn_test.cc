// Tests for the neural-network layer: Linear/Mlp/LayerNorm forward
// semantics, dropout, Adam, gradient clipping, and the RLL training step
// bit for bit against the reference graph (reference_graph.h).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "autograd/gradcheck.h"
#include "autograd/ops.h"
#include "common/rng.h"
#include "common/threading.h"
#include "core/rll_model.h"
#include "kernel_isa_expect.h"
#include "nn/layer_norm.h"
#include "nn/linear.h"
#include "nn/mlp.h"
#include "nn/optimizer.h"
#include "reference_graph.h"
#include "tensor/init.h"
#include "tensor/ops.h"

namespace rll::nn {
namespace {

// ---------------------------------------------------------------- Linear

// A layer applied as ag::Dense with no activation.
ag::Var Affine(const Linear& layer, const ag::Var& x) {
  return ag::Dense(x, layer.weight(), layer.bias(), Activation::kNone);
}

TEST(LinearTest, ForwardMatchesManualAffine) {
  Rng rng(1);
  Linear layer(3, 2, &rng);
  layer.bias()->value = RandomNormal(1, 2, &rng);
  Matrix x = RandomNormal(5, 3, &rng);
  ag::Var out = Affine(layer, ag::Constant(x));
  Matrix expected = AddRowBroadcast(Matmul(x, layer.weight()->value),
                                    layer.bias()->value);
  EXPECT_TRUE(out->value.AllClose(expected));
}

TEST(LinearTest, ParametersAreTrainableLeaves) {
  Rng rng(2);
  Linear layer(4, 4, &rng);
  const auto params = layer.Parameters();
  ASSERT_EQ(params.size(), 2u);
  for (const auto& p : params) EXPECT_TRUE(p->requires_grad);
}

TEST(LinearTest, BiasStartsAtZero) {
  Rng rng(3);
  Linear layer(4, 6, &rng);
  for (size_t i = 0; i < layer.bias()->value.size(); ++i) {
    EXPECT_DOUBLE_EQ(layer.bias()->value[i], 0.0);
  }
}

TEST(LinearTest, GradCheckThroughLayer) {
  Rng rng(4);
  Linear layer(3, 2, &rng);
  Matrix x = RandomNormal(4, 3, &rng);
  auto r = ag::CheckGradients(layer.Parameters(), [&] {
    return ag::Mean(ag::Square(Affine(layer, ag::Constant(x))));
  });
  EXPECT_LT(r.max_relative_error, 1e-5);
}

// ------------------------------------------------------------------- Mlp

TEST(MlpTest, OutputShape) {
  Rng rng(5);
  Mlp mlp({.dims = {10, 8, 4}}, &rng);
  EXPECT_EQ(mlp.input_dim(), 10u);
  EXPECT_EQ(mlp.output_dim(), 4u);
  Matrix x = RandomNormal(6, 10, &rng);
  EXPECT_EQ(mlp.Embed(x).rows(), 6u);
  EXPECT_EQ(mlp.Embed(x).cols(), 4u);
}

TEST(MlpTest, TanhOutputBounded) {
  Rng rng(6);
  Mlp mlp({.dims = {5, 8, 3},
           .hidden_activation = Activation::kTanh,
           .output_activation = Activation::kTanh},
          &rng);
  Matrix x = RandomNormal(20, 5, &rng, 0.0, 10.0);
  Matrix e = mlp.Embed(x);
  for (size_t i = 0; i < e.size(); ++i) {
    EXPECT_GE(e[i], -1.0);
    EXPECT_LE(e[i], 1.0);
  }
}

TEST(MlpTest, ParameterCount) {
  Rng rng(7);
  Mlp mlp({.dims = {10, 8, 4}}, &rng);
  // 2 layers × (weight + bias).
  EXPECT_EQ(mlp.Parameters().size(), 4u);
}

TEST(MlpTest, GradCheckTwoLayerTanh) {
  Rng rng(8);
  Mlp mlp({.dims = {4, 5, 3}}, &rng);
  Matrix x = RandomNormal(3, 4, &rng);
  auto r = ag::CheckGradients(mlp.Parameters(), [&] {
    return ag::Mean(ag::Square(mlp.Forward(ag::Constant(x))));
  });
  EXPECT_LT(r.max_relative_error, 1e-5);
}

TEST(MlpTest, EmbedMatchesGraphForwardBitwise) {
  // Embed and EmbedInto run the graph-free pass, Forward one ag::Dense
  // node per layer, and the reference the parent's Matmul,
  // AddRowBroadcast and activation nodes; 1 and 3 rows of the odd widths
  // below leave odd element counts for the two-lane kernels.
  for (const Activation activation :
       {Activation::kNone, Activation::kTanh, Activation::kRelu,
        Activation::kSigmoid}) {
    Rng rng(21);
    Mlp mlp({.dims = {5, 7, 3},
             .hidden_activation = activation,
             .output_activation = activation},
            &rng);
    Workspace ws;
    for (const size_t rows : {1u, 3u, 16u, 17u}) {
      const Matrix x = RandomNormal(rows, 5, &rng, 0.0, 2.0);
      const Matrix graph = mlp.Forward(ag::Constant(x))->value;
      const Matrix parent =
          reference::MlpForward(mlp, ag::Constant(x))->value;
      const Matrix embed = mlp.Embed(x);
      const Matrix& into = mlp.EmbedInto(x, ws);
      ASSERT_TRUE(embed.SameShape(graph));
      ASSERT_TRUE(into.SameShape(graph));
      ASSERT_TRUE(parent.SameShape(graph));
      const size_t bytes = graph.size() * sizeof(double);
      EXPECT_EQ(std::memcmp(embed.data(), graph.data(), bytes), 0)
          << ActivationName(activation) << " rows=" << rows;
      EXPECT_EQ(std::memcmp(into.data(), graph.data(), bytes), 0)
          << ActivationName(activation) << " rows=" << rows;
      EXPECT_EQ(std::memcmp(parent.data(), graph.data(), bytes), 0)
          << ActivationName(activation) << " rows=" << rows;
    }
  }
}

TEST(MlpTest, IdentityActivationIsAffine) {
  Rng rng(11);
  Mlp mlp({.dims = {3, 2},
           .hidden_activation = Activation::kNone,
           .output_activation = Activation::kNone},
          &rng);
  // Single linear layer, no activation: additivity must hold.
  Matrix x1 = RandomNormal(1, 3, &rng);
  Matrix x2 = RandomNormal(1, 3, &rng);
  Matrix sum = Add(x1, x2);
  Matrix lhs = mlp.Embed(sum);
  Matrix rhs = Sub(Add(mlp.Embed(x1), mlp.Embed(x2)),
                   mlp.Embed(Matrix(1, 3, 0.0)));
  EXPECT_TRUE(lhs.AllClose(rhs, 1e-9, 1e-9));
}

// -------------------------------------------------------------- LayerNorm

TEST(LayerNormTest, NormalizesRowsToZeroMeanUnitVariance) {
  Rng rng(70);
  LayerNorm norm(8);
  Matrix x = RandomNormal(5, 8, &rng, 3.0, 2.0);
  const Matrix y = norm.Forward(ag::Constant(x))->value;
  for (size_t r = 0; r < y.rows(); ++r) {
    double mean = 0.0, var = 0.0;
    for (size_t c = 0; c < y.cols(); ++c) mean += y(r, c);
    mean /= 8.0;
    for (size_t c = 0; c < y.cols(); ++c) {
      var += (y(r, c) - mean) * (y(r, c) - mean);
    }
    var /= 8.0;
    EXPECT_NEAR(mean, 0.0, 1e-9);
    EXPECT_NEAR(var, 1.0, 1e-3);  // eps slightly shrinks the variance.
  }
}

TEST(LayerNormTest, GainAndBiasApply) {
  LayerNorm norm(2);
  norm.Parameters()[0]->value = Matrix({{2.0, 2.0}});  // gain
  norm.Parameters()[1]->value = Matrix({{1.0, 1.0}});  // bias
  Matrix x = {{-1.0, 1.0}};
  const Matrix y = norm.Forward(ag::Constant(x))->value;
  // Normalized row ≈ (−1, 1) → scaled to (−2, 2) → shifted to (−1, 3).
  EXPECT_NEAR(y(0, 0), -1.0, 1e-2);
  EXPECT_NEAR(y(0, 1), 3.0, 1e-2);
}

TEST(LayerNormTest, GradCheckThroughNormalization) {
  Rng rng(71);
  LayerNorm norm(5);
  ag::Var x = ag::Parameter(RandomNormal(4, 5, &rng));
  std::vector<ag::Var> params = norm.Parameters();
  params.push_back(x);
  auto r = ag::CheckGradients(
      params, [&] { return ag::Mean(ag::Square(norm.Forward(x))); });
  EXPECT_LT(r.max_relative_error, 1e-4);
}

TEST(LayerNormTest, MlpIntegration) {
  Rng rng(72);
  Mlp mlp({.dims = {6, 10, 10, 3}, .layer_norm = true}, &rng);
  // 3 layers × 2 params + 2 hidden norms × 2 params.
  EXPECT_EQ(mlp.Parameters().size(), 10u);
  Matrix x = RandomNormal(4, 6, &rng);
  EXPECT_EQ(mlp.Embed(x).cols(), 3u);
}

TEST(LayerNormTest, TrainableInXorTask) {
  Rng rng(73);
  Mlp mlp({.dims = {2, 8, 1},
           .hidden_activation = Activation::kTanh,
           .output_activation = Activation::kSigmoid,
           .layer_norm = true},
          &rng);
  Matrix x = {{0, 0}, {0, 1}, {1, 0}, {1, 1}};
  Matrix y = {{0}, {1}, {1}, {0}};
  Adam adam(mlp.Parameters(), {.lr = 0.05});
  for (int step = 0; step < 2000; ++step) {
    adam.ZeroGrad();
    ag::Var out = mlp.Forward(ag::Constant(x));
    ag::Var loss = ag::Mean(ag::Square(ag::Sub(out, ag::Constant(y))));
    ag::Backward(loss);
    adam.Step();
  }
  Matrix pred = mlp.Embed(x);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(pred(i, 0), y(i, 0), 0.25) << "example " << i;
  }
}

// ------------------------------------------------------------------- Adam

TEST(OptimizerTest, AdamConvergesOnQuadratic) {
  // Minimize ||x - target||².
  Matrix target = {{1.0, -1.0}};
  ag::Var x = ag::Parameter(Matrix(1, 2, 10.0));
  Adam adam({x}, {.lr = 0.1});
  for (int i = 0; i < 500; ++i) {
    adam.ZeroGrad();
    ag::Var loss = ag::Mean(ag::Square(ag::Sub(x, ag::Constant(target))));
    ag::Backward(loss);
    adam.Step();
  }
  EXPECT_TRUE(x->value.AllClose(target, 1e-3, 1e-3));
}

TEST(OptimizerTest, WeightDecayShrinksParameters) {
  ag::Var x = ag::Parameter(Matrix(1, 1, 4.0));
  Adam adam({x}, {.lr = 0.1, .weight_decay = 1.0});
  // Zero-gradient loss: only decay acts.
  for (int i = 0; i < 10; ++i) {
    adam.ZeroGrad();
    x->AccumulateGrad(Matrix(1, 1, 0.0));
    adam.Step();
  }
  EXPECT_LT(std::fabs(x->value(0, 0)), 4.0);
}

TEST(OptimizerTest, SkipsParametersWithoutGradients) {
  ag::Var x = ag::Parameter(Matrix(1, 1, 1.0));
  Adam adam({x}, {.lr = 0.5});
  adam.Step();  // No gradient accumulated: must be a no-op.
  EXPECT_DOUBLE_EQ(x->value(0, 0), 1.0);
}

TEST(OptimizerTest, ZeroGradClears) {
  ag::Var x = ag::Parameter(Matrix(1, 1, 1.0));
  x->AccumulateGrad(Matrix(1, 1, 5.0));
  Adam adam({x}, {});
  adam.ZeroGrad();
  EXPECT_TRUE(x->grad.empty());
}

TEST(OptimizerTest, ClipGradNormScalesDownLargeGradients) {
  ag::Var a = ag::Parameter(Matrix(1, 1, 0.0));
  ag::Var b = ag::Parameter(Matrix(1, 1, 0.0));
  a->AccumulateGrad(Matrix(1, 1, 3.0));
  b->AccumulateGrad(Matrix(1, 1, 4.0));  // Global norm = 5.
  const double norm = ClipGradNorm({a, b}, 1.0);
  EXPECT_DOUBLE_EQ(norm, 5.0);
  EXPECT_NEAR(a->grad(0, 0), 0.6, 1e-12);
  EXPECT_NEAR(b->grad(0, 0), 0.8, 1e-12);
}

TEST(OptimizerTest, ClipGradNormLeavesSmallGradientsAlone) {
  ag::Var a = ag::Parameter(Matrix(1, 1, 0.0));
  a->AccumulateGrad(Matrix(1, 1, 0.5));
  ClipGradNorm({a}, 1.0);
  EXPECT_DOUBLE_EQ(a->grad(0, 0), 0.5);
}

TEST(MlpDropoutTest, ForwardTrainEqualsForwardWithoutDropout) {
  Rng rng(20);
  Mlp mlp({.dims = {4, 8, 2}}, &rng);
  Matrix x = RandomNormal(3, 4, &rng);
  Rng drop_rng(1);
  EXPECT_TRUE(mlp.ForwardTrain(ag::Constant(x), &drop_rng)
                  ->value.AllClose(mlp.Forward(ag::Constant(x))->value));
}

TEST(MlpDropoutTest, DropoutZeroesAndRescales) {
  Rng rng(21);
  Mlp mlp({.dims = {4, 64, 2}, .dropout = 0.5}, &rng);
  Matrix x = RandomNormal(8, 4, &rng);
  Rng drop_rng(2);
  Matrix a = mlp.ForwardTrain(ag::Constant(x), &drop_rng)->value;
  Matrix b = mlp.ForwardTrain(ag::Constant(x), &drop_rng)->value;
  // Stochastic masks differ between calls.
  EXPECT_FALSE(a.AllClose(b));
  // Inference path is deterministic and mask-free.
  EXPECT_TRUE(mlp.Embed(x).AllClose(mlp.Embed(x)));
}

TEST(MlpDropoutTest, InvertedScalingKeepsExpectationRoughly) {
  // With a linear network (no activation), E[dropout output] equals the
  // plain output; check the empirical mean over many masks.
  Rng rng(22);
  Mlp mlp({.dims = {4, 64, 1},
           .hidden_activation = Activation::kNone,
           .output_activation = Activation::kNone,
           .dropout = 0.3},
          &rng);
  Matrix x = RandomNormal(1, 4, &rng);
  const double reference = mlp.Embed(x)(0, 0);
  Rng drop_rng(3);
  double total = 0.0;
  const int trials = 3000;
  for (int t = 0; t < trials; ++t) {
    total += mlp.ForwardTrain(ag::Constant(x), &drop_rng)->value(0, 0);
  }
  EXPECT_NEAR(total / trials, reference,
              0.15 * std::max(1.0, std::fabs(reference)));
}

// --------------------------------------- Training an MLP end-to-end (XOR)

TEST(MlpTrainingTest, LearnsXor) {
  Rng rng(16);
  Mlp mlp({.dims = {2, 8, 1},
           .hidden_activation = Activation::kTanh,
           .output_activation = Activation::kSigmoid},
          &rng);
  Matrix x = {{0, 0}, {0, 1}, {1, 0}, {1, 1}};
  Matrix y = {{0}, {1}, {1}, {0}};
  Adam adam(mlp.Parameters(), {.lr = 0.05});
  for (int step = 0; step < 2000; ++step) {
    adam.ZeroGrad();
    ag::Var out = mlp.Forward(ag::Constant(x));
    ag::Var loss = ag::Mean(ag::Square(ag::Sub(out, ag::Constant(y))));
    ag::Backward(loss);
    adam.Step();
  }
  Matrix pred = mlp.Embed(x);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(pred(i, 0), y(i, 0), 0.2) << "example " << i;
  }
}

// ----------------------------------------------- The RLL training step
// tests/CMakeLists.txt reruns TrainingStepTest.* at the narrower kernel
// levels (nn_test.step_without_*).

TEST(TrainingStepTest, RunsTheWidestKernelLevelAllowed) {
  EXPECT_EQ(std::string(KernelIsa()), ExpectedKernelIsa());
}

bool SameBits(const Matrix& a, const Matrix& b) {
  return a.SameShape(b) &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// Steps of the paper encoder (60 → 64 → 32, tanh) on 64 groups of an
// anchor, its paired positive and k = 3 negatives, run through the
// library (one ag::Dense node per layer, GroupNllLoss, Adam) and through
// the reference graph from the same initial weights. The parameters must
// agree bit for bit after every step.
void ExpectStepsMatchReference(size_t threads) {
  SetGlobalThreads(threads);
  constexpr size_t kGroups = 64;
  constexpr size_t kSlots = 4;  // The positive and k = 3 negatives.
  constexpr double kEta = 10.0;
  core::RllModelConfig config;
  config.input_dim = 60;
  config.hidden_dims = {64, 32};
  Rng init_a(41);
  Rng init_b(41);
  core::RllModel model(config, &init_a);
  core::RllModel parent(config, &init_b);
  const AdamOptions adam_options{.lr = 0.01};
  Adam adam(model.Parameters(), adam_options);
  reference::ScalarAdam parent_adam(parent.Parameters(), adam_options);
  Rng data_rng(42);
  const Matrix features = RandomNormal(300, 60, &data_rng);
  for (int step = 0; step < 6; ++step) {
    std::vector<size_t> anchors(kGroups);
    std::vector<std::vector<size_t>> slots(kSlots,
                                           std::vector<size_t>(kGroups));
    std::vector<Matrix> confidence(kSlots, Matrix(kGroups, 1));
    for (size_t g = 0; g < kGroups; ++g) {
      anchors[g] = data_rng.UniformInt(300u);
      for (size_t s = 0; s < kSlots; ++s) {
        slots[s][g] = data_rng.UniformInt(300u);
        confidence[s](g, 0) = data_rng.Uniform(0.5, 1.0);
      }
    }
    // The trainer's order: the anchor rows, then each slot's rows.
    adam.ZeroGrad();
    ag::Var anchor = model.ForwardTrain(
        ag::Constant(features.GatherRows(anchors)), nullptr);
    ag::VarList candidates;
    MatrixList slot_confidence;
    for (size_t s = 0; s < kSlots; ++s) {
      candidates.push_back(model.ForwardTrain(
          ag::Constant(features.GatherRows(slots[s])), nullptr));
      slot_confidence.push_back(confidence[s]);
    }
    ag::Var loss =
        core::GroupNllLoss(anchor, candidates, slot_confidence, kEta);
    ag::Backward(loss);
    adam.Step();

    parent_adam.ZeroGrad();
    const auto parent_forward = [&](const std::vector<size_t>& rows) {
      return reference::EncoderForward(
          parent.Parameters(), config.hidden_activation,
          config.output_activation, ag::Constant(features.GatherRows(rows)));
    };
    ag::Var parent_anchor = parent_forward(anchors);
    std::vector<ag::Var> parent_candidates;
    for (size_t s = 0; s < kSlots; ++s) {
      parent_candidates.push_back(parent_forward(slots[s]));
    }
    ag::Var parent_loss = reference::GroupNllLoss(
        parent_anchor, parent_candidates, confidence, kEta);
    ag::Backward(parent_loss);
    parent_adam.Step();

    ASSERT_TRUE(SameBits(loss->value, parent_loss->value))
        << "threads=" << threads << " step=" << step;
    const auto params = model.Parameters();
    const auto parent_params = parent.Parameters();
    ASSERT_EQ(params.size(), parent_params.size());
    for (size_t i = 0; i < params.size(); ++i) {
      ASSERT_TRUE(SameBits(params[i]->value, parent_params[i]->value))
          << "threads=" << threads << " step=" << step << " param=" << i;
    }
  }
  SetGlobalThreads(0);
}

TEST(TrainingStepTest, MatchesTheReferenceGraphBitwise) {
  ExpectStepsMatchReference(1);
  ExpectStepsMatchReference(4);
}

}  // namespace
}  // namespace rll::nn
