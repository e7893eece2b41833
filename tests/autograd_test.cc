// Autograd tests: finite-difference gradient checks for every op and for
// the composite losses used by RLL and the baselines, plus graph mechanics
// (topological order, accumulation, requires_grad pruning).

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "autograd/gradcheck.h"
#include "autograd/ops.h"
#include "autograd/variable.h"
#include "common/rng.h"
#include "tensor/init.h"
#include "tensor/ops.h"

namespace rll::ag {
namespace {

constexpr double kTol = 1e-5;

Matrix RandomMat(size_t r, size_t c, uint64_t seed, double scale = 1.0) {
  Rng rng(seed);
  return RandomNormal(r, c, &rng, 0.0, scale);
}

// ------------------------------------------------------- Graph mechanics

TEST(VariableTest, ConstantDoesNotRequireGrad) {
  Var c = Constant(Matrix(2, 2, 1.0));
  EXPECT_FALSE(c->requires_grad);
  Var p = Parameter(Matrix(2, 2, 1.0));
  EXPECT_TRUE(p->requires_grad);
}

TEST(VariableTest, OpsPropagateRequiresGrad) {
  Var c1 = Constant(Matrix(2, 2, 1.0));
  Var c2 = Constant(Matrix(2, 2, 2.0));
  Var p = Parameter(Matrix(2, 2, 3.0));
  EXPECT_FALSE(Add(c1, c2)->requires_grad);
  EXPECT_TRUE(Add(c1, p)->requires_grad);
}

TEST(VariableTest, TopologicalOrderParentsFirst) {
  Var a = Parameter(Matrix(1, 1, 2.0));
  Var b = Scale(a, 3.0);
  Var c = Add(b, a);  // Diamond: a reachable twice.
  ScratchVector<Node*> order = TopologicalOrder(c);
  // a must precede b, b must precede c; each node appears once.
  EXPECT_EQ(order.size(), 3u);
  auto pos = [&order](Node* n) {
    for (size_t i = 0; i < order.size(); ++i)
      if (order[i] == n) return i;
    return order.size();
  };
  EXPECT_LT(pos(a.get()), pos(b.get()));
  EXPECT_LT(pos(b.get()), pos(c.get()));
}

TEST(VariableTest, GradientAccumulatesAcrossPaths) {
  // y = a + 2a = 3a ⇒ dy/da = 3.
  Var a = Parameter(Matrix(1, 1, 5.0));
  Var y = Add(a, Scale(a, 2.0));
  Backward(y);
  EXPECT_DOUBLE_EQ(a->grad(0, 0), 3.0);
}

TEST(VariableTest, BackwardTwiceAccumulatesUnlessZeroed) {
  Var a = Parameter(Matrix(1, 1, 1.0));
  Var y1 = Scale(a, 2.0);
  Backward(y1);
  EXPECT_DOUBLE_EQ(a->grad(0, 0), 2.0);
  Var y2 = Scale(a, 2.0);
  Backward(y2);
  EXPECT_DOUBLE_EQ(a->grad(0, 0), 4.0);
  a->ZeroGrad();
  Var y3 = Scale(a, 2.0);
  Backward(y3);
  EXPECT_DOUBLE_EQ(a->grad(0, 0), 2.0);
}

TEST(VariableTest, NoGradFlowsIntoConstants) {
  Var c = Constant(Matrix(1, 1, 1.0));
  Var p = Parameter(Matrix(1, 1, 1.0));
  Var y = Mul(c, p);
  Backward(y);
  EXPECT_TRUE(c->grad.empty());
  EXPECT_FALSE(p->grad.empty());
}

TEST(VariableTest, DeepChainDoesNotOverflowStack) {
  Var x = Parameter(Matrix(1, 1, 0.0));
  Var y = x;
  for (int i = 0; i < 20000; ++i) y = AddScalar(y, 1e-6);
  Backward(y);  // Iterative DFS: must not crash.
  EXPECT_DOUBLE_EQ(x->grad(0, 0), 1.0);
}

// --------------------------------------------------- Per-op grad checks

TEST(GradCheckTest, Matmul) {
  Var a = Parameter(RandomMat(3, 4, 1));
  Var b = Parameter(RandomMat(4, 2, 2));
  auto r = CheckGradients({a, b}, [&] { return Sum(Matmul(a, b)); });
  EXPECT_LT(r.max_relative_error, kTol);
}

TEST(GradCheckTest, AddSubMul) {
  Var a = Parameter(RandomMat(3, 3, 3));
  Var b = Parameter(RandomMat(3, 3, 4));
  auto r = CheckGradients(
      {a, b}, [&] { return Sum(Mul(Add(a, b), Sub(a, b))); });
  EXPECT_LT(r.max_relative_error, kTol);
}

TEST(GradCheckTest, ScaleAddScalar) {
  Var a = Parameter(RandomMat(2, 5, 5));
  auto r = CheckGradients(
      {a}, [&] { return Sum(AddScalar(Scale(a, -2.5), 3.0)); });
  EXPECT_LT(r.max_relative_error, kTol);
}

TEST(GradCheckTest, AddRowBroadcast) {
  Var a = Parameter(RandomMat(4, 3, 6));
  Var bias = Parameter(RandomMat(1, 3, 7));
  auto r = CheckGradients(
      {a, bias}, [&] { return Sum(Square(AddRowBroadcast(a, bias))); });
  EXPECT_LT(r.max_relative_error, kTol);
}

// Operands of a 4×3 by 3×5 dense layer whose pre-activations stay at
// least 0.45 away from 0, of alternating sign by column, so relu's kink
// is never crossed by a finite difference and both of its sides are
// checked: x in ±[0.5, ∞), W[k][c] of column c's sign with |W| ≥ 0.3,
// |b| < 0.01.
struct DenseOperands {
  Matrix x;
  Matrix w;
  Matrix b;
};

DenseOperands MakeDenseOperands(uint64_t seed) {
  DenseOperands d{RandomMat(4, 3, seed), RandomMat(3, 5, seed + 1),
                  RandomMat(1, 5, seed + 2, 0.003)};
  for (size_t i = 0; i < d.x.size(); ++i) d.x[i] = std::fabs(d.x[i]) + 0.5;
  for (size_t k = 0; k < 3; ++k) {
    for (size_t c = 0; c < 5; ++c) {
      const double magnitude = std::fabs(d.w(k, c)) + 0.3;
      d.w(k, c) = c % 2 == 0 ? magnitude : -magnitude;
    }
  }
  return d;
}

// ag::Dense with every operand a parameter (x too), or with x a constant.
void CheckDense(Activation activation, bool x_requires_grad) {
  const DenseOperands d = MakeDenseOperands(30);
  Var x = x_requires_grad ? Parameter(d.x) : Constant(d.x);
  Var w = Parameter(d.w);
  Var b = Parameter(d.b);
  std::vector<Var> params = {w, b};
  if (x_requires_grad) params.push_back(x);
  auto r = CheckGradients(
      params, [&] { return Sum(Square(Dense(x, w, b, activation))); });
  EXPECT_LT(r.max_relative_error, kTol)
      << "activation " << static_cast<int>(activation)
      << " x_requires_grad " << x_requires_grad;
}

TEST(GradCheckTest, Tanh) { CheckDense(Activation::kTanh, true); }

TEST(GradCheckTest, DenseEveryActivationWithConstantAndTrainableInput) {
  for (const Activation activation :
       {Activation::kNone, Activation::kTanh, Activation::kRelu,
        Activation::kSigmoid}) {
    CheckDense(activation, false);
    CheckDense(activation, true);
  }
}

TEST(GradCheckTest, DenseLeavesAConstantInputWithoutGradient) {
  const DenseOperands d = MakeDenseOperands(31);
  Var x = Constant(d.x);
  Var w = Parameter(d.w);
  Var b = Parameter(d.b);
  Backward(Sum(Dense(x, w, b, Activation::kTanh)));
  EXPECT_TRUE(x->grad.empty());
  EXPECT_TRUE(w->grad.SameShape(d.w));
  EXPECT_TRUE(b->grad.SameShape(d.b));
}

TEST(GradCheckTest, ReluAwayFromKink) {
  Matrix m = RandomMat(4, 4, 9);
  for (size_t i = 0; i < m.size(); ++i) {
    if (std::fabs(m[i]) < 0.1) m[i] = 0.5;  // Keep clear of the kink.
  }
  Var a = Parameter(m);
  auto r = CheckGradients({a}, [&] { return Sum(Relu(a)); });
  EXPECT_LT(r.max_relative_error, kTol);
}

TEST(GradCheckTest, Sigmoid) { CheckDense(Activation::kSigmoid, true); }

TEST(GradCheckTest, SquareSqrt) {
  Matrix m = RandomMat(3, 3, 11);
  for (size_t i = 0; i < m.size(); ++i) m[i] = std::fabs(m[i]) + 0.5;
  Var a = Parameter(m);
  auto r = CheckGradients({a}, [&] { return Sum(Mul(Sqrt(a), Square(a))); });
  EXPECT_LT(r.max_relative_error, kTol);
}

TEST(GradCheckTest, Div) {
  Matrix denom = RandomMat(3, 3, 40);
  for (size_t i = 0; i < denom.size(); ++i) {
    denom[i] = (denom[i] >= 0 ? 1.0 : -1.0) * (std::fabs(denom[i]) + 0.5);
  }
  Var a = Parameter(RandomMat(3, 3, 41));
  Var b = Parameter(denom);
  auto r = CheckGradients({a, b}, [&] { return Sum(Div(a, b)); });
  EXPECT_LT(r.max_relative_error, kTol);
}

TEST(OpsSemanticsTest, DivMatchesElementwiseQuotient) {
  Var a = Constant(Matrix{{6.0, -9.0}});
  Var b = Constant(Matrix{{2.0, 3.0}});
  Var q = Div(a, b);
  EXPECT_DOUBLE_EQ(q->value(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(q->value(0, 1), -3.0);
}

TEST(GradCheckTest, MeanAndRowSum) {
  Var a = Parameter(RandomMat(5, 3, 12));
  auto r = CheckGradients({a}, [&] { return Mean(Square(RowSum(a))); });
  EXPECT_LT(r.max_relative_error, kTol);
}

TEST(GradCheckTest, RowCosine) {
  Var a = Parameter(RandomMat(4, 6, 13));
  Var b = Parameter(RandomMat(4, 6, 14));
  auto r = CheckGradients({a, b}, [&] { return Sum(RowCosine(a, b)); });
  EXPECT_LT(r.max_relative_error, kTol);
}

TEST(GradCheckTest, RowCosineWithOneConstantSide) {
  Var a = Parameter(RandomMat(3, 5, 15));
  Var b = Constant(RandomMat(3, 5, 16));
  auto r = CheckGradients({a}, [&] { return Sum(RowCosine(a, b)); });
  EXPECT_LT(r.max_relative_error, kTol);
}

TEST(GradCheckTest, ConcatCols) {
  Var a = Parameter(RandomMat(3, 2, 17));
  Var b = Parameter(RandomMat(3, 4, 18));
  Var c = Parameter(RandomMat(3, 1, 19));
  auto r = CheckGradients(
      {a, b, c},
      [&] { return Sum(Square(ConcatCols(VarList{a, b, c}))); });
  EXPECT_LT(r.max_relative_error, kTol);
}

TEST(GradCheckTest, LogSoftmaxRows) {
  Var a = Parameter(RandomMat(4, 5, 22, 2.0));
  const size_t targets[] = {0, 2, 4, 1};
  auto r = CheckGradients(
      {a}, [&] { return NllRows(LogSoftmaxRows(a), targets, 4); });
  EXPECT_LT(r.max_relative_error, kTol);
}

// ------------------------------------------------------ Composite losses

TEST(GradCheckTest, ContrastivePairLoss) {
  Var e1 = Parameter(RandomMat(4, 3, 24));
  Var e2 = Parameter(RandomMat(4, 3, 25));
  Matrix same(4, 1);
  same(0, 0) = 1.0;
  same(2, 0) = 1.0;
  Matrix diff(4, 1);
  diff(1, 0) = 1.0;
  diff(3, 0) = 1.0;
  auto forward = [&] {
    Var d2 = RowSum(Square(Sub(e1, e2)));
    Var d = Sqrt(d2);
    Var pull = Mul(Constant(same), d2);
    Var hinge = Relu(AddScalar(Scale(d, -1.0), 1.0));
    Var push = Mul(Constant(diff), Square(hinge));
    return Mean(Add(pull, push));
  };
  auto r = CheckGradients({e1, e2}, forward);
  EXPECT_LT(r.max_relative_error, kTol);
}

TEST(GradCheckTest, GroupSoftmaxLossShape) {
  // The RLL loss built from primitives: cosine scores → concat → NLL.
  Var anchor = Parameter(RandomMat(5, 4, 26));
  Var pos = Parameter(RandomMat(5, 4, 27));
  Var neg1 = Parameter(RandomMat(5, 4, 28));
  Var neg2 = Parameter(RandomMat(5, 4, 29));
  Matrix conf = RandomMat(5, 1, 30);
  for (size_t i = 0; i < conf.size(); ++i) {
    conf[i] = 0.5 + 0.5 / (1.0 + std::exp(-conf[i]));
  }
  const std::vector<size_t> targets(5, 0);
  auto forward = [&] {
    VarList scores;
    for (const Var& cand : {pos, neg1, neg2}) {
      scores.push_back(
          Scale(Mul(RowCosine(anchor, cand), Constant(conf)), 10.0));
    }
    return NllRows(LogSoftmaxRows(ConcatCols(scores)), targets.data(),
                   targets.size());
  };
  auto r = CheckGradients({anchor, pos, neg1, neg2}, forward);
  EXPECT_LT(r.max_relative_error, kTol);
}

// ------------------------------------------------------------- Semantics

TEST(OpsSemanticsTest, LogSoftmaxRowsNormalizes) {
  Var a = Constant(RandomMat(3, 4, 31, 3.0));
  Var lp = LogSoftmaxRows(a);
  for (size_t r = 0; r < 3; ++r) {
    double total = 0.0;
    for (size_t c = 0; c < 4; ++c) total += std::exp(lp->value(r, c));
    EXPECT_NEAR(total, 1.0, 1e-9);
  }
}

TEST(OpsSemanticsTest, NllMatchesManualComputation) {
  Matrix logits = {{2.0, 1.0, 0.0}, {0.0, 3.0, 1.0}};
  Var lp = LogSoftmaxRows(Constant(logits));
  const size_t targets[] = {0, 1};
  Var loss = NllRows(lp, targets, 2);
  const double expected =
      -(lp->value(0, 0) + lp->value(1, 1)) / 2.0;
  EXPECT_NEAR(loss->value(0, 0), expected, 1e-12);
}

TEST(OpsSemanticsTest, SigmoidMatchesClosedForm) {
  // x·I + 0 is x exactly, so the dense layer applies the sigmoid to x.
  Matrix x = {{-700.0, 0.0, 700.0}};
  Var s = Dense(Constant(x), Constant(Matrix::Identity(3)),
                Constant(Matrix(1, 3)), Activation::kSigmoid);
  EXPECT_NEAR(s->value(0, 0), 0.0, 1e-12);
  EXPECT_NEAR(s->value(0, 1), 0.5, 1e-12);
  EXPECT_NEAR(s->value(0, 2), 1.0, 1e-12);
}

TEST(BackwardTest, RequiresScalarLoss) {
  Var a = Parameter(Matrix(2, 2, 1.0));
  EXPECT_DEATH(Backward(a), "scalar");
}

}  // namespace
}  // namespace rll::ag
