// Unit tests for the Matrix type and its kernels, including parameterized
// property sweeps (linearity, softmax identities) over random shapes.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <vector>

#include "common/rng.h"
#include "common/threading.h"
#include "tensor/init.h"
#include "tensor/kernels.h"
#include "tensor/matrix.h"
#include "tensor/ops.h"
#include "tensor/serialize.h"
#include "kernel_isa_expect.h"

namespace rll {
namespace {

// ---------------------------------------------------------------- Matrix

TEST(MatrixTest, ConstructAndIndex) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.size(), 6u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = -2.0;
  EXPECT_DOUBLE_EQ(m[1], -2.0);  // Row-major flat access.
}

TEST(MatrixTest, InitializerList) {
  Matrix m = {{1, 2}, {3, 4}, {5, 6}};
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(2, 1), 6.0);
}

TEST(MatrixTest, Identity) {
  Matrix id = Matrix::Identity(3);
  for (size_t r = 0; r < 3; ++r)
    for (size_t c = 0; c < 3; ++c)
      EXPECT_DOUBLE_EQ(id(r, c), r == c ? 1.0 : 0.0);
}

TEST(MatrixTest, RowVector) {
  Matrix row = Matrix::RowVector({1, 2, 3});
  EXPECT_EQ(row.rows(), 1u);
  EXPECT_EQ(row.cols(), 3u);
}

TEST(MatrixTest, RowExtractAndSet) {
  Matrix m = {{1, 2}, {3, 4}};
  Matrix r = m.Row(1);
  EXPECT_EQ(r, Matrix({{3, 4}}));
  m.SetRow(0, r);
  EXPECT_DOUBLE_EQ(m(0, 0), 3.0);
  m.SetRow(0, std::vector<double>{9, 8});
  EXPECT_DOUBLE_EQ(m(0, 1), 8.0);
}

TEST(MatrixTest, GatherRows) {
  Matrix m = {{1, 2}, {3, 4}, {5, 6}};
  Matrix g = m.GatherRows({2, 0, 2});
  EXPECT_EQ(g, Matrix({{5, 6}, {1, 2}, {5, 6}}));
}

TEST(MatrixTest, CompoundOpsShapeChecked) {
  Matrix a = {{1, 2}};
  Matrix b = {{3, 4}};
  a += b;
  EXPECT_EQ(a, Matrix({{4, 6}}));
  a -= b;
  EXPECT_EQ(a, Matrix({{1, 2}}));
  a *= 2.0;
  EXPECT_EQ(a, Matrix({{2, 4}}));
}

TEST(MatrixTest, AllClose) {
  Matrix a = {{1.0, 2.0}};
  Matrix b = {{1.0 + 1e-13, 2.0}};
  EXPECT_TRUE(a.AllClose(b));
  EXPECT_FALSE(a.AllClose(Matrix({{1.1, 2.0}})));
  EXPECT_FALSE(a.AllClose(Matrix({{1.0}, {2.0}})));  // Shape mismatch.
}

TEST(MatrixTest, ToString) {
  EXPECT_EQ(Matrix({{1, 2}}).ToString(), "[[1, 2]]");
}

// ------------------------------------------------------------------- Ops

TEST(OpsTest, MatmulHandValues) {
  Matrix a = {{1, 2}, {3, 4}};
  Matrix b = {{5, 6}, {7, 8}};
  EXPECT_EQ(Matmul(a, b), Matrix({{19, 22}, {43, 50}}));
}

TEST(OpsTest, MatmulIdentity) {
  Rng rng(1);
  Matrix a = RandomNormal(4, 4, &rng);
  EXPECT_TRUE(Matmul(a, Matrix::Identity(4)).AllClose(a));
  EXPECT_TRUE(Matmul(Matrix::Identity(4), a).AllClose(a));
}

TEST(OpsTest, TransposedMatmulsAgreeWithExplicitTranspose) {
  Rng rng(2);
  Matrix a = RandomNormal(3, 5, &rng);
  Matrix b = RandomNormal(3, 4, &rng);
  Matrix out;
  Gemm(a, true, b, false, out);
  EXPECT_EQ(out, Matmul(Transpose(a), b));
  Matrix c = RandomNormal(4, 5, &rng);
  Gemm(a, false, c, true, out);
  EXPECT_EQ(out, Matmul(a, Transpose(c)));
  Matrix d = RandomNormal(4, 3, &rng);
  Gemm(a, true, d, true, out);
  EXPECT_EQ(out, Matmul(Transpose(a), Transpose(d)));
}

TEST(OpsTest, IntoVariantsMatchAllocatingOps) {
  Rng rng(3);
  Matrix a = RandomNormal(6, 5, &rng);
  Matrix b = RandomNormal(5, 7, &rng);
  Matrix out;
  Gemm(a, false, b, false, out);
  EXPECT_EQ(out, Matmul(a, b));
}

TEST(OpsTest, MulIntoReshapesStaleOutput) {
  Matrix a = {{1, 2}, {3, 4}};
  Matrix b = {{5, 6}, {7, 8}};
  Matrix out(9, 3, 1.0);  // Wrong shape and stale values.
  Gemm(a, false, b, false, out);
  EXPECT_EQ(out, Matrix({{19, 22}, {43, 50}}));
  // An empty inner dimension still overwrites every stale element.
  Gemm(Matrix(3, 0), false, Matrix(0, 4), false, out);
  EXPECT_EQ(out, Matrix(3, 4));
}

// The product as the scalar kernels always summed it: each element from
// +0 over k ascending, one multiply and one add per term (this file builds
// with -ffp-contract=off, like the kernel). `skip_zero` drops exact-zero
// a terms, as the scalar A·B and Aᵀ·B loops did; for finite inputs that
// cannot change a sum, since an accumulator that starts at +0 never
// becomes -0.
Matrix NaiveGemm(const Matrix& a, bool trans_a, const Matrix& b,
                 bool trans_b, bool skip_zero) {
  const size_t m = trans_a ? a.cols() : a.rows();
  const size_t k = trans_a ? a.rows() : a.cols();
  const size_t n = trans_b ? b.rows() : b.cols();
  Matrix c(m, n);
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (size_t p = 0; p < k; ++p) {
        const double x = trans_a ? a(p, i) : a(i, p);
        if (skip_zero && x == 0.0) continue;
        acc += x * (trans_b ? b(j, p) : b(p, j));
      }
      c(i, j) = acc;
    }
  }
  return c;
}

// memcmp is not called on an empty matrix, whose data() may be null:
// the call would let the compiler assume it is not.
bool SameBits(const Matrix& x, const Matrix& y) {
  return x.SameShape(y) &&
         (x.size() == 0 ||
          std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0);
}

TEST(OpsTest, GemmMatchesNaiveLoopBitwise) {
  // Every tile/tail split: below, at and past the 4-row tile, whose width
  // is 8 columns at 2 and 4 lanes and 32 at 8 lanes.
  const size_t kSizes[] = {1,  2,  3,  4,  5,  7,  8, 9,
                           16, 17, 31, 32, 33, 64, 65};
  Rng rng(4);
  Matrix out;
  for (const bool trans_a : {false, true}) {
    for (const bool trans_b : {false, true}) {
      for (const size_t m : kSizes) {
        for (const size_t n : kSizes) {
          for (const size_t k : kSizes) {
            Matrix a = trans_a ? RandomNormal(k, m, &rng)
                               : RandomNormal(m, k, &rng);
            // Exact zeros of both signs, including a whole signed-zero
            // row of op(A) whose products sum to zero exactly.
            for (size_t e = 0; e < a.size(); e += 3) a[e] = 0.0;
            for (size_t e = 1; e < a.size(); e += 5) a[e] = -0.0;
            for (size_t p = 0; p < k; ++p) {
              (trans_a ? a(p, m - 1) : a(m - 1, p)) = p % 2 ? -0.0 : 0.0;
            }
            const Matrix b = trans_b ? RandomNormal(n, k, &rng)
                                     : RandomNormal(k, n, &rng);
            Gemm(a, trans_a, b, trans_b, out);
            ASSERT_TRUE(SameBits(out, NaiveGemm(a, trans_a, b, trans_b,
                                                /*skip_zero=*/false)))
                << "trans_a=" << trans_a << " trans_b=" << trans_b
                << " m=" << m << " n=" << n << " k=" << k;
            ASSERT_TRUE(SameBits(out, NaiveGemm(a, trans_a, b, trans_b,
                                                /*skip_zero=*/true)))
                << "trans_a=" << trans_a << " trans_b=" << trans_b
                << " m=" << m << " n=" << n << " k=" << k;
          }
        }
      }
    }
  }
}

TEST(OpsDeathTest, GemmRejectsAnOutputThatAliasesAnInput) {
  // Writing the output would clobber the operand before its last read.
  Matrix a = {{1, 2}, {3, 4}};
  Matrix b = {{5, 6}, {7, 8}};
  EXPECT_DEATH(Gemm(a, false, b, false, a), "Gemm output aliases a");
  EXPECT_DEATH(Gemm(a, false, b, false, b), "Gemm output aliases b");
}

TEST(OpsTest, AddBiasActivateNoneMatchesAllocatingOp) {
  Matrix a = {{1, 2}, {3, 4}};
  const Matrix row = {{10, 20}};
  Matrix m = a;
  AddBiasActivate(m, row, Activation::kNone);
  EXPECT_EQ(m, AddRowBroadcast(a, row));
  EXPECT_EQ(m, Matrix({{11, 22}, {13, 24}}));
}

TEST(OpsTest, ElementwiseOps) {
  Matrix a = {{1, -2}, {3, 4}};
  Matrix b = {{2, 2}, {2, 2}};
  EXPECT_EQ(Add(a, b), Matrix({{3, 0}, {5, 6}}));
  EXPECT_EQ(Sub(a, b), Matrix({{-1, -4}, {1, 2}}));
  EXPECT_EQ(Hadamard(a, b), Matrix({{2, -4}, {6, 8}}));
  EXPECT_EQ(Scale(a, -1), Matrix({{-1, 2}, {-3, -4}}));
  EXPECT_EQ(AddScalar(a, 1), Matrix({{2, -1}, {4, 5}}));
}

TEST(OpsTest, Broadcasts) {
  Matrix a = {{1, 2}, {3, 4}};
  EXPECT_EQ(AddRowBroadcast(a, Matrix({{10, 20}})),
            Matrix({{11, 22}, {13, 24}}));
  EXPECT_EQ(MulRowBroadcast(a, Matrix({{2, 0}})), Matrix({{2, 0}, {6, 0}}));
}

TEST(OpsTest, Reductions) {
  Matrix a = {{1, 2}, {3, 4}};
  EXPECT_DOUBLE_EQ(Sum(a), 10.0);
  EXPECT_DOUBLE_EQ(Mean(a), 2.5);
  EXPECT_DOUBLE_EQ(Max(a), 4.0);
  EXPECT_EQ(RowSum(a), Matrix({{3}, {7}}));
  EXPECT_EQ(ColSum(a), Matrix({{4, 6}}));
  EXPECT_EQ(ColMean(a), Matrix({{2, 3}}));
}

TEST(OpsTest, DotAndNorm) {
  Matrix a = {{3, 4}};
  EXPECT_DOUBLE_EQ(Dot(a, a), 25.0);
  EXPECT_DOUBLE_EQ(Norm(a), 5.0);
}

TEST(OpsTest, RowCosineHandValues) {
  Matrix a = {{1, 0}, {1, 1}};
  Matrix b = {{0, 1}, {1, 1}};
  Matrix cos = RowCosine(a, b);
  EXPECT_NEAR(cos(0, 0), 0.0, 1e-12);
  EXPECT_NEAR(cos(1, 0), 1.0, 1e-12);
}

TEST(OpsTest, RowCosineOppositeVectors) {
  Matrix a = {{2, 0}};
  Matrix b = {{-5, 0}};
  EXPECT_NEAR(RowCosine(a, b)(0, 0), -1.0, 1e-12);
}

TEST(OpsTest, SoftmaxRowsSumToOne) {
  Matrix a = {{1, 2, 3}, {-5, 0, 5}};
  Matrix s = SoftmaxRows(a);
  for (size_t r = 0; r < 2; ++r) {
    double total = 0.0;
    for (size_t c = 0; c < 3; ++c) {
      EXPECT_GT(s(r, c), 0.0);
      total += s(r, c);
    }
    EXPECT_NEAR(total, 1.0, 1e-12);
  }
  // Monotone in the logits.
  EXPECT_LT(s(0, 0), s(0, 2));
}

TEST(OpsTest, SoftmaxStableForHugeLogits) {
  Matrix a = {{1000.0, 1000.0}};
  Matrix s = SoftmaxRows(a);
  EXPECT_NEAR(s(0, 0), 0.5, 1e-12);
  EXPECT_TRUE(std::isfinite(s(0, 1)));
}

TEST(OpsTest, LogSumExpMatchesDirectComputationWhenSafe) {
  Matrix a = {{0.1, 0.2, 0.3}};
  const double direct =
      std::log(std::exp(0.1) + std::exp(0.2) + std::exp(0.3));
  EXPECT_NEAR(LogSumExpRows(a)(0, 0), direct, 1e-12);
}

TEST(OpsTest, ArgmaxRows) {
  Matrix a = {{1, 5, 2}, {7, 0, 3}};
  const std::vector<size_t> idx = ArgmaxRows(a);
  EXPECT_EQ(idx[0], 1u);
  EXPECT_EQ(idx[1], 0u);
}

TEST(OpsTest, MapAppliesFunction) {
  Matrix a = {{1, 4}};
  Matrix b = Map(a, [](double x) { return x * x; });
  EXPECT_EQ(b, Matrix({{1, 16}}));
}

// The GEMM and tanh kernels run at the widest vector level the CPU has;
// tests/CMakeLists.txt reruns their bitwise suites with this test under
// glibc hwcaps masks, and each run must be at the level its mask allows.
TEST(KernelIsaTest, RunsTheWidestLevelTheCpuAndMaskAllow) {
  EXPECT_EQ(std::string(KernelIsa()), ExpectedKernelIsa());
}

// ------------------------------------------------------------------ Tanh
// tests/CMakeLists.txt runs TanhTest.* again with glibc's FMA and AVX2
// code paths switched off, which changes the bits std::tanh returns.

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

double TanhOf(double x) {
  Matrix m(1, 1, x);
  TanhInPlace(m);
  return m[0];
}

// Number of doubles from a to b, for finite values of either sign.
uint64_t UlpDistance(double a, double b) {
  const auto ordered = [](double x) {
    const int64_t bits = std::bit_cast<int64_t>(x);
    return bits < 0 ? INT64_MIN - bits : bits;
  };
  const int64_t oa = ordered(a);
  const int64_t ob = ordered(b);
  return oa > ob ? static_cast<uint64_t>(oa - ob)
                 : static_cast<uint64_t>(ob - oa);
}

TEST(TanhTest, PinnedOutputs) {
  struct Pin {
    double x;
    double tanh;
  };
  const Pin kPins[] = {
      {0.0, 0.0},
      {-0.0, -0.0},
      {0x1p-60, 0x1p-60},
      {-0x1p-1074, -0x1p-1074},
      // Both neighbours of the branch cutover and the cutover itself.
      {0x1.3ffffffffffffp-1, 0x1.1bf47eabb8f94p-1},
      {0x1.4p-1, 0x1.1bf47eabb8f95p-1},
      {0x1.4000000000001p-1, 0x1.1bf47eabb8f96p-1},
      {1.0, 0x1.85efab514f394p-1},
      {-3.0, -0x1.fd77d111a0bp-1},
      // 19.1 is past where tanh rounds to 1; 22 is the clamp.
      {19.1, 1.0},
      {22.0, 1.0},
      {-1e308, -1.0},
      {INFINITY, 1.0},
      {-INFINITY, -1.0},
      // glibc 2.36 returns -0x1.7728b5a513e21p-3 here through its FMA
      // build of expm1 and -0x1.7728b5a513e1fp-3 without it, so a kernel
      // that went back through libm fails this pin.
      {-0x1.7b711e9675p-3, -0x1.7728b5a513e2p-3},
  };
  for (const Pin& pin : kPins) {
    EXPECT_EQ(Bits(TanhOf(pin.x)), Bits(pin.tanh))
        << std::hexfloat << pin.x << " -> " << TanhOf(pin.x);
  }
  // A NaN comes back unchanged, sign and payload included.
  for (const uint64_t nan :
       {0x7ff8000000000000ull, 0xfff8000000000000ull, 0x7ff8000000000123ull}) {
    EXPECT_EQ(Bits(TanhOf(std::bit_cast<double>(nan))), nan);
  }
}

TEST(TanhTest, WithinTwoUlpOfLibmAndOdd) {
  // 2^19 inputs from each of U(-25, 25), N(0, 1) and ±2^U(-60, 6).
  constexpr size_t kEach = size_t{1} << 19;
  Rng rng(11);
  Matrix x(3 * kEach, 1);
  for (size_t i = 0; i < kEach; ++i) {
    x[i] = rng.Uniform(-25.0, 25.0);
    x[kEach + i] = rng.Normal();
    const double magnitude = std::exp2(rng.Uniform(-60.0, 6.0));
    x[2 * kEach + i] = rng.Bernoulli(0.5) ? magnitude : -magnitude;
  }
  Matrix y = x;
  TanhInPlace(y);
  Matrix neg = Scale(x, -1.0);
  TanhInPlace(neg);
  for (size_t i = 0; i < x.size(); ++i) {
    ASSERT_LE(UlpDistance(y[i], std::tanh(x[i])), 2u)
        << std::hexfloat << x[i] << " -> " << y[i];
    ASSERT_EQ(Bits(neg[i]), Bits(-y[i])) << std::hexfloat << x[i];
  }
}

TEST(TanhTest, SameBitsAtEveryOffset) {
  // Pairs of lanes and a padded odd tail: a result must not depend on
  // its position or on its neighbours, NaN and infinity included.
  Rng rng(12);
  for (const double probe : {-0x1.7b711e9675p-3, 0x1.4p-1, -0.7, 3.0, 1e-5,
                             -0.0, 30.0}) {
    const uint64_t want = Bits(TanhOf(probe));
    for (size_t len = 1; len <= 17; ++len) {
      for (size_t at = 0; at < len; ++at) {
        Matrix m = RandomNormal(1, len, &rng, 0.0, 3.0);
        m[(at + 1) % len] = std::nan("");
        m[(at + len - 1) % len] = -INFINITY;
        m[at] = probe;
        TanhInPlace(m);
        ASSERT_EQ(Bits(m[at]), want)
            << std::hexfloat << probe << " len=" << len << " at=" << at;
      }
    }
  }
}

TEST(TanhTest, IdenticalAtOneTwoAndFourThreads) {
  // 33,123 elements: past the elementwise serial threshold (2^15), so the
  // pool splits them into chunks, the last of odd length.
  Rng rng(13);
  const Matrix x = RandomNormal(181, 183, &rng, 0.0, 3.0);
  SetGlobalThreads(1);
  Matrix serial = x;
  TanhInPlace(serial);
  for (const size_t threads : {2u, 4u}) {
    SetGlobalThreads(threads);
    Matrix parallel = x;
    TanhInPlace(parallel);
    EXPECT_TRUE(SameBits(parallel, serial)) << "threads=" << threads;
  }
  SetGlobalThreads(0);
}

// ------------------------------------------------------- Exp and sigmoid
// tests/CMakeLists.txt runs ExpTest.*, SigmoidTest.* and LogisticTest.*
// again at the narrower kernel levels, the 2-lane one with glibc's FMA and
// AVX2 code paths off, which changes the bits std::exp returns.

double ExpOf(double x) {
  Matrix m(1, 1, x);
  ExpInPlace(m);
  return m[0];
}

double SigmoidOf(double x) {
  Matrix m(1, 1, x);
  SigmoidInPlace(m);
  return m[0];
}

// |y − exact| in units in the last place of the double nearest `exact`
// (2^−1074 below the normal range). `exact` must round to a finite double.
double UlpError(double y, long double exact) {
  const double nearest = static_cast<double>(exact);
  const double ulp = std::fabs(nearest) < 0x1p-1022
                         ? 0x1p-1074
                         : std::ldexp(1.0, std::ilogb(nearest) - 52);
  return static_cast<double>(
      std::fabs(static_cast<long double>(y) - exact) / ulp);
}

struct KernelPin {
  double x;
  double y;
};

TEST(ExpTest, PinnedOutputs) {
  const KernelPin kPins[] = {
      {0.0, 1.0},
      {-0.0, 1.0},
      {-0x1p-60, 1.0},
      {1.0, 0x1.5bf0a8b14576ap+1},
      {-1.0, 0x1.78b56362cef37p-2},
      // Subnormal results, rounded once: the nearest doubles.
      {-709.0, 0x0.8bfe55de02338p-1022},
      {-740.0, 0x0.0000000000055p-1022},
      {-745.0, 0x0.0000000000001p-1022},
      // e^x crosses 2^−1075, half the least subnormal, at −745.1332...
      {-745.13, 0x0.0000000000001p-1022},
      {-745.14, 0.0},
      {-746.0, 0.0},
      {-1e308, 0.0},
      {-INFINITY, 0.0},
      // ... and DBL_MAX at 709.7827...
      {709.78, 0x1.fe9ce5c4c52b4p+1023},
      {709.79, INFINITY},
      {1e308, INFINITY},
      {INFINITY, INFINITY},
      // glibc 2.36 returns 0x1.22d1a6be2c035p-17 here through its FMA
      // build of exp and 0x1.22d1a6be2c036p-17 without it, so a kernel
      // that went back through libm fails this pin under the mask.
      {-0x1.74fdc6d7212p+3, 0x1.22d1a6be2c035p-17},
  };
  for (const KernelPin& pin : kPins) {
    EXPECT_EQ(Bits(ExpOf(pin.x)), Bits(pin.y))
        << std::hexfloat << pin.x << " -> " << ExpOf(pin.x);
  }
  for (const uint64_t nan :
       {0x7ff8000000000000ull, 0xfff8000000000000ull, 0x7ff0000000000123ull}) {
    EXPECT_TRUE(std::isnan(ExpOf(std::bit_cast<double>(nan))));
  }
}

TEST(ExpTest, WithinTwoUlpOverTheNegativeRangeAndRandomBits) {
  // 2^20 points evenly over [−745.2, 0], then 2^19 random bit patterns
  // (NaNs skipped; the pins cover them).
  constexpr size_t kSweep = size_t{1} << 20;
  constexpr size_t kRandom = size_t{1} << 19;
  Rng rng(14);
  Matrix x(kSweep + kRandom, 1);
  for (size_t i = 0; i < kSweep; ++i) {
    x[i] = -745.2 * static_cast<double>(i) / static_cast<double>(kSweep - 1);
  }
  for (size_t i = kSweep; i < x.size(); ++i) {
    do {
      x[i] = std::bit_cast<double>(rng.Next());
    } while (std::isnan(x[i]));
  }
  Matrix y = x;
  ExpInPlace(y);
  for (size_t i = 0; i < x.size(); ++i) {
    const long double exact = std::exp(static_cast<long double>(x[i]));
    if (std::isinf(static_cast<double>(exact))) {
      ASSERT_EQ(y[i], INFINITY) << std::hexfloat << x[i];
      continue;
    }
    ASSERT_LE(UlpError(y[i], exact), 2.0)
        << std::hexfloat << x[i] << " -> " << y[i];
  }
}

TEST(SigmoidTest, PinnedOutputs) {
  const KernelPin kPins[] = {
      {0.0, 0.5},
      {-0.0, 0.5},
      {1.0, 0x1.764d4f5d5a2bdp-1},
      {-1.0, 0x1.136561454ba86p-2},
      // Exactly 1 once 1 + e^−z rounds to 1.
      {36.8, 1.0},
      {1e308, 1.0},
      {INFINITY, 1.0},
      {-700.0, 0x1.14f2b0fb9308p-1010},
      {-740.0, 0x0.0000000000055p-1022},
      // Exactly 0 once e^z rounds to 0.
      {-745.14, 0.0},
      {-1e308, 0.0},
      {-INFINITY, 0.0},
      // glibc 2.36's e^z/(1 + e^z) gives 0x1.4349b4a507404p-9 here through
      // its FMA build of exp and 0x1.4349b4a507403p-9 without it, so a
      // sigmoid that went back through libm fails this pin under the mask.
      {-0x1.8028c89bbcc78p+2, 0x1.4349b4a507404p-9},
  };
  for (const KernelPin& pin : kPins) {
    EXPECT_EQ(Bits(SigmoidOf(pin.x)), Bits(pin.y))
        << std::hexfloat << pin.x << " -> " << SigmoidOf(pin.x);
  }
  for (const uint64_t nan :
       {0x7ff8000000000000ull, 0xfff8000000000000ull, 0x7ff0000000000123ull}) {
    EXPECT_TRUE(std::isnan(SigmoidOf(std::bit_cast<double>(nan))));
  }
}

TEST(SigmoidTest, WithinThreeUlpAndSaturates) {
  // 2^20 points evenly over [−700, 40] and 2^18 from N(0, 4²).
  constexpr size_t kSweep = size_t{1} << 20;
  constexpr size_t kNormal = size_t{1} << 18;
  Rng rng(15);
  Matrix z(kSweep + kNormal, 1);
  for (size_t i = 0; i < kSweep; ++i) {
    z[i] = -700.0 + 740.0 * static_cast<double>(i) /
                        static_cast<double>(kSweep - 1);
  }
  for (size_t i = kSweep; i < z.size(); ++i) z[i] = rng.Normal(0.0, 4.0);
  Matrix p = z;
  SigmoidInPlace(p);
  for (size_t i = 0; i < z.size(); ++i) {
    const long double exact =
        1.0L / (1.0L + std::exp(-static_cast<long double>(z[i])));
    ASSERT_LE(UlpError(p[i], exact), 3.0)
        << std::hexfloat << z[i] << " -> " << p[i];
    ASSERT_TRUE(p[i] >= 0.0 && p[i] <= 1.0) << std::hexfloat << z[i];
  }
}

TEST(SigmoidTest, SameBitsAtEveryOffsetAndThreadCount) {
  // Exp and sigmoid: a result must not depend on its position, its
  // neighbours (NaN and infinity included) or the pool's chunks.
  Rng rng(16);
  for (const double probe : {-0x1.74fdc6d7212p+3, -0x1.8028c89bbcc78p+2,
                             -0.0, -709.0, 3.0, 40.0}) {
    const uint64_t want_exp = Bits(ExpOf(probe));
    const uint64_t want_sigmoid = Bits(SigmoidOf(probe));
    for (size_t len = 1; len <= 17; ++len) {
      for (size_t at = 0; at < len; ++at) {
        Matrix m = RandomNormal(1, len, &rng, 0.0, 3.0);
        m[(at + 1) % len] = std::nan("");
        m[(at + len - 1) % len] = -INFINITY;
        m[at] = probe;
        Matrix e = m;
        ExpInPlace(e);
        SigmoidInPlace(m);
        ASSERT_EQ(Bits(e[at]), want_exp) << std::hexfloat << probe;
        ASSERT_EQ(Bits(m[at]), want_sigmoid) << std::hexfloat << probe;
      }
    }
  }
  const Matrix x = RandomNormal(181, 183, &rng, 0.0, 30.0);
  SetGlobalThreads(1);
  Matrix exp_serial = x;
  ExpInPlace(exp_serial);
  Matrix sigmoid_serial = x;
  SigmoidInPlace(sigmoid_serial);
  for (const size_t threads : {2u, 4u}) {
    SetGlobalThreads(threads);
    Matrix e = x;
    ExpInPlace(e);
    Matrix s = x;
    SigmoidInPlace(s);
    EXPECT_TRUE(SameBits(e, exp_serial)) << "threads=" << threads;
    EXPECT_TRUE(SameBits(s, sigmoid_serial)) << "threads=" << threads;
  }
  SetGlobalThreads(0);
}

TEST(LogisticTest, ProbaOfARowIgnoresItsBlockAndThreadCount) {
  // 9,001 rows of 37 columns: past the serial threshold, so the pool
  // splits them, with a partial group of eight columns and a row tail
  // at every level. Each row must score as it does alone.
  Rng rng(17);
  const Matrix x = RandomNormal(9001, 37, &rng);
  const Matrix w = RandomNormal(37, 1, &rng, 0.0, 0.5);
  const double b = -0.3;
  std::vector<double> alone(x.rows());
  for (size_t i = 0; i < x.rows(); ++i) {
    LogisticProba(x.Row(i), w, b, &alone[i]);
  }
  for (const size_t threads : {1u, 2u, 4u}) {
    SetGlobalThreads(threads);
    std::vector<double> p(x.rows());
    LogisticProba(x, w, b, p.data());
    for (size_t i = 0; i < x.rows(); ++i) {
      ASSERT_EQ(Bits(p[i]), Bits(alone[i]))
          << "row " << i << " threads=" << threads;
    }
  }
  SetGlobalThreads(0);
}

// ------------------------------------------------------ Property sweeps

class MatmulPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(MatmulPropertyTest, AssociativityAndDistributivity) {
  Rng rng(static_cast<uint64_t>(GetParam()));
  const size_t m = 1 + rng.UniformInt(6u);
  const size_t k = 1 + rng.UniformInt(6u);
  const size_t n = 1 + rng.UniformInt(6u);
  const size_t p = 1 + rng.UniformInt(6u);
  Matrix a = RandomNormal(m, k, &rng);
  Matrix b = RandomNormal(k, n, &rng);
  Matrix c = RandomNormal(n, p, &rng);
  Matrix d = RandomNormal(k, n, &rng);
  EXPECT_TRUE(Matmul(Matmul(a, b), c).AllClose(Matmul(a, Matmul(b, c)),
                                               1e-9, 1e-9));
  EXPECT_TRUE(Matmul(a, Add(b, d)).AllClose(
      Add(Matmul(a, b), Matmul(a, d)), 1e-9, 1e-9));
}

TEST_P(MatmulPropertyTest, TransposeReversesProduct) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 1000);
  const size_t m = 1 + rng.UniformInt(6u);
  const size_t k = 1 + rng.UniformInt(6u);
  const size_t n = 1 + rng.UniformInt(6u);
  Matrix a = RandomNormal(m, k, &rng);
  Matrix b = RandomNormal(k, n, &rng);
  EXPECT_TRUE(Transpose(Matmul(a, b))
                  .AllClose(Matmul(Transpose(b), Transpose(a)), 1e-9, 1e-9));
}

INSTANTIATE_TEST_SUITE_P(RandomShapes, MatmulPropertyTest,
                         ::testing::Range(0, 10));

class SoftmaxPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SoftmaxPropertyTest, ShiftInvariance) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 99);
  Matrix a = RandomNormal(3, 5, &rng, 0.0, 3.0);
  Matrix shifted = AddScalar(a, rng.Uniform(-10.0, 10.0));
  EXPECT_TRUE(SoftmaxRows(a).AllClose(SoftmaxRows(shifted), 1e-9, 1e-12));
}

TEST_P(SoftmaxPropertyTest, LogSumExpDominatesMax) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 7);
  Matrix a = RandomNormal(4, 6, &rng, 0.0, 5.0);
  Matrix lse = LogSumExpRows(a);
  for (size_t r = 0; r < a.rows(); ++r) {
    double mx = a(r, 0);
    for (size_t c = 1; c < a.cols(); ++c) mx = std::max(mx, a(r, c));
    EXPECT_GE(lse(r, 0), mx);
    EXPECT_LE(lse(r, 0), mx + std::log(static_cast<double>(a.cols())) + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInputs, SoftmaxPropertyTest,
                         ::testing::Range(0, 10));

TEST(InitTest, XavierWithinLimit) {
  Rng rng(3);
  const size_t fan_in = 30, fan_out = 20;
  Matrix w = XavierUniform(fan_in, fan_out, &rng);
  const double limit = std::sqrt(6.0 / (fan_in + fan_out));
  for (size_t i = 0; i < w.size(); ++i) {
    EXPECT_LE(std::fabs(w[i]), limit);
  }
}

// ------------------------------------------------------------- Serialize

TEST(SerializeTest, StreamRoundTrip) {
  Rng rng(5);
  Matrix m = RandomNormal(4, 7, &rng);
  std::stringstream ss;
  ASSERT_TRUE(WriteMatrix(&ss, m).ok());
  Matrix back(4, 7);
  ASSERT_TRUE(ReadMatrix(&ss, &back).ok());
  EXPECT_TRUE(back.AllClose(m, 0.0, 0.0));  // %.17g is lossless.
}

TEST(SerializeTest, RejectsBadHeader) {
  std::stringstream ss("garbage 2 2\n1 2\n3 4\n");
  Matrix out(2, 2);
  EXPECT_FALSE(ReadMatrix(&ss, &out).ok());
}

TEST(SerializeTest, RejectsTruncatedBody) {
  std::stringstream ss("matrix 2 2\n1 2 3\n");
  Matrix out(2, 2);
  EXPECT_FALSE(ReadMatrix(&ss, &out).ok());
}

TEST(SerializeTest, RejectsUnexpectedShapeBeforeReadingElements) {
  // Header shapes that differ from the expected one — transposed, huge,
  // or negative (which wraps to a huge size_t) — fail without touching
  // the output.
  for (const char* text : {"matrix 3 2\n1 2 3 4 5 6\n",
                           "matrix 1 1000000000000\n1\n",
                           "matrix 1 -1\n1\n"}) {
    std::stringstream ss(text);
    Matrix out(2, 3, 7.0);
    EXPECT_FALSE(ReadMatrix(&ss, &out).ok()) << text;
    EXPECT_EQ(out, Matrix(2, 3, 7.0)) << text;
  }
}

// ------------------------------------------------ Training-step kernels
// tests/CMakeLists.txt runs TrainingKernelTest.* again at the narrower
// kernel levels. Each kernel is pinned bit for bit against the scalar
// loop it replaced: flat lengths 0-17 and the training shapes, rows
// starting at odd offsets from an aligned buffer (the kernels load
// unaligned), and the public wrappers in tensor/ops.h on top.

// The flat lengths and the rows × cols shapes every kernel is pinned on.
constexpr size_t kPinLengths[] = {0, 1,  2,  3,  4,  5,  6,  7,  8,
                                  9, 10, 11, 12, 13, 14, 15, 16, 17};
constexpr size_t kPinShapes[][2] = {
    {64, 64}, {64, 32}, {1, 32}, {3, 7}, {5, 17}, {2, 1}, {0, 5}};
constexpr size_t kPinOffsets[] = {0, 1, 3};

// n doubles from N(0, 2²) at data() + offset of a buffer of offset + n.
std::vector<double> RandomBuffer(size_t offset, size_t n, Rng* rng) {
  std::vector<double> v(offset + n);
  for (double& x : v) x = rng->Normal(0.0, 2.0);
  return v;
}

bool SameBits(const std::vector<double>& x, const std::vector<double>& y) {
  return x.size() == y.size() &&
         (x.empty() ||
          std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0);
}

TEST(TrainingKernelTest, AddMatchesTheScalarLoop) {
  Rng rng(60);
  std::vector<size_t> lengths(std::begin(kPinLengths), std::end(kPinLengths));
  for (const auto& shape : kPinShapes) lengths.push_back(shape[0] * shape[1]);
  for (const size_t n : lengths) {
    for (const size_t off : kPinOffsets) {
      std::vector<double> y = RandomBuffer(off, n, &rng);
      const std::vector<double> x = RandomBuffer(off, n, &rng);
      std::vector<double> want = y;
      for (size_t i = 0; i < n; ++i) want[off + i] += x[off + i];
      kernels::Active().add(y.data() + off, x.data() + off, n);
      ASSERT_TRUE(SameBits(y, want)) << "n=" << n << " off=" << off;
    }
  }
  // Matrix::operator+= runs it.
  Matrix a = RandomNormal(64, 32, &rng);
  const Matrix b = RandomNormal(64, 32, &rng);
  Matrix want = a;
  for (size_t i = 0; i < want.size(); ++i) want[i] = a[i] + b[i];
  a += b;
  EXPECT_TRUE(SameBits(a, want));
}

// The parent's scalar activation formulas.
double ScalarActivation(double x, Activation activation) {
  switch (activation) {
    case Activation::kNone:
      return x;
    case Activation::kTanh: {
      Matrix m(1, 1, x);
      TanhInPlace(m);
      return m[0];
    }
    case Activation::kRelu:
      return x > 0.0 ? x : 0.0;
    case Activation::kSigmoid:
      if (x >= 0.0) return 1.0 / (1.0 + std::exp(-x));
      return std::exp(x) / (1.0 + std::exp(x));
  }
  return x;
}

constexpr Activation kActivations[] = {Activation::kNone, Activation::kTanh,
                                       Activation::kRelu,
                                       Activation::kSigmoid};

TEST(TrainingKernelTest, AddBiasActivateMatchesTheScalarLoop) {
  Rng rng(61);
  for (const auto& shape : kPinShapes) {
    const size_t rows = shape[0];
    const size_t cols = shape[1];
    for (const size_t off : kPinOffsets) {
      const std::vector<double> y = RandomBuffer(off, rows * cols, &rng);
      const std::vector<double> bias = RandomBuffer(off, cols, &rng);
      std::vector<double> want_add = y;
      std::vector<double> want_tanh = y;
      for (size_t r = 0; r < rows; ++r) {
        for (size_t c = 0; c < cols; ++c) {
          const size_t i = off + r * cols + c;
          want_add[i] = y[i] + bias[off + c];
          want_tanh[i] = ScalarActivation(want_add[i], Activation::kTanh);
        }
      }
      std::vector<double> got = y;
      kernels::Active().add_bias(got.data() + off, rows, cols,
                                 bias.data() + off);
      ASSERT_TRUE(SameBits(got, want_add)) << rows << "x" << cols;
      got = y;
      kernels::Active().add_bias_tanh(got.data() + off, rows, cols,
                                      bias.data() + off);
      ASSERT_TRUE(SameBits(got, want_tanh)) << rows << "x" << cols;
    }
    // The public pass, every activation.
    const Matrix m = RandomNormal(rows, cols, &rng, 0.0, 2.0);
    const Matrix bias = RandomNormal(1, cols, &rng, 0.0, 2.0);
    for (const Activation activation : kActivations) {
      Matrix got = m;
      AddBiasActivate(got, bias, activation);
      Matrix want = m;
      for (size_t r = 0; r < rows; ++r) {
        for (size_t c = 0; c < cols; ++c) {
          want(r, c) = ScalarActivation(m(r, c) + bias[c], activation);
        }
      }
      ASSERT_TRUE(SameBits(got, want))
          << rows << "x" << cols << " activation "
          << static_cast<int>(activation);
    }
  }
}

TEST(TrainingKernelTest, AddBiasActivateIdenticalAtOneTwoAndFourThreads) {
  // 600 × 64 is past the row-map serial threshold, so the pool splits it.
  Rng rng(62);
  const Matrix m = RandomNormal(600, 64, &rng, 0.0, 2.0);
  const Matrix bias = RandomNormal(1, 64, &rng);
  for (const Activation activation : kActivations) {
    SetGlobalThreads(1);
    Matrix serial = m;
    AddBiasActivate(serial, bias, activation);
    for (const size_t threads : {2u, 4u}) {
      SetGlobalThreads(threads);
      Matrix parallel = m;
      AddBiasActivate(parallel, bias, activation);
      EXPECT_TRUE(SameBits(parallel, serial)) << "threads=" << threads;
    }
  }
  SetGlobalThreads(0);
}

TEST(TrainingKernelTest, ActivationGradMatchesTheScalarLoop) {
  Rng rng(63);
  std::vector<size_t> lengths(std::begin(kPinLengths), std::end(kPinLengths));
  for (const auto& shape : kPinShapes) lengths.push_back(shape[0] * shape[1]);
  for (const size_t n : lengths) {
    for (const size_t off : kPinOffsets) {
      const std::vector<double> y = RandomBuffer(off, n, &rng);
      const std::vector<double> dy = RandomBuffer(off, n, &rng);
      std::vector<double> want(off + n, 0.0);
      std::vector<double> got(off + n, 0.0);
      for (size_t i = off; i < off + n; ++i) {
        want[i] = dy[i] * (1.0 - y[i] * y[i]);
      }
      kernels::Active().tanh_grad(y.data() + off, dy.data() + off,
                                  got.data() + off, n);
      ASSERT_TRUE(SameBits(got, want)) << "n=" << n << " off=" << off;
    }
  }
  // The public wrapper, every activation, from the activation's output.
  const Matrix dy = RandomNormal(64, 32, &rng);
  for (const Activation activation : kActivations) {
    Matrix y = RandomNormal(64, 32, &rng);
    AddBiasActivate(y, Matrix(1, 32), activation);
    Matrix got;
    ActivationGrad(y, dy, activation, got);
    Matrix want(64, 32);
    for (size_t i = 0; i < want.size(); ++i) {
      switch (activation) {
        case Activation::kNone:
          want[i] = dy[i];
          break;
        case Activation::kTanh:
          want[i] = dy[i] * (1.0 - y[i] * y[i]);
          break;
        case Activation::kRelu:
          want[i] = y[i] > 0.0 ? dy[i] : 0.0;
          break;
        case Activation::kSigmoid:
          want[i] = dy[i] * y[i] * (1.0 - y[i]);
          break;
      }
    }
    EXPECT_TRUE(SameBits(got, want)) << static_cast<int>(activation);
  }
}

TEST(TrainingKernelTest, ColSumMatchesTheScalarLoop) {
  Rng rng(64);
  for (const auto& shape : kPinShapes) {
    const size_t rows = shape[0];
    const size_t cols = shape[1];
    for (const size_t off : kPinOffsets) {
      std::vector<double> a = RandomBuffer(off, rows * cols, &rng);
      // A column of -0 must sum to +0, as a chain from +0 does.
      if (rows * cols > 0) {
        for (size_t r = 0; r < rows; ++r) a[off + r * cols] = -0.0;
      }
      std::vector<double> want(off + cols, 7.0);
      std::vector<double> got(off + cols, 7.0);
      for (size_t c = 0; c < cols; ++c) want[off + c] = 0.0;
      for (size_t r = 0; r < rows; ++r) {
        for (size_t c = 0; c < cols; ++c) {
          want[off + c] += a[off + r * cols + c];
        }
      }
      kernels::Active().col_sum(a.data() + off, rows, cols, got.data() + off);
      ASSERT_TRUE(SameBits(got, want))
          << rows << "x" << cols << " off=" << off;
    }
  }
  for (const size_t cols : kPinLengths) {
    const Matrix a = RandomNormal(9, cols, &rng);
    Matrix want(1, cols);
    for (size_t r = 0; r < a.rows(); ++r) {
      for (size_t c = 0; c < cols; ++c) want[c] += a(r, c);
    }
    ASSERT_TRUE(SameBits(ColSum(a), want)) << "cols=" << cols;
  }
}

TEST(TrainingKernelTest, RowCosineGradMatchesTheScalarLoop) {
  Rng rng(65);
  const double eps = 1e-12;
  for (const auto& shape : kPinShapes) {
    const size_t rows = shape[0];
    const size_t cols = shape[1];
    Matrix a = RandomNormal(rows, cols, &rng);
    const Matrix b = RandomNormal(rows, cols, &rng);
    if (rows > 1) {
      for (size_t c = 0; c < cols; ++c) a(1, c) = 0.0;  // A clamped norm.
    }
    const Matrix grad = RandomNormal(rows, 1, &rng);
    std::vector<double> norms(2 * rows);
    const Matrix cos = RowCosine(a, b, eps, norms.data());
    ASSERT_TRUE(SameBits(cos, RowCosine(a, b, eps)));
    // The parent's backward, which recomputed the sums.
    Matrix want_a(rows, cols);
    Matrix want_b(rows, cols);
    for (size_t r = 0; r < rows; ++r) {
      double dot = 0.0, na2 = 0.0, nb2 = 0.0;
      for (size_t c = 0; c < cols; ++c) {
        dot += a(r, c) * b(r, c);
        na2 += a(r, c) * a(r, c);
        nb2 += b(r, c) * b(r, c);
      }
      const double na = std::max(std::sqrt(na2), eps);
      const double nb = std::max(std::sqrt(nb2), eps);
      ASSERT_EQ(Bits(norms[2 * r]), Bits(na));
      ASSERT_EQ(Bits(norms[2 * r + 1]), Bits(nb));
      const double cosv = dot / (na * nb);
      ASSERT_EQ(Bits(cos(r, 0)), Bits(cosv));
      const double g = grad(r, 0);
      for (size_t c = 0; c < cols; ++c) {
        want_a(r, c) = g * (b(r, c) / (na * nb) - cosv * a(r, c) / (na * na));
        want_b(r, c) = g * (a(r, c) / (na * nb) - cosv * b(r, c) / (nb * nb));
      }
    }
    Matrix ga;
    Matrix gb;
    RowCosineGrad(a, b, cos, norms.data(), grad, &ga, &gb);
    ASSERT_TRUE(SameBits(ga, want_a)) << rows << "x" << cols;
    ASSERT_TRUE(SameBits(gb, want_b)) << rows << "x" << cols;
    Matrix only_b;
    RowCosineGrad(a, b, cos, norms.data(), grad, nullptr, &only_b);
    ASSERT_TRUE(SameBits(only_b, want_b)) << rows << "x" << cols;
    // Rows at odd offsets: a one-column-shifted copy of each operand.
    for (const size_t off : kPinOffsets) {
      std::vector<double> av(off + rows * cols);
      std::vector<double> bv(off + rows * cols);
      std::copy(a.data(), a.data() + a.size(), av.begin() + off);
      std::copy(b.data(), b.data() + b.size(), bv.begin() + off);
      std::vector<double> gav(off + rows * cols, 0.0);
      std::vector<double> gbv(off + rows * cols, 0.0);
      const kernels::RowCosineOperands op{
          av.data() + off, bv.data() + off, cos.data(),        norms.data(),
          grad.data(),     gav.data() + off, gbv.data() + off, cols};
      kernels::Active().row_cosine_grad(op, 0, rows);
      const std::vector<double> got_a(gav.begin() + off, gav.end());
      const std::vector<double> got_b(gbv.begin() + off, gbv.end());
      ASSERT_TRUE(SameBits(
          got_a, std::vector<double>(want_a.data(),
                                     want_a.data() + want_a.size())))
          << rows << "x" << cols << " off=" << off;
      ASSERT_TRUE(SameBits(
          got_b, std::vector<double>(want_b.data(),
                                     want_b.data() + want_b.size())))
          << rows << "x" << cols << " off=" << off;
    }
  }
}

TEST(TrainingKernelTest, AdamUpdateMatchesTheScalarLoop) {
  Rng rng(66);
  std::vector<size_t> lengths(std::begin(kPinLengths), std::end(kPinLengths));
  for (const auto& shape : kPinShapes) lengths.push_back(shape[0] * shape[1]);
  for (const double weight_decay : {0.0, 0.01}) {
    for (const size_t n : lengths) {
      for (const size_t off : kPinOffsets) {
        std::vector<double> value = RandomBuffer(off, n, &rng);
        std::vector<double> m = RandomBuffer(off, n, &rng);
        std::vector<double> v = RandomBuffer(off, n, &rng);
        for (double& x : v) x = std::fabs(x);
        const std::vector<double> grad = RandomBuffer(off, n, &rng);
        const int t = 1 + static_cast<int>(n % 5);
        const double lr = 0.01, beta1 = 0.9, beta2 = 0.999, eps = 1e-8;
        const double bc1 = 1.0 - std::pow(beta1, static_cast<double>(t));
        const double bc2 = 1.0 - std::pow(beta2, static_cast<double>(t));
        std::vector<double> want_value = value;
        std::vector<double> want_m = m;
        std::vector<double> want_v = v;
        for (size_t j = off; j < off + n; ++j) {
          const double g = grad[j] + weight_decay * want_value[j];
          want_m[j] = beta1 * want_m[j] + (1.0 - beta1) * g;
          want_v[j] = beta2 * want_v[j] + (1.0 - beta2) * g * g;
          const double mhat = want_m[j] / bc1;
          const double vhat = want_v[j] / bc2;
          want_value[j] -= lr * mhat / (std::sqrt(vhat) + eps);
        }
        const kernels::AdamOperands op{
            value.data() + off, grad.data() + off, m.data() + off,
            v.data() + off,     n,                 lr,
            beta1,              beta2,             1.0 - beta1,
            1.0 - beta2,        bc1,               bc2,
            eps,                weight_decay};
        kernels::Active().adam_step(op);
        ASSERT_TRUE(SameBits(value, want_value)) << "n=" << n << " off=" << off;
        ASSERT_TRUE(SameBits(m, want_m)) << "n=" << n << " off=" << off;
        ASSERT_TRUE(SameBits(v, want_v)) << "n=" << n << " off=" << off;
      }
    }
  }
  // The public wrapper.
  Matrix value = RandomNormal(64, 32, &rng);
  Matrix m(64, 32);
  Matrix v(64, 32);
  const Matrix grad = RandomNormal(64, 32, &rng);
  const AdamCoefficients c{0.001, 0.9, 0.999, 1e-8, 0.0, 1.0 - 0.9,
                           1.0 - 0.999};
  Matrix want = value;
  for (size_t j = 0; j < want.size(); ++j) {
    const double g = grad[j] + 0.0 * want[j];
    const double mj = 0.9 * 0.0 + (1.0 - 0.9) * g;
    const double vj = 0.999 * 0.0 + (1.0 - 0.999) * g * g;
    want[j] -= 0.001 * (mj / c.bias_correction1) /
               (std::sqrt(vj / c.bias_correction2) + 1e-8);
  }
  AdamUpdate(c, grad, value, m, v);
  EXPECT_TRUE(SameBits(value, want));
}

}  // namespace
}  // namespace rll
