// rll-analyze: hot-path — every kernel here sits inside the trainer batch
// loop or the serve request path; allocation is reserved for Reshape growth
// and the growth of Gemm's per-thread Bᵀ buffer.
#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <vector>

#if defined(__x86_64__) && __has_include(<sys/platform/x86.h>)
#include <sys/platform/x86.h>  // glibc >= 2.33
#endif

#include "common/finite_check.h"
#include "common/threading.h"
#include "tensor/kernels.h"

namespace rll {

namespace {

// Grain calibration, measured with bench/micro_ops on the release preset:
// dispatching one pool chunk costs a few microseconds, so a chunk must carry
// at least ~64k flops (gemm) or ~16k touched elements (memory-bound maps)
// before parallelism wins. Work below the serial thresholds runs as a single
// inline chunk — identical code path and cost to the pre-pool kernels.
constexpr size_t kGemmSerialFlops = 1u << 18;
constexpr size_t kGemmGrainFlops = 1u << 16;
constexpr size_t kElemSerialSize = 1u << 15;
constexpr size_t kElemGrain = 1u << 14;
constexpr size_t kRowSerialSize = 1u << 15;
constexpr size_t kRowGrainFlops = 1u << 13;
constexpr size_t kReduceGrain = 1u << 15;

// Rows per chunk for a gemm-shaped kernel doing `flops_per_row` work per
// row; collapses to one chunk (inline execution) under the serial floor.
size_t GemmRowGrain(size_t rows, size_t flops_per_row) {
  if (rows * flops_per_row < kGemmSerialFlops) return std::max<size_t>(rows, 1);
  return std::max<size_t>(1, kGemmGrainFlops / std::max<size_t>(flops_per_row, 1));
}

// Rows per chunk for a row-wise map touching `cols` elements per row.
size_t RowOpGrain(size_t rows, size_t cols) {
  if (rows * cols < kRowSerialSize) return std::max<size_t>(rows, 1);
  return std::max<size_t>(1, kRowGrainFlops / std::max<size_t>(cols, 1));
}

// Elements per chunk for flat elementwise maps.
size_t ElemGrain(size_t n) {
  return n < kElemSerialSize ? std::max<size_t>(n, 1) : kElemGrain;
}

// The vector kernels run at one vector level per process, picked on first
// use from the CPU features glibc reports active. These, unlike
// __builtin_cpu_supports, honour GLIBC_TUNABLES=glibc.cpu.hwcaps=-AVX512F
// (or -AVX2), so one process can be held to a narrower level. The 8-lane
// build may use any AVX2 instruction as well, so it needs both features.
// Every level returns the same bits (kernels.h).
const kernels::Level& PickKernelLevel() {
#if defined(__x86_64__) && __has_include(<sys/platform/x86.h>)
  if (CPU_FEATURE_ACTIVE(AVX512F) && CPU_FEATURE_ACTIVE(AVX2)) {
    return kernels::avx512f::Table();
  }
  if (CPU_FEATURE_ACTIVE(AVX2)) return kernels::avx2::Table();
#endif
  return kernels::baseline::Table();
}

// Applies one of the level's elementwise maps to m in place. Each element
// depends on its own input alone, so the partition is bitwise-stable.
void MapInPlace(Matrix& m, void (*map)(double*, size_t)) {
  double* d = m.data();
  ParallelFor(0, m.size(), ElemGrain(m.size()),
              [&](size_t lo, size_t hi) { map(d + lo, hi - lo); });
}

}  // namespace

const kernels::Level& kernels::Active() {
  static const Level& level = PickKernelLevel();
  return level;
}

void Gemm(const Matrix& a, bool trans_a, const Matrix& b, bool trans_b,
          Matrix& out) {
  // Reshape and the tiles write `out` before the last reads of the inputs.
  RLL_CHECK_MSG(&out != &a, "Gemm output aliases a");
  RLL_CHECK_MSG(&out != &b, "Gemm output aliases b");
  const size_t m = trans_a ? a.cols() : a.rows();
  const size_t k = trans_a ? a.rows() : a.cols();
  const size_t n = trans_b ? b.rows() : b.cols();
  RLL_CHECK_EQ(k, trans_b ? b.cols() : b.rows());
  out.Reshape(m, n);
  if (k == 0) {  // Empty sums; the empty operands' data() may be null.
    out.Fill(0.0);
    return;
  }
  kernels::GemmOperands g{a.data(), trans_a ? 1 : k, trans_a ? m : 1,
                          b.data(), out.data(), k, n};
  if (trans_b) {
    // Tiles stream rows of op(B), so Bᵀ is packed row-major once per
    // call, by the calling thread. The buffer only grows, so steady-state
    // callers allocate nothing; row-major B is read in place.
    thread_local std::vector<double> packed;
    if (packed.size() < k * n) packed.resize(k * n);
    for (size_t p = 0; p < k; ++p) {
      for (size_t j = 0; j < n; ++j) packed[p * n + j] = b(j, p);
    }
    g.b = packed.data();
  }
  // Rows of C are independent, so the row partition is bitwise-stable.
  const auto gemm_rows = kernels::Active().gemm_rows;
  ParallelFor(0, m, GemmRowGrain(m, k * n),
              [&](size_t row_begin, size_t row_end) {
                gemm_rows(g, row_begin, row_end);
              });
  RLL_DCHECK_FINITE(out);
}

const char* KernelIsa() { return kernels::Active().name; }

Matrix Matmul(const Matrix& a, const Matrix& b) {
  Matrix c;
  Gemm(a, false, b, false, c);
  return c;
}

Matrix Transpose(const Matrix& a) {
  Matrix t(a.cols(), a.rows());
  ParallelFor(0, a.cols(), RowOpGrain(a.cols(), a.rows()),
              [&](size_t row_begin, size_t row_end) {
                for (size_t r = row_begin; r < row_end; ++r) {
                  double* trow = t.row_data(r);
                  for (size_t c = 0; c < a.rows(); ++c) trow[c] = a(c, r);
                }
              });
  return t;
}

Matrix Add(const Matrix& a, const Matrix& b) {
  RLL_CHECK(a.SameShape(b));
  Matrix c(a.rows(), a.cols());
  ParallelFor(0, a.size(), ElemGrain(a.size()), [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) c[i] = a[i] + b[i];
  });
  return c;
}

Matrix Sub(const Matrix& a, const Matrix& b) {
  RLL_CHECK(a.SameShape(b));
  Matrix c(a.rows(), a.cols());
  ParallelFor(0, a.size(), ElemGrain(a.size()), [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) c[i] = a[i] - b[i];
  });
  return c;
}

Matrix Hadamard(const Matrix& a, const Matrix& b) {
  RLL_CHECK(a.SameShape(b));
  Matrix c(a.rows(), a.cols());
  ParallelFor(0, a.size(), ElemGrain(a.size()), [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) c[i] = a[i] * b[i];
  });
  return c;
}

Matrix Scale(const Matrix& a, double s) {
  Matrix c(a.rows(), a.cols());
  ParallelFor(0, a.size(), ElemGrain(a.size()), [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) c[i] = a[i] * s;
  });
  return c;
}

Matrix AddScalar(const Matrix& a, double s) {
  Matrix c(a.rows(), a.cols());
  ParallelFor(0, a.size(), ElemGrain(a.size()), [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) c[i] = a[i] + s;
  });
  return c;
}

Matrix AddRowBroadcast(const Matrix& a, const Matrix& row) {
  Matrix c = a;
  AddBiasActivate(c, row, Activation::kNone);
  return c;
}

Matrix MulRowBroadcast(const Matrix& a, const Matrix& row) {
  RLL_CHECK_EQ(row.rows(), 1u);
  RLL_CHECK_EQ(row.cols(), a.cols());
  Matrix c = a;
  ParallelFor(0, c.rows(), RowOpGrain(c.rows(), c.cols()),
              [&](size_t row_begin, size_t row_end) {
                for (size_t r = row_begin; r < row_end; ++r) {
                  double* crow = c.row_data(r);
                  for (size_t j = 0; j < c.cols(); ++j) crow[j] *= row[j];
                }
              });
  return c;
}

Matrix Map(const Matrix& a, const std::function<double(double)>& f) {
  Matrix c(a.rows(), a.cols());
  ParallelFor(0, a.size(), ElemGrain(a.size()), [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) c[i] = f(a[i]);
  });
  return c;
}

void TanhInPlace(Matrix& m) { MapInPlace(m, kernels::Active().tanh); }

void ExpInPlace(Matrix& m) { MapInPlace(m, kernels::Active().exp); }

void SigmoidInPlace(Matrix& m) { MapInPlace(m, kernels::Active().sigmoid); }

void AddBiasActivate(Matrix& m, const Matrix& bias, Activation activation) {
  RLL_CHECK_EQ(bias.rows(), 1u);
  RLL_CHECK_EQ(bias.cols(), m.cols());
  const size_t cols = m.cols();
  const kernels::Level& k = kernels::Active();
  const auto pass = activation == Activation::kTanh ? k.add_bias_tanh
                                                    : k.add_bias;
  // Rows are independent, so the row partition is bitwise-stable.
  const size_t grain = RowOpGrain(m.rows(), cols);
  ParallelFor(0, m.rows(), grain, [&](size_t lo, size_t hi) {
    double* y = m.data() + lo * cols;
    const size_t n = (hi - lo) * cols;
    pass(y, hi - lo, cols, bias.data());
    if (activation == Activation::kRelu) {
      for (size_t i = 0; i < n; ++i) y[i] = y[i] > 0.0 ? y[i] : 0.0;
    } else if (activation == Activation::kSigmoid) {
      for (size_t i = 0; i < n; ++i) {
        // Branch on sign for numerical stability at large |x|.
        const double x = y[i];
        if (x >= 0.0) {
          y[i] = 1.0 / (1.0 + std::exp(-x));
        } else {
          const double e = std::exp(x);
          y[i] = e / (1.0 + e);
        }
      }
    }
  });
}

void ActivationGrad(const Matrix& y, const Matrix& dy, Activation activation,
                    Matrix& dz) {
  RLL_CHECK(y.SameShape(dy));
  RLL_CHECK_MSG(&dz != &y && &dz != &dy, "ActivationGrad output aliases");
  dz.Reshape(y.rows(), y.cols());
  const size_t n = y.size();
  switch (activation) {
    case Activation::kNone:
      for (size_t i = 0; i < n; ++i) dz[i] = dy[i];
      return;
    case Activation::kTanh:
      kernels::Active().tanh_grad(y.data(), dy.data(), dz.data(), n);
      return;
    case Activation::kRelu:
      // y > 0 exactly where the input was > 0.
      for (size_t i = 0; i < n; ++i) dz[i] = y[i] > 0.0 ? dy[i] : 0.0;
      return;
    case Activation::kSigmoid:
      for (size_t i = 0; i < n; ++i) dz[i] = dy[i] * y[i] * (1.0 - y[i]);
      return;
  }
  RLL_CHECK_MSG(false, "unknown activation");
}

void LogisticProba(const Matrix& x, const Matrix& w, double b, double* p) {
  RLL_CHECK_EQ(w.rows(), x.cols());
  RLL_CHECK_EQ(w.cols(), 1u);
  const kernels::LogisticOperands op{
      x.data(), x.rows(), x.cols(), w.data(), b, nullptr, nullptr, 0.0};
  const auto proba = kernels::Active().logistic_proba;
  // Rows are independent, so the row partition is bitwise-stable.
  ParallelFor(0, x.rows(), GemmRowGrain(x.rows(), x.cols()),
              [&](size_t lo, size_t hi) { proba(op, lo, hi, p); });
}

void LogisticGradient(const Matrix& x, const Matrix& w, double b,
                      const std::vector<double>& targets,
                      const std::vector<double>& sample_weights,
                      double weight_sum, Matrix& grad_w, double* grad_b) {
  RLL_CHECK_EQ(w.rows(), x.cols());
  RLL_CHECK_EQ(w.cols(), 1u);
  RLL_CHECK_EQ(targets.size(), x.rows());
  RLL_CHECK_EQ(sample_weights.size(), x.rows());
  RLL_CHECK_MSG(&grad_w != &w, "LogisticGradient output aliases w");
  grad_w.Reshape(x.cols(), 1);
  const kernels::LogisticOperands op{
      x.data(),       x.rows(), x.cols(), w.data(), b,
      targets.data(), sample_weights.data(), weight_sum};
  kernels::Active().logistic_gradient(op, grad_w.data(), grad_b);
}

double Sum(const Matrix& a) {
  // Chunk boundaries depend only on the size, so the tree shape (and the
  // FP result) is identical at any thread count. One chunk's sum never
  // ends at −0, so the fold's +0 + s leaves its bits.
  return ParallelReduce(
      0, a.size(), kReduceGrain, 0.0,
      [&](size_t lo, size_t hi) {
        double s = 0.0;
        for (size_t i = lo; i < hi; ++i) s += a[i];
        return s;
      },
      [](double x, double y) { return x + y; });
}

double Mean(const Matrix& a) {
  RLL_CHECK_GT(a.size(), 0u);
  return Sum(a) / static_cast<double>(a.size());
}

double Max(const Matrix& a) {
  RLL_CHECK_GT(a.size(), 0u);
  double m = a[0];
  for (size_t i = 1; i < a.size(); ++i) m = std::max(m, a[i]);
  return m;
}

Matrix RowSum(const Matrix& a) {
  Matrix out(a.rows(), 1);
  ParallelFor(0, a.rows(), RowOpGrain(a.rows(), a.cols()),
              [&](size_t row_begin, size_t row_end) {
                for (size_t r = row_begin; r < row_end; ++r) {
                  const double* row = a.row_data(r);
                  double s = 0.0;
                  for (size_t c = 0; c < a.cols(); ++c) s += row[c];
                  out(r, 0) = s;
                }
              });
  return out;
}

Matrix ColSum(const Matrix& a) {
  // Serial: each column is one chain of adds from +0, rows top to bottom.
  Matrix out(1, a.cols());
  kernels::Active().col_sum(a.data(), a.rows(), a.cols(), out.data());
  return out;
}

Matrix ColMean(const Matrix& a) {
  RLL_CHECK_GT(a.rows(), 0u);
  Matrix out = ColSum(a);
  out *= 1.0 / static_cast<double>(a.rows());
  return out;
}

double Dot(const Matrix& a, const Matrix& b) {
  RLL_CHECK(a.SameShape(b));
  return ParallelReduce(
      0, a.size(), kReduceGrain, 0.0,
      [&](size_t lo, size_t hi) {
        double s = 0.0;
        for (size_t i = lo; i < hi; ++i) s += a[i] * b[i];
        return s;
      },
      [](double x, double y) { return x + y; });
}

double Norm(const Matrix& a) { return std::sqrt(Dot(a, a)); }

Matrix RowCosine(const Matrix& a, const Matrix& b, double eps,
                 double* norms) {
  RLL_CHECK(a.SameShape(b));
  Matrix out(a.rows(), 1);
  ParallelFor(0, a.rows(), RowOpGrain(a.rows(), a.cols()),
              [&](size_t row_begin, size_t row_end) {
                for (size_t r = row_begin; r < row_end; ++r) {
                  const double* ar = a.row_data(r);
                  const double* br = b.row_data(r);
                  double dot = 0.0, na = 0.0, nb = 0.0;
                  for (size_t c = 0; c < a.cols(); ++c) {
                    dot += ar[c] * br[c];
                    na += ar[c] * ar[c];
                    nb += br[c] * br[c];
                  }
                  const double norm_a = std::max(std::sqrt(na), eps);
                  const double norm_b = std::max(std::sqrt(nb), eps);
                  out(r, 0) = dot / (norm_a * norm_b);
                  if (norms != nullptr) {
                    norms[2 * r] = norm_a;
                    norms[2 * r + 1] = norm_b;
                  }
                }
              });
  RLL_DCHECK_FINITE(out);
  return out;
}

void RowCosineGrad(const Matrix& a, const Matrix& b, const Matrix& cos,
                   const double* norms, const Matrix& grad, Matrix* ga,
                   Matrix* gb) {
  RLL_CHECK(a.SameShape(b));
  RLL_CHECK_EQ(cos.rows(), a.rows());
  RLL_CHECK_EQ(grad.rows(), a.rows());
  if (ga != nullptr) ga->Reshape(a.rows(), a.cols());
  if (gb != nullptr) gb->Reshape(b.rows(), b.cols());
  const kernels::RowCosineOperands op{
      a.data(),
      b.data(),
      cos.data(),
      norms,
      grad.data(),
      ga == nullptr ? nullptr : ga->data(),
      gb == nullptr ? nullptr : gb->data(),
      a.cols()};
  kernels::Active().row_cosine_grad(op, 0, a.rows());
}

void AdamUpdate(const AdamCoefficients& c, const Matrix& grad, Matrix& value,
                Matrix& m, Matrix& v) {
  RLL_CHECK(grad.SameShape(value));
  RLL_CHECK(m.SameShape(value));
  RLL_CHECK(v.SameShape(value));
  const kernels::AdamOperands op{value.data(),
                                 grad.data(),
                                 m.data(),
                                 v.data(),
                                 value.size(),
                                 c.lr,
                                 c.beta1,
                                 c.beta2,
                                 1.0 - c.beta1,
                                 1.0 - c.beta2,
                                 c.bias_correction1,
                                 c.bias_correction2,
                                 c.eps,
                                 c.weight_decay};
  kernels::Active().adam_step(op);
}

Matrix SoftmaxRows(const Matrix& a) {
  Matrix out(a.rows(), a.cols());
  ParallelFor(0, a.rows(), RowOpGrain(a.rows(), a.cols()),
              [&](size_t row_begin, size_t row_end) {
                for (size_t r = row_begin; r < row_end; ++r) {
                  const double* in = a.row_data(r);
                  double* o = out.row_data(r);
                  double mx = in[0];
                  for (size_t c = 1; c < a.cols(); ++c) mx = std::max(mx, in[c]);
                  double z = 0.0;
                  for (size_t c = 0; c < a.cols(); ++c) {
                    o[c] = std::exp(in[c] - mx);
                    z += o[c];
                  }
                  for (size_t c = 0; c < a.cols(); ++c) {
                    o[c] /= z;
                    RLL_DCHECK_PROB(o[c]);
                  }
                }
              });
  return out;
}

Matrix LogSumExpRows(const Matrix& a) {
  Matrix out(a.rows(), 1);
  ParallelFor(0, a.rows(), RowOpGrain(a.rows(), a.cols()),
              [&](size_t row_begin, size_t row_end) {
                for (size_t r = row_begin; r < row_end; ++r) {
                  const double* in = a.row_data(r);
                  double mx = in[0];
                  for (size_t c = 1; c < a.cols(); ++c) mx = std::max(mx, in[c]);
                  double z = 0.0;
                  for (size_t c = 0; c < a.cols(); ++c) z += std::exp(in[c] - mx);
                  out(r, 0) = mx + std::log(z);
                }
              });
  RLL_DCHECK_FINITE(out);
  return out;
}

std::vector<size_t> ArgmaxRows(const Matrix& a) {
  RLL_CHECK_GT(a.cols(), 0u);
  std::vector<size_t> out(a.rows());
  ParallelFor(0, a.rows(), RowOpGrain(a.rows(), a.cols()),
              [&](size_t row_begin, size_t row_end) {
                for (size_t r = row_begin; r < row_end; ++r) {
                  const double* row = a.row_data(r);
                  size_t best = 0;
                  for (size_t c = 1; c < a.cols(); ++c) {
                    if (row[c] > row[best]) best = c;
                  }
                  out[r] = best;
                }
              });
  return out;
}

}  // namespace rll
