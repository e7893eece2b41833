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
struct KernelLevel {
  const char* name;
  void (*gemm_rows)(const kernels::GemmOperands*, size_t, size_t);
  void (*tanh)(double*, size_t);
  void (*exp)(double*, size_t);
  void (*sigmoid)(double*, size_t);
  void (*logistic_proba)(const kernels::LogisticOperands*, size_t, size_t,
                         double*);
  void (*logistic_gradient)(const kernels::LogisticOperands*, double*,
                            double*);
};

KernelLevel PickKernelLevel() {
  namespace baseline = kernels::baseline;
#if defined(__x86_64__) && __has_include(<sys/platform/x86.h>)
  namespace avx512f = kernels::avx512f;
  namespace avx2 = kernels::avx2;
  if (CPU_FEATURE_ACTIVE(AVX512F) && CPU_FEATURE_ACTIVE(AVX2)) {
    return {"avx512f",        avx512f::GemmRows,
            avx512f::Tanh,    avx512f::Exp,
            avx512f::Sigmoid, avx512f::LogisticProba,
            avx512f::LogisticGradient};
  }
  if (CPU_FEATURE_ACTIVE(AVX2)) {
    return {"avx2",        avx2::GemmRows,
            avx2::Tanh,    avx2::Exp,
            avx2::Sigmoid, avx2::LogisticProba,
            avx2::LogisticGradient};
  }
#endif
#if defined(__aarch64__)
  const char* name = "neon";
#else
  const char* name = "sse2";
#endif
  return {name,              baseline::GemmRows,
          baseline::Tanh,    baseline::Exp,
          baseline::Sigmoid, baseline::LogisticProba,
          baseline::LogisticGradient};
}

const KernelLevel& Kernels() {
  static const KernelLevel level = PickKernelLevel();
  return level;
}

}  // namespace

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
  const auto gemm_rows = Kernels().gemm_rows;
  ParallelFor(0, m, GemmRowGrain(m, k * n),
              [&](size_t row_begin, size_t row_end) {
                gemm_rows(&g, row_begin, row_end);
              });
  RLL_DCHECK_FINITE(out);
}

const char* KernelIsa() { return Kernels().name; }

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

void AddRowBroadcastInPlace(Matrix& m, const Matrix& row) {
  RLL_CHECK_EQ(row.rows(), 1u);
  RLL_CHECK_EQ(row.cols(), m.cols());
  ParallelFor(0, m.rows(), RowOpGrain(m.rows(), m.cols()),
              [&](size_t row_begin, size_t row_end) {
                for (size_t r = row_begin; r < row_end; ++r) {
                  double* mrow = m.row_data(r);
                  for (size_t j = 0; j < m.cols(); ++j) mrow[j] += row[j];
                }
              });
}

Matrix AddRowBroadcast(const Matrix& a, const Matrix& row) {
  Matrix c = a;
  AddRowBroadcastInPlace(c, row);
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

void TanhInPlace(Matrix& m) {
  double* d = m.data();
  const auto tanh_range = Kernels().tanh;
  ParallelFor(0, m.size(), ElemGrain(m.size()),
              [&](size_t lo, size_t hi) { tanh_range(d + lo, hi - lo); });
}

void ExpInPlace(Matrix& m) {
  double* d = m.data();
  const auto exp_range = Kernels().exp;
  ParallelFor(0, m.size(), ElemGrain(m.size()),
              [&](size_t lo, size_t hi) { exp_range(d + lo, hi - lo); });
}

void SigmoidInPlace(Matrix& m) {
  double* d = m.data();
  const auto sigmoid_range = Kernels().sigmoid;
  ParallelFor(0, m.size(), ElemGrain(m.size()),
              [&](size_t lo, size_t hi) { sigmoid_range(d + lo, hi - lo); });
}

void LogisticProba(const Matrix& x, const Matrix& w, double b, double* p) {
  RLL_CHECK_EQ(w.rows(), x.cols());
  RLL_CHECK_EQ(w.cols(), 1u);
  const kernels::LogisticOperands op{
      x.data(), x.rows(), x.cols(), w.data(), b, nullptr, nullptr, 0.0};
  const auto proba = Kernels().logistic_proba;
  const size_t grain = GemmRowGrain(x.rows(), x.cols());
  if (grain >= x.rows()) {
    // One chunk: run it here, without building a std::function, so a
    // served one-row predict allocates nothing.
    proba(&op, 0, x.rows(), p);
    return;
  }
  // Rows are independent, so the row partition is bitwise-stable.
  ParallelFor(0, x.rows(), grain,
              [&](size_t lo, size_t hi) { proba(&op, lo, hi, p); });
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
  Kernels().logistic_gradient(&op, grad_w.data(), grad_b);
}

double Sum(const Matrix& a) {
  const size_t n = a.size();
  if (n <= kReduceGrain) {
    double s = 0.0;
    for (size_t i = 0; i < n; ++i) s += a[i];
    return s;
  }
  // Chunk boundaries depend only on n, so the tree shape (and the FP
  // result) is identical at any thread count.
  return ParallelReduce(
      0, n, kReduceGrain, 0.0,
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
  // Accumulates across rows into one output row; kept serial so the
  // historical top-to-bottom summation order is preserved exactly.
  Matrix out(1, a.cols());
  for (size_t r = 0; r < a.rows(); ++r) {
    const double* row = a.row_data(r);
    for (size_t c = 0; c < a.cols(); ++c) out[c] += row[c];
  }
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
  const size_t n = a.size();
  if (n <= kReduceGrain) {
    double s = 0.0;
    for (size_t i = 0; i < n; ++i) s += a[i] * b[i];
    return s;
  }
  return ParallelReduce(
      0, n, kReduceGrain, 0.0,
      [&](size_t lo, size_t hi) {
        double s = 0.0;
        for (size_t i = lo; i < hi; ++i) s += a[i] * b[i];
        return s;
      },
      [](double x, double y) { return x + y; });
}

double Norm(const Matrix& a) { return std::sqrt(Dot(a, a)); }

Matrix RowCosine(const Matrix& a, const Matrix& b, double eps) {
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
                  out(r, 0) = dot / (std::max(std::sqrt(na), eps) *
                                     std::max(std::sqrt(nb), eps));
                }
              });
  RLL_DCHECK_FINITE(out);
  return out;
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
