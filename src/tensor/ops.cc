// rll-analyze: hot-path — every kernel here sits inside the trainer batch
// loop or the serve request path; allocation is reserved for Reshape growth.
#include "tensor/ops.h"

#include <algorithm>
#include <cmath>

#include "common/finite_check.h"
#include "common/threading.h"

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

}  // namespace

void MulInto(const Matrix& a, const Matrix& b, Matrix& out) {
  RLL_CHECK_EQ(a.cols(), b.rows());
  // Reshape keeps capacity, so an output cycled through varying shapes
  // (serve batches) reallocates only until it has seen its largest shape.
  out.Reshape(a.rows(), b.cols());
  out.Fill(0.0);
  // i-k-j loop order keeps the inner loop streaming over contiguous rows.
  // Rows of c are independent, so the row partition is bitwise-stable.
  ParallelFor(0, a.rows(), GemmRowGrain(a.rows(), a.cols() * b.cols()),
              [&](size_t row_begin, size_t row_end) {
                for (size_t i = row_begin; i < row_end; ++i) {
                  const double* arow = a.row_data(i);
                  double* crow = out.row_data(i);
                  for (size_t k = 0; k < a.cols(); ++k) {
                    const double aik = arow[k];
                    if (aik == 0.0) continue;
                    const double* brow = b.row_data(k);
                    for (size_t j = 0; j < b.cols(); ++j) crow[j] += aik * brow[j];
                  }
                }
              });
  RLL_DCHECK_FINITE(out);
}

Matrix Matmul(const Matrix& a, const Matrix& b) {
  Matrix c;
  MulInto(a, b, c);
  return c;
}

Matrix MatmulTransposeA(const Matrix& a, const Matrix& b) {
  RLL_CHECK_EQ(a.rows(), b.rows());
  Matrix out(a.cols(), b.cols());
  // i-outer so rows of c are written by exactly one chunk; per element the
  // accumulation still runs over k ascending (with the same zero-skip), so
  // the sums match the historical k-outer kernel bit for bit.
  ParallelFor(0, a.cols(), GemmRowGrain(a.cols(), a.rows() * b.cols()),
              [&](size_t row_begin, size_t row_end) {
                for (size_t i = row_begin; i < row_end; ++i) {
                  double* crow = out.row_data(i);
                  for (size_t k = 0; k < a.rows(); ++k) {
                    const double aki = a(k, i);
                    if (aki == 0.0) continue;
                    const double* brow = b.row_data(k);
                    for (size_t j = 0; j < b.cols(); ++j) crow[j] += aki * brow[j];
                  }
                }
              });
  RLL_DCHECK_FINITE(out);
  return out;
}

Matrix MatmulTransposeB(const Matrix& a, const Matrix& b) {
  RLL_CHECK_EQ(a.cols(), b.cols());
  Matrix out(a.rows(), b.rows());
  ParallelFor(0, a.rows(), GemmRowGrain(a.rows(), b.rows() * a.cols()),
              [&](size_t row_begin, size_t row_end) {
                for (size_t i = row_begin; i < row_end; ++i) {
                  const double* arow = a.row_data(i);
                  double* crow = out.row_data(i);
                  for (size_t j = 0; j < b.rows(); ++j) {
                    const double* brow = b.row_data(j);
                    double acc = 0.0;
                    for (size_t k = 0; k < a.cols(); ++k) acc += arow[k] * brow[k];
                    crow[j] = acc;
                  }
                }
              });
  RLL_DCHECK_FINITE(out);
  return out;
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
