// rll-analyze: hot-path — every kernel here sits inside the trainer batch
// loop or the serve request path; allocation is reserved for Reshape growth
// and the growth of Gemm's per-thread Bᵀ buffer.
#include "tensor/ops.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

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

// GEMM kernel: C = op(A)·op(B) in register tiles of kTileRows rows by 8
// columns, held in two-double vectors (SSE2 on x86-64, NEON on aarch64,
// through the GCC/Clang vector extension); two- and one-column tiles
// finish the row. Every element is summed over k ascending from +0 with a
// separate multiply and add (rll_tensor builds with -ffp-contract=off, so
// no compiler fuses them): the order of a plain triple loop, so neither
// the tiling nor the row partition changes a bit of the result.
using Vec2 = double __attribute__((vector_size(16)));
constexpr size_t kTileRows = 4;

// Operands in place: op(A)(i, p) = a[i * a_row + p * a_k] (the strides
// swap with trans_a); op(B) is row-major k × n, C row-major m × n.
struct GemmOperands {
  const double* a;
  size_t a_row;
  size_t a_k;
  const double* b;
  double* c;
  size_t k;
  size_t n;
};

// The MR-row block of C at (i, j) that NV values of V (a Vec2 or a
// double) cover. memcpy loads and stores: rows need not be aligned. The
// loops over the tile are unrolled fully so that -O2 keeps `acc` in
// registers.
template <typename V, size_t MR, size_t NV>
void GemmTile(const GemmOperands& g, size_t i, size_t j) {
  constexpr size_t kLanes = sizeof(V) / sizeof(double);
  V acc[MR][NV] = {};
  const double* a = g.a + i * g.a_row;
  const double* b = g.b + j;
  for (size_t p = 0; p < g.k; ++p) {
    V bv[NV] = {};
#pragma GCC unroll 4
    for (size_t v = 0; v < NV; ++v) {
      std::memcpy(&bv[v], b + p * g.n + v * kLanes, sizeof(V));
    }
#pragma GCC unroll 4
    for (size_t r = 0; r < MR; ++r) {
      const double x = a[r * g.a_row + p * g.a_k];
#pragma GCC unroll 4
      for (size_t v = 0; v < NV; ++v) acc[r][v] += x * bv[v];
    }
  }
#pragma GCC unroll 4
  for (size_t r = 0; r < MR; ++r) {
#pragma GCC unroll 4
    for (size_t v = 0; v < NV; ++v) {
      std::memcpy(g.c + (i + r) * g.n + j + v * kLanes, &acc[r][v],
                  sizeof(V));
    }
  }
}

template <size_t MR>
void GemmRows(const GemmOperands& g, size_t i) {
  size_t j = 0;
  for (; j + 8 <= g.n; j += 8) GemmTile<Vec2, MR, 4>(g, i, j);
  for (; j + 2 <= g.n; j += 2) GemmTile<Vec2, MR, 1>(g, i, j);
  if (j < g.n) GemmTile<double, MR, 1>(g, i, j);
}

// Tanh kernel: two lanes of the same Vec2, IEEE +, −, ×, ÷ and bit
// operations only, each rounded on its own (-ffp-contract=off), so a
// lane's result depends on its input's bits and nothing else. Both
// branches run on every lane of a = |x| and a mask picks one:
//   a < 0.625  a + a·s·P(s)/Q(s), s = a²: the Cephes tanh rational.
//   otherwise  1 − 2/(e^{2a} + 1), a clamped at 22 (tanh rounds to 1
//              from about 19.1 on). e^{2a} = 2ⁿ·e^g by Cody–Waite
//              reduction, g = 2a − n·ln2 with ln2 split in two so n·C1
//              is exact, and e^g by the Cephes Padé form
//              (Q(g²) + g·P(g²)) / (Q(g²) − g·P(g²)), whose division is
//              folded into the final one.
// The sign bit is OR-ed back last, so tanh(−x) is −tanh(x) bit for bit,
// and a NaN lane returns its input.
using Bits2 = uint64_t __attribute__((vector_size(16)));

Vec2 Blend(Bits2 mask, Vec2 if_set, Vec2 if_clear) {
  return (Vec2)((mask & (Bits2)if_set) | (~mask & (Bits2)if_clear));
}

// Inlined into both call sites, so the loop keeps the constants in
// registers instead of rebuilding them for every pair.
[[gnu::always_inline]] inline Vec2 Tanh2(Vec2 x) {
  const Bits2 sign_bit = {1ull << 63, 1ull << 63};
  const Vec2 clamp = {22.0, 22.0};
  Vec2 a = (Vec2)((Bits2)x & ~sign_bit);
  a = Blend((Bits2)(a > clamp), clamp, a);

  const Vec2 s = a * a;
  Vec2 p = s * -9.64399179425052238628e-1 + -9.92877231001918586564e1;
  p = p * s + -1.61468768441708447952e3;
  Vec2 q = s + 1.12811678491632931402e2;
  q = q * s + 2.23548839060100448583e3;
  q = q * s + 4.84406305325125486048e3;
  const Vec2 small = a + a * s * (p / q);

  // Adding 1.5·2⁵² rounds 2a·log₂e to the integer n and leaves n in the
  // low bits of the sum; (n + 1023) << 52 is then the double 2ⁿ.
  const Vec2 shift = {0x1.8p52, 0x1.8p52};
  const Vec2 y = a + a;
  const Vec2 t = y * 1.4426950408889634073599 + shift;
  const Vec2 n = t - shift;
  const Vec2 g =
      (y - n * 6.93145751953125e-1) - n * 1.42860682030941723212e-6;
  const Vec2 gg = g * g;
  Vec2 ep = gg * 1.26177193074810590878e-4 + 3.02994407707441961300e-2;
  ep = g * (ep * gg + 9.99999999999999999910e-1);
  Vec2 eq = gg * 3.00198505138664455042e-6 + 2.52448340349684104192e-3;
  eq = eq * gg + 2.27265548208155028766e-1;
  eq = eq * gg + 2.00000000000000000009e0;
  const Vec2 pow2n = (Vec2)(((Bits2)t - (Bits2)shift + 1023) << 52);
  const Vec2 den = eq - ep;  // e^{2a} = pow2n·(eq + ep)/den
  const Vec2 large = 1.0 - (den + den) / ((eq + ep) * pow2n + den);

  const Vec2 cutover = {0.625, 0.625};
  const Vec2 r = Blend((Bits2)(a < cutover), small, large);
  return Blend((Bits2)(x != x), x, (Vec2)((Bits2)r | ((Bits2)x & sign_bit)));
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
  GemmOperands g{a.data(), trans_a ? 1 : k, trans_a ? m : 1, b.data(),
                 out.data(), k, n};
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
  ParallelFor(0, m, GemmRowGrain(m, k * n),
              [&](size_t row_begin, size_t row_end) {
                size_t i = row_begin;
                for (; i + kTileRows <= row_end; i += kTileRows) {
                  GemmRows<kTileRows>(g, i);
                }
                for (; i < row_end; ++i) GemmRows<1>(g, i);
              });
  RLL_DCHECK_FINITE(out);
}

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
  ParallelFor(0, m.size(), ElemGrain(m.size()), [&](size_t lo, size_t hi) {
    size_t i = lo;
    for (; i + 2 <= hi; i += 2) {
      Vec2 v;
      std::memcpy(&v, d + i, sizeof(v));
      v = Tanh2(v);
      std::memcpy(d + i, &v, sizeof(v));
    }
    // An odd tail takes the same two-lane path with a padded lane.
    if (i < hi) d[i] = Tanh2(Vec2{d[i], 0.0})[0];
  });
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
