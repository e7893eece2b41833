// The tensor kernels at 4 lanes, built with -mavx2 (never -mfma) on
// x86-64 only, and run only where glibc reports AVX2 active. See
// kernels.h for the rules.
#include "tensor/kernels.h"

namespace rll::kernels::avx2 {
namespace {
constexpr size_t kLanes = 4;
constexpr size_t kTileVectors = 2;
#include "tensor/kernels.inc"
}  // namespace

void GemmRows(const GemmOperands* g, size_t row_begin, size_t row_end) {
  GemmRowRange(*g, row_begin, row_end);
}

void Tanh(double* x, size_t n) { TanhRange(x, n); }

void Exp(double* x, size_t n) { ExpRange(x, n); }

void Sigmoid(double* x, size_t n) { SigmoidRange(x, n); }

void LogisticProba(const LogisticOperands* op, size_t row_begin,
                   size_t row_end, double* p) {
  LogisticProbaRange(*op, row_begin, row_end, p);
}

void LogisticGradient(const LogisticOperands* op, double* grad_w,
                      double* grad_b) {
  LogisticGradientRange(*op, grad_w, grad_b);
}

void Add(double* y, const double* x, size_t n) { AddRange(y, x, n); }

void AddBias(double* y, size_t rows, size_t cols, const double* bias) {
  AddBiasRange(y, rows, cols, bias);
}

void AddBiasTanh(double* y, size_t rows, size_t cols, const double* bias) {
  AddBiasTanhRange(y, rows, cols, bias);
}

void TanhGrad(const double* y, const double* dy, double* dz, size_t n) {
  TanhGradRange(y, dy, dz, n);
}

void ColSum(const double* a, size_t rows, size_t cols, double* out) {
  ColSumRange(a, rows, cols, out);
}

void RowCosineGrad(const RowCosineOperands* op, size_t row_begin,
                   size_t row_end) {
  RowCosineGradRange(*op, row_begin, row_end);
}

void AdamStep(const AdamOperands* op) { AdamRange(*op); }

}  // namespace rll::kernels::avx2
