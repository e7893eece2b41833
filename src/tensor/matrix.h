// Dense row-major matrix of doubles — the numeric workhorse under the
// autograd, nn, and classic-ML layers. Vectors are 1×n or n×1 matrices.

#ifndef RLL_TENSOR_MATRIX_H_
#define RLL_TENSOR_MATRIX_H_

#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/arena.h"
#include "common/check.h"

namespace rll {

class Matrix {
 public:
  /// Empty 0×0 matrix.
  Matrix() : rows_(0), cols_(0) {}

  /// rows×cols matrix filled with `fill`.
  Matrix(size_t rows, size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// Copies a flat row-major buffer. data.size() must equal rows*cols.
  Matrix(size_t rows, size_t cols, const std::vector<double>& data);

  /// Builds from nested initializer lists: Matrix({{1,2},{3,4}}).
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  static Matrix Identity(size_t n);
  /// Row vector from values.
  static Matrix RowVector(const std::vector<double>& values);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& operator()(size_t r, size_t c) {
    RLL_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double operator()(size_t r, size_t c) const {
    RLL_DCHECK(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  /// Flat row-major access.
  double& operator[](size_t i) {
    RLL_DCHECK(i < data_.size());
    return data_[i];
  }
  double operator[](size_t i) const {
    RLL_DCHECK(i < data_.size());
    return data_[i];
  }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }
  double* row_data(size_t r) {
    RLL_DCHECK(r < rows_);
    return data_.data() + r * cols_;
  }
  const double* row_data(size_t r) const {
    RLL_DCHECK(r < rows_);
    return data_.data() + r * cols_;
  }

  /// Copies row r into a new 1×cols matrix.
  Matrix Row(size_t r) const;
  /// Overwrites row r from a 1×cols matrix or flat values.
  void SetRow(size_t r, const Matrix& row);
  void SetRow(size_t r, const std::vector<double>& values);

  /// Returns a new matrix of the selected rows, in the given order.
  Matrix GatherRows(const std::vector<size_t>& indices) const;
  /// Pointer form for hot paths whose index lists live in scratch storage.
  Matrix GatherRows(const size_t* indices, size_t count) const;

  /// Re-declares the shape, reusing the existing storage. The value prefix
  /// that survives a std::vector resize is preserved; new elements are
  /// zero. Capacity is never released, so a steady-state loop that cycles
  /// shapes (e.g. varying serve batch sizes) stops allocating once it has
  /// seen its largest shape.
  void Reshape(size_t rows, size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
  }

  bool SameShape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  /// Sets every element to `value`.
  void Fill(double value);

  /// In-place compound ops (shape-checked).
  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(double scalar);

  /// Elementwise exact equality (mostly for tests; prefer AllClose).
  bool operator==(const Matrix& other) const;

  /// True when |a-b| <= atol + rtol*|b| holds elementwise and shapes match.
  bool AllClose(const Matrix& other, double rtol = 1e-9,
                double atol = 1e-12) const;

  /// Human-readable rendering for debugging, e.g. "[[1, 2], [3, 4]]".
  std::string ToString(int precision = 4) const;

 private:
  size_t rows_;
  size_t cols_;
  // Scratch-backed: inside an ArenaScope the elements land in the scope's
  // arena (per-batch temporaries cost a pointer bump); outside any scope
  // the allocator is a 64-byte-aligned heap — so every Matrix is
  // SIMD-aligned either way. See common/arena.h for the lifetime rule.
  ScratchVector<double> data_;
};

/// List of matrices whose spine follows the scratch rules — used for
/// per-batch collections (e.g. slot confidence matrices in the trainer).
using MatrixList = ScratchVector<Matrix>;

/// Keyed reusable Matrix buffers (see BasicWorkspace in common/arena.h).
using Workspace = BasicWorkspace<Matrix>;

}  // namespace rll

#endif  // RLL_TENSOR_MATRIX_H_
