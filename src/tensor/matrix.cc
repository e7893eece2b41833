#include "tensor/matrix.h"

#include <cmath>
#include <cstdio>

#include "common/strings.h"
#include "tensor/kernels.h"

namespace rll {

Matrix::Matrix(size_t rows, size_t cols, const std::vector<double>& data)
    : rows_(rows), cols_(cols), data_(data.begin(), data.end()) {
  RLL_CHECK_EQ(rows_ * cols_, data_.size());
}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ == 0 ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& row : rows) {
    RLL_CHECK_EQ(row.size(), cols_);
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix Matrix::Identity(size_t n) {
  Matrix m(n, n);
  for (size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::RowVector(const std::vector<double>& values) {
  return Matrix(1, values.size(), values);
}

Matrix Matrix::Row(size_t r) const {
  RLL_CHECK_LT(r, rows_);
  Matrix out(1, cols_);
  for (size_t c = 0; c < cols_; ++c) out(0, c) = (*this)(r, c);
  return out;
}

void Matrix::SetRow(size_t r, const Matrix& row) {
  RLL_CHECK_LT(r, rows_);
  RLL_CHECK_EQ(row.rows(), 1u);
  RLL_CHECK_EQ(row.cols(), cols_);
  for (size_t c = 0; c < cols_; ++c) (*this)(r, c) = row(0, c);
}

void Matrix::SetRow(size_t r, const std::vector<double>& values) {
  RLL_CHECK_LT(r, rows_);
  RLL_CHECK_EQ(values.size(), cols_);
  for (size_t c = 0; c < cols_; ++c) (*this)(r, c) = values[c];
}

Matrix Matrix::GatherRows(const std::vector<size_t>& indices) const {
  return GatherRows(indices.data(), indices.size());
}

Matrix Matrix::GatherRows(const size_t* indices, size_t count) const {
  Matrix out(count, cols_);
  for (size_t i = 0; i < count; ++i) {
    RLL_CHECK_LT(indices[i], rows_);
    const double* src = row_data(indices[i]);
    double* dst = out.row_data(i);
    for (size_t c = 0; c < cols_; ++c) dst[c] = src[c];
  }
  return out;
}

void Matrix::Fill(double value) {
  for (double& v : data_) v = value;
}

Matrix& Matrix::operator+=(const Matrix& other) {
  RLL_CHECK(SameShape(other));
  kernels::Active().add(data_.data(), other.data_.data(), data_.size());
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  RLL_CHECK(SameShape(other));
  for (size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double scalar) {
  for (double& v : data_) v *= scalar;
  return *this;
}

bool Matrix::operator==(const Matrix& other) const {
  return SameShape(other) && data_ == other.data_;
}

bool Matrix::AllClose(const Matrix& other, double rtol, double atol) const {
  if (!SameShape(other)) return false;
  for (size_t i = 0; i < data_.size(); ++i) {
    const double diff = std::fabs(data_[i] - other.data_[i]);
    if (diff > atol + rtol * std::fabs(other.data_[i])) return false;
  }
  return true;
}

std::string Matrix::ToString(int precision) const {
  std::string out = "[";
  for (size_t r = 0; r < rows_; ++r) {
    if (r > 0) out += ", ";
    out += "[";
    for (size_t c = 0; c < cols_; ++c) {
      if (c > 0) out += ", ";
      out += StrFormat("%.*g", precision, (*this)(r, c));
    }
    out += "]";
  }
  out += "]";
  return out;
}

}  // namespace rll
