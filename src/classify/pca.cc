#include "classify/pca.h"

#include <cmath>

#include "tensor/ops.h"

namespace rll::classify {

Status Pca::Fit(const Matrix& x) {
  const size_t n = x.rows();
  const size_t dim = x.cols();
  if (n < 2) return Status::InvalidArgument("PCA needs at least 2 rows");
  if (options_.num_components == 0 || options_.num_components > dim) {
    return Status::InvalidArgument("num_components must be in [1, dim]");
  }

  mean_ = ColMean(x);
  // Covariance (dim×dim) of the centered data.
  Matrix centered = x;
  for (size_t r = 0; r < n; ++r) {
    double* row = centered.row_data(r);
    for (size_t c = 0; c < dim; ++c) row[c] -= mean_[c];
  }
  Matrix cov;
  Gemm(centered, true, centered, false, cov);
  cov *= 1.0 / static_cast<double>(n - 1);

  components_ = Matrix(options_.num_components, dim);
  explained_variance_.assign(options_.num_components, 0.0);

  for (size_t k = 0; k < options_.num_components; ++k) {
    // Deterministic non-degenerate start: basis vector with the largest
    // remaining diagonal, plus a small ramp to break symmetry.
    Matrix v(dim, 1);
    size_t best_diag = 0;
    for (size_t j = 1; j < dim; ++j) {
      if (cov(j, j) > cov(best_diag, best_diag)) best_diag = j;
    }
    for (size_t j = 0; j < dim; ++j) {
      v(j, 0) = (j == best_diag ? 1.0 : 0.0) +
                1e-3 * static_cast<double>(j + 1) /
                    static_cast<double>(dim);
    }

    double eigenvalue = 0.0;
    for (int it = 0; it < options_.max_iterations; ++it) {
      Matrix next = Matmul(cov, v);
      const double norm = Norm(next);
      if (norm < 1e-15) break;  // Remaining space is (numerically) null.
      next *= 1.0 / norm;
      const double shift = Norm(Sub(next, v));
      eigenvalue = norm;
      v = std::move(next);
      if (shift < options_.tolerance) break;
    }

    for (size_t j = 0; j < dim; ++j) components_(k, j) = v(j, 0);
    explained_variance_[k] = eigenvalue;

    // Deflate: cov ← cov − λ·v·vᵀ.
    for (size_t a = 0; a < dim; ++a) {
      for (size_t b = 0; b < dim; ++b) {
        cov(a, b) -= eigenvalue * v(a, 0) * v(b, 0);
      }
    }
  }
  fitted_ = true;
  return Status::OK();
}

Matrix Pca::Transform(const Matrix& x) const {
  RLL_CHECK_MSG(fitted_, "Pca::Transform before Fit");
  RLL_CHECK_EQ(x.cols(), mean_.cols());
  Matrix centered = x;
  for (size_t r = 0; r < centered.rows(); ++r) {
    double* row = centered.row_data(r);
    for (size_t c = 0; c < centered.cols(); ++c) row[c] -= mean_[c];
  }
  Matrix projected;
  Gemm(centered, false, components_, true, projected);
  return projected;
}

}  // namespace rll::classify
