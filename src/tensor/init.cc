#include "tensor/init.h"

#include <cmath>

namespace rll {

Matrix RandomUniform(size_t rows, size_t cols, Rng* rng, double lo,
                     double hi) {
  Matrix m(rows, cols);
  for (size_t i = 0; i < m.size(); ++i) m[i] = rng->Uniform(lo, hi);
  return m;
}

Matrix RandomNormal(size_t rows, size_t cols, Rng* rng, double mean,
                    double stddev) {
  Matrix m(rows, cols);
  for (size_t i = 0; i < m.size(); ++i) m[i] = rng->Normal(mean, stddev);
  return m;
}

Matrix XavierUniform(size_t fan_in, size_t fan_out, Rng* rng) {
  const double limit =
      std::sqrt(6.0 / static_cast<double>(fan_in + fan_out));
  return RandomUniform(fan_in, fan_out, rng, -limit, limit);
}

}  // namespace rll
