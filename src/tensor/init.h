// Weight initializers for neural layers and random matrix constructors.

#ifndef RLL_TENSOR_INIT_H_
#define RLL_TENSOR_INIT_H_

#include "common/rng.h"
#include "tensor/matrix.h"

namespace rll {

/// Elementwise Uniform(lo, hi).
Matrix RandomUniform(size_t rows, size_t cols, Rng* rng, double lo = 0.0,
                     double hi = 1.0);

/// Elementwise Normal(mean, stddev).
Matrix RandomNormal(size_t rows, size_t cols, Rng* rng, double mean = 0.0,
                    double stddev = 1.0);

/// Xavier/Glorot uniform: U(±sqrt(6/(fan_in+fan_out))). Suits tanh layers
/// (the paper's MLP uses saturating nonlinearities).
Matrix XavierUniform(size_t fan_in, size_t fan_out, Rng* rng);

}  // namespace rll

#endif  // RLL_TENSOR_INIT_H_
