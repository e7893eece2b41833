#include "nn/linear.h"

#include "tensor/init.h"

namespace rll::nn {

Linear::Linear(size_t in_features, size_t out_features, Rng* rng)
    : in_features_(in_features),
      out_features_(out_features),
      weight_(ag::Parameter(XavierUniform(in_features, out_features, rng))),
      bias_(ag::Parameter(Matrix(1, out_features))) {}

}  // namespace rll::nn
