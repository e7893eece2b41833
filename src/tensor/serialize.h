// Text (de)serialization of matrices — the body format of model bundles
// (core/model_bundle.h).
//
// Format (line-oriented, locale-independent):
//   matrix <rows> <cols>
//   <row 0: cols space-separated %.17g doubles>
//   ...

#ifndef RLL_TENSOR_SERIALIZE_H_
#define RLL_TENSOR_SERIALIZE_H_

#include <iosfwd>

#include "common/status.h"
#include "tensor/matrix.h"

namespace rll {

/// Writes `m` to the stream in the text format above.
Status WriteMatrix(std::ostream* os, const Matrix& m);

/// Reads one matrix into `out`, whose shape is the one expected: a header
/// naming any other shape fails before a single element is read, so a
/// corrupt header can never size an allocation. Also fails on malformed
/// headers or rows.
Status ReadMatrix(std::istream* is, Matrix* out);

}  // namespace rll

#endif  // RLL_TENSOR_SERIALIZE_H_
