#include "tensor/serialize.h"

#include <istream>
#include <ostream>
#include <string>

#include "common/strings.h"

namespace rll {

Status WriteMatrix(std::ostream* os, const Matrix& m) {
  (*os) << "matrix " << m.rows() << " " << m.cols() << "\n";
  for (size_t r = 0; r < m.rows(); ++r) {
    const double* row = m.row_data(r);
    for (size_t c = 0; c < m.cols(); ++c) {
      if (c > 0) (*os) << " ";
      (*os) << StrFormat("%.17g", row[c]);
    }
    (*os) << "\n";
  }
  if (!os->good()) return Status::IOError("stream write failed");
  return Status::OK();
}

Status ReadMatrix(std::istream* is, Matrix* out) {
  std::string tag;
  size_t rows = 0, cols = 0;
  if (!((*is) >> tag >> rows >> cols)) {
    return Status::IOError("failed to read matrix header");
  }
  if (tag != "matrix") {
    return Status::InvalidArgument("bad matrix header tag: " + tag);
  }
  if (rows != out->rows() || cols != out->cols()) {
    return Status::InvalidArgument(
        StrFormat("matrix header is %zux%zu, expected %zux%zu", rows, cols,
                  out->rows(), out->cols()));
  }
  for (size_t i = 0; i < out->size(); ++i) {
    if (!((*is) >> (*out)[i])) {
      return Status::IOError(
          StrFormat("failed to read matrix element %zu of %zu", i,
                    out->size()));
    }
  }
  return Status::OK();
}

}  // namespace rll
