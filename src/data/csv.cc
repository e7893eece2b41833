#include "data/csv.h"

#include <cmath>
#include <fstream>

#include "common/strings.h"

namespace rll::data {

Status SaveFeaturesCsv(const std::string& path, const Dataset& dataset) {
  std::ofstream f(path);
  if (!f.is_open()) return Status::IOError("cannot open for write: " + path);
  for (size_t c = 0; c < dataset.dim(); ++c) f << "f" << c << ",";
  f << "label\n";
  for (size_t i = 0; i < dataset.size(); ++i) {
    const double* row = dataset.features().row_data(i);
    for (size_t c = 0; c < dataset.dim(); ++c) {
      f << StrFormat("%.17g", row[c]) << ",";
    }
    f << dataset.true_label(i) << "\n";
  }
  if (!f.good()) return Status::IOError("write failed: " + path);
  return Status::OK();
}

Result<Dataset> LoadFeaturesCsv(const std::string& path) {
  std::ifstream f(path);
  if (!f.is_open()) return Status::IOError("cannot open for read: " + path);
  std::string line;
  if (!std::getline(f, line)) return Status::IOError("empty file: " + path);
  const size_t num_cols = Split(line, ',').size();
  if (num_cols < 2) {
    return Status::InvalidArgument("features CSV needs >= 2 columns");
  }
  const size_t dim = num_cols - 1;

  std::vector<double> values;
  std::vector<int> labels;
  size_t row_index = 1;
  while (std::getline(f, line)) {
    ++row_index;
    if (Trim(line).empty()) continue;
    const std::vector<std::string> cells = Split(line, ',');
    if (cells.size() != num_cols) {
      return Status::InvalidArgument(
          StrFormat("row %zu has %zu cells, expected %zu", row_index,
                    cells.size(), num_cols));
    }
    for (size_t c = 0; c < dim; ++c) {
      // strtod reads nan, inf and an overflow such as 1e999 as values; a
      // feature must be finite. An underflow reads as a zero of its sign.
      double v = 0.0;
      if (!ParseDouble(cells[c], &v) || !std::isfinite(v)) {
        return Status::InvalidArgument(
            StrFormat("row %zu col %zu: bad double '%s'", row_index, c,
                      cells[c].c_str()));
      }
      values.push_back(v);
    }
    int64_t y = 0;
    if (!ParseInt(cells[dim], &y) || (y != 0 && y != 1)) {
      return Status::InvalidArgument(
          StrFormat("row %zu: bad label '%s'", row_index,
                    cells[dim].c_str()));
    }
    labels.push_back(static_cast<int>(y));
  }
  Matrix features(labels.size(), dim, std::move(values));
  return Dataset(std::move(features), std::move(labels));
}

Status SaveAnnotationsCsv(const std::string& path, const Dataset& dataset) {
  std::ofstream f(path);
  if (!f.is_open()) return Status::IOError("cannot open for write: " + path);
  f << "example_id,worker_id,label\n";
  for (size_t i = 0; i < dataset.size(); ++i) {
    for (const Annotation& a : dataset.annotations(i)) {
      f << i << "," << a.worker_id << "," << a.label << "\n";
    }
  }
  if (!f.good()) return Status::IOError("write failed: " + path);
  return Status::OK();
}

Status LoadAnnotationsCsv(const std::string& path, Dataset* dataset) {
  std::ifstream f(path);
  if (!f.is_open()) return Status::IOError("cannot open for read: " + path);
  std::string line;
  if (!std::getline(f, line)) return Status::IOError("empty file: " + path);
  dataset->ClearAnnotations();
  size_t row_index = 1;
  while (std::getline(f, line)) {
    ++row_index;
    if (Trim(line).empty()) continue;
    const std::vector<std::string> cells = Split(line, ',');
    int64_t example = 0, worker = 0, label = 0;
    if (cells.size() != 3 || !ParseInt(cells[0], &example) ||
        !ParseInt(cells[1], &worker) || !ParseInt(cells[2], &label) ||
        (label != 0 && label != 1) || example < 0 || worker < 0) {
      return Status::InvalidArgument(
          StrFormat("bad annotation row %zu: '%s'", row_index, line.c_str()));
    }
    if (static_cast<size_t>(example) >= dataset->size()) {
      return Status::OutOfRange(
          StrFormat("row %zu: example_id %lld out of range", row_index,
                    static_cast<long long>(example)));
    }
    dataset->AddAnnotation(static_cast<size_t>(example),
                           {static_cast<size_t>(worker),
                            static_cast<int>(label)});
  }
  return Status::OK();
}

}  // namespace rll::data
