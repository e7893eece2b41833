#include "data/dataset.h"

#include <algorithm>

namespace rll::data {

Dataset::Dataset(Matrix features, std::vector<int> true_labels)
    : features_(std::move(features)), true_labels_(std::move(true_labels)) {
  RLL_CHECK_EQ(features_.rows(), true_labels_.size());
  for (int y : true_labels_) RLL_CHECK(y == 0 || y == 1);
  annotations_.resize(true_labels_.size());
}

void Dataset::AddAnnotation(size_t i, Annotation a) {
  RLL_CHECK_LT(i, annotations_.size());
  RLL_CHECK(a.label == 0 || a.label == 1);
  annotations_[i].push_back(a);
}

void Dataset::ClearAnnotations() {
  for (auto& anns : annotations_) anns.clear();
}

bool Dataset::FullyAnnotated() const {
  return std::all_of(annotations_.begin(), annotations_.end(),
                     [](const auto& anns) { return !anns.empty(); });
}

size_t Dataset::NumWorkers() const {
  size_t max_id = 0;
  bool any = false;
  for (const auto& anns : annotations_) {
    for (const Annotation& a : anns) {
      max_id = std::max(max_id, a.worker_id);
      any = true;
    }
  }
  return any ? max_id + 1 : 0;
}

size_t Dataset::PositiveVotes(size_t i) const {
  RLL_CHECK_LT(i, annotations_.size());
  size_t count = 0;
  for (const Annotation& a : annotations_[i]) count += (a.label == 1);
  return count;
}

int Dataset::MajorityVote(size_t i) const {
  RLL_CHECK_LT(i, annotations_.size());
  const size_t d = annotations_[i].size();
  RLL_CHECK_GT(d, 0u);
  const size_t pos = PositiveVotes(i);
  return 2 * pos >= d ? 1 : 0;
}

std::vector<int> Dataset::MajorityVoteLabels() const {
  std::vector<int> labels(size());
  for (size_t i = 0; i < size(); ++i) labels[i] = MajorityVote(i);
  return labels;
}

double Dataset::PositiveFraction() const {
  if (empty()) return 0.0;
  size_t pos = 0;
  for (int y : true_labels_) pos += (y == 1);
  return static_cast<double>(pos) / static_cast<double>(size());
}

Dataset Dataset::Subset(const std::vector<size_t>& indices) const {
  std::vector<int> labels;
  labels.reserve(indices.size());
  for (size_t i : indices) {
    RLL_CHECK_LT(i, size());
    labels.push_back(true_labels_[i]);
  }
  Dataset out(features_.GatherRows(indices), std::move(labels));
  for (size_t j = 0; j < indices.size(); ++j) {
    out.annotations_[j] = annotations_[indices[j]];
  }
  return out;
}

}  // namespace rll::data
