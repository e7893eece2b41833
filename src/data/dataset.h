// Core dataset abstraction: feature vectors, expert (ground-truth) labels,
// and per-example crowdsourced annotations in long format (worker id +
// binary label), matching the paper's setting where each example is labeled
// by d crowd workers and expert labels exist only for evaluation.

#ifndef RLL_DATA_DATASET_H_
#define RLL_DATA_DATASET_H_

#include <vector>

#include "tensor/matrix.h"

namespace rll::data {

/// One crowd worker's vote on one example.
struct Annotation {
  size_t worker_id;
  int label;  // 0 or 1.
};

class Dataset {
 public:
  Dataset() = default;

  /// features: n×dim; true_labels: expert ground truth (0/1), length n.
  Dataset(Matrix features, std::vector<int> true_labels);

  size_t size() const { return true_labels_.size(); }
  size_t dim() const { return features_.cols(); }
  bool empty() const { return true_labels_.empty(); }

  const Matrix& features() const { return features_; }
  Matrix* mutable_features() { return &features_; }
  const std::vector<int>& true_labels() const { return true_labels_; }
  int true_label(size_t i) const { return true_labels_[i]; }

  /// Crowd annotations for example i (may be empty before annotation).
  const std::vector<Annotation>& annotations(size_t i) const {
    RLL_DCHECK(i < annotations_.size());
    return annotations_[i];
  }
  void AddAnnotation(size_t i, Annotation a);
  void ClearAnnotations();
  /// True when every example has at least one crowd label.
  bool FullyAnnotated() const;
  /// Number of distinct worker ids across all annotations (max id + 1).
  size_t NumWorkers() const;

  /// Count of 1-votes on example i.
  size_t PositiveVotes(size_t i) const;
  /// Majority vote over crowd labels; ties break toward 1 (the majority
  /// class in both of the paper's datasets). Requires annotations.
  int MajorityVote(size_t i) const;
  /// All majority-vote labels.
  std::vector<int> MajorityVoteLabels() const;

  /// Fraction of examples whose true label is 1.
  double PositiveFraction() const;

  /// New dataset with the selected examples (annotations carried over).
  Dataset Subset(const std::vector<size_t>& indices) const;

 private:
  Matrix features_;
  std::vector<int> true_labels_;
  std::vector<std::vector<Annotation>> annotations_;
};

}  // namespace rll::data

#endif  // RLL_DATA_DATASET_H_
