// Intrinsic quality measures for learned embeddings — how well the
// embedding space separates classes, independent of any downstream
// classifier. Used by tests, the retrieval example, and ablations.

#ifndef RLL_CORE_EMBEDDING_EVAL_H_
#define RLL_CORE_EMBEDDING_EVAL_H_

#include <vector>

#include "tensor/matrix.h"

namespace rll::core {

struct EmbeddingQuality {
  /// Mean cosine similarity between same-class pairs.
  double intra_class_cosine = 0.0;
  /// Mean cosine similarity between different-class pairs.
  double inter_class_cosine = 0.0;
  /// intra − inter; > 0 means the space groups classes.
  double cosine_margin = 0.0;
  /// Silhouette-style score on cosine distance, averaged over examples,
  /// in [−1, 1].
  double silhouette = 0.0;
};

/// Computes pairwise statistics over all example pairs (O(n²·dim); intended
/// for paper-scale n). `labels` are the reference classes (0/1).
EmbeddingQuality EvaluateEmbeddings(const Matrix& embeddings,
                                    const std::vector<int>& labels);

/// Leave-one-out k-nearest-neighbor accuracy under cosine similarity —
/// the standard proxy for retrieval quality of a metric space. Neighbours
/// come from one EmbeddingIndex over `embeddings`, so a tie goes to the
/// lower row index, and a vote split evenly predicts class 1.
double KnnAccuracy(const Matrix& embeddings, const std::vector<int>& labels,
                   size_t k = 5);

}  // namespace rll::core

#endif  // RLL_CORE_EMBEDDING_EVAL_H_
