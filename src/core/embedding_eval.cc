#include "core/embedding_eval.h"

#include <algorithm>

#include "common/check.h"
#include "core/embedding_index.h"

namespace rll::core {

namespace {

double RowDot(const Matrix& m, size_t a, size_t b) {
  const double* ra = m.row_data(a);
  const double* rb = m.row_data(b);
  double dot = 0.0;
  for (size_t c = 0; c < m.cols(); ++c) dot += ra[c] * rb[c];
  return dot;
}

}  // namespace

EmbeddingQuality EvaluateEmbeddings(const Matrix& embeddings,
                                    const std::vector<int>& labels) {
  RLL_CHECK_EQ(embeddings.rows(), labels.size());
  RLL_CHECK_GE(labels.size(), 2u);
  Matrix unit = embeddings;
  NormalizeRows(unit);
  const size_t n = labels.size();

  EmbeddingQuality q;
  double intra = 0.0, inter = 0.0;
  size_t intra_n = 0, inter_n = 0;
  // Silhouette accumulators: per example, mean cosine *distance* to own
  // class (a) vs other class (b); s = (b − a)/max(a, b).
  double silhouette_total = 0.0;
  size_t silhouette_n = 0;

  std::vector<double> same_dist(n, 0.0), other_dist(n, 0.0);
  std::vector<size_t> same_count(n, 0), other_count(n, 0);

  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      const double cos = RowDot(unit, i, j);
      const double dist = 1.0 - cos;
      if (labels[i] == labels[j]) {
        intra += cos;
        ++intra_n;
        same_dist[i] += dist;
        same_dist[j] += dist;
        ++same_count[i];
        ++same_count[j];
      } else {
        inter += cos;
        ++inter_n;
        other_dist[i] += dist;
        other_dist[j] += dist;
        ++other_count[i];
        ++other_count[j];
      }
    }
  }
  q.intra_class_cosine = intra_n ? intra / static_cast<double>(intra_n) : 0.0;
  q.inter_class_cosine = inter_n ? inter / static_cast<double>(inter_n) : 0.0;
  q.cosine_margin = q.intra_class_cosine - q.inter_class_cosine;

  for (size_t i = 0; i < n; ++i) {
    if (same_count[i] == 0 || other_count[i] == 0) continue;
    const double a = same_dist[i] / static_cast<double>(same_count[i]);
    const double b = other_dist[i] / static_cast<double>(other_count[i]);
    const double denom = std::max(a, b);
    if (denom > 0.0) {
      silhouette_total += (b - a) / denom;
      ++silhouette_n;
    }
  }
  q.silhouette =
      silhouette_n ? silhouette_total / static_cast<double>(silhouette_n)
                   : 0.0;
  return q;
}

double KnnAccuracy(const Matrix& embeddings, const std::vector<int>& labels,
                   size_t k) {
  RLL_CHECK_EQ(embeddings.rows(), labels.size());
  RLL_CHECK_GE(labels.size(), 2u);
  RLL_CHECK_GE(k, 1u);
  const size_t n = labels.size();
  const size_t kk = std::min(k, n - 1);
  EmbeddingIndex index;
  RLL_CHECK(index.Build(embeddings).ok());

  // Each row asks the index for kk + 1 neighbours, as `rll_cli retrieve`
  // does, and drops itself; if a tie ranked it past kk + 1, the last one
  // goes instead. Ties go to the lower index (KeepTopK).
  size_t correct = 0;
  for (size_t i = 0; i < n; ++i) {
    auto neighbors = index.Query(embeddings.Row(i), kk + 1);
    RLL_CHECK(neighbors.ok());
    std::erase_if(*neighbors,
                  [i](const Neighbor& nb) { return nb.index == i; });
    neighbors->resize(kk);
    size_t votes = 0;
    for (const Neighbor& nb : *neighbors) votes += (labels[nb.index] == 1);
    const int predicted = 2 * votes >= kk ? 1 : 0;
    correct += (predicted == labels[i]);
  }
  return static_cast<double>(correct) / static_cast<double>(n);
}

}  // namespace rll::core
