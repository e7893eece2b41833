// Cosine-similarity retrieval index over learned embeddings — the serving
// side of the pipeline: embed a new example, retrieve the most similar
// labeled examples (e.g. "find past classes that looked like this one").
// Exact brute-force scan: the corpus is stored row-normalized, one Gemm
// scores every row against the normalized query, and KeepTopK ranks the
// scores. Every cosine retrieval in the library (KnnAccuracy, the sharded
// index, `rll_cli retrieve`) goes through this one path.

#ifndef RLL_CORE_EMBEDDING_INDEX_H_
#define RLL_CORE_EMBEDDING_INDEX_H_

#include <vector>

#include "common/status.h"
#include "tensor/matrix.h"

namespace rll::core {

struct Neighbor {
  size_t index;       // Row in the indexed corpus.
  double similarity;  // Cosine in [−1, 1].
};

/// Scales every row of `m` to unit L2 norm, in place. Each row is divided
/// by max(‖row‖, 1e-12), so a zero row stays zero. The index stores its
/// corpus and its queries this way, so a dot product of two such rows is
/// their cosine.
void NormalizeRows(Matrix& m);

/// Keeps the min(k, pool.size()) best entries of `pool`, ranked by the
/// strict total order (similarity desc, index asc). The order is total, so
/// the result is unique even under exact ties: the property the sharded
/// merge (core/sharded_index.h) and KnnAccuracy build on.
void KeepTopK(std::vector<Neighbor>& pool, size_t k);

class EmbeddingIndex {
 public:
  EmbeddingIndex() = default;

  /// Builds (or rebuilds) the index over a corpus of embeddings; rows are
  /// stored L2-normalized. Takes the matrix by value, so a caller that
  /// moves it in pays no copy. Fails on an empty corpus.
  Status Build(Matrix embeddings);

  /// Appends one embedding row; returns its index.
  Result<size_t> Add(const Matrix& embedding);

  /// The k nearest corpus rows to `query` (1×dim) by cosine similarity,
  /// ranked by KeepTopK. k is clamped to the corpus size. The scores are
  /// one Gemm of the corpus against the normalized query: each is
  /// ((0 + r₀q₀) + r₁q₁) + … over one corpus row, so results are bitwise
  /// identical at any --threads value and any kernel level. Gemm splits
  /// the rows over the global thread pool above its own serial floor.
  Result<std::vector<Neighbor>> Query(const Matrix& query, size_t k) const;

  size_t size() const { return corpus_.rows(); }
  size_t dim() const { return corpus_.cols(); }
  bool empty() const { return corpus_.rows() == 0; }

 private:
  Matrix corpus_;  // Row-normalized.
};

}  // namespace rll::core

#endif  // RLL_CORE_EMBEDDING_INDEX_H_
