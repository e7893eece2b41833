#include "core/embedding_index.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/arena.h"
#include "tensor/ops.h"

namespace rll::core {

namespace {

void NormalizeRow(double* row, size_t cols) {
  double norm = 0.0;
  for (size_t c = 0; c < cols; ++c) norm += row[c] * row[c];
  norm = std::max(std::sqrt(norm), 1e-12);
  for (size_t c = 0; c < cols; ++c) row[c] /= norm;
}

}  // namespace

void NormalizeRows(Matrix& m) {
  for (size_t r = 0; r < m.rows(); ++r) NormalizeRow(m.row_data(r), m.cols());
}

void KeepTopK(std::vector<Neighbor>& pool, size_t k) {
  const size_t kk = std::min(k, pool.size());
  // partial_sort is not stable, so the index tie-break is what makes two
  // equal similarities come back in one order.
  std::partial_sort(pool.begin(), pool.begin() + static_cast<long>(kk),
                    pool.end(), [](const Neighbor& a, const Neighbor& b) {
                      if (a.similarity != b.similarity) {
                        return a.similarity > b.similarity;
                      }
                      return a.index < b.index;
                    });
  pool.resize(kk);
}

Status EmbeddingIndex::Build(Matrix embeddings) {
  if (embeddings.rows() == 0 || embeddings.cols() == 0) {
    return Status::InvalidArgument("cannot index an empty corpus");
  }
  NormalizeRows(embeddings);
  corpus_ = std::move(embeddings);
  return Status::OK();
}

Result<size_t> EmbeddingIndex::Add(const Matrix& embedding) {
  if (embedding.rows() != 1) {
    return Status::InvalidArgument("Add expects a single 1xdim row");
  }
  if (!empty() && embedding.cols() != dim()) {
    return Status::InvalidArgument("dimension mismatch with corpus");
  }
  // Reshape keeps the row-major prefix, so the corpus rows stay in place
  // and only the new row is written.
  const size_t row = corpus_.rows();
  corpus_.Reshape(row + 1, embedding.cols());
  std::copy_n(embedding.data(), embedding.cols(), corpus_.row_data(row));
  NormalizeRow(corpus_.row_data(row), corpus_.cols());
  return row;
}

Result<std::vector<Neighbor>> EmbeddingIndex::Query(const Matrix& query,
                                                    size_t k) const {
  if (empty()) return Status::FailedPrecondition("index is empty");
  if (query.rows() != 1 || query.cols() != dim()) {
    return Status::InvalidArgument("query must be 1xdim");
  }
  if (k == 0) return Status::InvalidArgument("k must be >= 1");

  // Per-thread scratch for the normalized query, the score column and the
  // ranking pool, so a steady-state query allocates only its result
  // (BM_EmbeddingIndexQuery pins that). Assignment and Gemm's Reshape
  // reuse capacity, and ArenaPause keeps the buffers heap-backed so a
  // caller's ArenaScope can never reclaim them out from under the thread.
  ArenaPause pause;
  thread_local Matrix q;
  thread_local Matrix scores;
  thread_local std::vector<Neighbor> pool;
  q = query;
  NormalizeRows(q);
  // scores = corpus · q̂ᵀ, one n×1 column: row r is the cosine with corpus
  // row r. The corpus stays row-major, so Add needs no re-layout.
  Gemm(corpus_, false, q, true, scores);
  pool.resize(corpus_.rows());
  for (size_t r = 0; r < pool.size(); ++r) pool[r] = {r, scores[r]};
  KeepTopK(pool, k);
  // The result crosses the call boundary, so it is a k-sized copy of the
  // scratch pool rather than the pool itself.
  return pool;
}

}  // namespace rll::core
