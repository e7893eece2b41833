// Sharded view over EmbeddingIndex: the corpus is split into N contiguous
// row ranges (fixed partition, like common/threading's chunking), each
// backed by its own EmbeddingIndex, and Query merges the per-shard top-k
// lists with a deterministic total order.
//
// The merge is bitwise-identical to one unsharded scan at ANY shard count:
//   * every similarity is computed from exactly one corpus row with the
//     same left-to-right fold order regardless of which shard holds it, and
//   * both the per-shard selection and the merge rank with KeepTopK
//     (similarity descending, corpus index ascending), so the top-k set
//     and its order are unique — no tie can resolve differently when the
//     shard boundaries move.
//
// Query scans the shards one after another on the calling thread, so
// sharding does not split one query's work across threads: each shard's
// Gemm does that alone, above Gemm's serial floor. The serving plane
// builds one shard per event-loop worker only so that the partition
// follows --shards.

#ifndef RLL_CORE_SHARDED_INDEX_H_
#define RLL_CORE_SHARDED_INDEX_H_

#include <vector>

#include "common/status.h"
#include "core/embedding_index.h"
#include "tensor/matrix.h"

namespace rll::core {

class ShardedEmbeddingIndex {
 public:
  ShardedEmbeddingIndex() = default;

  /// Builds (or rebuilds) the index over `embeddings`, split into
  /// `shards` contiguous row ranges. Shard s covers rows
  /// [offset(s), offset(s+1)): the first `rows % shards` shards get one
  /// extra row, so the partition depends only on (rows, shards). A shard
  /// count above the row count is clamped (every shard non-empty). Fails
  /// on an empty corpus or shards == 0.
  Status Build(const Matrix& embeddings, size_t shards);

  /// The k nearest corpus rows to `query` (1×dim) by cosine similarity,
  /// ranked by (similarity desc, index asc) — identical results, bitwise,
  /// at any shard count. k is clamped to the corpus size.
  Result<std::vector<Neighbor>> Query(const Matrix& query, size_t k) const;

  size_t size() const { return total_rows_; }
  size_t dim() const {
    return shards_.empty() ? 0 : shards_.front().dim();
  }
  bool empty() const { return total_rows_ == 0; }
  size_t shard_count() const { return shards_.size(); }
  /// Rows held by shard s.
  size_t shard_size(size_t s) const { return shards_[s].size(); }

 private:
  std::vector<EmbeddingIndex> shards_;
  /// offsets_[s] = global index of shard s's first row.
  std::vector<size_t> offsets_;
  size_t total_rows_ = 0;
};

}  // namespace rll::core

#endif  // RLL_CORE_SHARDED_INDEX_H_
