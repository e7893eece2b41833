#include "core/sharded_index.h"

#include <algorithm>
#include <cstring>
#include <utility>

namespace rll::core {

Status ShardedEmbeddingIndex::Build(const Matrix& embeddings,
                                    size_t shards) {
  if (shards == 0) return Status::InvalidArgument("shards must be >= 1");
  if (embeddings.rows() == 0 || embeddings.cols() == 0) {
    return Status::InvalidArgument("cannot index an empty corpus");
  }
  const size_t rows = embeddings.rows();
  const size_t cols = embeddings.cols();
  shards = std::min(shards, rows);  // Every shard stays non-empty.

  std::vector<EmbeddingIndex> built(shards);
  std::vector<size_t> offsets(shards + 1, 0);
  const size_t base = rows / shards;
  const size_t extra = rows % shards;
  size_t start = 0;
  for (size_t s = 0; s < shards; ++s) {
    const size_t count = base + (s < extra ? 1 : 0);
    offsets[s] = start;
    Matrix slice(count, cols);
    std::memcpy(slice.data(), embeddings.row_data(start),
                count * cols * sizeof(double));
    RLL_RETURN_IF_ERROR(built[s].Build(std::move(slice)));
    start += count;
  }
  offsets[shards] = rows;

  shards_ = std::move(built);
  offsets_ = std::move(offsets);
  total_rows_ = rows;
  return Status::OK();
}

Result<std::vector<Neighbor>> ShardedEmbeddingIndex::Query(
    const Matrix& query, size_t k) const {
  if (empty()) return Status::FailedPrecondition("index is empty");
  if (query.rows() != 1 || query.cols() != dim()) {
    return Status::InvalidArgument("query must be 1xdim");
  }
  if (k == 0) return Status::InvalidArgument("k must be >= 1");

  // Gather each shard's local top-k (global top-k rows are necessarily in
  // their own shard's top-k), lift local row numbers to corpus indices,
  // then rank the candidate pool by the same KeepTopK order the per-shard
  // queries used. The pool holds at most shards*k entries.
  std::vector<Neighbor> candidates;
  candidates.reserve(shards_.size() * std::min(k, size()));
  for (size_t s = 0; s < shards_.size(); ++s) {
    RLL_ASSIGN_OR_RETURN(std::vector<Neighbor> local,
                         shards_[s].Query(query, k));
    for (Neighbor& n : local) {
      n.index += offsets_[s];
      candidates.push_back(n);
    }
  }
  KeepTopK(candidates, k);
  return candidates;
}

}  // namespace rll::core
