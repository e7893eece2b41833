// Dynamic micro-batcher: the mechanism that turns many concurrent
// single-row embedding requests into a few large Mlp::Embed calls.
//
// Shape: a bounded MPSC queue in front of one worker thread. Producers
// (transport threads) enqueue a standardized feature row and block on a
// future; the worker coalesces up to `max_batch` rows — waiting at most
// `batch_timeout_us` after the first arrival for stragglers — stacks them
// into one matrix, runs the batch function once, and demultiplexes the
// result rows back to the per-request futures.
//
// Backpressure is admission control, not buffering: when `max_queue`
// requests are already pending, Embed fails immediately with an
// "overloaded" status instead of letting latency grow without bound.
//
// Determinism: Mlp::Embed computes each output row from its input row
// alone, with a fixed per-row accumulation order, so a row embedded in a
// batch of 32 is bitwise identical to the same row embedded alone
// (tests/serve_test.cc pins this). The batcher therefore never changes
// results — only how many forward passes they cost.
//
// Graceful shutdown: Stop() rejects new arrivals, drains every queued
// request through the normal batch path, then joins the worker.

#ifndef RLL_SERVE_BATCHER_H_
#define RLL_SERVE_BATCHER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "serve/cache.h"
#include "tensor/matrix.h"

namespace rll::serve {

struct MicroBatcherOptions {
  /// Largest coalesced batch (rows per batch function call).
  size_t max_batch = 32;
  /// How long the worker waits after the first queued request for more
  /// arrivals before running a partial batch. 0 = run immediately.
  int64_t batch_timeout_us = 200;
  /// Admission bound: requests beyond this many pending fail immediately
  /// with OverloadedStatus().
  size_t max_queue = 256;
};

/// Status returned to callers rejected by admission control.
Status OverloadedStatus();
/// Status returned to callers arriving after Stop().
Status ShuttingDownStatus();
bool IsOverloaded(const Status& status);
bool IsShuttingDown(const Status& status);

class MicroBatcher {
 public:
  /// Maps a stacked n×in matrix to the n×out result, row-aligned. Runs on
  /// the batcher's worker thread (never on a producer). The result
  /// reference must alias a `ws` buffer (or otherwise outlive the call)
  /// and is consumed before the next invocation, so the whole stack→embed
  /// step reuses the worker's buffers — zero allocations at steady state.
  using BatchIntoFn =
      std::function<const Matrix&(const Matrix&, Workspace&)>;

  /// `cache` is optional (nullptr disables caching); it is probed in
  /// Embed before enqueueing and filled by the worker after each batch.
  MicroBatcher(const MicroBatcherOptions& options, BatchIntoFn batch_fn,
               EmbeddingCache* cache);
  ~MicroBatcher();

  MicroBatcher(const MicroBatcher&) = delete;
  MicroBatcher& operator=(const MicroBatcher&) = delete;

  /// Embeds one 1×in row. Blocks until the coalesced batch containing it
  /// completes. Fails fast with OverloadedStatus() / ShuttingDownStatus()
  /// under backpressure or after Stop(). `trace_id` > 0 marks a sampled
  /// request: the cache probe, the queue wait, and the row's slice of the
  /// batch are recorded as linked "name:id" spans.
  Result<Matrix> Embed(const Matrix& row, int64_t trace_id = 0);

  /// Drains queued requests, then joins the worker. Idempotent.
  void Stop();
  bool stopped() const { return stopped_.load(std::memory_order_acquire); }

  // Introspection (mirrored into the obs metric registry).
  uint64_t batches_run() const {
    return batches_run_.load(std::memory_order_relaxed);
  }
  uint64_t rows_batched() const {
    return rows_batched_.load(std::memory_order_relaxed);
  }
  uint64_t max_batch_observed() const {
    return max_batch_observed_.load(std::memory_order_relaxed);
  }
  uint64_t rejected() const {
    return rejected_.load(std::memory_order_relaxed);
  }
  const MicroBatcherOptions& options() const { return options_; }

 private:
  struct Pending {
    Matrix row;
    uint64_t key = 0;
    int64_t trace_id = 0;  // > 0: emit linked spans for this row.
    std::promise<Result<Matrix>> promise;
  };

  void WorkerLoop();
  /// Stacks, embeds, demultiplexes, and caches one batch. The vector is
  /// owned by WorkerLoop and cleared (capacity kept) after each batch.
  void RunBatch(std::vector<Pending>& batch);

  const MicroBatcherOptions options_;
  const BatchIntoFn batch_fn_;
  EmbeddingCache* const cache_;  // Not owned; may be nullptr.

  // Worker-thread state (no locking: RunBatch only runs on worker_).
  Workspace ws_;
  std::vector<char> failed_;

  Mutex mu_;
  CondVar cv_;
  std::deque<Pending> queue_ RLL_GUARDED_BY(mu_);
  bool stopping_ RLL_GUARDED_BY(mu_) = false;  // Set once by Stop().
  std::atomic<bool> stopped_{false};

  std::atomic<uint64_t> batches_run_{0};
  std::atomic<uint64_t> rows_batched_{0};
  std::atomic<uint64_t> max_batch_observed_{0};
  std::atomic<uint64_t> rejected_{0};

  std::thread worker_;  // Last member: starts after everything above.
};

}  // namespace rll::serve

#endif  // RLL_SERVE_BATCHER_H_
