// Deterministic parallel execution core.
//
// A fixed-partition ThreadPool plus ParallelFor / ParallelReduce helpers
// whose results are independent of the worker count. Determinism is the
// design constraint everything else bends around:
//
//   * ParallelFor partitions a range into grain-sized chunks whose
//     boundaries depend only on (begin, end, grain) — never on the number
//     of threads — so row-partitioned kernels are bitwise identical at any
//     --threads value.
//   * ParallelReduce computes one partial per chunk and combines partials
//     sequentially in chunk order, so floating-point reductions are also
//     bitwise identical at any --threads value (though not necessarily to
//     a plain left-fold over the whole range).
//   * Randomized work never shares a mutable Rng across tasks; callers
//     derive independent per-task streams with SplitSeed (common/rng.h).
//
// The global pool is a lazy singleton sized by the RLL_THREADS environment
// variable (tools expose it as --threads). The default is 1: parallelism is
// opt-in, and a size-1 pool runs every ParallelFor inline with no queue,
// matching the serial code path exactly. Nested ParallelFor calls issued
// from inside a pool task run inline on the worker, so composed layers
// (parallel CV folds over parallel kernels) cannot deadlock.

#ifndef RLL_COMMON_THREADING_H_
#define RLL_COMMON_THREADING_H_

#include <algorithm>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/mutex.h"

namespace rll {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to >= 1). A size-1 pool spawns
  /// no workers at all; every ParallelFor runs inline on the caller.
  explicit ThreadPool(size_t num_threads);

  /// Drains outstanding tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return num_threads_; }

  /// Runs fn(chunk_begin, chunk_end) over [begin, end) split into chunks of
  /// at most `grain` indices (grain clamped to >= 1). Blocks until every
  /// chunk has finished. The partition depends only on the arguments, so
  /// per-index work is scheduled identically at any pool size. The first
  /// exception thrown by a chunk is rethrown here after the remaining
  /// chunks finish. Calls from inside one of this pool's tasks run inline.
  void ParallelFor(size_t begin, size_t end, size_t grain,
                   const std::function<void(size_t, size_t)>& fn);

  /// True when the calling thread is one of this pool's workers.
  bool OnWorkerThread() const;

  /// Worker index in [0, num_threads) when called from any pool's worker
  /// thread, -1 otherwise (e.g. the main thread).
  static int CurrentWorkerId();

 private:
  struct ForState;

  void WorkerLoop(size_t worker_id);
  void RunTask(const std::function<void()>& task);

  size_t num_threads_;
  std::vector<std::thread> workers_;
  Mutex mu_;
  CondVar cv_;
  std::deque<std::function<void()>> queue_ RLL_GUARDED_BY(mu_);
  bool stopping_ RLL_GUARDED_BY(mu_) = false;
};

/// The process-wide pool. Created on first use with the thread count from
/// SetGlobalThreads if called, else the RLL_THREADS environment variable,
/// else 1. The returned shared_ptr keeps the pool alive across a concurrent
/// SetGlobalThreads.
std::shared_ptr<ThreadPool> GlobalThreadPool();

/// Resizes the global pool (0 restores the RLL_THREADS/1 default). The old
/// pool is destroyed once in-flight holders release it; the next
/// GlobalThreadPool() call builds the new one lazily. Not meant to be
/// called concurrently with work already in flight.
void SetGlobalThreads(size_t num_threads);

/// Worker count the global pool has (or would be created with).
size_t GlobalThreadCount();

/// ParallelFor on the global pool. A template so the serial paths — a
/// range that fits one chunk, a size-1 pool, a nested call from a worker —
/// invoke `fn` directly: no std::function is materialized, which keeps the
/// hot loops built on these kernels allocation-free at --threads 1. A range
/// that fits one chunk does not look the pool up either (a lock and a
/// shared_ptr copy). Only an actual pool dispatch pays the type-erasure
/// (and task-queue) cost. The chunk partition is the same either way, so
/// results stay bitwise identical at any thread count.
template <typename Fn>
void ParallelFor(size_t begin, size_t end, size_t grain, const Fn& fn) {
  if (end <= begin) return;
  grain = std::max<size_t>(grain, 1);
  if (end - begin > grain) {
    const std::shared_ptr<ThreadPool> pool = GlobalThreadPool();
    if (pool->num_threads() > 1 && !pool->OnWorkerThread()) {
      pool->ParallelFor(begin, end, grain,
                        std::function<void(size_t, size_t)>(std::cref(fn)));
      return;
    }
  }
  fn(begin, end);
}

/// Deterministic tree reduction over [begin, end): `map_chunk(lo, hi)`
/// produces one partial per grain-sized chunk (computed in parallel), and
/// `combine` folds the partials left-to-right in chunk order. Because the
/// chunk boundaries and the combine order depend only on the arguments,
/// the result is bitwise identical at any pool size.
template <typename T, typename MapFn, typename CombineFn>
T ParallelReduce(size_t begin, size_t end, size_t grain, T identity,
                 const MapFn& map_chunk, const CombineFn& combine) {
  if (end <= begin) return identity;
  grain = std::max<size_t>(grain, 1);
  const size_t chunks = (end - begin + grain - 1) / grain;
  bool serial = chunks == 1;  // One chunk does not look the pool up.
  if (!serial) {
    const std::shared_ptr<ThreadPool> pool = GlobalThreadPool();
    serial = pool->num_threads() == 1 || pool->OnWorkerThread();
  }
  if (serial) {
    // Serial fold with the SAME chunk boundaries and combine order as the
    // parallel path — bitwise identical result — but no partials buffer
    // and no dispatch, so the path allocates nothing.
    T acc = identity;
    for (size_t c = 0; c < chunks; ++c) {
      const size_t lo = begin + c * grain;
      const size_t hi = std::min(end, lo + grain);
      acc = combine(acc, map_chunk(lo, hi));
    }
    return acc;
  }
  std::vector<T> partials(chunks, identity);
  ParallelFor(0, chunks, 1, [&](size_t chunk_begin, size_t chunk_end) {
    for (size_t c = chunk_begin; c < chunk_end; ++c) {
      const size_t lo = begin + c * grain;
      const size_t hi = std::min(end, lo + grain);
      partials[c] = map_chunk(lo, hi);
    }
  });
  T acc = identity;
  for (const T& partial : partials) acc = combine(acc, partial);
  return acc;
}

}  // namespace rll

#endif  // RLL_COMMON_THREADING_H_
