// rll-analyze: hot-path — WorkerLoop/RunBatch execute once per coalesced
// batch on the serve request path; per-batch containers are banned (the
// batch vector, failure flags, and stacked matrix are all reused).
#include "serve/batcher.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "common/stopwatch.h"
#include "common/thread_registry.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"

namespace rll::serve {

namespace {

constexpr char kOverloadedMessage[] = "overloaded: request queue is full";
constexpr char kShuttingDownMessage[] = "server is shutting down";

struct BatcherMetrics {
  obs::Gauge* queue_depth;
  obs::Histogram* batch_size;
  obs::Histogram* batch_embed_ms;
  obs::Counter* batches;
  obs::Counter* cache_hits;
  obs::Counter* cache_misses;
  obs::Counter* rejected;
};

/// Hot-path instruments, resolved once (registry lookup takes a lock).
const BatcherMetrics& Metrics() {
  static const BatcherMetrics metrics = [] {
    auto& registry = obs::MetricRegistry::Global();
    obs::HistogramOptions batch_buckets;
    batch_buckets.buckets = obs::HistogramOptions::Buckets::kLinear;
    batch_buckets.count = 64;
    batch_buckets.min = 0.0;
    batch_buckets.max = 64.0;  // Width-1 buckets: exact up to 64 rows.
    return BatcherMetrics{
        registry.GetGauge("serve_queue_depth"),
        registry.GetHistogram("serve_batch_size", {}, batch_buckets),
        registry.GetHistogram("serve_batch_embed_ms"),
        registry.GetCounter("serve_batches_total"),
        registry.GetCounter("serve_cache_hits_total"),
        registry.GetCounter("serve_cache_misses_total"),
        registry.GetCounter("serve_rejected_total"),
    };
  }();
  return metrics;
}

}  // namespace

Status OverloadedStatus() {
  return Status::FailedPrecondition(kOverloadedMessage);
}

Status ShuttingDownStatus() {
  return Status::FailedPrecondition(kShuttingDownMessage);
}

bool IsOverloaded(const Status& status) {
  return status.code() == StatusCode::kFailedPrecondition &&
         status.message() == kOverloadedMessage;
}

bool IsShuttingDown(const Status& status) {
  return status.code() == StatusCode::kFailedPrecondition &&
         status.message() == kShuttingDownMessage;
}

MicroBatcher::MicroBatcher(const MicroBatcherOptions& options,
                           BatchIntoFn batch_fn, EmbeddingCache* cache)
    : options_(options), batch_fn_(std::move(batch_fn)), cache_(cache) {
  RLL_CHECK_GE(options_.max_batch, 1u);
  RLL_CHECK_GE(options_.max_queue, 1u);
  Metrics();  // Resolve instruments before concurrent use.
  worker_ = std::thread([this] { WorkerLoop(); });
}

MicroBatcher::~MicroBatcher() { Stop(); }

Result<Matrix> MicroBatcher::Embed(const Matrix& row, int64_t trace_id) {
  if (row.rows() != 1) {
    return Status::InvalidArgument("Embed expects a single 1xdim row");
  }
  // Span starts are only stamped for sampled requests (trace_id > 0);
  // RecordSpanWithId itself no-ops when tracing is globally off.
  uint64_t key = 0;
  if (cache_ != nullptr) {
    const int64_t probe_start =
        trace_id > 0 ? obs::TraceNowMicros() : 0;
    key = EmbeddingCache::HashRow(row);
    Matrix cached;
    const bool hit = cache_->Lookup(key, row, &cached);
    if (trace_id > 0) {
      obs::RecordSpanWithId("serve_cache_probe", trace_id, probe_start);
    }
    if (hit) {
      Metrics().cache_hits->Increment();
      return cached;
    }
    Metrics().cache_misses->Increment();
  }

  const int64_t wait_start = trace_id > 0 ? obs::TraceNowMicros() : 0;
  std::future<Result<Matrix>> future;
  {
    MutexLock lock(mu_);
    if (stopping_) return ShuttingDownStatus();
    if (queue_.size() >= options_.max_queue) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      Metrics().rejected->Increment();
      return OverloadedStatus();
    }
    Pending pending;
    pending.row = row;
    pending.key = key;
    pending.trace_id = trace_id;
    future = pending.promise.get_future();
    queue_.push_back(std::move(pending));
    Metrics().queue_depth->Set(static_cast<double>(queue_.size()));
  }
  cv_.NotifyAll();
  Result<Matrix> result = future.get();
  if (trace_id > 0) {
    // Covers enqueue → batch completion, i.e. queueing plus the batch
    // itself; the overlapping serve_batch_row span isolates the latter.
    obs::RecordSpanWithId("serve_queue_wait", trace_id, wait_start);
  }
  return result;
}

void MicroBatcher::Stop() {
  {
    MutexLock lock(mu_);
    if (stopping_) {
      // Second caller: fall through to join (idempotence), but the flag
      // is already set.
    }
    stopping_ = true;
  }
  cv_.NotifyAll();
  if (worker_.joinable()) worker_.join();
  stopped_.store(true, std::memory_order_release);
}

void MicroBatcher::WorkerLoop() {
  // Once, at thread start (the per-batch loop below stays allocation-free):
  // name the worker and register its profiler buffer — this thread runs
  // every Embed forward pass, so it dominates serve CPU profiles.
  SetCurrentThreadName("rll-batcher");
  obs::RegisterProfilerThread();
  // Hoisted out of the loop: at steady state the vector's capacity (like
  // every other per-batch buffer) is reused, so draining a batch performs
  // no heap allocation.
  std::vector<Pending> batch;
  for (;;) {
    batch.clear();
    {
      MutexLock lock(mu_);
      while (!stopping_ && queue_.empty()) cv_.Wait(mu_);
      if (queue_.empty()) return;  // stopping_ && drained.
      // First request in hand: linger for stragglers up to the timeout
      // (skipped when already full or when shutting down — the drain
      // should be fast, not well-batched).
      if (options_.batch_timeout_us > 0 && !stopping_ &&
          queue_.size() < options_.max_batch) {
        const auto deadline =
            std::chrono::steady_clock::now() +
            std::chrono::microseconds(options_.batch_timeout_us);
        while (!stopping_ && queue_.size() < options_.max_batch) {
          if (cv_.WaitUntil(mu_, deadline) == std::cv_status::timeout) break;
        }
      }
      const size_t take = std::min(queue_.size(), options_.max_batch);
      batch.reserve(take);
      for (size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      Metrics().queue_depth->Set(static_cast<double>(queue_.size()));
    }
    RunBatch(batch);
  }
}

void MicroBatcher::RunBatch(std::vector<Pending>& batch) {
  RLL_TRACE_SPAN("serve_batch");
  const int64_t batch_start = obs::TraceNowMicros();
  const size_t n = batch.size();
  // Batch assembly reuses the worker's keyed buffer: GetReshaped keeps
  // the capacity across batches, so varying batch sizes only allocate
  // until the high-water shape has been seen once.
  Matrix& stacked = ws_.GetReshaped("batcher.stacked", n, batch[0].row.cols());
  failed_.assign(n, 0);
  for (size_t i = 0; i < n; ++i) {
    if (batch[i].row.cols() != stacked.cols()) {
      // Mixed widths cannot be stacked; fail the odd row out and embed
      // the rest (ServerCore validates dimensions up front, so this is
      // belt-and-braces against direct batcher users; the stale row left
      // in `stacked` only feeds a result nobody reads — every kernel in
      // the embed path maps input rows to output rows independently).
      batch[i].promise.set_value(
          Status::InvalidArgument("row width differs within batch"));
      failed_[i] = 1;
      continue;
    }
    stacked.SetRow(i, batch[i].row);
  }

  Stopwatch timer;
  // The batch function writes into (and returns a reference aliasing) the
  // worker's workspace.
  const Matrix& embedded = batch_fn_(stacked, ws_);
  Metrics().batch_embed_ms->Observe(timer.ElapsedMillis());
  Metrics().batch_size->Observe(static_cast<double>(n));
  Metrics().batches->Increment();
  batches_run_.fetch_add(1, std::memory_order_relaxed);
  rows_batched_.fetch_add(n, std::memory_order_relaxed);
  uint64_t seen = max_batch_observed_.load(std::memory_order_relaxed);
  while (n > seen && !max_batch_observed_.compare_exchange_weak(
                         seen, n, std::memory_order_relaxed)) {
  }

  if (embedded.rows() != n) {
    const Status broken = Status::Internal(
        "batch function returned " + std::to_string(embedded.rows()) +
        " rows for a batch of " + std::to_string(n));
    for (size_t i = 0; i < n; ++i) {
      if (!failed_[i]) batch[i].promise.set_value(broken);
    }
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    if (failed_[i]) continue;
    Matrix row = embedded.Row(i);
    if (cache_ != nullptr) cache_->Insert(batch[i].key, batch[i].row, row);
    if (batch[i].trace_id > 0) {
      // One linked span per sampled row: assembly through demux, so a
      // sampled request's timeline shows its share of the coalesced batch.
      obs::RecordSpanWithId("serve_batch_row", batch[i].trace_id,
                            batch_start);
    }
    batch[i].promise.set_value(std::move(row));
  }
}

}  // namespace rll::serve
