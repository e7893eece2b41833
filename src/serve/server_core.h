// ServerCore: the transport-independent heart of the inference server.
//
// Owns the current *generation* of serving state — a trained ModelBundle,
// the micro-batcher + LRU cache in front of its encoder, and (when a
// labeled corpus is provided) a logistic-regression head fit on the corpus
// embeddings plus a sharded cosine retrieval index over them. Every
// transport — the epoll event plane, the bench load generator, the tests —
// drives this one class, so all serving logic is exercisable without a
// socket.
//
// Request flow for all three types:
//   raw features → standardize (bundle statistics) → cache probe →
//   micro-batched Mlp::Embed → [predict: LR head | neighbors: index query]
//
// Zero-downtime reload (RCU-style generations): the whole serving state is
// one immutable-once-published ServingState behind a shared_ptr. Reload()
// builds the next generation in the background — load + shape-validate the
// new bundle, re-embed the corpus, rebuild index/head/cache/batcher — then
// atomically swaps the pointer. Requests pin their generation at entry, so
// in-flight work finishes on the bundle it started with; the old
// generation (and its batcher thread) is torn down when the last in-flight
// request releases it. Exposed on the wire as the strict `reloadz` admin
// verb and, via serve/event/reload_manager.h, as a bundle-file watcher.
//
// Thread-safe: Handle/HandleLine may be called from any number of
// transport threads concurrently, including while a reload swaps the
// generation. Shutdown() drains in-flight work; requests arriving
// afterwards fail with a structured "shutdown" error.

#ifndef RLL_SERVE_SERVER_CORE_H_
#define RLL_SERVE_SERVER_CORE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "classify/logistic_regression.h"
#include "common/mutex.h"
#include "common/stopwatch.h"
#include "core/model_bundle.h"
#include "core/sharded_index.h"
#include "data/dataset.h"
#include "obs/window.h"
#include "serve/batcher.h"
#include "serve/cache.h"
#include "serve/protocol.h"

namespace rll::obs {
class Counter;
class Histogram;
}  // namespace rll::obs

namespace rll::serve {

struct ServerCoreOptions {
  MicroBatcherOptions batcher;
  /// LRU entries keyed by standardized feature row (0 disables caching).
  size_t cache_capacity = 1024;
  /// k used by neighbors requests that do not pass one.
  size_t default_k = 5;
  /// Contiguous shards the retrieval index is split into (clamped to the
  /// corpus size). Mirrors the event plane's worker count, but a
  /// `neighbors` query still scans every shard in turn on the thread that
  /// handles it; results are bitwise identical at any value
  /// (core/sharded_index.h).
  size_t shards = 1;
  /// Trace sampling: every Nth request gets linked "name:id" spans down
  /// the whole pipeline and its id echoed as "trace_id". 0 disables
  /// sampling (requests still get plain unlinked spans when tracing is
  /// on).
  uint64_t trace_sample_every = 0;
  /// Ring shape for the sliding-window views served by metricsz.
  obs::WindowOptions window;
};

class ServerCore {
 public:
  /// Builds a server around a trained bundle. `corpus` is optional: when
  /// non-null, it is copied (reloads re-embed it with each new bundle),
  /// its rows are embedded once (one batched Embed call), a logistic-
  /// regression head is fit on (embeddings, expert labels) for `predict`,
  /// and a sharded cosine index is built for `neighbors`. Without a
  /// corpus those two request types answer a structured "unsupported"
  /// error and only `embed` is live. `bundle_source` is the path the
  /// bundle came from; it seeds the default reload target and statusz's
  /// bundle_source field.
  static Result<std::unique_ptr<ServerCore>> Create(
      core::ModelBundle bundle, const data::Dataset* corpus,
      const ServerCoreOptions& options, std::string bundle_source = "");

  ~ServerCore();

  ServerCore(const ServerCore&) = delete;
  ServerCore& operator=(const ServerCore&) = delete;

  /// Typed entry point: answers one request (blocking until its batch
  /// completes). Never fails structurally — errors come back as `ok ==
  /// false` responses so transports have exactly one write path.
  Response Handle(const Request& request);

  /// Wire entry point: parses one protocol line, handles it, and appends
  /// the serialized response (no trailing newline) to *out — the event
  /// plane passes a view into the connection's read buffer and its write
  /// buffer. Parse errors yield a structured bad_request response, never
  /// nothing.
  void HandleLine(std::string_view line, std::string* out);
  /// HandleLine into a fresh string.
  std::string HandleLine(const std::string& line);

  /// Graceful shutdown: drains every queued request through the batcher,
  /// then fails later arrivals with a "shutdown" error. A reload that is
  /// mid-build when shutdown begins is refused at swap time. Idempotent.
  void Shutdown();
  bool shutting_down() const {
    return shutdown_.load(std::memory_order_acquire);
  }

  // ------------------------------------------------------------- reload

  /// Loads a bundle from `path` (empty: the current bundle_source) and
  /// swaps it in as the next generation. Synchronous — runs the load,
  /// validation, and corpus re-embed on the calling thread; in-flight
  /// requests keep answering on the old generation throughout. On any
  /// failure the old generation stays current and the error is recorded
  /// (reloadz action=status, rll_serve_reload_failures_total).
  Status Reload(const std::string& path);

  /// Reload from an already-loaded bundle (tests, in-process trainers).
  Status ReloadFromBundle(core::ModelBundle bundle, std::string source);

  /// Monotone generation counter: 1 for the bundle served at Create, +1
  /// per successful reload.
  uint64_t generation() const;
  /// Path of the currently served bundle ("" when Create got none).
  std::string bundle_source() const;
  bool reload_in_progress() const {
    return reload_in_progress_.load(std::memory_order_acquire);
  }
  uint64_t reloads_total() const {
    return reloads_total_.load(std::memory_order_relaxed);
  }
  uint64_t reload_failures() const {
    return reload_failures_.load(std::memory_order_relaxed);
  }

  /// When set, `reloadz` action=reload dispatches through this handler
  /// (the ReloadManager's queue) and answers "accepted" immediately;
  /// without one the reload runs inline on the handling thread and the
  /// response carries the final outcome. Set before serving starts.
  using ReloadRequestFn = std::function<Status(const std::string& path)>;
  void SetReloadRequestHandler(ReloadRequestFn handler);

  /// Transport hook for statusz: returns a JSON object describing the
  /// event-plane shape (shard count, per-shard connection/queue gauges).
  /// Set by the transport before serving starts; statusz renders it under
  /// the "transport" key ({} when unset).
  using TransportStatusFn = std::function<std::string()>;
  void SetTransportStatusProvider(TransportStatusFn provider);

  // ------------------------------------------- current-generation views
  //
  // References into the generation current at call time. They stay valid
  // while that generation is current and until every in-flight request
  // drains; callers that race reloads should go through Handle() instead
  // of holding these across a swap.

  const EmbeddingCache& cache() const;
  const MicroBatcher& batcher() const;
  const core::ModelBundle& bundle() const;
  /// 0 when no corpus was provided.
  size_t corpus_size() const;
  bool supports_predict() const;
  bool supports_neighbors() const;
  /// Shard count of the live retrieval index (0 without a corpus).
  size_t index_shards() const;
  const ServerCoreOptions& options() const { return options_; }

  /// Sliding-window views backing metricsz (data-plane requests only;
  /// admin scrapes are excluded so watching the server does not move the
  /// latency it reports).
  const obs::WindowedCounter& windowed_requests() const {
    return windowed_requests_;
  }
  const obs::WindowedHistogram& windowed_latency() const {
    return *windowed_latency_all_;
  }
  /// Per-type latency window; `type` must be a data-plane type.
  const obs::WindowedHistogram& windowed_latency(RequestType type) const;

  /// The serve_requests_total / serve_request_latency_ms row of a line
  /// that did not parse (type "unknown"); the rows before it are the
  /// RequestType values.
  static constexpr size_t kUnparsedType =
      static_cast<size_t>(RequestType::kReloadz) + 1;
  /// Columns of serve_requests_total: "ok", then each ServeError.
  static constexpr size_t kSeriesStatuses =
      static_cast<size_t>(ServeError::kInternal) + 2;

  /// Total requests minted so far (every Handle call, admin included).
  uint64_t requests_handled() const {
    return next_request_id_.load(std::memory_order_relaxed);
  }
  double uptime_seconds() const { return uptime_.ElapsedSeconds(); }

 private:
  /// One model generation: everything a request touches, immutable once
  /// published. The batcher is declared last so it is destroyed first —
  /// its drain may still run the embed lambda against this bundle.
  struct ServingState {
    explicit ServingState(core::ModelBundle b) : bundle(std::move(b)) {}
    core::ModelBundle bundle;
    classify::LogisticRegression predictor;
    core::ShardedEmbeddingIndex index;
    std::vector<int> corpus_labels;
    uint64_t generation = 1;
    std::string source;
    std::unique_ptr<EmbeddingCache> cache;
    std::unique_ptr<MicroBatcher> batcher;
  };

  ServerCore(const ServerCoreOptions& options, data::Dataset corpus,
             bool has_corpus);

  /// Builds a complete generation: validates the bundle against the
  /// retained corpus, embeds the corpus through the new encoder, fits the
  /// head, builds the sharded index, and spins up a fresh cache+batcher.
  Result<std::shared_ptr<ServingState>> BuildState(core::ModelBundle bundle,
                                                   std::string source);

  /// The current generation (mutex-guarded shared_ptr copy — the
  /// "read-side lock" of the RCU swap; the critical section is a refcount
  /// bump).
  std::shared_ptr<ServingState> state() const;

  /// Standardizes one raw feature row and embeds it through the given
  /// generation's batcher. `trace_id` > 0 threads linked spans through
  /// the batcher pipeline.
  Result<Matrix> EmbedRow(const ServingState& st,
                          const std::vector<double>& features,
                          int64_t trace_id);
  Response HandleInternal(const Request& request, const ServingState& st,
                          int64_t trace_id);
  /// Counts one request in serve_requests_total{type,status} and observes
  /// its latency in serve_request_latency_ms{type}. `type` is a
  /// RequestType value or kUnparsedType; `status` is 0 for "ok", else 1 +
  /// the ServeError value. Each series is looked up in the registry on its
  /// first request and kept, so it exports from then on, as before.
  void RecordRequest(size_t type, size_t status, double millis,
                     uint64_t trace_id);
  Response HandleAdmin(const Request& request);
  std::string HealthzPayload() const;
  std::string StatuszPayload() const;
  std::string MetricszPayload();
  /// profilez start/stop/fetch against the process-wide CPU profiler
  /// (obs/profiler.h). Errors (already running, invalid hz) surface as a
  /// structured response, not a dropped connection.
  Result<std::string> ProfilezPayload(const Request& request);
  Result<std::string> ReloadzPayload(const Request& request);

  const ServerCoreOptions options_;
  /// Retained copy of the Create-time corpus: every reload re-embeds it
  /// with the incoming bundle.
  const data::Dataset corpus_;
  const bool has_corpus_;

  mutable Mutex state_mu_;
  std::shared_ptr<ServingState> state_ RLL_GUARDED_BY(state_mu_);

  /// Serializes reloads: one build at a time, triggers queue behind it.
  Mutex reload_mu_;
  std::atomic<bool> reload_in_progress_{false};
  std::atomic<uint64_t> reloads_total_{0};
  std::atomic<uint64_t> reload_failures_{0};

  std::atomic<bool> shutdown_{false};
  /// True while a profilez "start" this core issued is live, so Shutdown
  /// can disarm the timer instead of leaving SIGPROF firing into teardown.
  std::atomic<bool> profiler_started_{false};

  Stopwatch uptime_;
  std::atomic<uint64_t> next_request_id_{0};
  std::atomic<obs::Counter*> request_counters_[kUnparsedType + 1]
                                              [kSeriesStatuses] = {};
  std::atomic<obs::Histogram*> request_latency_[kUnparsedType + 1] = {};
  obs::WindowedCounter windowed_requests_;
  std::unique_ptr<obs::WindowedHistogram> windowed_latency_all_;
  /// Indexed by RequestType value; data-plane types only.
  std::unique_ptr<obs::WindowedHistogram> windowed_latency_by_type_[3];

  // The reload hook, the transport statusz hook, and the last reload
  // error. Admin requests are rare (seconds apart), so one mutex here
  // costs nothing on the request path.
  mutable Mutex admin_mu_;
  ReloadRequestFn reload_handler_ RLL_GUARDED_BY(admin_mu_);
  TransportStatusFn transport_status_ RLL_GUARDED_BY(admin_mu_);
  std::string last_reload_error_ RLL_GUARDED_BY(admin_mu_);
};

}  // namespace rll::serve

#endif  // RLL_SERVE_SERVER_CORE_H_
