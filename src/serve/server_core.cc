#include "serve/server_core.h"

#include <algorithm>
#include <utility>

#include "common/arena.h"
#include "common/check.h"
#include "common/stopwatch.h"
#include "common/strings.h"
#include "common/threading.h"
#include "obs/json_util.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"
#include "tensor/ops.h"

namespace rll::serve {

namespace {

/// Names of the serve_requests_total / serve_request_latency_ms series
/// rows and columns (see ServerCore::RecordRequest).
const char* SeriesTypeName(size_t type) {
  return type == ServerCore::kUnparsedType
             ? "unknown"
             : RequestTypeName(static_cast<RequestType>(type));
}

const char* SeriesStatusName(size_t status) {
  return status == 0 ? "ok"
                     : ServeErrorName(static_cast<ServeError>(status - 1));
}

size_t SeriesStatus(bool ok, ServeError error) {
  return ok ? 0 : 1 + static_cast<size_t>(error);
}

/// Data-plane request types index windowed_latency_by_type_.
size_t TypeIndex(RequestType type) {
  const size_t index = static_cast<size_t>(type);
  RLL_DCHECK_LT(index, 3u);
  return index;
}

std::string WindowedHistogramJson(
    const obs::WindowedHistogram::Snapshot& s) {
  std::string out = StrFormat("{\"count\":%llu",
                              static_cast<unsigned long long>(s.count));
  out += ",\"max\":" + obs::JsonNumber(s.max);
  out += ",\"mean\":" + obs::JsonNumber(s.mean);
  out += ",\"min\":" + obs::JsonNumber(s.min);
  out += ",\"p50\":" + obs::JsonNumber(s.p50);
  out += ",\"p95\":" + obs::JsonNumber(s.p95);
  out += ",\"p99\":" + obs::JsonNumber(s.p99);
  out += ",\"rate_per_sec\":" + obs::JsonNumber(s.rate_per_sec);
  out += ",\"window_seconds\":" + obs::JsonNumber(s.window_seconds) + "}";
  return out;
}

}  // namespace

ServerCore::ServerCore(const ServerCoreOptions& options, data::Dataset corpus,
                       bool has_corpus)
    : options_(options),
      corpus_(std::move(corpus)),
      has_corpus_(has_corpus),
      windowed_requests_(options.window) {
  windowed_latency_all_ =
      std::make_unique<obs::WindowedHistogram>(obs::HistogramOptions{},
                                               options_.window);
  for (auto& histogram : windowed_latency_by_type_) {
    histogram = std::make_unique<obs::WindowedHistogram>(
        obs::HistogramOptions{}, options_.window);
  }
  // Register the reload families up front so they export at 0 from the
  // first scrape, not only after the first reload.
  auto& registry = obs::MetricRegistry::Global();
  registry.GetCounter("rll_serve_reloads_total", {});
  registry.GetCounter("rll_serve_reload_failures_total", {});
  registry.GetGauge("rll_serve_generation")->Set(1.0);
}

const obs::WindowedHistogram& ServerCore::windowed_latency(
    RequestType type) const {
  return *windowed_latency_by_type_[TypeIndex(type)];
}

ServerCore::~ServerCore() { Shutdown(); }

Result<std::unique_ptr<ServerCore>> ServerCore::Create(
    core::ModelBundle bundle, const data::Dataset* corpus,
    const ServerCoreOptions& options, std::string bundle_source) {
  if (options.default_k == 0) {
    return Status::InvalidArgument("default_k must be >= 1");
  }
  if (options.shards == 0) {
    return Status::InvalidArgument("shards must be >= 1");
  }
  if (corpus != nullptr && corpus->empty()) {
    return Status::InvalidArgument("corpus must be non-empty");
  }
  std::unique_ptr<ServerCore> server(new ServerCore(  // rll-lint: allow(naked-new-delete)
      options, corpus != nullptr ? *corpus : data::Dataset(),
      corpus != nullptr));
  RLL_ASSIGN_OR_RETURN(
      std::shared_ptr<ServingState> state,
      server->BuildState(std::move(bundle), std::move(bundle_source)));
  {
    MutexLock lock(server->state_mu_);
    server->state_ = std::move(state);
  }
  return server;
}

Result<std::shared_ptr<ServerCore::ServingState>> ServerCore::BuildState(
    core::ModelBundle bundle, std::string source) {
  if (has_corpus_ && corpus_.dim() != bundle.input_dim()) {
    return Status::InvalidArgument(
        "corpus feature dimensionality does not match the bundle");
  }
  auto state = std::make_shared<ServingState>(std::move(bundle));
  state->source = std::move(source);
  if (has_corpus_) {
    // One batched pass through the same encoder that will serve traffic.
    // On reload this re-embeds the retained corpus with the incoming
    // bundle, so the index and the head always match the live encoder.
    RLL_ASSIGN_OR_RETURN(Matrix embeddings,
                         state->bundle.Embed(corpus_.features()));
    RLL_RETURN_IF_ERROR(state->index.Build(embeddings, options_.shards));
    RLL_RETURN_IF_ERROR(
        state->predictor.Fit(embeddings, corpus_.true_labels()));
    state->corpus_labels = corpus_.true_labels();
  }
  state->cache = std::make_unique<EmbeddingCache>(options_.cache_capacity);
  // The batch function runs on this generation's batcher worker thread;
  // RllModel::EmbedInto is const and the bundle is immutable once the
  // state is published, so no synchronization is needed. The raw model
  // pointer is stable (ModelBundle holds the model behind a shared_ptr)
  // and the batcher is a member of the same ServingState, declared last so
  // its drain finishes before the bundle dies. Rows arrive already
  // standardized. Writing into the worker's workspace keeps the
  // steady-state batch → embed step allocation-free.
  const core::RllModel* model = &state->bundle.model();
  state->batcher = std::make_unique<MicroBatcher>(
      options_.batcher,
      [model](const Matrix& x, Workspace& ws) -> const Matrix& {
        return model->EmbedInto(x, ws);
      },
      state->cache.get());
  return state;
}

std::shared_ptr<ServerCore::ServingState> ServerCore::state() const {
  MutexLock lock(state_mu_);
  return state_;
}

Status ServerCore::Reload(const std::string& path) {
  const std::string target = path.empty() ? bundle_source() : path;
  if (target.empty()) {
    const Status status =
        Status::InvalidArgument("no bundle path to reload from");
    reload_failures_.fetch_add(1, std::memory_order_relaxed);
    obs::MetricRegistry::Global()
        .GetCounter("rll_serve_reload_failures_total", {})
        ->Increment();
    MutexLock lock(admin_mu_);
    last_reload_error_ = status.message();
    return status;
  }
  Result<core::ModelBundle> bundle = core::ModelBundle::Load(target);
  if (!bundle.ok()) {
    reload_failures_.fetch_add(1, std::memory_order_relaxed);
    obs::MetricRegistry::Global()
        .GetCounter("rll_serve_reload_failures_total", {})
        ->Increment();
    MutexLock lock(admin_mu_);
    last_reload_error_ = bundle.status().message();
    return bundle.status();
  }
  return ReloadFromBundle(*std::move(bundle), target);
}

Status ServerCore::ReloadFromBundle(core::ModelBundle bundle,
                                    std::string source) {
  // One build at a time: concurrent reload requests queue on this mutex
  // and each swaps in turn (last writer wins, generations stay monotone).
  MutexLock reload_lock(reload_mu_);
  reload_in_progress_.store(true, std::memory_order_release);
  Result<std::shared_ptr<ServingState>> built =
      BuildState(std::move(bundle), std::move(source));
  Status status = built.status();
  std::shared_ptr<ServingState> retired;
  if (status.ok()) {
    MutexLock lock(state_mu_);
    if (shutdown_.load(std::memory_order_acquire)) {
      // The swap would publish a batcher Shutdown() will never stop.
      status = Status::FailedPrecondition("server is shutting down");
    } else {
      (*built)->generation = state_->generation + 1;
      retired = std::move(state_);
      state_ = *std::move(built);
    }
  }
  auto& registry = obs::MetricRegistry::Global();
  if (status.ok()) {
    reloads_total_.fetch_add(1, std::memory_order_relaxed);
    registry.GetCounter("rll_serve_reloads_total", {})->Increment();
    uint64_t generation;
    {
      MutexLock lock(state_mu_);
      generation = state_->generation;
    }
    registry.GetGauge("rll_serve_generation")
        ->Set(static_cast<double>(generation));
    MutexLock lock(admin_mu_);
    last_reload_error_.clear();
  } else {
    reload_failures_.fetch_add(1, std::memory_order_relaxed);
    registry.GetCounter("rll_serve_reload_failures_total", {})->Increment();
    MutexLock lock(admin_mu_);
    last_reload_error_ = status.message();
  }
  reload_in_progress_.store(false, std::memory_order_release);
  // `retired` dies here (or when the last in-flight request that pinned it
  // finishes): its destructor stops the old generation's batcher, which
  // drains every request already queued against the old bundle.
  return status;
}

uint64_t ServerCore::generation() const { return state()->generation; }

std::string ServerCore::bundle_source() const { return state()->source; }

void ServerCore::SetReloadRequestHandler(ReloadRequestFn handler) {
  MutexLock lock(admin_mu_);
  reload_handler_ = std::move(handler);
}

void ServerCore::SetTransportStatusProvider(TransportStatusFn provider) {
  MutexLock lock(admin_mu_);
  transport_status_ = std::move(provider);
}

const EmbeddingCache& ServerCore::cache() const { return *state()->cache; }

const MicroBatcher& ServerCore::batcher() const {
  return *state()->batcher;
}

const core::ModelBundle& ServerCore::bundle() const {
  return state()->bundle;
}

size_t ServerCore::corpus_size() const { return corpus_.size(); }

bool ServerCore::supports_predict() const { return has_corpus_; }

bool ServerCore::supports_neighbors() const { return has_corpus_; }

size_t ServerCore::index_shards() const {
  return state()->index.shard_count();
}

Result<Matrix> ServerCore::EmbedRow(const ServingState& st,
                                    const std::vector<double>& features,
                                    int64_t trace_id) {
  const Matrix raw = Matrix::RowVector(features);
  return st.batcher->Embed(st.bundle.standardizer().Transform(raw),
                           trace_id);
}

Response ServerCore::Handle(const Request& request) {
  const uint64_t request_id =
      next_request_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  const bool sampled = options_.trace_sample_every > 0 &&
                       request_id % options_.trace_sample_every == 0;
  const int64_t trace_id = sampled ? static_cast<int64_t>(request_id) : 0;
  obs::TraceSpan span("serve_request", trace_id, sampled);
  Stopwatch timer;
  // Pin this request's generation once: everything below — dimension
  // check, batcher, head, index — runs against one consistent bundle even
  // if a reload swaps the current pointer mid-request.
  const std::shared_ptr<ServingState> st = state();
  Response response = HandleInternal(request, *st, trace_id);
  if (sampled) response.trace_id = request_id;
  const double millis = timer.ElapsedMillis();
  RecordRequest(static_cast<size_t>(request.type),
                SeriesStatus(response.ok, response.error), millis,
                sampled ? request_id : 0);
  if (!IsAdminRequest(request.type)) {
    windowed_requests_.Increment();
    windowed_latency_all_->Observe(millis);
    windowed_latency_by_type_[TypeIndex(request.type)]->Observe(millis);
  }
  return response;
}

Response ServerCore::HandleInternal(const Request& request,
                                    const ServingState& st,
                                    int64_t trace_id) {
  // Admin commands answer even while draining: an operator watching a
  // shutdown is exactly when introspection must keep working.
  if (IsAdminRequest(request.type)) return HandleAdmin(request);
  if (shutting_down()) {
    return MakeErrorResponse(request.id_json, ServeError::kShutdown,
                             "server is shutting down");
  }
  if (request.features.size() != st.bundle.input_dim()) {
    return MakeErrorResponse(
        request.id_json, ServeError::kBadRequest,
        "expected " + std::to_string(st.bundle.input_dim()) +
            " features, got " + std::to_string(request.features.size()));
  }

  Result<Matrix> embedded = EmbedRow(st, request.features, trace_id);
  if (!embedded.ok()) {
    ServeError error = ServeError::kInternal;
    if (IsOverloaded(embedded.status())) error = ServeError::kOverloaded;
    if (IsShuttingDown(embedded.status())) error = ServeError::kShutdown;
    return MakeErrorResponse(request.id_json, error,
                             embedded.status().message());
  }

  Response response;
  response.id_json = request.id_json;
  response.has_type = true;
  response.type = request.type;
  switch (request.type) {
    case RequestType::kEmbed: {
      response.embedding.assign(
          embedded->data(), embedded->data() + embedded->size());
      response.ok = true;
      return response;
    }
    case RequestType::kPredict: {
      if (!supports_predict()) {
        return MakeErrorResponse(
            request.id_json, ServeError::kUnsupported,
            "predict needs a labeled corpus (start the server with one)");
      }
      response.score = st.predictor.PredictProba(*embedded)[0];
      response.label = response.score >= 0.5 ? 1 : 0;
      response.ok = true;
      return response;
    }
    case RequestType::kNeighbors: {
      if (!supports_neighbors()) {
        return MakeErrorResponse(
            request.id_json, ServeError::kUnsupported,
            "neighbors needs a corpus (start the server with one)");
      }
      const size_t k = request.k > 0 ? request.k : options_.default_k;
      const int64_t query_start =
          trace_id > 0 ? obs::TraceNowMicros() : 0;
      auto hits = st.index.Query(*embedded, k);
      if (trace_id > 0) {
        obs::RecordSpanWithId("serve_index_query", trace_id, query_start);
      }
      if (!hits.ok()) {
        return MakeErrorResponse(request.id_json, ServeError::kInternal,
                                 hits.status().message());
      }
      response.neighbors.reserve(hits->size());
      for (const core::Neighbor& n : *hits) {
        response.neighbors.push_back(
            {n.index, st.corpus_labels[n.index], n.similarity});
      }
      response.ok = true;
      return response;
    }
    case RequestType::kHealthz:
    case RequestType::kStatusz:
    case RequestType::kMetricsz:
    case RequestType::kProfilez:
    case RequestType::kReloadz:
      break;  // Unreachable: dispatched to HandleAdmin above.
  }
  return MakeErrorResponse(request.id_json, ServeError::kInternal,
                           "unhandled request type");
}

Response ServerCore::HandleAdmin(const Request& request) {
  Response response;
  response.id_json = request.id_json;
  response.has_type = true;
  response.type = request.type;
  switch (request.type) {
    case RequestType::kHealthz:
      response.payload_json = HealthzPayload();
      break;
    case RequestType::kStatusz:
      response.payload_json = StatuszPayload();
      break;
    case RequestType::kMetricsz:
      response.payload_json = MetricszPayload();
      break;
    case RequestType::kProfilez: {
      Result<std::string> payload = ProfilezPayload(request);
      if (!payload.ok()) {
        // Operator errors (already running, bad hz) come back structured,
        // like every other protocol failure.
        const ServeError error = payload.status().code() == StatusCode::kInternal
                                     ? ServeError::kInternal
                                     : ServeError::kBadRequest;
        return MakeErrorResponse(request.id_json, error,
                                 payload.status().message());
      }
      response.payload_json = *std::move(payload);
      break;
    }
    case RequestType::kReloadz: {
      Result<std::string> payload = ReloadzPayload(request);
      if (!payload.ok()) {
        const ServeError error = payload.status().code() == StatusCode::kInternal
                                     ? ServeError::kInternal
                                     : ServeError::kBadRequest;
        return MakeErrorResponse(request.id_json, error,
                                 payload.status().message());
      }
      response.payload_json = *std::move(payload);
      break;
    }
    default:
      return MakeErrorResponse(request.id_json, ServeError::kInternal,
                               "non-admin type in HandleAdmin");
  }
  response.ok = true;
  return response;
}

Result<std::string> ServerCore::ReloadzPayload(const Request& request) {
  switch (request.reload_action) {
    case ReloadAction::kStatus: {
      std::string last_error;
      {
        MutexLock lock(admin_mu_);
        last_error = last_reload_error_;
      }
      const std::shared_ptr<ServingState> st = state();
      std::string out = "{\"action\":\"status\"";
      out += StrFormat(",\"failures\":%llu",
                       static_cast<unsigned long long>(reload_failures()));
      out += StrFormat(",\"generation\":%llu",
                       static_cast<unsigned long long>(st->generation));
      out += StrFormat(",\"in_progress\":%s",
                       reload_in_progress() ? "true" : "false");
      out += ",\"last_error\":\"" + obs::JsonEscape(last_error) + "\"";
      out += StrFormat(",\"reloads\":%llu",
                       static_cast<unsigned long long>(reloads_total()));
      out += ",\"source\":\"" + obs::JsonEscape(st->source) + "\"}";
      return out;
    }
    case ReloadAction::kReload: {
      ReloadRequestFn handler;
      {
        MutexLock lock(admin_mu_);
        handler = reload_handler_;
      }
      if (handler) {
        // Asynchronous mode (event plane): hand the request to the reload
        // thread and answer immediately — a reload can take seconds and
        // must not stall the connection (or its shard) that asked for it.
        RLL_RETURN_IF_ERROR(handler(request.reload_path));
        std::string out = "{\"action\":\"reload\"";
        out += StrFormat(",\"generation\":%llu",
                         static_cast<unsigned long long>(generation()));
        out += ",\"path\":\"" + obs::JsonEscape(request.reload_path) + "\"";
        out += ",\"status\":\"accepted\"}";
        return out;
      }
      // Synchronous mode (tests, bench, embedded use): run the reload
      // inline and report the outcome in the response.
      RLL_RETURN_IF_ERROR(Reload(request.reload_path));
      const std::shared_ptr<ServingState> st = state();
      std::string out = "{\"action\":\"reload\"";
      out += StrFormat(",\"generation\":%llu",
                       static_cast<unsigned long long>(st->generation));
      out += ",\"source\":\"" + obs::JsonEscape(st->source) + "\"";
      out += ",\"status\":\"ok\"}";
      return out;
    }
  }
  return Status::Internal("unknown reloadz action");
}

Result<std::string> ServerCore::ProfilezPayload(const Request& request) {
  switch (request.profile_action) {
    case ProfileAction::kStart: {
      obs::ProfilerOptions options;
      if (request.profile_hz > 0) options.hz = request.profile_hz;
      RLL_RETURN_IF_ERROR(obs::StartCpuProfiler(options));
      profiler_started_.store(true, std::memory_order_relaxed);
      return StrFormat("{\"action\":\"start\",\"hz\":%d,\"running\":true}",
                       options.hz);
    }
    case ProfileAction::kStop: {
      obs::StopCpuProfiler();
      profiler_started_.store(false, std::memory_order_relaxed);
      return std::string("{\"action\":\"stop\",\"running\":false}");
    }
    case ProfileAction::kFetch: {
      std::string out = StrFormat(
          "{\"action\":\"fetch\",\"format\":\"%s\",\"profile\":",
          request.profile_format == ProfileFormat::kFolded ? "folded"
                                                           : "json");
      if (request.profile_format == ProfileFormat::kFolded) {
        out += "\"" + obs::JsonEscape(obs::ProfileToFolded()) + "\"";
      } else {
        out += obs::ProfileToJson();
      }
      out += StrFormat(",\"running\":%s}",
                       obs::CpuProfilerRunning() ? "true" : "false");
      return out;
    }
  }
  return Status::Internal("unknown profilez action");
}

std::string ServerCore::HealthzPayload() const {
  return StrFormat(
      "{\"status\":\"%s\",\"uptime_s\":%s}",
      shutting_down() ? "draining" : "serving",
      obs::JsonNumber(uptime_seconds()).c_str());
}

std::string ServerCore::StatuszPayload() const {
  const std::shared_ptr<ServingState> st = state();
  std::string transport;
  {
    MutexLock lock(admin_mu_);
    transport = transport_status_ ? transport_status_() : "{}";
  }
  std::string out = "{";
  out += StrFormat("\"batch_timeout_us\":%lld",
                   static_cast<long long>(options_.batcher.batch_timeout_us));
  out += ",\"bundle_source\":\"" + obs::JsonEscape(st->source) + "\"";
  out += StrFormat(",\"cache_capacity\":%zu", st->cache->capacity());
  out += StrFormat(",\"cache_size\":%zu", st->cache->size());
  out += StrFormat(",\"corpus_size\":%zu", corpus_size());
  out += StrFormat(",\"default_k\":%zu", options_.default_k);
  out += StrFormat(",\"embedding_dim\":%zu", st->bundle.embedding_dim());
  out += StrFormat(",\"generation\":%llu",
                   static_cast<unsigned long long>(st->generation));
  out += StrFormat(",\"index_shards\":%zu", st->index.shard_count());
  out += StrFormat(",\"input_dim\":%zu", st->bundle.input_dim());
  // The GEMM and tanh kernels' vector level: it moves speed, not bits.
  out += StrFormat(",\"kernel_isa\":\"%s\"", KernelIsa());
  out += StrFormat(",\"max_batch\":%zu", options_.batcher.max_batch);
  out += StrFormat(",\"max_queue\":%zu", options_.batcher.max_queue);
  out += StrFormat(",\"reload_in_progress\":%s",
                   reload_in_progress() ? "true" : "false");
  out += StrFormat(",\"requests_handled\":%llu",
                   static_cast<unsigned long long>(requests_handled()));
  out += StrFormat(",\"schema_version\":%d", obs::kMetricsSchemaVersion);
  out += StrFormat(",\"status\":\"%s\"",
                   shutting_down() ? "draining" : "serving");
  out += StrFormat(",\"supports_neighbors\":%s",
                   supports_neighbors() ? "true" : "false");
  out += StrFormat(",\"supports_predict\":%s",
                   supports_predict() ? "true" : "false");
  out += StrFormat(",\"threads\":%zu", GlobalThreadCount());
  out += StrFormat(",\"trace_sample_every\":%llu",
                   static_cast<unsigned long long>(
                       options_.trace_sample_every));
  // transport is produced by the event plane (never from client input), so
  // it is spliced in verbatim as a complete JSON object.
  out += ",\"transport\":" + transport;
  out += ",\"uptime_s\":" + obs::JsonNumber(uptime_seconds());
  out += StrFormat(",\"window_interval_us\":%lld",
                   static_cast<long long>(options_.window.interval_us));
  out += StrFormat(",\"window_intervals\":%zu}", options_.window.intervals);
  return out;
}

std::string ServerCore::MetricszPayload() {
  auto& registry = obs::MetricRegistry::Global();
  // Arena gauges are refreshed at scrape time (pull, not push): the
  // memory plane has no natural event to hook, and a scrape-time snapshot
  // is exactly as fresh as any other gauge here.
  const ArenaStatsSnapshot arenas = GlobalArenaStats();
  registry.GetGauge("rll_arena_live")
      ->Set(static_cast<double>(arenas.live_arenas));
  registry.GetGauge("rll_arena_used_bytes")
      ->Set(static_cast<double>(arenas.bytes_used));
  registry.GetGauge("rll_arena_reserved_bytes")
      ->Set(static_cast<double>(arenas.bytes_reserved));
  registry.GetGauge("rll_arena_high_water_bytes")
      ->Set(static_cast<double>(arenas.high_water));
  const std::string cumulative = registry.ExportJson();

  std::string windowed = "{\"latency_ms\":{";
  windowed +=
      "\"all\":" + WindowedHistogramJson(windowed_latency_all_->GetSnapshot());
  windowed += ",\"embed\":" +
              WindowedHistogramJson(
                  windowed_latency(RequestType::kEmbed).GetSnapshot());
  windowed += ",\"neighbors\":" +
              WindowedHistogramJson(
                  windowed_latency(RequestType::kNeighbors).GetSnapshot());
  windowed += ",\"predict\":" +
              WindowedHistogramJson(
                  windowed_latency(RequestType::kPredict).GetSnapshot());
  const obs::WindowedCounter::Snapshot requests =
      windowed_requests_.GetSnapshot();
  windowed += StrFormat(
      "},\"requests\":{\"count\":%llu,\"rate_per_sec\":%s,"
      "\"window_seconds\":%s}}",
      static_cast<unsigned long long>(requests.count),
      obs::JsonNumber(requests.rate_per_sec).c_str(),
      obs::JsonNumber(requests.window_seconds).c_str());

  // Latency exemplars: per data-plane type, every bucket that has seen a
  // trace-sampled request, as {le, trace_id, value}. An operator reading a
  // suspicious p99 here gets a concrete trace_id to pull up.
  std::string exemplars = "{";
  bool first_type = true;
  for (const char* type : {"embed", "neighbors", "predict"}) {
    obs::Histogram* histogram =
        registry.GetHistogram("serve_request_latency_ms", {{"type", type}});
    const std::vector<double>& bounds = histogram->bucket_bounds();
    const std::vector<obs::HistogramExemplar> buckets =
        histogram->bucket_exemplars();
    if (!first_type) exemplars += ",";
    first_type = false;
    exemplars += StrFormat("\"%s\":[", type);
    bool first_bucket = true;
    for (size_t i = 0; i < buckets.size(); ++i) {
      if (buckets[i].trace_id == 0) continue;
      if (!first_bucket) exemplars += ",";
      first_bucket = false;
      const std::string le =
          i < bounds.size() ? obs::JsonNumber(bounds[i]) : "null";
      exemplars += StrFormat(
          "{\"le\":%s,\"trace_id\":%llu,\"value\":%s}", le.c_str(),
          static_cast<unsigned long long>(buckets[i].trace_id),
          obs::JsonNumber(buckets[i].value).c_str());
    }
    exemplars += "]";
  }
  exemplars += "}";

  std::string out = "{\"cumulative\":" + cumulative;
  out += ",\"exemplars\":" + exemplars;
  out += StrFormat(",\"schema_version\":%d", obs::kMetricsSchemaVersion);
  out += ",\"uptime_s\":" + obs::JsonNumber(uptime_seconds());
  out += ",\"windowed\":" + windowed + "}";
  return out;
}

void ServerCore::RecordRequest(size_t type, size_t status, double millis,
                               uint64_t trace_id) {
  auto& registry = obs::MetricRegistry::Global();
  std::atomic<obs::Counter*>& counter_slot = request_counters_[type][status];
  obs::Counter* counter = counter_slot.load(std::memory_order_acquire);
  if (counter == nullptr) {
    counter = registry.GetCounter(
        "serve_requests_total",
        {{"type", SeriesTypeName(type)}, {"status", SeriesStatusName(status)}});
    counter_slot.store(counter, std::memory_order_release);
  }
  counter->Increment();
  std::atomic<obs::Histogram*>& latency_slot = request_latency_[type];
  obs::Histogram* latency = latency_slot.load(std::memory_order_acquire);
  if (latency == nullptr) {
    latency = registry.GetHistogram("serve_request_latency_ms",
                                    {{"type", SeriesTypeName(type)}});
    latency_slot.store(latency, std::memory_order_release);
  }
  // Trace-sampled requests stamp their id as the latency bucket's
  // exemplar, so metricsz can point at one concrete traced request per
  // bucket (trace_id 0 degrades to a plain Observe).
  latency->ObserveWithExemplar(millis, trace_id);
}

void ServerCore::HandleLine(std::string_view line, std::string* out) {
  std::string id_json;
  Result<Request> request = ParseRequest(line, &id_json);
  if (!request.ok()) {
    RecordRequest(kUnparsedType,
                  SeriesStatus(/*ok=*/false, ServeError::kBadRequest), 0.0,
                  /*trace_id=*/0);
    AppendResponse(MakeErrorResponse(id_json, ServeError::kBadRequest,
                                     request.status().message()),
                   out);
    return;
  }
  AppendResponse(Handle(*request), out);
}

std::string ServerCore::HandleLine(const std::string& line) {
  std::string out;
  HandleLine(line, &out);
  return out;
}

void ServerCore::Shutdown() {
  // Flag first so new arrivals fail fast, and so any reload that has not
  // yet swapped is refused at publish time; then stop the current
  // generation's batcher, which drains what is already queued — requests
  // blocked in Embed complete normally instead of being dropped. Requests
  // still in flight on an older, already-retired generation hold their own
  // shared_ptr; that generation's batcher stops when the last one
  // releases it.
  shutdown_.store(true, std::memory_order_release);
  std::shared_ptr<ServingState> st;
  {
    MutexLock lock(state_mu_);
    st = state_;
  }
  if (st != nullptr) st->batcher->Stop();
  // A profilez "start" without a matching "stop" must not outlive the
  // server that armed it.
  if (profiler_started_.exchange(false, std::memory_order_relaxed)) {
    obs::StopCpuProfiler();
  }
}

}  // namespace rll::serve
