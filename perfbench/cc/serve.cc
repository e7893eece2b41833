// Serving workloads: an in-process EventServer on loopback, wired the way
// `rll_cli serve` wires it (ServerCore + ReloadManager + EventServer, the
// CLI's defaults, 2 shards, a 1-thread global pool), driven over TCP by
// the single-threaded generator in loadgen.h.
//
//   serve-hot     closed loop, 4 connections, embed/predict on a 64-row
//                 hot set that stays in the 1024-entry cache: transport,
//                 JSON, cache probe, LR head and per-request metrics.
//   serve-cold    open loop, Poisson at a fixed rate, 4 pipelined
//                 connections, rows uniform over the 20k corpus (about 5%
//                 hits), half neighbors: batcher, EmbedInto, index scan.
//   serve-reload  serve-hot's mix as an open loop, plus a swap every
//                 kReloadCadenceS: ModelBundle::Save of the other bundle
//                 over the served path, then `reloadz` on the wire.
//
// The serving stack is a random-initialised bundle (serving cost does not
// depend on model quality) over a 20 000-row oral-sim corpus. Generator
// threads (1) plus the server's busy threads (2 shards, the batcher, a
// reload) stay within 4 cores.
//
// The traced run adds, on the same stack: an in-process replay of each
// stage of ServerCore::HandleLine through the public calls it makes, on
// the same request stream; a serial wire-vs-in-process pass that isolates
// transport cost; the server's own sampled spans for the batcher wait
// under load; and spans around set-up and each reload.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "classify/logistic_regression.h"
#include "common/rng.h"
#include "common/threading.h"
#include "core/embedding_index.h"
#include "core/model_bundle.h"
#include "core/rll_model.h"
#include "core/sharded_index.h"
#include "data/synthetic.h"
#include "loadgen.h"
#include "obs/json_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/window.h"
#include "serve/cache.h"
#include "serve/event/event_server.h"
#include "serve/event/reload_manager.h"
#include "serve/json.h"
#include "serve/protocol.h"
#include "serve/server_core.h"
#include "workloads.h"

namespace perfbench {
namespace {

using rll::Matrix;
using rll::Rng;
namespace core = rll::core;
namespace data = rll::data;
namespace obs = rll::obs;
namespace serve = rll::serve;

constexpr size_t kCorpusRows = 20000;
constexpr size_t kHotRows = 64;
constexpr size_t kConnections = 4;
constexpr size_t kShards = 2;
constexpr int kSetupReps = 3;
/// About half of the cold mix's closed-loop capacity over 4 connections
/// (1.7-2.2k req/s on a 4-core host: each miss holds its shard for the
/// 200 us linger plus, for neighbors, a 20k-row scan).
constexpr double kColdRate = 1000.0;
/// Well under serve-hot's capacity, so reload interference is what moves.
constexpr double kReloadRate = 4000.0;
constexpr double kReloadCadenceS = 2.0;
constexpr double kWarmupS = 0.5;
/// Length of the windows the serving end-to-end metrics are computed
/// over (see Figures): long enough that a window holds well over ten
/// samples beyond its tail percentile. serve-hot answers about 50k
/// requests a second, the open loops 1000 (serve-cold) and 4000
/// (serve-reload).
constexpr double kClosedWindowS = 1.0;
constexpr double kOpenWindowS = 5.0;
constexpr uint64_t kSampleEvery = 64;

/// An open-loop run whose sends lag their schedule by more than this at
/// p99 measured the generator, not the server, and fails.
constexpr double kMaxLateP99Ms = 5.0;
/// A swap is only started if it should finish, with time to answer some
/// requests on the new generation, before the run ends: at least this long
/// before the end, and at least 1.5x the previous reload plus 0.5 s (a
/// reload takes about 0.8 s, several times that on a slow host).
constexpr double kLastReloadMarginS = 2.0;
/// Traced run: every 8th request carries the server's linked spans.
constexpr uint64_t kTraceSampleEvery = 8;
/// Traced run: requests replayed in-process per stream.
constexpr uint64_t kReplayRequests = 4000;
/// Traced run: time given to phases other than the named workload.
constexpr double kSliceHotS = 2.0;
constexpr double kSliceColdS = 3.0;
constexpr double kSliceReloadS = 2.0 * kReloadCadenceS + kLastReloadMarginS;
/// Ids of warm-up traffic live far above the measured run's.
constexpr uint64_t kWarmupFirstId = uint64_t{1} << 40;

constexpr uint64_t kCorpusStream = 10;
constexpr uint64_t kHotStream = 11;
constexpr uint64_t kColdStream = 12;
constexpr uint64_t kScheduleStream = 13;

enum class Phase { kHot, kCold, kReload };

const char* PhaseName(Phase phase) {
  switch (phase) {
    case Phase::kHot:
      return "serve-hot";
    case Phase::kCold:
      return "serve-cold";
    case Phase::kReload:
      return "serve-reload";
  }
  return "";
}

/// op_tail_ms is p99, except on serve-hot, where p99 moved by 11-55%
/// between runs on a 4-core VM and p95 held within a tenth; the record's
/// tail_percentile says which.
double TailQuantile(Phase phase) {
  return phase == Phase::kHot ? 0.95 : 0.99;
}

serve::ServerCoreOptions CoreOptions(bool traced) {
  serve::ServerCoreOptions options;  // rll_cli serve's defaults:
  options.batcher.max_batch = 32;
  options.batcher.batch_timeout_us = 200;
  options.batcher.max_queue = 256;
  options.cache_capacity = 1024;
  options.default_k = 5;
  options.shards = kShards;
  options.trace_sample_every = traced ? kTraceSampleEvery : 0;
  return options;
}

// ------------------------------------------------------------- inputs

struct Fixture {
  data::Dataset corpus;
  /// [0] is served first; reloads alternate [1], [0], ...
  std::vector<core::ModelBundle> bundles;
  std::string bundle_path;
  std::vector<std::string> features_json;  // Per corpus row.
  std::vector<uint32_t> hot_rows;
};

bool MakeFixture(const RunConfig& config, Fixture* fx, Report* report) {
  Rng rng(rll::SplitSeed(config.seed, kCorpusStream));
  data::SyntheticConfig corpus_config = data::OralSimConfig();
  corpus_config.num_examples = kCorpusRows;
  fx->corpus = data::GenerateSynthetic(corpus_config, &rng);
  data::Standardizer standardizer;
  standardizer.Fit(fx->corpus.features());
  core::RllModelConfig model_config;
  model_config.input_dim = fx->corpus.dim();
  for (int b = 0; b < 2; ++b) {
    core::RllModel model(model_config, &rng);
    auto bundle = core::ModelBundle::Create(standardizer, model, &rng);
    if (!bundle.ok()) {
      report->Fail("bundle: " + bundle.status().ToString());
      return false;
    }
    fx->bundles.push_back(*std::move(bundle));
  }
  fx->bundle_path = config.work_dir + "/served.rll";
  const rll::Status saved = fx->bundles[0].Save(fx->bundle_path);
  if (!saved.ok()) {
    report->Fail("saving bundle: " + saved.ToString());
    return false;
  }
  const Matrix& x = fx->corpus.features();
  fx->features_json.resize(x.rows());
  for (size_t r = 0; r < x.rows(); ++r) {
    std::string json = "[";
    for (size_t c = 0; c < x.cols(); ++c) {
      if (c > 0) json += ",";
      json += obs::JsonNumber(x(r, c));
    }
    fx->features_json[r] = json + "]";
  }
  std::vector<size_t> order(kCorpusRows);
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  rng.Shuffle(&order);
  for (size_t i = 0; i < kHotRows; ++i) {
    fx->hot_rows.push_back(static_cast<uint32_t>(order[i]));
  }
  return true;
}

PickFn HotPicker(const Fixture& fx, uint64_t seed) {
  return [&fx, seed](uint64_t i) {
    Rng rng(rll::SplitSeed(seed, i));
    WireRequest request;
    request.row = fx.hot_rows[rng.UniformInt(kHotRows)];
    request.type = rng.Uniform() < 0.5 ? ReqType::kEmbed : ReqType::kPredict;
    return request;
  };
}

PickFn ColdPicker(uint64_t seed) {
  return [seed](uint64_t i) {
    Rng rng(rll::SplitSeed(seed, i));
    WireRequest request;
    request.row = static_cast<uint32_t>(rng.UniformInt(kCorpusRows));
    const double u = rng.Uniform();
    request.type = u < 0.5    ? ReqType::kNeighbors
                   : u < 0.75 ? ReqType::kEmbed
                              : ReqType::kPredict;
    return request;
  };
}

LineFn Lines(const Fixture& fx) {
  return [&fx](uint64_t id, const WireRequest& request) {
    return "{\"id\":" + std::to_string(id) + ",\"type\":\"" +
           ReqTypeName(request.type) +
           "\",\"features\":" + fx.features_json[request.row] + "}\n";
  };
}

// ----------------------------------------------------- reference model

/// What a correct server answers for one bundle, computed directly: the
/// bundle's own Embed on the raw row, a head fit on its corpus embeddings,
/// and a flat single-index scan.
struct Reference {
  Matrix corpus_emb;
  rll::classify::LogisticRegression head;
  core::EmbeddingIndex flat;
  std::unordered_map<uint32_t, Matrix> direct;
};

bool BuildReference(const Fixture& fx, const core::ModelBundle& bundle,
                    Reference* ref, Report* report) {
  auto emb = bundle.Embed(fx.corpus.features());
  if (!emb.ok()) {
    report->Fail("reference embed: " + emb.status().ToString());
    return false;
  }
  ref->corpus_emb = *std::move(emb);
  rll::Status status = ref->head.Fit(ref->corpus_emb, fx.corpus.true_labels());
  if (status.ok()) status = ref->flat.Build(ref->corpus_emb);
  if (!status.ok()) {
    report->Fail("reference head/index: " + status.ToString());
    return false;
  }
  return true;
}

const Matrix& DirectEmbedding(const Fixture& fx,
                              const core::ModelBundle& bundle,
                              Reference* ref, uint32_t row) {
  auto it = ref->direct.find(row);
  if (it == ref->direct.end()) {
    auto emb = bundle.Embed(fx.corpus.features().Row(row));
    it = ref->direct.emplace(row, emb.ok() ? *std::move(emb) : Matrix())
             .first;
  }
  return it->second;
}

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

/// Checks one sampled response against `bundle`'s reference. `inject`
/// corrupts it first (self-test only). Returns "" when it matches.
std::string CheckSample(const Sampled& s, const Fixture& fx,
                        const core::ModelBundle& bundle, Reference* ref,
                        std::string* inject) {
  auto doc = serve::ParseJson(s.response);
  if (!doc.ok()) return "unparseable response";
  const serve::JsonValue* ok = doc->Find("ok");
  if (ok == nullptr || !ok->is_bool() || !ok->boolean) return "not ok";
  const Matrix& direct = DirectEmbedding(fx, bundle, ref, s.request.row);
  if (direct.size() == 0) return "reference embed failed";
  switch (s.request.type) {
    case ReqType::kEmbed: {
      const serve::JsonValue* e = doc->Find("embedding");
      if (e == nullptr || !e->is_array()) return "no embedding";
      std::vector<double> got;
      for (const serve::JsonValue& v : e->array) got.push_back(v.number);
      if (*inject == "embed-bit" && !got.empty()) {
        got[0] = std::bit_cast<double>(std::bit_cast<uint64_t>(got[0]) ^ 1u);
        inject->clear();
      }
      if (got.size() != direct.size()) return "embedding width";
      for (size_t i = 0; i < got.size(); ++i) {
        if (!SameBits(got[i], direct[i])) {
          return "embedding differs from ModelBundle::Embed";
        }
      }
      return "";
    }
    case ReqType::kPredict: {
      const serve::JsonValue* score = doc->Find("score");
      const serve::JsonValue* label = doc->Find("label");
      if (score == nullptr || label == nullptr) return "no score";
      const double want = ref->head.PredictProba(direct)[0];
      if (!SameBits(score->number, want)) {
        return "score differs from the head on the direct embedding";
      }
      if (label->number != (want >= 0.5 ? 1.0 : 0.0)) return "label";
      return "";
    }
    case ReqType::kNeighbors: {
      const serve::JsonValue* n = doc->Find("neighbors");
      if (n == nullptr || !n->is_array()) return "no neighbors";
      auto want = ref->flat.Query(direct, 5);
      if (!want.ok()) return "reference query failed";
      std::vector<std::pair<size_t, double>> got;
      for (const serve::JsonValue& hit : n->array) {
        const serve::JsonValue* index = hit.Find("index");
        const serve::JsonValue* sim = hit.Find("similarity");
        const serve::JsonValue* label = hit.Find("label");
        if (index == nullptr || sim == nullptr || label == nullptr) {
          return "malformed neighbor";
        }
        const size_t row = static_cast<size_t>(index->number);
        if (row >= fx.corpus.size() ||
            label->number != fx.corpus.true_labels()[row]) {
          return "neighbor label";
        }
        got.emplace_back(row, sim->number);
      }
      if (*inject == "neighbor-swap" && got.size() >= 2) {
        std::swap(got[0].first, got[1].first);
        inject->clear();
      }
      if (got.size() != want->size()) return "neighbor count";
      for (size_t i = 0; i < got.size(); ++i) {
        if (got[i].first != (*want)[i].index ||
            !SameBits(got[i].second, (*want)[i].similarity)) {
          return "neighbors differ from a flat EmbeddingIndex scan";
        }
      }
      return "";
    }
  }
  return "unknown type";
}

// ------------------------------------------------------ serving stack

/// ServerCore + ReloadManager + EventServer, wired as `rll_cli serve`
/// wires them, with the accept loop on its own thread.
class Stack {
 public:
  Stack() = default;
  ~Stack() { Stop(); }
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  /// The workload's set-up; returns false (and reports) on failure.
  bool Start(const Fixture& fx, const serve::ServerCoreOptions& options,
             Spans* spans, Report* report) {
    rll::Result<core::ModelBundle> bundle = [&] {
      SpanScope span(spans, "core.bundle_load");
      return core::ModelBundle::Load(fx.bundle_path);
    }();
    if (!bundle.ok()) {
      report->Fail("ModelBundle::Load: " + bundle.status().ToString());
      return false;
    }
    {
      SpanScope span(spans, "serve.core_create");
      auto created = serve::ServerCore::Create(
          std::move(bundle).value(), &fx.corpus, options, fx.bundle_path);
      if (!created.ok()) {
        report->Fail("ServerCore::Create: " + created.status().ToString());
        return false;
      }
      core_ = std::move(created).value();
    }
    reload_ = std::make_unique<serve::ReloadManager>(
        core_.get(), serve::ReloadManagerOptions{});
    reload_->Start();
    serve::ReloadManager* manager = reload_.get();
    core_->SetReloadRequestHandler([manager](const std::string& path) {
      return manager->RequestReload(path);
    });
    serve::EventServerOptions server_options;
    server_options.shards = kShards;
    server_ = std::make_unique<serve::EventServer>(server_options, core_.get());
    {
      SpanScope span(spans, "serve.event.start");
      const rll::Status started = server_->Start();
      if (!started.ok()) {
        report->Fail("EventServer::Start: " + started.ToString());
        return false;
      }
    }
    serve::EventServer* server = server_.get();
    serve_thread_ = std::thread([server] { server->Serve(); });
    return true;
  }

  void Stop() {
    if (server_ != nullptr) server_->Stop();
    if (serve_thread_.joinable()) serve_thread_.join();
    if (reload_ != nullptr) reload_->Stop();
    if (core_ != nullptr) core_->Shutdown();
    server_.reset();
    reload_.reset();
    core_.reset();
  }

  int port() const { return server_->port(); }
  serve::ServerCore* core() const { return core_.get(); }

 private:
  std::unique_ptr<serve::ServerCore> core_;
  std::unique_ptr<serve::ReloadManager> reload_;
  std::unique_ptr<serve::EventServer> server_;
  std::thread serve_thread_;
};

/// Builds kSetupReps stacks in turn, keeping the last; returns the median
/// set-up time in seconds, or a negative value on failure.
double StartStack(const Fixture& fx, bool traced, Spans* spans, Stack* stack,
                  Report* report) {
  std::vector<double> seconds;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    stack->Stop();
    SpanScope span(spans, "serve.setup", rep);
    const int64_t t0 = NowNs();
    if (!stack->Start(fx, CoreOptions(traced), spans, report)) return -1.0;
    seconds.push_back((NowNs() - t0) / 1e9);
  }
  return Median(seconds);
}

// ------------------------------------------------------------ reloads

struct ReloadLog {
  uint64_t first_generation = 0;
  std::vector<int64_t> save_start_ns, save_end_ns;
  std::vector<int64_t> sent_ns, done_ns;
  std::string error;
};

/// Every kReloadCadenceS: publish the other bundle over the served path,
/// ask for a reload on the wire, and wait until the generation moves on by
/// exactly one.
void DriveReloads(int port, serve::ServerCore* server, const Fixture& fx,
                  double seconds, ReloadLog* log) {
  LineClient admin;
  if (!admin.Connect(port)) {
    log->error = "admin connection refused";
    return;
  }
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  int64_t margin_ns = static_cast<int64_t>(kLastReloadMarginS * 1e9);
  log->first_generation = server->generation();
  for (uint64_t n = 1;; ++n) {
    const int64_t at =
        start + static_cast<int64_t>(static_cast<double>(n) * kReloadCadenceS * 1e9);
    if (std::max(at, NowNs()) + margin_ns > end) return;
    SleepUntilNs(at);
    log->save_start_ns.push_back(NowNs());
    const rll::Status saved = fx.bundles[n % 2].Save(fx.bundle_path);
    log->save_end_ns.push_back(NowNs());
    if (!saved.ok()) {
      log->error = "ModelBundle::Save: " + saved.ToString();
      return;
    }
    const uint64_t expected = log->first_generation + n;
    log->sent_ns.push_back(NowNs());
    const std::string response = admin.Call(
        "{\"id\":\"reload-" + std::to_string(n) +
        "\",\"type\":\"reloadz\",\"action\":\"reload\"}\n");
    if (response.find("\"ok\":true") == std::string::npos ||
        response.find("accepted") == std::string::npos) {
      log->error = "reloadz refused: " + response.substr(0, 200);
      return;
    }
    uint64_t generation = server->generation();
    while (generation < expected) {
      if (NowNs() - log->sent_ns.back() > 10'000'000'000) {
        log->error = "reload did not complete within 10 s";
        return;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      generation = server->generation();
    }
    log->done_ns.push_back(NowNs());
    margin_ns = std::max(
        margin_ns, (log->done_ns.back() - log->sent_ns.back()) * 3 / 2 +
                       int64_t{500'000'000});
    if (generation != expected) {
      log->error = "generation moved by more than one per reloadz";
      return;
    }
  }
}

/// Generations that may have answered a request sent at `send_ns` and
/// answered at `recv_ns`: from the last one certainly live at the send to
/// the last one possibly live at the answer.
std::pair<uint64_t, uint64_t> GenerationRange(const ReloadLog& log,
                                              int64_t send_ns,
                                              int64_t recv_ns) {
  uint64_t lo = log.first_generation, hi = log.first_generation;
  for (size_t i = 0; i < log.sent_ns.size(); ++i) {
    if (i < log.done_ns.size() && log.done_ns[i] <= send_ns) ++lo;
    if (log.sent_ns[i] <= recv_ns) ++hi;
  }
  return {lo, std::max(lo, hi)};
}

// ------------------------------------------------------------- phases

struct PhaseRun {
  LoadResult load;
  ReloadLog reloads;
  LoadSpec spec;
};

LoadSpec SpecFor(Phase phase, const RunConfig& config, double seconds) {
  LoadSpec spec;
  spec.connections = kConnections;
  spec.seconds = seconds;
  spec.sample_every = kSampleEvery;
  spec.seed = rll::SplitSeed(config.seed, kScheduleStream);
  spec.open_loop = phase != Phase::kHot;
  spec.rate_per_s = phase == Phase::kCold ? kColdRate : kReloadRate;
  spec.window_s =
      std::min(spec.open_loop ? kOpenWindowS : kClosedWindowS, seconds);
  spec.tail_q = TailQuantile(phase);
  return spec;
}

PickFn PickerFor(Phase phase, const Fixture& fx, const RunConfig& config) {
  if (phase == Phase::kCold) {
    return ColdPicker(rll::SplitSeed(config.seed, kColdStream));
  }
  return HotPicker(fx, rll::SplitSeed(config.seed, kHotStream));
}

PhaseRun RunPhase(Phase phase, const RunConfig& config, const Fixture& fx,
                  Stack* stack, double seconds) {
  const PickFn pick = PickerFor(phase, fx, config);
  const LineFn line = Lines(fx);
  // Warm-up: the same mix, untimed, so the cache and lazily built state
  // are in their steady state before timing starts.
  LoadSpec warm = SpecFor(phase, config, kWarmupS);
  warm.first_id = kWarmupFirstId;
  warm.sample_every = ~uint64_t{0};
  warm.seed = rll::SplitSeed(warm.seed, 1);
  RunLoad(stack->port(), warm, pick, line);

  PhaseRun run;
  run.spec = SpecFor(phase, config, seconds);
  std::thread reloader;
  if (phase == Phase::kReload) {
    reloader = std::thread([&] {
      DriveReloads(stack->port(), stack->core(), fx, seconds, &run.reloads);
    });
  }
  run.load = RunLoad(stack->port(), run.spec, pick, line);
  if (reloader.joinable()) reloader.join();
  return run;
}

/// Correctness of one phase's sampled responses, the reload protocol and
/// the generator's schedule.
void CheckPhase(Phase phase, const PhaseRun& run, const Fixture& fx,
                Reference refs[2], const RunConfig& config,
                serve::ServerCore* server, Report* report) {
  std::string inject = config.inject;
  if (!run.load.error.empty()) {
    report->Fail(std::string(PhaseName(phase)) + ": " + run.load.error);
  }
  size_t mismatches = 0;
  std::string first;
  std::vector<size_t> checked_per_generation(run.reloads.sent_ns.size() + 1, 0);
  for (const Sampled& s : run.load.samples) {
    const auto [lo, hi] =
        phase == Phase::kReload
            ? GenerationRange(run.reloads, s.send_ns, s.recv_ns)
            : std::pair<uint64_t, uint64_t>{1, 1};
    std::string why;
    for (uint64_t g = lo; g <= hi && g < lo + 2; ++g) {
      const size_t b = static_cast<size_t>((g - 1) % 2);
      why = CheckSample(s, fx, fx.bundles[b], &refs[b], &inject);
      if (why.empty()) break;
    }
    if (!why.empty()) {
      if (mismatches++ == 0) first = why + " (request " + std::to_string(s.id) + ")";
    } else if (lo == hi && lo - 1 < checked_per_generation.size()) {
      ++checked_per_generation[lo - 1];
    }
  }
  if (mismatches > 0) {
    report->Fail(std::string(PhaseName(phase)) + ": " +
                 std::to_string(mismatches) + " of " +
                 std::to_string(run.load.samples.size()) +
                 " sampled responses wrong; first: " + first);
  }
  if (run.load.samples.empty()) {
    report->Fail(std::string(PhaseName(phase)) + ": no responses sampled");
  }
  // Only an end-to-end run is invalidated by a late generator; the traced
  // run reports its lag as bench.late_p99_ms.
  if (run.spec.open_loop && !config.traced) {
    const double late_p99 = run.load.late_ms.Percentile(0.99);
    if (late_p99 > kMaxLateP99Ms) {
      report->Fail(std::string(PhaseName(phase)) +
                   ": generator fell behind its schedule (late p99 " +
                   JsonNum(late_p99) + " ms)");
    }
  }
  if (phase == Phase::kReload) {
    const ReloadLog& log = run.reloads;
    if (!log.error.empty()) report->Fail("serve-reload: " + log.error);
    if (log.done_ns.empty()) report->Fail("serve-reload: no reload ran");
    if (server->generation() != log.first_generation + log.done_ns.size()) {
      report->Fail("serve-reload: generation did not rise by one per reloadz");
    }
    if (server->reload_failures() != 0) {
      report->Fail("serve-reload: " +
                   std::to_string(server->reload_failures()) +
                   " reload failures");
    }
    // Every generation, the first and each swapped-in one, answered some
    // sampled request unambiguously and correctly.
    for (size_t g = 0; g < checked_per_generation.size(); ++g) {
      if (checked_per_generation[g] == 0) {
        report->Fail("serve-reload: no response checked against generation " +
                     std::to_string(g + 1));
      }
    }
  }
}

uint64_t RegistryCounter(const char* name) {
  return obs::MetricRegistry::Global().GetCounter(name)->value();
}

/// Per-window series of one phase; the end-to-end metrics summarise them
/// (see OpP50Ms). The host's speed drifts in stretches of a few seconds,
/// and a median over windows is not moved by slow stretches that cover
/// less than half the run, where a whole-run figure is.
struct Figures {
  std::vector<double> ok_per_s, p50_ms, tail_ms;
  uint64_t min_beyond_tail = 0;
};

Figures PhaseFigures(const PhaseRun& run) {
  Figures fig;
  for (const Window& w : run.load.windows) {
    fig.min_beyond_tail = fig.ok_per_s.empty()
                              ? w.beyond_tail
                              : std::min(fig.min_beyond_tail, w.beyond_tail);
    fig.ok_per_s.push_back(static_cast<double>(w.ok) / run.spec.window_s);
    fig.p50_ms.push_back(w.p50_ms);
    fig.tail_ms.push_back(w.tail_ms);
  }
  return fig;
}

/// op_p50_ms: the mean over windows of each window's median latency. A
/// short stall barely moves a window's median, so there is no outlier for
/// a median over windows to reject, while the host's fast and slow
/// stretches make the per-window medians two-humped, and a median of a
/// two-humped series jumps between the humps as their mix changes from
/// run to run; the mean moves in proportion. The tail and throughput,
/// which a stall does move, are medians over windows.
double OpP50Ms(const Figures& fig) { return Mean(fig.p50_ms); }

std::string PhaseMeta(Phase phase, const PhaseRun& run) {
  std::string out = "{\"loop\":\"";
  out += run.spec.open_loop ? "open" : "closed";
  out += "\",\"connections\":" + std::to_string(run.spec.connections);
  out += ",\"generator_threads\":1";
  if (run.spec.open_loop) {
    out += ",\"offered_per_s\":" + JsonNum(run.spec.rate_per_s);
    out += ",\"late_p99_ms\":" + JsonNum(run.load.late_ms.Percentile(0.99));
  }
  out += ",\"seconds\":" + JsonNum(run.spec.seconds);
  out += ",\"attempted\":" + std::to_string(run.load.attempted);
  out += ",\"ok\":" + std::to_string(run.load.ok);
  const Histogram& lat = run.load.latency_ms;
  out += ",\"samples\":" + std::to_string(lat.count());
  out += ",\"latency_ms\":{";
  const char* sep = "";
  for (const auto& [name, q] : {std::pair<const char*, double>{"p50", 0.5},
                                {"p90", 0.9}, {"p95", 0.95}, {"p98", 0.98},
                                {"p99", 0.99}, {"p999", 0.999}, {"max", 1.0}}) {
    out += sep + std::string("\"") + name + "\":" + JsonNum(lat.Percentile(q));
    sep = ",";
  }
  out += "},\"tail_percentile\":" + JsonNum(TailQuantile(phase) * 100);
  out += ",\"samples_beyond_tail\":" +
         std::to_string(lat.Beyond(TailQuantile(phase)));
  out += ",\"checked\":" + std::to_string(run.load.samples.size());
  const Figures fig = PhaseFigures(run);
  out += ",\"window_s\":" + JsonNum(run.spec.window_s);
  out += ",\"windows\":" + std::to_string(run.load.windows.size());
  out += ",\"window_min_samples_beyond_tail\":" +
         std::to_string(fig.min_beyond_tail);
  out += ",\"window_ok_per_s\":" + JsonList(fig.ok_per_s);
  out += ",\"window_p50_ms\":" + JsonList(fig.p50_ms);
  out += ",\"window_tail_ms\":" + JsonList(fig.tail_ms);
  if (phase == Phase::kReload) {
    out += ",\"reloads\":" + std::to_string(run.reloads.done_ns.size());
    out += ",\"cadence_s\":" + JsonNum(kReloadCadenceS);
  }
  return out + "}";
}

// ---------------------------------------------------------- untraced

void RunUntraced(Phase phase, const RunConfig& config, Report* report) {
  Fixture fx;
  if (!MakeFixture(config, &fx, report)) return;
  Stack stack;
  const double setup_s = StartStack(fx, false, nullptr, &stack, report);
  if (setup_s < 0) return;

  const uint64_t hits0 = RegistryCounter("serve_cache_hits_total");
  const uint64_t misses0 = RegistryCounter("serve_cache_misses_total");
  const uint64_t batches0 = stack.core()->batcher().batches_run();
  const uint64_t rows0 = stack.core()->batcher().rows_batched();
  PhaseRun run = RunPhase(phase, config, fx, &stack, config.seconds);
  const double peak_rss_mb = PeakRssMb();  // Before the checks' own state.
  const double hits = RegistryCounter("serve_cache_hits_total") - hits0;
  const double misses = RegistryCounter("serve_cache_misses_total") - misses0;
  const double batches =
      phase == Phase::kReload
          ? 0.0
          : static_cast<double>(stack.core()->batcher().batches_run() - batches0);
  const double rows =
      phase == Phase::kReload
          ? 0.0
          : static_cast<double>(stack.core()->batcher().rows_batched() - rows0);

  Reference refs[2];
  if (!BuildReference(fx, fx.bundles[0], &refs[0], report)) return;
  if (phase == Phase::kReload &&
      !BuildReference(fx, fx.bundles[1], &refs[1], report)) {
    return;
  }
  CheckPhase(phase, run, fx, refs, config, stack.core(), report);
  const uint64_t rejected = RegistryCounter("serve_rejected_total");
  stack.Stop();

  const LoadResult& load = run.load;
  report->attempted = load.attempted;
  report->failed = load.failed;
  report->Metric("setup_s", setup_s, "s");
  report->Metric("peak_rss_mb", peak_rss_mb, "MiB");
  const Figures fig = PhaseFigures(run);
  report->Metric("op_p50_ms", OpP50Ms(fig), "ms");
  report->Metric("op_tail_ms", Median(fig.tail_ms), "ms");
  report->Metric("throughput_per_s", Median(fig.ok_per_s), "1/s");
  report->Metric("ok_ratio",
                 load.attempted > 0
                     ? static_cast<double>(load.attempted - load.failed) /
                           static_cast<double>(load.attempted)
                     : 0.0,
                 "ratio");
  std::string meta = PhaseMeta(phase, run);
  meta.pop_back();
  meta += ",\"shards\":" + std::to_string(kShards);
  meta += ",\"cache_hit_ratio\":" +
          JsonNum(hits + misses > 0 ? hits / (hits + misses) : 0.0);
  meta += ",\"batch_rows_mean\":" + JsonNum(batches > 0 ? rows / batches : 0.0);
  meta += ",\"batcher_rejected\":" + std::to_string(rejected) + "}";
  report->Meta(PhaseName(phase), meta);
}

// ------------------------------------------------------------- traced

/// Per-request state of the in-process replay: a private cache, head and
/// index built from the served bundle the way ServerCore builds them.
struct Replay {
  const core::ModelBundle* bundle = nullptr;
  std::unique_ptr<serve::EmbeddingCache> cache;
  rll::Workspace ws;
  rll::classify::LogisticRegression head;
  core::ShardedEmbeddingIndex index;
  core::EmbeddingIndex shard0;
  std::vector<int> labels;
  obs::WindowedCounter windowed_requests;
  obs::WindowedHistogram windowed_all;
  obs::WindowedHistogram windowed_type[3];
  size_t batch_rows = 1;
};

bool BuildReplay(const Fixture& fx, Spans* spans, Replay* rp, Report* report) {
  rp->bundle = &fx.bundles[0];
  rp->cache = std::make_unique<serve::EmbeddingCache>(1024);
  Matrix emb;
  {
    SpanScope span(spans, "core.corpus_embed");
    auto embedded = rp->bundle->Embed(fx.corpus.features());
    if (!embedded.ok()) {
      report->Fail("corpus embed: " + embedded.status().ToString());
      return false;
    }
    emb = *std::move(embedded);
  }
  rll::Status status;
  {
    SpanScope span(spans, "core.index_build");
    status = rp->index.Build(emb, kShards);
  }
  if (status.ok()) {
    SpanScope span(spans, "classify.head_fit");
    status = rp->head.Fit(emb, fx.corpus.true_labels());
  }
  if (status.ok()) {
    const size_t rows = rp->index.shard_size(0);
    Matrix slice(rows, emb.cols());
    std::memcpy(slice.data(), emb.data(), rows * emb.cols() * sizeof(double));
    status = rp->shard0.Build(slice);
  }
  if (!status.ok()) {
    report->Fail("replay state: " + status.ToString());
    return false;
  }
  rp->labels = fx.corpus.true_labels();
  return true;
}

/// ServerCore::HandleLine's stages for one request line (no newline),
/// each through the public call the server makes, under a span named
/// `parent`. Returns false when the replayed answer is not ok.
bool ReplayRequest(const std::string& line, Replay* rp, Spans* spans,
                   const char* parent, int64_t id) {
  const int64_t start = NowNs();
  SpanScope request_span(spans, parent, id);
  rll::Result<serve::Request> request = rll::Status::Internal("unparsed");
  std::string id_json;
  {
    SpanScope span(spans, "serve.parse", id);
    request = serve::ParseRequest(line, &id_json);
  }
  if (!request.ok()) return false;
  Matrix row;
  {
    SpanScope span(spans, "data.standardize", id);
    row = rp->bundle->standardizer().Transform(
        Matrix::RowVector(request->features));
  }
  Matrix embedding;
  uint64_t key = 0;
  bool hit = false;
  {
    SpanScope span(spans, "serve.cache_probe", id);
    key = serve::EmbeddingCache::HashRow(row);
    hit = rp->cache->Lookup(key, row, &embedding);
  }
  if (!hit) {
    {
      SpanScope span(spans, "nn.embed_batch", id);
      Matrix& stacked = rp->ws.GetReshaped("replay.stacked", rp->batch_rows,
                                           row.cols());
      for (size_t r = 0; r < rp->batch_rows; ++r) stacked.SetRow(r, row);
      embedding = rp->bundle->model().EmbedInto(stacked, rp->ws).Row(0);
    }
    rp->cache->Insert(key, row, embedding);
  }
  serve::Response response;
  response.id_json = id_json;
  response.has_type = true;
  response.type = request->type;
  response.ok = true;
  switch (request->type) {
    case serve::RequestType::kEmbed:
      response.embedding.assign(embedding.data(),
                                embedding.data() + embedding.size());
      break;
    case serve::RequestType::kPredict: {
      SpanScope span(spans, "classify.head", id);
      response.score = rp->head.PredictProba(embedding)[0];
      response.label = response.score >= 0.5 ? 1 : 0;
      break;
    }
    case serve::RequestType::kNeighbors: {
      SpanScope span(spans, "core.index_query", id);
      auto hits = rp->index.Query(embedding, 5);
      if (!hits.ok()) return false;
      for (const core::Neighbor& n : *hits) {
        response.neighbors.push_back(
            {n.index, rp->labels[n.index], n.similarity});
      }
      break;
    }
    default:
      return false;
  }
  {
    SpanScope span(spans, "serve.serialize", id);
    const std::string out = serve::SerializeResponse(response);
    if (out.empty()) return false;
  }
  SpanScope span(spans, "obs.record", id);
  const char* type = serve::RequestTypeName(request->type);
  const double millis = (NowNs() - start) / 1e6;
  auto& registry = obs::MetricRegistry::Global();
  registry.GetCounter(hit ? "serve_cache_hits_total" : "serve_cache_misses_total")
      ->Increment();
  registry.GetCounter("serve_requests_total", {{"type", type}, {"status", "ok"}})
      ->Increment();
  registry.GetHistogram("serve_request_latency_ms", {{"type", type}})
      ->ObserveWithExemplar(millis, 0);
  rp->windowed_requests.Increment();
  rp->windowed_all.Observe(millis);
  rp->windowed_type[static_cast<size_t>(request->type)].Observe(millis);
  return true;
}

void StageMetric(Report* report, Spans* spans, const char* metric,
                 const char* p99_metric, const char* span, const char* parent) {
  const std::vector<double> us = spans->DurUs(span, parent);
  report->Metric(metric, Median(us), "us", span);
  report->Metric(p99_metric, Percentile(us, 0.99), "us", span);
}

double Ms(const std::vector<double>& us) { return Median(us) / 1e3; }

void RunTraced(const RunConfig& config, Spans* spans, Report* report) {
  Phase primary = Phase::kHot;
  bool has_primary = false;
  for (Phase p : {Phase::kHot, Phase::kCold, Phase::kReload}) {
    if (config.workload == PhaseName(p)) {
      primary = p;
      has_primary = true;
    }
  }
  auto budget = [&](Phase p, double slice) {
    return has_primary && p == primary ? config.seconds : slice;
  };

  Fixture fx;
  if (!MakeFixture(config, &fx, report)) return;
  Stack stack;
  {
    SpanScope span(spans, "phase.serve-setup");
    if (StartStack(fx, true, spans, &stack, report) < 0) return;
  }
  Replay replay;
  if (!BuildReplay(fx, spans, &replay, report)) return;
  Reference refs[2];
  if (!BuildReference(fx, fx.bundles[0], &refs[0], report) ||
      !BuildReference(fx, fx.bundles[1], &refs[1], report)) {
    return;
  }
  serve::ServerCore* server = stack.core();
  const uint64_t rejected0 = RegistryCounter("serve_rejected_total");

  // --- serve-hot: closed loop, then the serial wire / in-process pass.
  PhaseRun hot;
  {
    SpanScope span(spans, "phase.serve-hot");
    hot = RunPhase(Phase::kHot, config, fx, &stack,
                   budget(Phase::kHot, kSliceHotS));
  }
  CheckPhase(Phase::kHot, hot, fx, refs, config, server, report);
  {
    SpanScope span(spans, "phase.serve-hot-replay");
    LineClient client;
    if (!client.Connect(stack.port())) {
      report->Fail("replay connection refused");
      return;
    }
    const PickFn pick = PickerFor(Phase::kHot, fx, config);
    const LineFn lines = Lines(fx);
    // Warm the replay's private cache with the hot set first.
    for (uint64_t i = 0; i < kReplayRequests / 4; ++i) {
      std::string line = lines(i, pick(i));
      line.pop_back();
      ReplayRequest(line, &replay, nullptr, "", 0);
    }
    for (uint64_t i = 0; i < kReplayRequests; ++i) {
      std::string line = lines(i, pick(i));
      const int64_t id = static_cast<int64_t>(i);
      std::string wire;
      {
        SpanScope span(spans, "serve.event.rtt", id);
        wire = client.Call(line);
      }
      line.pop_back();
      std::string local;
      {
        SpanScope span(spans, "serve.handle", id);
        local = server->HandleLine(line);
      }
      const bool replayed =
          ReplayRequest(line, &replay, spans, "serve.replay.hot", id);
      if (wire.find("\"ok\":true") == std::string::npos ||
          local.find("\"ok\":true") == std::string::npos || !replayed) {
        report->Fail("hot replay request " + std::to_string(i) + " failed");
        return;
      }
    }
  }

  // --- serve-cold: open loop with the server's own tracer on.
  PhaseRun cold;
  double rows_mean = 0.0;
  std::vector<double> wait_us;
  {
    SpanScope span(spans, "phase.serve-cold");
    obs::ClearTraceEvents();
    obs::SetTracingEnabled(true);
    const uint64_t batches0 = server->batcher().batches_run();
    const uint64_t rows0 = server->batcher().rows_batched();
    cold = RunPhase(Phase::kCold, config, fx, &stack,
                    budget(Phase::kCold, kSliceColdS));
    obs::SetTracingEnabled(false);
    const uint64_t batches = server->batcher().batches_run() - batches0;
    rows_mean = batches > 0 ? static_cast<double>(server->batcher().rows_batched() - rows0) /
                                  static_cast<double>(batches)
                            : 0.0;
    // serve_queue_wait spans enqueue -> batch done; serve_batch_row spans
    // batch start -> this row's demux. Their difference is the time the
    // row waited: linger, queue and hand-off.
    std::unordered_map<std::string, int64_t> row_us;
    const std::vector<obs::TraceEventView> events = obs::SnapshotTraceEvents();
    for (const obs::TraceEventView& e : events) {
      if (e.name.rfind("serve_batch_row:", 0) == 0) {
        row_us[e.name.substr(16)] = e.dur_us;
      }
    }
    for (const obs::TraceEventView& e : events) {
      if (e.name.rfind("serve_queue_wait:", 0) != 0) continue;
      const auto it = row_us.find(e.name.substr(17));
      if (it != row_us.end()) {
        wait_us.push_back(static_cast<double>(e.dur_us - it->second));
      }
    }
    for (const obs::TraceEventView& e : events) {
      spans->AddExternal(e.name, e.start_us, e.dur_us, e.tid);
    }
    obs::ClearTraceEvents();
  }
  CheckPhase(Phase::kCold, cold, fx, refs, config, server, report);
  {
    SpanScope span(spans, "phase.serve-cold-replay");
    replay.batch_rows = std::max<size_t>(1, static_cast<size_t>(std::lround(rows_mean)));
    const PickFn pick = PickerFor(Phase::kCold, fx, config);
    const LineFn lines = Lines(fx);
    for (uint64_t i = 0; i < kReplayRequests; ++i) {
      const WireRequest request = pick(i);
      std::string line = lines(i, request);
      line.pop_back();
      if (!ReplayRequest(line, &replay, spans, "serve.replay.cold",
                         static_cast<int64_t>(i))) {
        report->Fail("cold replay request " + std::to_string(i) + " failed");
        return;
      }
      if (request.type == ReqType::kNeighbors) {
        // One shard's scan on its own: what each shard costs when the
        // shards run one after another in the calling thread.
        const Matrix& emb = refs[0].corpus_emb;
        const Matrix query = emb.Row(request.row);
        SpanScope shard_span(spans, "core.index_shard", static_cast<int64_t>(i));
        if (!replay.shard0.Query(query, 5).ok()) {
          report->Fail("shard query failed");
          return;
        }
      }
    }
  }

  // --- serve-reload: open loop while bundles are published and swapped.
  PhaseRun reload;
  double hit_ratio = 0.0;
  {
    SpanScope span(spans, "phase.serve-reload");
    const uint64_t hits0 = RegistryCounter("serve_cache_hits_total");
    const uint64_t misses0 = RegistryCounter("serve_cache_misses_total");
    reload = RunPhase(Phase::kReload, config, fx, &stack,
                      budget(Phase::kReload, kSliceReloadS));
    const double hits = RegistryCounter("serve_cache_hits_total") - hits0;
    const double misses = RegistryCounter("serve_cache_misses_total") - misses0;
    hit_ratio = hits + misses > 0 ? hits / (hits + misses) : 0.0;
    const ReloadLog& log = reload.reloads;
    for (size_t i = 0; i < log.save_end_ns.size(); ++i) {
      spans->Record("core.bundle_save", log.save_start_ns[i], log.save_end_ns[i],
                    static_cast<int64_t>(i));
    }
    for (size_t i = 0; i < log.done_ns.size(); ++i) {
      spans->Record("serve.reload", log.sent_ns[i], log.done_ns[i],
                    static_cast<int64_t>(i));
    }
  }
  CheckPhase(Phase::kReload, reload, fx, refs, config, server, report);
  const uint64_t rejected = RegistryCounter("serve_rejected_total") - rejected0;
  const uint64_t reloads = server->reloads_total();
  const uint64_t reload_failures = server->reload_failures();
  stack.Stop();

  // Hot-path stages (serve-hot's stream).
  const char* hot_parent = "serve.replay.hot";
  StageMetric(report, spans, "serve.parse_us", "serve.parse_p99_us",
              "serve.parse", hot_parent);
  StageMetric(report, spans, "data.standardize_us", "data.standardize_p99_us",
              "data.standardize", hot_parent);
  StageMetric(report, spans, "serve.cache_probe_us", "serve.cache_probe_p99_us",
              "serve.cache_probe", hot_parent);
  StageMetric(report, spans, "classify.head_us", "classify.head_p99_us",
              "classify.head", hot_parent);
  StageMetric(report, spans, "serve.serialize_us", "serve.serialize_p99_us",
              "serve.serialize", hot_parent);
  StageMetric(report, spans, "obs.record_us", "obs.record_p99_us",
              "obs.record", hot_parent);
  StageMetric(report, spans, "serve.handle_us", "serve.handle_p99_us",
              "serve.handle", nullptr);
  // Residual: what HandleLine spends outside the replayed stages, from
  // sums over the same requests (stage medians do not add up over a mix).
  double handle_total = 0.0, stage_total = 0.0;
  for (double us : spans->DurUs("serve.handle", nullptr)) handle_total += us;
  const std::vector<double> replay_dur = spans->DurUs(hot_parent, nullptr);
  const std::vector<double> replay_self = spans->SelfUs(hot_parent, nullptr);
  for (size_t i = 0; i < replay_dur.size(); ++i) {
    stage_total += replay_dur[i] - replay_self[i];
  }
  report->Metric("serve.stage_residual_pct",
                 100.0 * (handle_total - stage_total) / handle_total, "%",
                 hot_parent);
  const std::vector<double> rtt = spans->DurUs("serve.event.rtt", nullptr);
  const std::vector<double> handle = spans->DurUs("serve.handle", nullptr);
  std::vector<double> transport;
  for (size_t i = 0; i < rtt.size() && i < handle.size(); ++i) {
    transport.push_back(rtt[i] - handle[i]);
  }
  report->Metric("serve.event.transport_us", Median(transport), "us",
                 "serve.event.rtt");
  report->Metric("serve.event.transport_p99_us", Percentile(transport, 0.99),
                 "us", "serve.event.rtt");

  // Miss-path stages (serve-cold's stream).
  const char* cold_parent = "serve.replay.cold";
  report->Metric("serve.batcher.wait_us", Median(wait_us), "us",
                 "serve_queue_wait");
  report->Metric("serve.batcher.wait_p99_us", Percentile(wait_us, 0.99), "us",
                 "serve_queue_wait");
  report->Metric("serve.batcher.rows_mean", rows_mean, "rows",
                 "phase.serve-cold");
  report->Metric("serve.batcher.rejected", static_cast<double>(rejected),
                 "count", "phase.serve-cold");
  StageMetric(report, spans, "nn.embed_batch_us", "nn.embed_batch_p99_us",
              "nn.embed_batch", cold_parent);
  StageMetric(report, spans, "core.index_query_us", "core.index_query_p99_us",
              "core.index_query", cold_parent);
  StageMetric(report, spans, "core.index_shard_us", "core.index_shard_p99_us",
              "core.index_shard", nullptr);
  report->Metric("serve.cache_hit_ratio", hit_ratio, "ratio",
                 "phase.serve-reload");
  const double late_p99 = std::max(cold.load.late_ms.Percentile(0.99),
                                   reload.load.late_ms.Percentile(0.99));
  report->Metric("bench.late_p99_ms", late_p99, "ms", "phase.serve-cold");

  // Set-up and reload.
  report->Metric("core.bundle_load_ms", Ms(spans->DurUs("core.bundle_load", nullptr)),
                 "ms", "core.bundle_load");
  report->Metric("core.corpus_embed_ms",
                 Ms(spans->DurUs("core.corpus_embed", nullptr)), "ms",
                 "core.corpus_embed");
  report->Metric("core.index_build_ms",
                 Ms(spans->DurUs("core.index_build", nullptr)), "ms",
                 "core.index_build");
  report->Metric("classify.head_fit_ms",
                 Ms(spans->DurUs("classify.head_fit", nullptr)), "ms",
                 "classify.head_fit");
  report->Metric("serve.event.start_ms",
                 Ms(spans->DurUs("serve.event.start", nullptr)), "ms",
                 "serve.event.start");
  report->Metric("core.bundle_save_ms",
                 Ms(spans->DurUs("core.bundle_save", nullptr)), "ms",
                 "core.bundle_save");
  report->Metric("serve.reload_ms", Ms(spans->DurUs("serve.reload", nullptr)),
                 "ms", "serve.reload");
  report->Metric("serve.reloads", static_cast<double>(reloads), "count",
                 "phase.serve-reload");
  report->Metric("serve.reload_failures", static_cast<double>(reload_failures),
                 "count", "phase.serve-reload");

  for (const auto& [phase, run] :
       {std::pair<Phase, const PhaseRun*>{Phase::kHot, &hot},
        {Phase::kCold, &cold},
        {Phase::kReload, &reload}}) {
    report->Meta(std::string(PhaseName(phase)) + "_traced",
                 PhaseMeta(phase, *run));
    if (has_primary && phase == primary) {
      report->Meta("traced_op_p50_ms", JsonNum(OpP50Ms(PhaseFigures(*run))));
    }
  }
}

}  // namespace

void RunServe(const RunConfig& config, Spans* spans, Report* report) {
  rll::SetGlobalThreads(1);
  if (config.traced) {
    RunTraced(config, spans, report);
    return;
  }
  for (Phase p : {Phase::kHot, Phase::kCold, Phase::kReload}) {
    if (config.workload == PhaseName(p)) {
      RunUntraced(p, config, report);
      return;
    }
  }
  report->Fail("unknown serving workload " + config.workload);
}

}  // namespace perfbench
