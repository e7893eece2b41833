// Tests for the inference server (src/serve/): JSON parsing, the LRU
// embedding cache, micro-batcher semantics (bitwise-identical batching,
// coalescing, backpressure, graceful drain), the wire protocol, the
// transport-independent ServerCore, and the TCP listener on loopback.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/model_bundle.h"
#include "core/rll_model.h"
#include "data/dataset.h"
#include "data/standardize.h"
#include "obs/alloc_count.h"
#include "obs/json_util.h"
#include "obs/trace.h"
#include "serve/batcher.h"
#include "serve/cache.h"
#include "serve/json.h"
#include "serve/protocol.h"
#include "serve/server_core.h"
#include "serve/event/event_server.h"
#include "serve/event/reload_manager.h"
#include "tensor/init.h"
#include "tensor/matrix.h"
#include "tensor/ops.h"
#include "wire_reference.h"

namespace rll::serve {
namespace {

// ------------------------------------------------------------------- JSON

TEST(JsonTest, ParsesScalars) {
  auto v = ParseJson("42.5");
  ASSERT_TRUE(v.ok());
  EXPECT_TRUE(v->is_number());
  EXPECT_EQ(v->number, 42.5);

  EXPECT_TRUE(ParseJson("true")->boolean);
  EXPECT_FALSE(ParseJson("false")->boolean);
  EXPECT_TRUE(ParseJson("null")->is_null());
  EXPECT_EQ(ParseJson("\"hi\"")->string, "hi");
  EXPECT_EQ(ParseJson("-1e3")->number, -1000.0);
}

TEST(JsonTest, ParsesNestedStructures) {
  auto v = ParseJson(R"({"a": [1, 2, {"b": "c"}], "d": null})");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  ASSERT_TRUE(v->is_object());
  const JsonValue* a = v->Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->array.size(), 3u);
  EXPECT_EQ(a->array[1].number, 2.0);
  EXPECT_EQ(a->array[2].Find("b")->string, "c");
  EXPECT_TRUE(v->Find("d")->is_null());
  EXPECT_EQ(v->Find("missing"), nullptr);
}

TEST(JsonTest, FindReturnsLastDuplicateKey) {
  auto v = ParseJson(R"({"k": 1, "k": 2})");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->Find("k")->number, 2.0);
}

TEST(JsonTest, ParsesStringEscapes) {
  auto v = ParseJson(R"("a\"b\\c\n\tA")");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(v->string, "a\"b\\c\n\tA");
  // Surrogate pair: U+1F600 → 4-byte UTF-8.
  auto emoji = ParseJson(R"("😀")");
  ASSERT_TRUE(emoji.ok());
  EXPECT_EQ(emoji->string, "\xF0\x9F\x98\x80");
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseJson("").ok());
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("[1, 2,]").ok());
  EXPECT_FALSE(ParseJson("{\"a\": }").ok());
  EXPECT_FALSE(ParseJson("nul").ok());
  EXPECT_FALSE(ParseJson("1 2").ok());  // Trailing junk.
  EXPECT_FALSE(ParseJson("\"unterminated").ok());
  EXPECT_FALSE(ParseJson(R"("\uD83D")").ok());  // Lone high surrogate.
  EXPECT_FALSE(ParseJson("1e999").ok());  // Past double's range: not +inf.
  EXPECT_FALSE(ParseJson("-1e999").ok());
}

TEST(JsonTest, RejectsExcessiveNesting) {
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += "[";
  EXPECT_FALSE(ParseJson(deep).ok());
}

TEST(JsonTest, RoundTripsDoublesExactly) {
  // The protocol's bit-exactness rests on %.17g emission + strtod parsing.
  for (double value : {0.1 + 0.2, 1.0 / 3.0, -2.5e-17, 1e300}) {
    auto parsed = ParseJson(obs::JsonNumber(value));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed->number, value);
  }
}

TEST(JsonTest, NumberWritesPrintfsBytes) {
  // JsonNumber writes through std::to_chars; the wire's bytes are the ones
  // printf("%.17g") wrote before it, for every finite double.
  std::vector<double> values = {
      0.0, -0.0, 0.1, 1.0 / 3.0, 1e21, 1e-7, 123456789012345678.0,
      std::numeric_limits<double>::max(), -std::numeric_limits<double>::max(),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min()};
  Rng rng(17);
  for (int i = 0; i < 100000; ++i) {
    const uint64_t bits = rng.Next();
    values.push_back(std::bit_cast<double>(bits));
    // The same mantissa with a zero exponent: a subnormal.
    values.push_back(std::bit_cast<double>(bits & 0x800FFFFFFFFFFFFFull));
  }
  size_t checked = 0;
  for (double value : values) {
    if (!std::isfinite(value)) continue;
    ASSERT_EQ(obs::JsonNumber(value), StrFormat("%.17g", value));
    ++checked;
  }
  EXPECT_GT(checked, 150000u);
  EXPECT_EQ(obs::JsonNumber(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(obs::JsonNumber(std::nan("")), "null");
  std::string appended = "x";
  obs::AppendJsonNumber(&appended, -0.0);
  EXPECT_EQ(appended, "x-0");
}

TEST(JsonTest, UnderflowReadsAsASignedZeroAndOverflowFails) {
  // strtod's answers, which the wire has always given: a value below half
  // the smallest subnormal is a zero of its sign, even with 400 zeros and
  // no exponent; a value past double's range fails, even with a negative
  // exponent.
  auto bits = [](std::string_view text) {
    auto v = ParseJson(text);
    EXPECT_TRUE(v.ok()) << text;
    return v.ok() ? std::bit_cast<uint64_t>(v->number) : ~0ull;
  };
  EXPECT_EQ(bits("1e-400"), std::bit_cast<uint64_t>(0.0));
  EXPECT_EQ(bits("-1e-400"), std::bit_cast<uint64_t>(-0.0));
  EXPECT_EQ(bits("2.4703282292062327e-324"), std::bit_cast<uint64_t>(0.0));
  EXPECT_EQ(bits("4.9e-324"), std::bit_cast<uint64_t>(
                                  std::numeric_limits<double>::denorm_min()));
  EXPECT_EQ(bits("0." + std::string(400, '0') + "1"),
            std::bit_cast<uint64_t>(0.0));
  EXPECT_EQ(bits("-0"), std::bit_cast<uint64_t>(-0.0));
  EXPECT_EQ(bits("00012"), std::bit_cast<uint64_t>(12.0));
  EXPECT_EQ(bits("1."), std::bit_cast<uint64_t>(1.0));
  const std::vector<std::string> invalid = {
      "1e999", "1" + std::string(400, '0') + "e-5", ".5", "1e", "1e+",
      "1.5.2"};
  for (const std::string& bad : invalid) {
    auto v = ParseJson(bad);
    ASSERT_FALSE(v.ok()) << bad;
    EXPECT_EQ(v.status().message(), "json parse error at offset 0: invalid number")
        << bad;
  }
  std::string id;
  auto request =
      ParseRequest(R"({"type":"embed","features":[1e-400,-1e-400,2]})", &id);
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  EXPECT_FALSE(std::signbit(request->features[0]));
  EXPECT_TRUE(std::signbit(request->features[1]));
  EXPECT_EQ(request->features[0], 0.0);
  EXPECT_EQ(request->features[1], 0.0);
}

// ------------------------------------------------------------------ Cache

Matrix Row(std::vector<double> values) {
  return Matrix::RowVector(values);
}

TEST(EmbeddingCacheTest, HitReturnsIdenticalRow) {
  EmbeddingCache cache(4);
  const Matrix key = Row({1.0, 2.0});
  const Matrix value = Row({0.5, -0.5, 0.25});
  const uint64_t hash = EmbeddingCache::HashRow(key);
  Matrix out;
  EXPECT_FALSE(cache.Lookup(hash, key, &out));
  cache.Insert(hash, key, value);
  ASSERT_TRUE(cache.Lookup(hash, key, &out));
  EXPECT_TRUE(out == value);  // Bitwise, not approximate.
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.HitRate(), 0.5);
}

TEST(EmbeddingCacheTest, EvictsLeastRecentlyUsed) {
  EmbeddingCache cache(2);
  const Matrix a = Row({1.0}), b = Row({2.0}), c = Row({3.0});
  const Matrix embedding = Row({9.0});
  cache.Insert(EmbeddingCache::HashRow(a), a, embedding);
  cache.Insert(EmbeddingCache::HashRow(b), b, embedding);
  // Touch `a` so `b` becomes the LRU entry.
  Matrix out;
  ASSERT_TRUE(cache.Lookup(EmbeddingCache::HashRow(a), a, &out));
  cache.Insert(EmbeddingCache::HashRow(c), c, embedding);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.Lookup(EmbeddingCache::HashRow(a), a, &out));
  EXPECT_FALSE(cache.Lookup(EmbeddingCache::HashRow(b), b, &out));
  EXPECT_TRUE(cache.Lookup(EmbeddingCache::HashRow(c), c, &out));
}

TEST(EmbeddingCacheTest, ZeroCapacityDisables) {
  EmbeddingCache cache(0);
  const Matrix key = Row({1.0});
  cache.Insert(EmbeddingCache::HashRow(key), key, Row({2.0}));
  Matrix out;
  EXPECT_FALSE(cache.Lookup(EmbeddingCache::HashRow(key), key, &out));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(EmbeddingCacheTest, DistinctRowsHashDifferently) {
  // Not a guarantee (64-bit hashes collide eventually), but these simple
  // near-miss rows must not: a collision here would mean HashRow ignores
  // position or sign.
  const uint64_t base = EmbeddingCache::HashRow(Row({1.0, 2.0}));
  EXPECT_NE(base, EmbeddingCache::HashRow(Row({2.0, 1.0})));
  EXPECT_NE(base, EmbeddingCache::HashRow(Row({-1.0, 2.0})));
  EXPECT_NE(base, EmbeddingCache::HashRow(Row({1.0, 2.0, 0.0})));
}

// ----------------------------------------------------------- MicroBatcher

// Deterministic stand-in for Mlp::EmbedInto: out[i] = 2*in[i] + column
// index, written into a workspace buffer like the real batch function.
const Matrix& DoubleRows(const Matrix& in, Workspace& ws) {
  Matrix& out = ws.GetReshaped("test.double_rows", in.rows(), in.cols());
  for (size_t r = 0; r < in.rows(); ++r) {
    for (size_t c = 0; c < in.cols(); ++c) {
      out(r, c) = 2.0 * in(r, c) + static_cast<double>(c);
    }
  }
  return out;
}

TEST(MicroBatcherTest, EmbedsSingleRow) {
  MicroBatcher batcher({}, DoubleRows, nullptr);
  auto result = batcher.Embed(Row({1.0, 2.0}));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(*result == Row({2.0, 5.0}));
}

TEST(MicroBatcherTest, RejectsNonRowInput) {
  MicroBatcher batcher({}, DoubleRows, nullptr);
  EXPECT_FALSE(batcher.Embed(Matrix(2, 3)).ok());
}

TEST(MicroBatcherTest, BatchedMatchesSerialBitwise) {
  MicroBatcherOptions options;
  options.max_batch = 8;
  options.batch_timeout_us = 2000;  // Encourage coalescing.
  MicroBatcher batcher(options, DoubleRows, nullptr);

  constexpr size_t kRows = 24;
  std::vector<Matrix> batched(kRows);
  std::vector<std::thread> threads;
  threads.reserve(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    threads.emplace_back([&, i] {
      auto result = batcher.Embed(Row({static_cast<double>(i), 0.25 * i}));
      ASSERT_TRUE(result.ok());
      batched[i] = std::move(*result);
    });
  }
  for (std::thread& t : threads) t.join();

  Workspace ws;
  for (size_t i = 0; i < kRows; ++i) {
    const Matrix& serial =
        DoubleRows(Row({static_cast<double>(i), 0.25 * i}), ws);
    EXPECT_TRUE(batched[i] == serial) << "row " << i;
  }
  EXPECT_EQ(batcher.rows_batched(), kRows);
}

TEST(MicroBatcherTest, CoalescesConcurrentRequests) {
  MicroBatcherOptions options;
  options.max_batch = 16;
  options.batch_timeout_us = 5000;
  MicroBatcher batcher(options, DoubleRows, nullptr);

  constexpr size_t kRows = 32;
  std::vector<std::thread> threads;
  threads.reserve(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    threads.emplace_back([&, i] {
      ASSERT_TRUE(batcher.Embed(Row({static_cast<double>(i)})).ok());
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(batcher.rows_batched(), kRows);
  // 32 concurrent requests with a 5 ms linger cannot plausibly arrive as
  // 32 singleton batches; require at least one real coalesce.
  EXPECT_GT(batcher.max_batch_observed(), 1u);
  EXPECT_LT(batcher.batches_run(), kRows);
}

// Gate that lets a test hold the worker inside the batch function.
struct Gate {
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;
  std::atomic<int> entered{0};

  void WaitUntilEntered(int n) {
    while (entered.load() < n) std::this_thread::yield();
  }
  void Open() {
    {
      std::lock_guard<std::mutex> lock(mu);
      open = true;
    }
    cv.notify_all();
  }
  void Pass() {
    entered.fetch_add(1);
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return open; });
  }
};

TEST(MicroBatcherTest, BoundedQueueRejectsOverload) {
  Gate gate;
  MicroBatcherOptions options;
  options.max_batch = 1;
  options.batch_timeout_us = 0;
  options.max_queue = 2;
  MicroBatcher batcher(
      options,
      [&gate](const Matrix& in, Workspace& ws) -> const Matrix& {
        gate.Pass();
        return DoubleRows(in, ws);
      },
      nullptr);

  // First request occupies the worker inside the gated batch function.
  std::thread first([&] { ASSERT_TRUE(batcher.Embed(Row({0.0})).ok()); });
  gate.WaitUntilEntered(1);

  // With the worker pinned, four producers race for two queue slots:
  // exactly two are admitted (and block) and exactly two bounce with
  // "overloaded" at the admission gate — the bound never buffers.
  std::atomic<size_t> admitted{0}, overloaded{0};
  std::vector<std::thread> producers;
  for (size_t i = 0; i < 4; ++i) {
    producers.emplace_back([&, i] {
      auto result = batcher.Embed(Row({static_cast<double>(i + 1)}));
      if (result.ok()) {
        admitted.fetch_add(1);
      } else if (IsOverloaded(result.status())) {
        overloaded.fetch_add(1);
      }
    });
  }
  // Rejections return immediately; admitted producers stay blocked until
  // the gate opens, so this spin terminates iff admission control fired.
  while (batcher.rejected() < 2) std::this_thread::yield();
  gate.Open();
  first.join();
  for (std::thread& t : producers) t.join();
  EXPECT_EQ(admitted.load(), 2u);
  EXPECT_EQ(overloaded.load(), 2u);
  EXPECT_EQ(batcher.rejected(), 2u);
}

TEST(MicroBatcherTest, StopDrainsQueuedRequests) {
  Gate gate;
  MicroBatcherOptions options;
  options.max_batch = 1;
  options.batch_timeout_us = 0;
  MicroBatcher batcher(
      options,
      [&gate](const Matrix& in, Workspace& ws) -> const Matrix& {
        gate.Pass();
        return DoubleRows(in, ws);
      },
      nullptr);

  std::thread first([&] { ASSERT_TRUE(batcher.Embed(Row({0.0})).ok()); });
  gate.WaitUntilEntered(1);

  constexpr size_t kQueued = 6;
  std::vector<std::thread> producers;
  std::atomic<size_t> succeeded{0};
  producers.reserve(kQueued);
  for (size_t i = 0; i < kQueued; ++i) {
    producers.emplace_back([&, i] {
      auto result = batcher.Embed(Row({static_cast<double>(i + 1)}));
      if (result.ok()) succeeded.fetch_add(1);
    });
  }
  // Give the producers time to enqueue behind the gated worker.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  gate.Open();
  batcher.Stop();  // Must drain everything queued above.
  first.join();
  for (std::thread& t : producers) t.join();
  EXPECT_EQ(succeeded.load(), kQueued);
  EXPECT_TRUE(batcher.stopped());

  auto late = batcher.Embed(Row({9.0}));
  ASSERT_FALSE(late.ok());
  EXPECT_TRUE(IsShuttingDown(late.status()));
}

TEST(MicroBatcherTest, UsesCacheAcrossRequests) {
  EmbeddingCache cache(8);
  std::atomic<uint64_t> calls{0};
  MicroBatcher batcher(
      {},
      [&calls](const Matrix& in, Workspace& ws) -> const Matrix& {
        calls.fetch_add(1);
        return DoubleRows(in, ws);
      },
      &cache);
  const Matrix row = Row({4.0, 5.0});
  auto miss = batcher.Embed(row);
  ASSERT_TRUE(miss.ok());
  auto hit = batcher.Embed(row);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(*miss == *hit);  // Identical, bit for bit.
  EXPECT_EQ(calls.load(), 1u);  // Second request never reached the fn.
  EXPECT_EQ(cache.hits(), 1u);
}

// --------------------------------------------------------------- Protocol

TEST(ProtocolTest, ParsesEmbedRequest) {
  std::string id;
  auto request =
      ParseRequest(R"({"id": 7, "type": "embed", "features": [1, 2.5]})",
                   &id);
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  EXPECT_EQ(request->type, RequestType::kEmbed);
  EXPECT_EQ(request->id_json, "7");
  EXPECT_EQ(request->features, (std::vector<double>{1.0, 2.5}));
}

TEST(ProtocolTest, ParsesNeighborsWithStringIdAndK) {
  std::string id;
  auto request = ParseRequest(
      R"({"id": "req-1", "type": "neighbors", "features": [1], "k": 3})",
      &id);
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->type, RequestType::kNeighbors);
  EXPECT_EQ(request->id_json, "\"req-1\"");
  EXPECT_EQ(request->k, 3u);
}

TEST(ProtocolTest, RejectsInvalidRequests) {
  std::string id;
  EXPECT_FALSE(ParseRequest("not json", &id).ok());
  EXPECT_FALSE(ParseRequest("[1,2]", &id).ok());
  EXPECT_FALSE(ParseRequest(R"({"features": [1]})", &id).ok());
  EXPECT_FALSE(
      ParseRequest(R"({"type": "warp", "features": [1]})", &id).ok());
  EXPECT_FALSE(ParseRequest(R"({"type": "embed"})", &id).ok());
  EXPECT_FALSE(
      ParseRequest(R"({"type": "embed", "features": []})", &id).ok());
  EXPECT_FALSE(
      ParseRequest(R"({"type": "embed", "features": ["a"]})", &id).ok());
  // k outside neighbors, and non-integer k.
  EXPECT_FALSE(
      ParseRequest(R"({"type": "embed", "features": [1], "k": 2})", &id)
          .ok());
  EXPECT_FALSE(
      ParseRequest(
          R"({"type": "neighbors", "features": [1], "k": 1.5})", &id)
          .ok());
  // Numbers past double's range, and a k past size_t's.
  EXPECT_FALSE(
      ParseRequest(R"({"id":1,"type":"embed","features":[1e999,0,0]})", &id)
          .ok());
  EXPECT_FALSE(
      ParseRequest(R"({"id":1e999,"type":"embed","features":[1]})", &id)
          .ok());
  EXPECT_FALSE(
      ParseRequest(
          R"({"type": "neighbors", "features": [1], "k": 1e300})", &id)
          .ok());
}

TEST(ProtocolTest, IdSurvivesParseFailure) {
  // The id parses before the failure, so the error response can echo it.
  std::string id;
  EXPECT_FALSE(ParseRequest(R"({"id": 42, "type": "warp"})", &id).ok());
  EXPECT_EQ(id, "42");
}

TEST(ProtocolTest, SerializesResponses) {
  Response ok_response;
  ok_response.id_json = "7";
  ok_response.ok = true;
  ok_response.has_type = true;
  ok_response.type = RequestType::kPredict;
  ok_response.score = 0.75;
  ok_response.label = 1;
  EXPECT_EQ(SerializeResponse(ok_response),
            R"({"id":7,"type":"predict","ok":true,"score":0.75,"label":1})");

  const Response error =
      MakeErrorResponse("\"x\"", ServeError::kOverloaded, "busy");
  EXPECT_EQ(SerializeResponse(error),
            R"({"id":"x","ok":false,"error":"overloaded","message":"busy"})");
}

TEST(ProtocolTest, EmbeddingSurvivesWireRoundTrip) {
  Response response;
  response.ok = true;
  response.has_type = true;
  response.type = RequestType::kEmbed;
  response.embedding = {0.1 + 0.2, -1.0 / 3.0, 1e-17};
  auto parsed = ParseJson(SerializeResponse(response));
  ASSERT_TRUE(parsed.ok());
  const JsonValue* embedding = parsed->Find("embedding");
  ASSERT_NE(embedding, nullptr);
  ASSERT_EQ(embedding->array.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(embedding->array[i].number, response.embedding[i]);
  }
}

// ------------------------------------------------------------- ServerCore

/// A tiny trained-enough bundle: fitted standardizer + random encoder.
core::ModelBundle TestBundle(size_t input_dim = 3) {
  Rng rng(7);
  Matrix raw = RandomNormal(20, input_dim, &rng, 1.0, 2.0);
  data::Standardizer standardizer;
  standardizer.Fit(raw);
  core::RllModelConfig config;
  config.input_dim = input_dim;
  config.hidden_dims = {6, 4};
  core::RllModel model(config, &rng);
  auto bundle = core::ModelBundle::Create(standardizer, model, &rng);
  RLL_CHECK(bundle.ok());
  return std::move(*bundle);
}

/// A small linearly-separable labeled corpus for predict/neighbors.
data::Dataset TestCorpus(size_t n = 24, size_t dim = 3) {
  Rng rng(11);
  Matrix features(n, dim);
  std::vector<int> labels(n);
  for (size_t r = 0; r < n; ++r) {
    labels[r] = r % 2 == 0 ? 1 : 0;
    const double center = labels[r] == 1 ? 2.0 : -2.0;
    for (size_t c = 0; c < dim; ++c) {
      features(r, c) = center + 0.3 * rng.Normal(0.0, 1.0);
    }
  }
  return data::Dataset(std::move(features), std::move(labels));
}

std::unique_ptr<ServerCore> MakeCore(const data::Dataset* corpus,
                                     ServerCoreOptions options = {}) {
  auto core = ServerCore::Create(TestBundle(), corpus, options);
  RLL_CHECK(core.ok());
  return std::move(*core);
}

Request EmbedRequest(std::vector<double> features) {
  Request request;
  request.type = RequestType::kEmbed;
  request.features = std::move(features);
  return request;
}

TEST(ServerCoreTest, EmbedMatchesBundleBitwise) {
  auto core = MakeCore(nullptr);
  const std::vector<double> features = {0.5, -1.0, 2.0};
  const Response response = core->Handle(EmbedRequest(features));
  ASSERT_TRUE(response.ok) << response.message;
  auto direct = core->bundle().Embed(Matrix::RowVector(features));
  ASSERT_TRUE(direct.ok());
  ASSERT_EQ(response.embedding.size(), direct->size());
  for (size_t i = 0; i < direct->size(); ++i) {
    EXPECT_EQ(response.embedding[i], (*direct)[i]);
  }
}

TEST(ServerCoreTest, PredictAndNeighborsNeedCorpus) {
  auto core = MakeCore(nullptr);
  Request predict = EmbedRequest({1.0, 2.0, 3.0});
  predict.type = RequestType::kPredict;
  const Response response = core->Handle(predict);
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.error, ServeError::kUnsupported);

  Request neighbors = EmbedRequest({1.0, 2.0, 3.0});
  neighbors.type = RequestType::kNeighbors;
  EXPECT_EQ(core->Handle(neighbors).error, ServeError::kUnsupported);
}

TEST(ServerCoreTest, PredictsAndRetrievesWithCorpus) {
  const data::Dataset corpus = TestCorpus();
  auto core = MakeCore(&corpus);
  EXPECT_TRUE(core->supports_predict());
  EXPECT_TRUE(core->supports_neighbors());

  Request predict = EmbedRequest({2.0, 2.0, 2.0});
  predict.type = RequestType::kPredict;
  const Response scored = core->Handle(predict);
  ASSERT_TRUE(scored.ok) << scored.message;
  EXPECT_GE(scored.score, 0.0);
  EXPECT_LE(scored.score, 1.0);
  EXPECT_EQ(scored.label, scored.score >= 0.5 ? 1 : 0);

  Request neighbors = EmbedRequest({2.0, 2.0, 2.0});
  neighbors.type = RequestType::kNeighbors;
  neighbors.k = 4;
  const Response retrieved = core->Handle(neighbors);
  ASSERT_TRUE(retrieved.ok) << retrieved.message;
  ASSERT_EQ(retrieved.neighbors.size(), 4u);
  for (size_t i = 1; i < retrieved.neighbors.size(); ++i) {
    EXPECT_GE(retrieved.neighbors[i - 1].similarity,
              retrieved.neighbors[i].similarity);
  }
  for (const NeighborHit& hit : retrieved.neighbors) {
    EXPECT_LT(hit.index, corpus.size());
    EXPECT_EQ(hit.label, corpus.true_label(hit.index));
  }
}

TEST(ServerCoreTest, RejectsWrongFeatureWidth) {
  auto core = MakeCore(nullptr);
  const Response response = core->Handle(EmbedRequest({1.0, 2.0}));
  EXPECT_FALSE(response.ok);
  EXPECT_EQ(response.error, ServeError::kBadRequest);
}

TEST(ServerCoreTest, HandleLineAnswersParseErrorsStructurally) {
  auto core = MakeCore(nullptr);
  const std::string response = core->HandleLine("{broken json");
  EXPECT_NE(response.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(response.find("\"error\":\"bad_request\""), std::string::npos);
  // Semantically invalid but parseable JSON still echoes the id.
  const std::string with_id =
      core->HandleLine(R"({"id": 3, "type": "warp", "features": [1]})");
  EXPECT_NE(with_id.find("\"id\":3"), std::string::npos);
  EXPECT_NE(with_id.find("\"error\":\"bad_request\""), std::string::npos);
}

TEST(ServerCoreTest, HandleLineRoundTripsEmbed) {
  auto core = MakeCore(nullptr);
  const std::string response = core->HandleLine(
      R"({"id": 1, "type": "embed", "features": [0.5, -1.0, 2.0]})");
  auto parsed = ParseJson(response);
  ASSERT_TRUE(parsed.ok()) << response;
  EXPECT_TRUE(parsed->Find("ok")->boolean);
  auto direct =
      core->bundle().Embed(Matrix::RowVector({0.5, -1.0, 2.0}));
  ASSERT_TRUE(direct.ok());
  const JsonValue* embedding = parsed->Find("embedding");
  ASSERT_NE(embedding, nullptr);
  ASSERT_EQ(embedding->array.size(), direct->size());
  for (size_t i = 0; i < direct->size(); ++i) {
    // %.17g wire format: the TCP client sees the exact double.
    EXPECT_EQ(embedding->array[i].number, (*direct)[i]);
  }
}

TEST(ServerCoreTest, CacheHitReturnsIdenticalEmbedding) {
  ServerCoreOptions options;
  options.cache_capacity = 16;
  auto core = MakeCore(nullptr, options);
  const Response first = core->Handle(EmbedRequest({1.0, 1.0, 1.0}));
  const Response second = core->Handle(EmbedRequest({1.0, 1.0, 1.0}));
  ASSERT_TRUE(first.ok);
  ASSERT_TRUE(second.ok);
  EXPECT_EQ(first.embedding, second.embedding);
  EXPECT_GE(core->cache().hits(), 1u);
}

TEST(ServerCoreTest, ConcurrentBatchedEmbedsMatchDirectBitwise) {
  ServerCoreOptions options;
  options.cache_capacity = 0;  // Force every request through the batcher.
  options.batcher.batch_timeout_us = 2000;
  auto core = MakeCore(nullptr, options);

  constexpr size_t kClients = 16;
  std::vector<Response> responses(kClients);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (size_t i = 0; i < kClients; ++i) {
    threads.emplace_back([&, i] {
      responses[i] = core->Handle(
          EmbedRequest({static_cast<double>(i), 1.0, -0.5 * i}));
    });
  }
  for (std::thread& t : threads) t.join();

  for (size_t i = 0; i < kClients; ++i) {
    ASSERT_TRUE(responses[i].ok) << responses[i].message;
    auto direct = core->bundle().Embed(
        Matrix::RowVector({static_cast<double>(i), 1.0, -0.5 * i}));
    ASSERT_TRUE(direct.ok());
    ASSERT_EQ(responses[i].embedding.size(), direct->size());
    for (size_t j = 0; j < direct->size(); ++j) {
      EXPECT_EQ(responses[i].embedding[j], (*direct)[j])
          << "client " << i << " dim " << j;
    }
  }
}

TEST(ServerCoreTest, ShutdownAnswersWithShutdownError) {
  auto core = MakeCore(nullptr);
  ASSERT_TRUE(core->Handle(EmbedRequest({1.0, 2.0, 3.0})).ok);
  core->Shutdown();
  EXPECT_TRUE(core->shutting_down());
  const Response after = core->Handle(EmbedRequest({1.0, 2.0, 3.0}));
  EXPECT_FALSE(after.ok);
  EXPECT_EQ(after.error, ServeError::kShutdown);
  core->Shutdown();  // Idempotent.
}

TEST(ServerCoreTest, CreateValidatesCorpus) {
  const data::Dataset empty;
  EXPECT_FALSE(ServerCore::Create(TestBundle(), &empty, {}).ok());
  const data::Dataset wrong_dim = TestCorpus(24, 5);
  EXPECT_FALSE(ServerCore::Create(TestBundle(3), &wrong_dim, {}).ok());
  ServerCoreOptions bad_k;
  bad_k.default_k = 0;
  EXPECT_FALSE(ServerCore::Create(TestBundle(), nullptr, bad_k).ok());
}

// ---------------------------------------------------- admin introspection

TEST(ProtocolTest, ParsesAdminRequestsAndRejectsPayloads) {
  std::string id;
  for (const char* type : {"healthz", "statusz", "metricsz"}) {
    const std::string line =
        std::string("{\"id\": 1, \"type\": \"") + type + "\"}";
    auto request = ParseRequest(line, &id);
    ASSERT_TRUE(request.ok()) << type;
    EXPECT_TRUE(IsAdminRequest(request->type));
  }
  EXPECT_FALSE(IsAdminRequest(RequestType::kEmbed));
  // Admin requests carry no data-plane payload.
  EXPECT_FALSE(
      ParseRequest(R"({"type": "healthz", "features": [1]})", &id).ok());
  EXPECT_FALSE(ParseRequest(R"({"type": "metricsz", "k": 3})", &id).ok());
}

TEST(ProtocolTest, ParsesProfilezStrictly) {
  std::string id;
  auto start = ParseRequest(
      R"({"type": "profilez", "action": "start", "hz": 250})", &id);
  ASSERT_TRUE(start.ok());
  EXPECT_EQ(start->type, RequestType::kProfilez);
  EXPECT_EQ(start->profile_action, ProfileAction::kStart);
  EXPECT_EQ(start->profile_hz, 250);

  auto fetch = ParseRequest(
      R"({"type": "profilez", "action": "fetch", "format": "json"})", &id);
  ASSERT_TRUE(fetch.ok());
  EXPECT_EQ(fetch->profile_action, ProfileAction::kFetch);
  EXPECT_EQ(fetch->profile_format, ProfileFormat::kJson);

  ASSERT_TRUE(
      ParseRequest(R"({"type": "profilez", "action": "stop"})", &id).ok());

  // Strict parse: the action is mandatory and enumerated; hz belongs to
  // start, format to fetch; other requests reject profilez keys outright.
  EXPECT_FALSE(ParseRequest(R"({"type": "profilez"})", &id).ok());
  EXPECT_FALSE(
      ParseRequest(R"({"type": "profilez", "action": "dump"})", &id).ok());
  EXPECT_FALSE(ParseRequest(
                   R"({"type": "profilez", "action": "stop", "hz": 99})",
                   &id)
                   .ok());
  EXPECT_FALSE(
      ParseRequest(
          R"({"type": "profilez", "action": "start", "format": "json"})",
          &id)
          .ok());
  EXPECT_FALSE(ParseRequest(
                   R"({"type": "profilez", "action": "start", "hz": 0})",
                   &id)
                   .ok());
  EXPECT_FALSE(ParseRequest(
                   R"({"type": "profilez", "action": "start", "hz": 1e300})",
                   &id)
                   .ok());
  EXPECT_FALSE(
      ParseRequest(R"({"type": "metricsz", "action": "start"})", &id).ok());
  EXPECT_FALSE(ParseRequest(
                   R"({"type": "embed", "features": [1], "hz": 99})", &id)
                   .ok());
}

TEST(ProtocolTest, SerializesTraceId) {
  Response response;
  response.id_json = "5";
  response.ok = true;
  response.has_type = true;
  response.type = RequestType::kEmbed;
  response.embedding = {1.0};
  response.trace_id = 40;
  EXPECT_NE(SerializeResponse(response).find("\"trace_id\":40"),
            std::string::npos);
  response.trace_id = 0;  // Unsampled: the field is absent, not 0.
  EXPECT_EQ(SerializeResponse(response).find("trace_id"),
            std::string::npos);
}

TEST(ServerCoreTest, HealthzAndStatuszRoundTrip) {
  const data::Dataset corpus = TestCorpus();
  auto core = MakeCore(&corpus);

  auto healthz = ParseJson(core->HandleLine(R"({"id": 1, "type": "healthz"})"));
  ASSERT_TRUE(healthz.ok());
  EXPECT_TRUE(healthz->Find("ok")->boolean);
  const JsonValue* payload = healthz->Find("payload");
  ASSERT_NE(payload, nullptr);
  EXPECT_EQ(payload->Find("status")->string, "serving");
  EXPECT_GE(payload->Find("uptime_s")->number, 0.0);

  auto statusz = ParseJson(core->HandleLine(R"({"id": 2, "type": "statusz"})"));
  ASSERT_TRUE(statusz.ok());
  const JsonValue* config = statusz->Find("payload");
  ASSERT_NE(config, nullptr);
  EXPECT_EQ(config->Find("input_dim")->number, 3.0);
  EXPECT_EQ(config->Find("corpus_size")->number, 24.0);
  EXPECT_TRUE(config->Find("supports_predict")->boolean);
  EXPECT_TRUE(config->Find("supports_neighbors")->boolean);
  EXPECT_GT(config->Find("threads")->number, 0.0);
  EXPECT_GT(config->Find("max_batch")->number, 0.0);
  // The vector level of the GEMM and tanh kernels in this process.
  const JsonValue* kernel_isa = config->Find("kernel_isa");
  ASSERT_NE(kernel_isa, nullptr);
  EXPECT_EQ(kernel_isa->string, KernelIsa());

  // Admin answers keep flowing while the server drains.
  core->Shutdown();
  const std::string draining =
      core->HandleLine(R"({"id": 3, "type": "healthz"})");
  EXPECT_NE(draining.find("\"ok\":true"), std::string::npos) << draining;
  EXPECT_NE(draining.find("draining"), std::string::npos) << draining;
}

TEST(ServerCoreTest, MetricszReportsWindowedLoadAndDeltas) {
  ServerCoreOptions options;
  options.cache_capacity = 0;  // Every request takes the full batcher path.
  auto core = MakeCore(nullptr, options);
  constexpr size_t kRequests = 60;
  for (size_t i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(
        core->Handle(EmbedRequest({static_cast<double>(i), 0.0, 1.0})).ok);
  }

  auto first =
      ParseJson(core->HandleLine(R"({"id": 1, "type": "metricsz"})"));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->Find("ok")->boolean);
  const JsonValue* payload = first->Find("payload");
  ASSERT_NE(payload, nullptr);

  // The windowed view reflects the load just generated: all 60 requests
  // are inside the default 10s window, with real (positive) percentiles.
  const JsonValue* windowed = payload->Find("windowed");
  ASSERT_NE(windowed, nullptr);
  const JsonValue* requests = windowed->Find("requests");
  ASSERT_NE(requests, nullptr);
  EXPECT_EQ(requests->Find("count")->number, static_cast<double>(kRequests));
  EXPECT_GT(requests->Find("rate_per_sec")->number, 0.0);
  const JsonValue* embed_latency =
      windowed->Find("latency_ms")->Find("embed");
  ASSERT_NE(embed_latency, nullptr);
  EXPECT_EQ(embed_latency->Find("count")->number,
            static_cast<double>(kRequests));
  EXPECT_GT(embed_latency->Find("p99")->number, 0.0);
  EXPECT_GE(embed_latency->Find("p99")->number,
            embed_latency->Find("p50")->number);

  EXPECT_NE(payload->Find("cumulative"), nullptr);

  // Five more requests between scrapes land in the windowed counter; the
  // metricsz scrapes themselves are admin requests and do not.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(core->Handle(EmbedRequest({1.0, 2.0, 3.0})).ok);
  }
  ASSERT_TRUE(
      ParseJson(core->HandleLine(R"({"id": 2, "type": "metricsz"})")).ok());
  auto third =
      ParseJson(core->HandleLine(R"({"id": 3, "type": "metricsz"})"));
  EXPECT_EQ(third->Find("payload")
                ->Find("windowed")
                ->Find("requests")
                ->Find("count")
                ->number,
            static_cast<double>(kRequests) + 5.0);
  core->Shutdown();
}

TEST(ServerCoreTest, MetricszExposesLatencyExemplars) {
  ServerCoreOptions options;
  options.trace_sample_every = 1;  // Every request is trace-sampled.
  auto core = MakeCore(nullptr, options);
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(core->Handle(EmbedRequest({1.0, 2.0, 3.0})).ok);
  }

  auto scrape =
      ParseJson(core->HandleLine(R"({"id": 1, "type": "metricsz"})"));
  ASSERT_TRUE(scrape.ok());
  const JsonValue* exemplars =
      scrape->Find("payload")->Find("exemplars");
  ASSERT_NE(exemplars, nullptr);
  const JsonValue* embed = exemplars->Find("embed");
  ASSERT_NE(embed, nullptr);
  ASSERT_TRUE(embed->is_array());
  // 20 sampled embeds: at least one latency bucket carries an exemplar,
  // and every entry is a well-formed {le, trace_id, value} triple.
  ASSERT_FALSE(embed->array.empty());
  for (const JsonValue& entry : embed->array) {
    ASSERT_NE(entry.Find("le"), nullptr);
    ASSERT_NE(entry.Find("trace_id"), nullptr);
    EXPECT_GT(entry.Find("trace_id")->number, 0.0);
    ASSERT_NE(entry.Find("value"), nullptr);
    EXPECT_GT(entry.Find("value")->number, 0.0);
  }
  core->Shutdown();
}

TEST(ServerCoreTest, TraceIdPropagatesThroughPipeline) {
  obs::SetTracingEnabled(true);
  obs::ClearTraceEvents();
  ServerCoreOptions options;
  options.trace_sample_every = 1;  // Sample everything.
  options.cache_capacity = 16;
  auto core = MakeCore(nullptr, options);
  const Response response = core->Handle(EmbedRequest({1.0, 2.0, 3.0}));
  obs::SetTracingEnabled(false);
  ASSERT_TRUE(response.ok) << response.message;
  EXPECT_EQ(response.trace_id, 1u);

  // The request id links every pipeline stage's span: request → cache
  // probe (miss) → queue wait → batch row.
  const std::vector<obs::TraceEventView> events = obs::SnapshotTraceEvents();
  const auto has = [&events](const char* name) {
    for (const obs::TraceEventView& event : events) {
      if (event.name == name) return true;
    }
    return false;
  };
  EXPECT_TRUE(has("serve_request:1"));
  EXPECT_TRUE(has("serve_cache_probe:1"));
  EXPECT_TRUE(has("serve_queue_wait:1"));
  EXPECT_TRUE(has("serve_batch_row:1"));
  obs::ClearTraceEvents();
}

TEST(ServerCoreTest, TraceSamplerSelectsEveryNth) {
  ServerCoreOptions options;
  options.trace_sample_every = 2;
  auto core = MakeCore(nullptr, options);
  // The trace_id echo is independent of global tracing (spans no-op when
  // tracing is off, but the wire contract holds).
  EXPECT_EQ(core->Handle(EmbedRequest({1.0, 2.0, 3.0})).trace_id, 0u);
  EXPECT_EQ(core->Handle(EmbedRequest({1.0, 2.0, 3.0})).trace_id, 2u);
  EXPECT_EQ(core->Handle(EmbedRequest({1.0, 2.0, 3.0})).trace_id, 0u);
  EXPECT_EQ(core->Handle(EmbedRequest({1.0, 2.0, 3.0})).trace_id, 4u);
}

// ------------------------------------------------------------------ Wire

/// The request lines of the golden test and the exact lines the server
/// answered them with before numbers went through to_chars/from_chars;
/// the predict score has since moved with the head's fit (Newton's method,
/// classify/logistic_regression.h) and is pinned at the new head's bits.
/// An empty answer marks an admin verb whose payload moves with uptime
/// and load: only its envelope is pinned.
struct GoldenExchange {
  const char* request;
  const char* response;
};

constexpr GoldenExchange kGoldenExchanges[] = {
    {R"({"id":1,"type":"embed","features":[0.5,-1,2]})",
     R"({"id":1,"type":"embed","ok":true,"embedding":[0.4557809085980441,)"
     R"(0.43418730690765128,0.038780690424068787,0.21113629912822129]})"},
    {R"({"id":2,"type":"predict","features":[0.5,-1,2]})",
     R"({"id":2,"type":"predict","ok":true,"score":0.66183463240116447,)"
     R"("label":1})"},
    {R"({"id":3,"type":"neighbors","features":[0.5,-1,2],"k":3})",
     R"({"id":3,"type":"neighbors","ok":true,"neighbors":[{"index":11,)"
     R"("label":0,"similarity":0.29156903058792127},{"index":15,"label":0,)"
     R"("similarity":0.27266383318898973},{"index":9,"label":0,)"
     R"("similarity":0.23535930474974975}]})"},
    {R"({"id":4,"type":"neighbors","features":[0.5,-1,2]})",
     R"({"id":4,"type":"neighbors","ok":true,"neighbors":[{"index":11,)"
     R"("label":0,"similarity":0.29156903058792127},{"index":15,"label":0,)"
     R"("similarity":0.27266383318898973},{"index":9,"label":0,)"
     R"("similarity":0.23535930474974975},{"index":19,"label":0,)"
     R"("similarity":0.2278905523203574},{"index":5,"label":0,)"
     R"("similarity":0.20768194655899058}]})"},
    {R"({"id":5,"type":"healthz"})", ""},
    {R"({"id":6,"type":"statusz"})", ""},
    {R"({"id":"m","type":"metricsz"})", ""},
    {R"({"id":8,"type":"profilez","action":"stop"})",
     R"({"id":8,"type":"profilez","ok":true,"payload":{"action":"stop",)"
     R"("running":false}})"},
    {R"({"id":9,"type":"reloadz","action":"status"})",
     R"({"id":9,"type":"reloadz","ok":true,"payload":{"action":"status",)"
     R"("failures":0,"generation":1,"in_progress":false,"last_error":"",)"
     R"("reloads":0,"source":""}})"},
    // A syntax error echoes no id, even one that came before it.
    {R"({"id":7,"type":"embed","features":[1,})",
     R"({"ok":false,"error":"bad_request","message":"json parse error at )"
     R"(offset 37: invalid number"})"},
    {R"({"id":7,"type":"warp","features":[1,2,3]})",
     R"({"id":7,"ok":false,"error":"bad_request","message":"unknown )"
     R"(\"type\": warp"})"},
    {R"({"id":true,"type":"embed","features":[0.5,-1,2]})",
     R"({"ok":false,"error":"bad_request","message":"\"id\" must be a )"
     R"(number or a string"})"},
    {R"({"id":0.1,"type":"embed","features":[0.5,-1,2]})",
     R"({"id":0.10000000000000001,"type":"embed","ok":true,"embedding":)"
     R"([0.4557809085980441,0.43418730690765128,0.038780690424068787,)"
     R"(0.21113629912822129]})"},
    {"{\"id\":\"a\xC3\xA9\\\"b\\\\c\\n\\/\",\"type\":\"predict\","
     "\"features\":[0.5,-1,2]}",
     "{\"id\":\"a\xC3\xA9\\\"b\\\\c\\n/\",\"type\":\"predict\",\"ok\":true,"
     "\"score\":0.66183463240116447,\"label\":1}"},
    {R"({"id":10,"type":"embed","features":[1e-400,-1e-400,4.9e-324]})",
     R"({"id":10,"type":"embed","ok":true,"embedding":)"
     R"([-0.25078481258280461,0.29782279265682143,-0.28144205904491759,)"
     R"(0.30565553514095378]})"},
    {R"({"id":11,"type":"embed","features":[1,2]})",
     R"({"id":11,"ok":false,"error":"bad_request","message":"expected 3 )"
     R"(features, got 2"})"},
};

TEST(WireGoldenTest, ResponsesKeepEveryByte) {
  const data::Dataset corpus = TestCorpus();
  auto core = MakeCore(&corpus);
  std::string appended = "earlier answer\n";
  for (const GoldenExchange& exchange : kGoldenExchanges) {
    const std::string response = core->HandleLine(exchange.request);
    const std::string want = exchange.response;
    if (!want.empty()) {
      EXPECT_EQ(response, want) << exchange.request;
    } else {
      // Admin envelope: the id, type and ok, then the payload object.
      auto request = ParseJson(exchange.request);
      ASSERT_TRUE(request.ok());
      std::string envelope = "{\"id\":";
      const JsonValue* id = request->Find("id");
      envelope += id->is_string() ? "\"" + id->string + "\""
                                  : obs::JsonNumber(id->number);
      envelope += ",\"type\":\"" + request->Find("type")->string +
                  "\",\"ok\":true,\"payload\":{";
      EXPECT_EQ(response.substr(0, envelope.size()), envelope);
      EXPECT_EQ(response.substr(response.size() - 2), "}}");
      EXPECT_TRUE(ParseJson(response).ok()) << response;
    }
    // The appending form writes the same bytes after what the buffer
    // already holds.
    if (!want.empty()) {
      const size_t before = appended.size();
      core->HandleLine(std::string_view(exchange.request), &appended);
      EXPECT_EQ(appended.substr(before), want);
    }
  }

  ServerCoreOptions traced;
  traced.trace_sample_every = 1;
  auto traced_core = MakeCore(&corpus, traced);
  EXPECT_EQ(traced_core->HandleLine(
                R"({"id":12,"type":"predict","features":[0.5,-1,2]})"),
            R"({"id":12,"type":"predict","ok":true,"trace_id":1,)"
            R"("score":0.66183463240116447,"label":1})");
}

/// Every file of the fuzz corpus in the checkout.
std::vector<std::string> FuzzCorpusSeeds() {
  std::vector<std::string> seeds;
  for (const auto& entry : std::filesystem::directory_iterator(
           RLL_SOURCE_DIR "/tools/fuzz/corpus")) {
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    seeds.push_back(bytes.str());
  }
  return seeds;
}

TEST(WireDifferentialTest, CorpusSeedsMatchTheReference) {
  const std::vector<std::string> seeds = FuzzCorpusSeeds();
  ASSERT_GE(seeds.size(), 33u);
  for (const std::string& seed : seeds) {
    EXPECT_EQ(reference::WireDifference(seed), "") << seed;
  }
}

TEST(WireDifferentialTest, EveryTruncationMatchesTheReference) {
  const std::string lines[] = {
      R"({"id": "eé\"1", "type": "embed", "features": [0.5, -1e-3, )"
      R"(2E+2, -0, 1e-400, 00.5], "extra": {"a": [true, false, null]}})",
      R"({"id": 0.1, "type": "predict", "features": [1.5, 2, 3.25]})",
      R"({"id": 9, "type": "reloadz", "action": "reload", )"
      R"("path": "/tmp/mA😀.rll"})"};
  for (const std::string& line : lines) {
    for (size_t n = 0; n <= line.size(); ++n) {
      ASSERT_EQ(reference::WireDifference(line.substr(0, n)), "")
          << line.substr(0, n);
    }
  }
}

TEST(WireDifferentialTest, MutatedSeedsMatchTheReference) {
  // A small deterministic stand-in for the libFuzzer run: a few byte
  // replacements, deletions and insertions from JSON's alphabet on each
  // corpus seed.
  const std::vector<std::string> seeds = FuzzCorpusSeeds();
  const std::string alphabet = "{}[]:,\"\\ -+.0123456789eEtrufalsnu\x01";
  Rng rng(23);
  for (int i = 0; i < 20000; ++i) {
    std::string input = seeds[rng.UniformInt(seeds.size())];
    const uint64_t edits = 1 + rng.UniformInt(uint64_t{4});
    for (uint64_t e = 0; e < edits; ++e) {
      const size_t at = rng.UniformInt(input.size() + 1);
      const char c = alphabet[rng.UniformInt(alphabet.size())];
      switch (rng.UniformInt(uint64_t{3})) {
        case 0:
          if (at < input.size()) input[at] = c;
          break;
        case 1:
          if (at < input.size()) input.erase(at, 1);
          break;
        default:
          input.insert(at, 1, c);
      }
    }
    ASSERT_EQ(reference::WireDifference(input), "") << input;
  }
}

TEST(ServerCoreTest, CachedRequestsAllocateInSingleDigits) {
  if (!obs::AllocCountingActive()) {
    GTEST_SKIP() << "built without RLL_COUNT_ALLOCS";
  }
  const data::Dataset corpus = TestCorpus();
  auto core = MakeCore(&corpus);
  const std::string embed = R"({"id":1,"type":"embed","features":[0.5,-1,2]})";
  const std::string predict =
      R"({"id":2,"type":"predict","features":[0.5,-1,2]})";
  std::string out;
  out.reserve(1 << 12);
  // The first request embeds the row through the batcher into the cache,
  // and the first of each type registers its metric series.
  core->HandleLine(embed, &out);
  core->HandleLine(predict, &out);
  auto allocations = [&](const std::string& line) {
    out.clear();
    const uint64_t before = obs::AllocationCount();
    core->HandleLine(line, &out);
    return obs::AllocationCount() - before;
  };
  // Parsed features, the standardized row and its copy, the cached
  // embedding, and the response's embedding (embed) or the head's
  // probabilities (predict). Nothing per number or per series.
  EXPECT_EQ(allocations(embed), 5u);
  EXPECT_EQ(allocations(predict), 5u);
  EXPECT_NE(out.find("\"ok\":true"), std::string::npos) << out;
  // The string-returning form adds the one string it returns.
  const uint64_t before = obs::AllocationCount();
  const std::string answer = core->HandleLine(embed);
  EXPECT_EQ(obs::AllocationCount() - before, 6u);
  std::string twice = answer + "\n";
  core->HandleLine(embed, &twice);
  EXPECT_EQ(twice, answer + "\n" + answer);
}

// ------------------------------------------------------------ EventServer

int ConnectLoopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  RLL_CHECK_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  RLL_CHECK_EQ(
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  return fd;
}

void SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    sent += static_cast<size_t>(n);
  }
}

std::string RecvLine(int fd) {
  std::string line;
  char ch = 0;
  while (::recv(fd, &ch, 1, 0) == 1) {
    if (ch == '\n') return line;
    line += ch;
  }
  return line;
}

TEST(EventServerTest, ServesRequestsOverLoopback) {
  auto core = MakeCore(nullptr);
  EventServerOptions options;  // port 0: ephemeral.
  EventServer server(options, core.get());
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);
  std::thread serve_thread([&] { ASSERT_TRUE(server.Serve().ok()); });

  const int fd = ConnectLoopback(server.port());
  // A request split across two writes must still parse as one line, and a
  // malformed line must answer structurally, not disconnect.
  SendAll(fd, R"({"id": 1, "type": "embed", "fea)");
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  SendAll(fd, "tures\": [1, 2, 3]}\n not json \n");
  const std::string good = RecvLine(fd);
  EXPECT_NE(good.find("\"id\":1"), std::string::npos) << good;
  EXPECT_NE(good.find("\"ok\":true"), std::string::npos) << good;
  const std::string bad = RecvLine(fd);
  EXPECT_NE(bad.find("\"error\":\"bad_request\""), std::string::npos) << bad;

  // The connection survives the malformed line.
  SendAll(fd, R"({"id": 2, "type": "embed", "features": [1, 2, 3]})"
              "\n");
  EXPECT_NE(RecvLine(fd).find("\"id\":2"), std::string::npos);

  ::close(fd);
  server.Stop();
  serve_thread.join();
  core->Shutdown();
}

TEST(EventServerTest, AnswersAdminOverLoopback) {
  auto core = MakeCore(nullptr);
  EventServer server({}, core.get());
  ASSERT_TRUE(server.Start().ok());
  std::thread serve_thread([&] { ASSERT_TRUE(server.Serve().ok()); });

  const int fd = ConnectLoopback(server.port());
  SendAll(fd, "{\"id\": 1, \"type\": \"healthz\"}\n");
  const std::string healthz = RecvLine(fd);
  EXPECT_NE(healthz.find("\"ok\":true"), std::string::npos) << healthz;
  EXPECT_NE(healthz.find("\"status\":\"serving\""), std::string::npos)
      << healthz;
  SendAll(fd, "{\"id\": 2, \"type\": \"metricsz\"}\n");
  const std::string metricsz = RecvLine(fd);
  auto parsed = ParseJson(metricsz);
  ASSERT_TRUE(parsed.ok()) << metricsz;
  EXPECT_NE(parsed->Find("payload")->Find("windowed"), nullptr);

  ::close(fd);
  server.Stop();
  serve_thread.join();
  core->Shutdown();
}

TEST(EventServerTest, ProfilezRoundTripsOverLoopback) {
  auto core = MakeCore(nullptr);
  EventServer server({}, core.get());
  ASSERT_TRUE(server.Start().ok());
  std::thread serve_thread([&] { ASSERT_TRUE(server.Serve().ok()); });
  const int fd = ConnectLoopback(server.port());

  SendAll(fd, "{\"id\": 1, \"type\": \"profilez\", \"action\": \"start\", "
              "\"hz\": 500}\n");
  const std::string started = RecvLine(fd);
  auto parsed = ParseJson(started);
  ASSERT_TRUE(parsed.ok()) << started;
  const JsonValue* payload = parsed->Find("payload");
  ASSERT_NE(payload, nullptr) << started;
  EXPECT_EQ(payload->Find("hz")->number, 500.0);
  EXPECT_TRUE(payload->Find("running")->boolean);

  // Starting twice is a client error, answered structurally.
  SendAll(fd, "{\"id\": 2, \"type\": \"profilez\", \"action\": \"start\"}\n");
  EXPECT_NE(RecvLine(fd).find("\"error\":\"bad_request\""),
            std::string::npos);

  // Burn some serving CPU so a fetch has a chance of holding samples (the
  // structure is asserted either way; sample counts are timing-dependent).
  for (int i = 0; i < 200; ++i) {
    SendAll(fd, StrFormat("{\"id\": %d, \"type\": \"embed\", "
                          "\"features\": [1, 2, 3]}\n",
                          100 + i));
    RecvLine(fd);
  }

  SendAll(fd, "{\"id\": 3, \"type\": \"profilez\", \"action\": \"fetch\"}\n");
  const std::string fetched = RecvLine(fd);
  parsed = ParseJson(fetched);
  ASSERT_TRUE(parsed.ok()) << fetched;
  payload = parsed->Find("payload");
  ASSERT_NE(payload, nullptr) << fetched;
  EXPECT_EQ(payload->Find("format")->string, "folded");
  ASSERT_NE(payload->Find("profile"), nullptr) << fetched;
  EXPECT_TRUE(payload->Find("profile")->is_string());
  EXPECT_TRUE(payload->Find("running")->boolean);

  // The JSON format nests the full report as parseable JSON.
  SendAll(fd, "{\"id\": 4, \"type\": \"profilez\", \"action\": \"fetch\", "
              "\"format\": \"json\"}\n");
  const std::string fetched_json = RecvLine(fd);
  parsed = ParseJson(fetched_json);
  ASSERT_TRUE(parsed.ok()) << fetched_json;
  const JsonValue* profile = parsed->Find("payload")->Find("profile");
  ASSERT_NE(profile, nullptr) << fetched_json;
  ASSERT_TRUE(profile->is_object());
  EXPECT_NE(profile->Find("by_span"), nullptr);
  EXPECT_NE(profile->Find("threads"), nullptr);

  SendAll(fd, "{\"id\": 5, \"type\": \"profilez\", \"action\": \"stop\"}\n");
  const std::string stopped = RecvLine(fd);
  parsed = ParseJson(stopped);
  ASSERT_TRUE(parsed.ok()) << stopped;
  EXPECT_FALSE(parsed->Find("payload")->Find("running")->boolean);

  // Unknown action and misplaced keys are strict-parse failures.
  SendAll(fd, "{\"id\": 6, \"type\": \"profilez\", \"action\": \"dump\"}\n");
  EXPECT_NE(RecvLine(fd).find("\"error\":\"bad_request\""),
            std::string::npos);
  SendAll(fd, "{\"id\": 7, \"type\": \"healthz\", \"action\": \"start\"}\n");
  EXPECT_NE(RecvLine(fd).find("\"error\":\"bad_request\""),
            std::string::npos);

  ::close(fd);
  server.Stop();
  serve_thread.join();
  core->Shutdown();
}

TEST(EventServerTest, StopUnblocksOpenConnections) {
  auto core = MakeCore(nullptr);
  EventServer server({}, core.get());
  ASSERT_TRUE(server.Start().ok());
  std::thread serve_thread([&] { ASSERT_TRUE(server.Serve().ok()); });

  // An idle connection sits in recv() until Stop shuts it down.
  const int fd = ConnectLoopback(server.port());
  SendAll(fd, R"({"id": 9, "type": "embed", "features": [1, 2, 3]})"
              "\n");
  EXPECT_NE(RecvLine(fd).find("\"id\":9"), std::string::npos);

  server.Stop();
  serve_thread.join();
  ::close(fd);
  core->Shutdown();
}

}  // namespace
}  // namespace rll::serve
