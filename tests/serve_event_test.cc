// Tests for the event-plane serving stack: the sharded embedding index's
// bitwise merge guarantee, hot model reload (generation swap under load,
// shutdown ordering, the reloadz verb), the background ReloadManager with
// its --watch-bundle mtime poller, and the epoll EventServer's framing
// and fd hygiene over real loopback sockets.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "core/embedding_index.h"
#include "core/model_bundle.h"
#include "core/rll_model.h"
#include "core/sharded_index.h"
#include "data/dataset.h"
#include "data/standardize.h"
#include "serve/event/event_server.h"
#include "serve/event/reload_manager.h"
#include "serve/json.h"
#include "serve/protocol.h"
#include "serve/server_core.h"
#include "tensor/init.h"
#include "tensor/matrix.h"

namespace rll::serve {
namespace {

// ---------------------------------------------------------------- fixtures

/// A tiny trained-enough bundle; different seeds give bitwise-different
/// encoders, which is how the reload tests observe a generation swap.
core::ModelBundle TestBundle(uint64_t seed = 7, size_t input_dim = 3) {
  Rng rng(seed);
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
                                     ServerCoreOptions options = {},
                                     std::string source = "") {
  auto core =
      ServerCore::Create(TestBundle(), corpus, options, std::move(source));
  RLL_CHECK(core.ok());
  return std::move(*core);
}

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

/// Open fds in this process, via /proc/self/fd.
size_t CountOpenFds() {
  DIR* dir = ::opendir("/proc/self/fd");
  RLL_CHECK(dir != nullptr);
  size_t count = 0;
  while (::readdir(dir) != nullptr) ++count;
  ::closedir(dir);
  return count;
}

// ------------------------------------------------------------ ShardedIndex

Matrix RandomEmbeddings(size_t rows, size_t dim, uint64_t seed) {
  Rng rng(seed);
  return RandomNormal(rows, dim, &rng, 0.0, 1.0);
}

TEST(ShardedIndexTest, MatchesUnshardedScanBitwiseAtAnyShardCount) {
  const Matrix embeddings = RandomEmbeddings(53, 8, 3);
  core::EmbeddingIndex flat;
  ASSERT_TRUE(flat.Build(embeddings).ok());

  Rng rng(29);
  std::vector<Matrix> queries;
  for (int q = 0; q < 10; ++q) {
    queries.push_back(RandomNormal(1, 8, &rng, 0.0, 1.0));
  }

  for (size_t shards : {1u, 2u, 4u, 7u, 53u, 100u}) {
    core::ShardedEmbeddingIndex sharded;
    ASSERT_TRUE(sharded.Build(embeddings, shards).ok());
    for (const Matrix& query : queries) {
      for (size_t k : {1u, 5u, 53u}) {
        auto want = flat.Query(query, k);
        auto got = sharded.Query(query, k);
        ASSERT_TRUE(want.ok());
        ASSERT_TRUE(got.ok());
        ASSERT_EQ(want->size(), got->size()) << "shards=" << shards;
        for (size_t i = 0; i < want->size(); ++i) {
          EXPECT_EQ((*want)[i].index, (*got)[i].index)
              << "shards=" << shards << " k=" << k << " rank=" << i;
          // Bitwise, not approximate: the merge must preserve the exact
          // doubles the unsharded scan produces.
          EXPECT_EQ((*want)[i].similarity, (*got)[i].similarity)
              << "shards=" << shards << " k=" << k << " rank=" << i;
        }
      }
    }
  }
}

TEST(ShardedIndexTest, PartitionCoversEveryRowExactlyOnce) {
  const Matrix embeddings = RandomEmbeddings(10, 4, 5);
  core::ShardedEmbeddingIndex index;
  ASSERT_TRUE(index.Build(embeddings, 4).ok());
  ASSERT_EQ(index.shard_count(), 4u);
  // 10 rows over 4 shards: the first 10 % 4 = 2 shards get the extra row.
  EXPECT_EQ(index.shard_size(0), 3u);
  EXPECT_EQ(index.shard_size(1), 3u);
  EXPECT_EQ(index.shard_size(2), 2u);
  EXPECT_EQ(index.shard_size(3), 2u);
  size_t total = 0;
  for (size_t s = 0; s < index.shard_count(); ++s) {
    total += index.shard_size(s);
  }
  EXPECT_EQ(total, index.size());
  EXPECT_EQ(index.size(), 10u);
  EXPECT_EQ(index.dim(), 4u);
}

TEST(ShardedIndexTest, ShardCountClampsToRowsAndRejectsBadInput) {
  const Matrix embeddings = RandomEmbeddings(3, 2, 9);
  core::ShardedEmbeddingIndex index;
  ASSERT_TRUE(index.Build(embeddings, 16).ok());
  EXPECT_EQ(index.shard_count(), 3u);  // Clamped: every shard non-empty.
  EXPECT_FALSE(index.Build(embeddings, 0).ok());
  EXPECT_FALSE(index.Build(Matrix(), 2).ok());
}

TEST(ShardedIndexTest, TiesRankByCorpusIndexAcrossShardBoundaries) {
  // Duplicate rows produce exactly equal similarities; the total order
  // must break those ties by corpus index no matter which shard wins.
  Matrix embeddings(6, 2);
  for (size_t r = 0; r < 6; ++r) {
    embeddings(r, 0) = 1.0;
    embeddings(r, 1) = 2.0;
  }
  Matrix query(1, 2);
  query(0, 0) = 1.0;
  query(0, 1) = 2.0;
  for (size_t shards : {1u, 2u, 3u, 6u}) {
    core::ShardedEmbeddingIndex index;
    ASSERT_TRUE(index.Build(embeddings, shards).ok());
    auto result = index.Query(query, 6);
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result->size(), 6u);
    for (size_t i = 0; i < 6; ++i) {
      EXPECT_EQ((*result)[i].index, i) << "shards=" << shards;
    }
  }
}

TEST(ServerCoreShardTest, NeighborsResponsesIdenticalAcrossShardCounts) {
  const data::Dataset corpus = TestCorpus(25, 3);
  const std::vector<std::string> lines = {
      R"({"id": 1, "type": "neighbors", "features": [1.5, 2.0, 1.8], "k": 5})",
      R"({"id": 2, "type": "neighbors", "features": [-2.0, -1.7, -2.2], "k": 25})",
      R"({"id": 3, "type": "neighbors", "features": [0.0, 0.1, -0.1], "k": 1})",
      R"({"id": 4, "type": "predict", "features": [2.1, 1.9, 2.0]})",
  };
  ServerCoreOptions base;
  auto reference = MakeCore(&corpus, base);
  std::vector<std::string> want;
  for (const std::string& line : lines) {
    want.push_back(reference->HandleLine(line));
  }
  for (size_t shards : {2u, 4u, 25u}) {
    ServerCoreOptions options;
    options.shards = shards;
    auto core = MakeCore(&corpus, options);
    EXPECT_EQ(core->index_shards(), std::min(shards, corpus.size()));
    for (size_t i = 0; i < lines.size(); ++i) {
      // The serialized wire bytes — ranks, indices, and every similarity
      // digit — must match the unsharded core exactly.
      EXPECT_EQ(core->HandleLine(lines[i]), want[i]) << "shards=" << shards;
    }
  }
}

// ----------------------------------------------------------------- Reload

TEST(ServerCoreReloadTest, SwapBumpsGenerationAndChangesTheModel) {
  const data::Dataset corpus = TestCorpus();
  auto core = MakeCore(&corpus, {}, "v1.rll");
  EXPECT_EQ(core->generation(), 1u);
  EXPECT_EQ(core->bundle_source(), "v1.rll");

  Request request;
  request.type = RequestType::kEmbed;
  request.features = {0.5, -1.0, 2.0};
  const Response before = core->Handle(request);
  ASSERT_TRUE(before.ok) << before.message;

  ASSERT_TRUE(core->ReloadFromBundle(TestBundle(99), "v2.rll").ok());
  EXPECT_EQ(core->generation(), 2u);
  EXPECT_EQ(core->bundle_source(), "v2.rll");
  EXPECT_EQ(core->reloads_total(), 1u);
  EXPECT_EQ(core->reload_failures(), 0u);

  const Response after = core->Handle(request);
  ASSERT_TRUE(after.ok) << after.message;
  EXPECT_NE(before.embedding, after.embedding);

  // Neighbors still work: the corpus was re-embedded under the new model.
  Request neighbors;
  neighbors.type = RequestType::kNeighbors;
  neighbors.features = {1.5, 2.0, 1.8};
  neighbors.k = 3;
  const Response found = core->Handle(neighbors);
  ASSERT_TRUE(found.ok) << found.message;
  EXPECT_EQ(found.neighbors.size(), 3u);
}

TEST(ServerCoreReloadTest, RejectsBundleWithWrongInputDim) {
  const data::Dataset corpus = TestCorpus();
  auto core = MakeCore(&corpus);
  const Status status =
      core->ReloadFromBundle(TestBundle(13, /*input_dim=*/5), "bad.rll");
  EXPECT_FALSE(status.ok());
  // The old generation keeps serving untouched.
  EXPECT_EQ(core->generation(), 1u);
  EXPECT_EQ(core->reload_failures(), 1u);
  EXPECT_EQ(core->reloads_total(), 0u);
  Request request;
  request.type = RequestType::kEmbed;
  request.features = {0.5, -1.0, 2.0};
  EXPECT_TRUE(core->Handle(request).ok);
}

TEST(ServerCoreReloadTest, ShutdownRefusesPendingSwap) {
  const data::Dataset corpus = TestCorpus();
  auto core = MakeCore(&corpus);
  core->Shutdown();
  const Status status = core->ReloadFromBundle(TestBundle(99), "late.rll");
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("shutting down"), std::string::npos)
      << status.message();
  EXPECT_EQ(core->generation(), 1u);
}

TEST(ServerCoreReloadTest, ReloadCompletedBeforeShutdownSticks) {
  const data::Dataset corpus = TestCorpus();
  auto core = MakeCore(&corpus);
  ASSERT_TRUE(core->ReloadFromBundle(TestBundle(99), "v2.rll").ok());
  core->Shutdown();
  EXPECT_EQ(core->generation(), 2u);
  EXPECT_EQ(core->bundle_source(), "v2.rll");
}

TEST(ServerCoreReloadTest, ReloadUnderLoadDropsNoRequests) {
  const data::Dataset corpus = TestCorpus();
  auto core = MakeCore(&corpus);

  constexpr int kThreads = 4;
  constexpr int kRequestsPerThread = 250;
  std::atomic<int> failures{0};
  std::atomic<bool> start{false};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&core, &failures, &start, t] {
      while (!start.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      for (int i = 0; i < kRequestsPerThread; ++i) {
        Request request;
        if (i % 2 == 0) {
          request.type = RequestType::kEmbed;
          request.features = {0.1 * t, -1.0, 0.01 * i};
        } else {
          request.type = RequestType::kNeighbors;
          request.features = {0.1 * t, 1.0, 0.01 * i};
          request.k = 3;
        }
        const Response response = core->Handle(request);
        if (!response.ok) failures.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  start.store(true, std::memory_order_release);
  // Five full generation swaps while every client thread hammers Handle:
  // each request pins one generation for its whole lifetime, so none may
  // observe a torn state or a stopped batcher.
  for (uint64_t swap = 0; swap < 5; ++swap) {
    ASSERT_TRUE(
        core->ReloadFromBundle(TestBundle(100 + swap), "swap.rll").ok());
  }
  for (auto& client : clients) client.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(core->generation(), 6u);
  EXPECT_EQ(core->reloads_total(), 5u);
  EXPECT_EQ(core->reload_failures(), 0u);
}

TEST(ServerCoreReloadTest, ReloadzStatusReportsGenerationAndSource) {
  const data::Dataset corpus = TestCorpus();
  auto core = MakeCore(&corpus, {}, "v1.rll");
  ASSERT_TRUE(core->ReloadFromBundle(TestBundle(99), "v2.rll").ok());
  const std::string reply = core->HandleLine(
      R"({"id": 1, "type": "reloadz", "action": "status"})");
  auto parsed = ParseJson(reply);
  ASSERT_TRUE(parsed.ok()) << reply;
  EXPECT_TRUE(parsed->Find("ok")->boolean);
  const JsonValue* payload = parsed->Find("payload");
  ASSERT_NE(payload, nullptr);
  EXPECT_EQ(payload->Find("generation")->number, 2.0);
  EXPECT_EQ(payload->Find("reloads")->number, 1.0);
  EXPECT_EQ(payload->Find("failures")->number, 0.0);
  EXPECT_EQ(payload->Find("source")->string, "v2.rll");
}

TEST(ServerCoreReloadTest, ReloadzReloadRoutesThroughHandler) {
  const data::Dataset corpus = TestCorpus();
  auto core = MakeCore(&corpus, {}, "v1.rll");
  std::string requested = "unset";
  core->SetReloadRequestHandler([&requested](const std::string& path) {
    requested = path;
    return Status::OK();
  });
  const std::string reply = core->HandleLine(
      R"({"id": 2, "type": "reloadz", "action": "reload", "path": "v2.rll"})");
  auto parsed = ParseJson(reply);
  ASSERT_TRUE(parsed.ok()) << reply;
  EXPECT_TRUE(parsed->Find("ok")->boolean);
  EXPECT_EQ(parsed->Find("payload")->Find("status")->string, "accepted");
  EXPECT_EQ(requested, "v2.rll");

  // A failing handler surfaces as an error response, not a silent drop.
  core->SetReloadRequestHandler([](const std::string&) {
    return Status::FailedPrecondition("reload manager is not running");
  });
  const std::string refused = core->HandleLine(
      R"({"id": 3, "type": "reloadz", "action": "reload"})");
  auto refused_parsed = ParseJson(refused);
  ASSERT_TRUE(refused_parsed.ok()) << refused;
  EXPECT_FALSE(refused_parsed->Find("ok")->boolean);
}

// ---------------------------------------------------------- ReloadManager

TEST(ReloadManagerTest, RequestReloadFailsUnlessRunning) {
  const data::Dataset corpus = TestCorpus();
  auto core = MakeCore(&corpus);
  ReloadManager manager(core.get(), {});
  EXPECT_FALSE(manager.RequestReload("x.rll").ok());  // Never started.
  manager.Start();
  manager.Stop();
  EXPECT_FALSE(manager.RequestReload("x.rll").ok());  // Already stopped.
}

TEST(ReloadManagerTest, RequestedReloadRunsInBackground) {
  const std::string path = ::testing::TempDir() + "/event_reload_v2.rll";
  ASSERT_TRUE(TestBundle(99).Save(path).ok());
  const data::Dataset corpus = TestCorpus();
  auto core = MakeCore(&corpus, {}, "v1.rll");
  ReloadManager manager(core.get(), {});
  manager.Start();
  ASSERT_TRUE(manager.RequestReload(path).ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (core->generation() < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(core->generation(), 2u);
  EXPECT_EQ(core->bundle_source(), path);
  manager.Stop();
  ::unlink(path.c_str());
}

TEST(ReloadManagerTest, WatchFiresOnBundleMtimeChange) {
  const std::string path = ::testing::TempDir() + "/event_watch.rll";
  ASSERT_TRUE(TestBundle(7).Save(path).ok());
  const data::Dataset corpus = TestCorpus();
  auto core = MakeCore(&corpus, {}, path);

  ReloadManagerOptions options;
  options.watch_path = path;
  options.watch_interval_ms = 10;
  ReloadManager manager(core.get(), options);
  manager.Start();
  // Let the watcher record the initial mtime (taken at thread start) and
  // tick a few times before the file changes underneath it.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_EQ(manager.watch_triggers(), 0u);  // Same file: no false trigger.

  ASSERT_TRUE(TestBundle(99).Save(path).ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (core->generation() < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(core->generation(), 2u);
  EXPECT_GE(manager.watch_triggers(), 1u);
  manager.Stop();
  ::unlink(path.c_str());
}

// ------------------------------------------------------------ EventServer

TEST(EventServerTest, SurvivesSplitFramesAndMalformedLines) {
  auto core = MakeCore(nullptr);
  EventServerOptions options;  // port 0: ephemeral.
  EventServer server(options, core.get());
  ASSERT_TRUE(server.Start().ok());
  std::thread serve_thread([&] { ASSERT_TRUE(server.Serve().ok()); });

  const int fd = ConnectLoopback(server.port());
  const std::string request =
      R"({"id": 1, "type": "embed", "features": [1.0, 2.0, 3.0]})" "\n";
  // Byte-at-a-time: every recv on the server side delivers a partial
  // frame, so the incremental parser has to stitch the line back together.
  for (char ch : request) {
    SendAll(fd, std::string(1, ch));
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  std::string reply = RecvLine(fd);
  auto parsed = ParseJson(reply);
  ASSERT_TRUE(parsed.ok()) << reply;
  EXPECT_TRUE(parsed->Find("ok")->boolean);

  // Malformed JSON gets an error response but keeps the connection open.
  SendAll(fd, "this is not json\n");
  reply = RecvLine(fd);
  parsed = ParseJson(reply);
  ASSERT_TRUE(parsed.ok()) << reply;
  EXPECT_FALSE(parsed->Find("ok")->boolean);
  EXPECT_EQ(parsed->Find("error")->string, "bad_request");

  // Two pipelined requests in one segment produce two in-order replies.
  SendAll(fd,
          R"({"id": 2, "type": "embed", "features": [1.0, 2.0, 3.0]})" "\n"
          R"({"id": 3, "type": "embed", "features": [4.0, 5.0, 6.0]})" "\n");
  auto first = ParseJson(RecvLine(fd));
  auto second = ParseJson(RecvLine(fd));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->Find("id")->number, 2.0);
  EXPECT_EQ(second->Find("id")->number, 3.0);

  // A final unterminated line is still answered once the client half-closes.
  SendAll(fd, R"({"id": 4, "type": "embed", "features": [1.0, 2.0, 3.0]})");
  ::shutdown(fd, SHUT_WR);
  auto last = ParseJson(RecvLine(fd));
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(last->Find("id")->number, 4.0);
  ::close(fd);

  server.Stop();
  serve_thread.join();
}

/// Serves `stream` on a fresh core and server over one connection, sent
/// whole (`chunk` 0) or in writes of `chunk` bytes, then half-closes and
/// returns every byte answered before the server closed. statusz's
/// uptime is the one field that moves between runs; it reads "T".
std::string AnswerStream(const std::string& stream, size_t chunk) {
  const data::Dataset corpus = TestCorpus();
  auto core = MakeCore(&corpus);
  EventServer server(EventServerOptions{}, core.get());
  RLL_CHECK(server.Start().ok());
  std::thread serve_thread([&] { RLL_CHECK(server.Serve().ok()); });
  const int fd = ConnectLoopback(server.port());
  // Without Nagle each write leaves as its own segment.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (chunk == 0) {
    SendAll(fd, stream);
  } else {
    for (size_t at = 0; at < stream.size(); at += chunk) {
      SendAll(fd, stream.substr(at, chunk));
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  ::shutdown(fd, SHUT_WR);
  std::string answered;
  char buf[4096];
  ssize_t n = 0;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    answered.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  server.Stop();
  serve_thread.join();
  const std::string key = "\"uptime_s\":";
  for (size_t at = answered.find(key); at != std::string::npos;
       at = answered.find(key, at + 1)) {
    const size_t begin = at + key.size();
    const size_t end = answered.find_first_of(",}", begin);
    answered.replace(begin, end - begin, "T");
  }
  return answered;
}

TEST(EventServerTest, AnswersDoNotDependOnHowTheStreamIsSplit) {
  const std::string stream =
      R"({"id":1,"type":"embed","features":[0.5,-1,2]})" "\n"
      R"({"id":2,"type":"predict","features":[0.5,-1,2]})" "\r\n"
      "\n"
      "\r\n"
      " \t \n"
      R"({"id":"né\"3","type":"neighbors","features":[0.5,-1,2],)"
      R"("k":2})" "\n"
      "not json at all\n"
      R"({"id":4,"type":"statusz"})" "\n"
      R"({"id":5,"type":"embed","features":[1,2,3]})";
  const std::string whole = AnswerStream(stream, 0);
  // Six answers: blank lines get none, the malformed line gets a
  // bad_request, and the unterminated last line is answered at EOF.
  ASSERT_EQ(std::count(whole.begin(), whole.end(), '\n'), 6) << whole;
  EXPECT_EQ(whole.find(R"({"id":1,"type":"embed","ok":true,)"), 0u);
  EXPECT_NE(whole.find("{\"id\":\"n\xC3\xA9\\\"3\",\"type\":\"neighbors\""),
            std::string::npos)
      << whole;
  EXPECT_NE(whole.find(R"({"ok":false,"error":"bad_request")"),
            std::string::npos);
  EXPECT_NE(whole.find(R"("uptime_s":T)"), std::string::npos);
  EXPECT_NE(whole.find(R"({"id":5,"type":"embed","ok":true,)"),
            std::string::npos);
  EXPECT_EQ(AnswerStream(stream, 1), whole);
  EXPECT_EQ(AnswerStream(stream, 7), whole);
}

TEST(EventServerTest, LinePastOneMebibyteIsRejectedAndClosed) {
  auto core = MakeCore(nullptr);
  EventServerOptions options;  // The default 1 MiB cap.
  EventServer server(options, core.get());
  ASSERT_TRUE(server.Start().ok());
  std::thread serve_thread([&] { ASSERT_TRUE(server.Serve().ok()); });

  const int fd = ConnectLoopback(server.port());
  // One byte past the cap, and no more: the server reads all of it before
  // it answers and closes.
  SendAll(fd, std::string(options.max_line_bytes + 1, 'x'));
  EXPECT_EQ(RecvLine(fd),
            R"({"ok":false,"error":"bad_request",)"
            R"("message":"request line exceeds 1 MiB"})");
  char ch = 0;
  EXPECT_EQ(::recv(fd, &ch, 1, 0), 0);
  ::close(fd);

  server.Stop();
  serve_thread.join();
}

TEST(EventServerTest, OversizedLineIsRejectedAndConnectionClosed) {
  auto core = MakeCore(nullptr);
  EventServerOptions options;
  options.max_line_bytes = 64;
  EventServer server(options, core.get());
  ASSERT_TRUE(server.Start().ok());
  std::thread serve_thread([&] { ASSERT_TRUE(server.Serve().ok()); });

  const int fd = ConnectLoopback(server.port());
  SendAll(fd, std::string(200, 'x') + "\n");
  const std::string reply = RecvLine(fd);
  auto parsed = ParseJson(reply);
  ASSERT_TRUE(parsed.ok()) << reply;
  EXPECT_FALSE(parsed->Find("ok")->boolean);
  EXPECT_EQ(parsed->Find("error")->string, "bad_request");
  // The server closes after flushing the rejection.
  char ch = 0;
  EXPECT_EQ(::recv(fd, &ch, 1, 0), 0);
  ::close(fd);

  server.Stop();
  serve_thread.join();
}

TEST(EventServerTest, TurnsAwayConnectionsPastTheCap) {
  auto core = MakeCore(nullptr);
  EventServerOptions options;
  options.max_connections = 1;
  EventServer server(options, core.get());
  ASSERT_TRUE(server.Start().ok());
  std::thread serve_thread([&] { ASSERT_TRUE(server.Serve().ok()); });

  const int held = ConnectLoopback(server.port());
  // One round trip guarantees the acceptor has registered the connection
  // before the second connect races it.
  SendAll(held, R"({"id": 1, "type": "embed", "features": [1.0, 2.0, 3.0]})"
                "\n");
  ASSERT_FALSE(RecvLine(held).empty());

  const int refused = ConnectLoopback(server.port());
  const std::string reply = RecvLine(refused);
  auto parsed = ParseJson(reply);
  ASSERT_TRUE(parsed.ok()) << reply;
  EXPECT_FALSE(parsed->Find("ok")->boolean);
  EXPECT_EQ(parsed->Find("error")->string, "overloaded");
  ::close(refused);
  ::close(held);

  server.Stop();
  serve_thread.join();
}

TEST(EventServerTest, NoFdLeakAcrossConnectionChurn) {
  auto core = MakeCore(nullptr);
  EventServerOptions options;
  options.shards = 2;
  EventServer server(options, core.get());
  ASSERT_TRUE(server.Start().ok());
  std::thread serve_thread([&] { ASSERT_TRUE(server.Serve().ok()); });

  const std::string request =
      R"({"id": 1, "type": "embed", "features": [1.0, 2.0, 3.0]})" "\n";
  const size_t before = CountOpenFds();
  for (int cycle = 0; cycle < 1000; ++cycle) {
    const int fd = ConnectLoopback(server.port());
    SendAll(fd, request);
    ASSERT_FALSE(RecvLine(fd).empty()) << "cycle " << cycle;
    ::close(fd);
  }
  // Workers reap a closed peer on their next epoll wake; give the last
  // few cycles a moment to be noticed before counting.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  size_t after = CountOpenFds();
  while (after > before && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    after = CountOpenFds();
  }
  // Slack for unrelated runtime fds (profiler, metrics scrapes), but a
  // per-cycle leak of even 1% would blow well past it.
  EXPECT_LE(after, before + 8);

  server.Stop();
  serve_thread.join();
}

TEST(EventServerTest, ReloadDuringLiveTrafficKeepsEveryConnectionWhole) {
  const data::Dataset corpus = TestCorpus();
  ServerCoreOptions core_options;
  core_options.shards = 2;
  auto core = MakeCore(&corpus, core_options, "v1.rll");
  EventServerOptions options;
  options.shards = 2;
  EventServer server(options, core.get());
  ASSERT_TRUE(server.Start().ok());
  std::thread serve_thread([&] { ASSERT_TRUE(server.Serve().ok()); });

  constexpr int kClients = 3;
  constexpr int kRequestsPerClient = 120;
  std::atomic<int> bad{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const int fd = ConnectLoopback(server.port());
      for (int i = 0; i < kRequestsPerClient; ++i) {
        const bool neighbors = i % 2 != 0;
        std::string request = "{\"id\": " + std::to_string(i) +
                              ", \"type\": \"" +
                              (neighbors ? "neighbors" : "embed") +
                              "\", \"features\": [" + std::to_string(c) +
                              ".5, -1.0, 2.0]" +
                              (neighbors ? ", \"k\": 3" : "") + "}\n";
        size_t sent = 0;
        while (sent < request.size()) {
          const ssize_t n = ::send(fd, request.data() + sent,
                                   request.size() - sent, MSG_NOSIGNAL);
          if (n <= 0) {
            bad.fetch_add(1, std::memory_order_relaxed);
            ::close(fd);
            return;
          }
          sent += static_cast<size_t>(n);
        }
        const std::string reply = RecvLine(fd);
        auto parsed = ParseJson(reply);
        if (!parsed.ok() || !parsed->Find("ok")->boolean) {
          bad.fetch_add(1, std::memory_order_relaxed);
        }
      }
      ::close(fd);
    });
  }

  // Swap generations repeatedly while the clients stream over TCP. Zero
  // dropped or failed requests is the contract.
  for (uint64_t swap = 0; swap < 3; ++swap) {
    ASSERT_TRUE(
        core->ReloadFromBundle(TestBundle(200 + swap), "swap.rll").ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  for (auto& client : clients) client.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(core->generation(), 4u);

  server.Stop();
  serve_thread.join();
  core->Shutdown();
}

}  // namespace
}  // namespace rll::serve
