// Client side of the serving workloads: newline-delimited JSON over
// loopback TCP to an in-process EventServer.
//
// RunLoad drives C connections from the calling thread with one epoll
// loop, so the generator is a single busy thread:
//
//   closed loop  each connection keeps one request in flight and sends
//                the next as soon as its response line arrives; latency is
//                timed from the send.
//   open loop    a seeded Poisson schedule at a fixed rate, request i on
//                connection i % C (pipelined: a connection may hold many
//                requests); latency is timed from the scheduled arrival,
//                so a stall is charged to every request queued behind it,
//                and the generator's own lag behind the schedule is
//                recorded.
//
// Responses on one connection come back in request order (a shard handles
// a connection's lines one at a time), which is how a response is matched
// to its request; the echoed id is checked too.

#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util.h"

namespace perfbench {

enum class ReqType : uint8_t { kEmbed = 0, kPredict = 1, kNeighbors = 2 };

const char* ReqTypeName(ReqType type);

struct WireRequest {
  uint32_t row = 0;
  ReqType type = ReqType::kEmbed;
};

/// Serialized request line for (id, request), newline-terminated.
using LineFn = std::function<std::string(uint64_t id, const WireRequest&)>;
/// The i-th request of the stream (deterministic in i and the seed).
using PickFn = std::function<WireRequest(uint64_t i)>;

struct LoadSpec {
  bool open_loop = false;
  size_t connections = 4;
  /// Open loop only.
  double rate_per_s = 0.0;
  double seconds = 1.0;
  uint64_t seed = 1;
  /// Keep every Nth response (by request id) for the correctness checks,
  /// at most max_samples of them (memory stays flat at any rate).
  uint64_t sample_every = 64;
  size_t max_samples = 8192;
  /// Ids start here, so a warm-up and the measured run never share ids.
  uint64_t first_id = 0;
  /// Length of the windows LoadResult::windows splits the run into, and
  /// the tail percentile each window reports.
  double window_s = 1.0;
  double tail_q = 0.99;
};

/// Responses that arrived in one window of the run, by arrival time.
struct Window {
  uint64_t ok = 0;
  double p50_ms = 0.0;
  double tail_ms = 0.0;  // At LoadSpec::tail_q.
  uint64_t beyond_tail = 0;
};

struct Sampled {
  uint64_t id = 0;
  WireRequest request;
  int64_t send_ns = 0;  // Actual send time.
  int64_t recv_ns = 0;
  std::string response;
};

struct LoadResult {
  /// One sample per response received (ok or not), in milliseconds.
  Histogram latency_ms;
  /// Open loop: how late each send was against its schedule.
  Histogram late_ms;
  uint64_t attempted = 0;
  uint64_t ok = 0;
  /// Responses with ok:false or a wrong id, plus requests never answered.
  uint64_t failed = 0;
  /// Every whole window of the run in order; a trailing partial one (the
  /// drain after the last send) is left out.
  std::vector<Window> windows;
  std::vector<Sampled> samples;
  /// First failure, for the log.
  std::string error;
};

LoadResult RunLoad(int port, const LoadSpec& spec, const PickFn& pick,
                   const LineFn& line);

/// Blocking one-request-at-a-time client (admin verbs, serial probes).
class LineClient {
 public:
  LineClient() = default;
  ~LineClient();
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  bool Connect(int port);
  /// Sends `line` (newline-terminated) and returns the response line
  /// without its newline; empty on a transport error.
  std::string Call(const std::string& line);

 private:
  int fd_ = -1;
  std::string buffer_;
};

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
