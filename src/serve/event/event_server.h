// Epoll event plane for ServerCore: the production transport. One
// poll-based acceptor plus N shard workers, each running a non-blocking
// epoll loop over its own set of connections — no thread per connection,
// so ten thousand idle sockets cost two fds apiece and zero stacks.
//
// Connections are handed off round-robin: the acceptor enqueues the fd on
// a worker's intake queue and kicks its eventfd; from then on the worker
// owns the socket exclusively (read buffers, write buffers, epoll
// registration), so the per-connection state needs no locks at all.
// Framing is incremental — a request line may arrive across any number of
// reads, and responses that do not fit the socket buffer are parked in a
// per-connection write buffer and drained under EPOLLOUT. A connection
// whose write buffer grows past `max_write_buffer_bytes` stops being read
// (EPOLLIN disarmed) until the peer drains it: backpressure, not
// unbounded buffering.
//
// Wire semantics match the retired thread-per-connection transport
// exactly: newline-delimited JSON, \r stripped, blank lines skipped,
// lines past `max_line_bytes` answered with a structured bad_request and
// closed, a final unterminated line still answered at EOF, connections
// past `max_connections` turned away with an "overloaded" line. Malformed
// input never disconnects.
//
// The transport owns sockets and threads only — all request semantics
// live in ServerCore. Stop() (or the caller's stop flag, e.g. a SIGINT
// handler's sig_atomic_t) ends the accept loop; workers then drain:
// pending responses are flushed under a bounded deadline before the
// sockets close. The caller finishes with ServerCore::Shutdown().

#ifndef RLL_SERVE_EVENT_EVENT_SERVER_H_
#define RLL_SERVE_EVENT_EVENT_SERVER_H_

#include <atomic>
#include <csignal>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "serve/server_core.h"

namespace rll::serve {

struct EventServerOptions {
  /// Listen address. The default stays off the network: serving beyond
  /// localhost is an explicit operator decision.
  std::string host = "127.0.0.1";
  /// 0 picks an ephemeral port; read it back with port() after Start().
  int port = 0;
  /// Concurrent connections beyond this are turned away with an
  /// "overloaded" response line.
  size_t max_connections = 1024;
  /// Shard workers. Each runs one epoll loop; connections are distributed
  /// round-robin at accept time.
  size_t shards = 1;
  /// Requests are a few KB at most; a line past this is protocol abuse
  /// and the connection is answered with bad_request and closed rather
  /// than buffered without bound.
  size_t max_line_bytes = 1 << 20;
  /// Per-connection pending-response cap; past it the connection stops
  /// being read until the peer drains.
  size_t max_write_buffer_bytes = 4 << 20;
  /// How long a draining worker keeps flushing parked responses before
  /// closing the sockets out from under slow readers.
  int drain_deadline_ms = 1000;
};

class EventServer {
 public:
  EventServer(const EventServerOptions& options, ServerCore* core);
  ~EventServer();

  EventServer(const EventServer&) = delete;
  EventServer& operator=(const EventServer&) = delete;

  /// Binds and listens; spawns the shard workers ("rll-shard-N") and
  /// registers the transport-status provider on the core. port() is valid
  /// afterwards.
  Status Start();

  /// Blocking accept loop on the calling thread. Returns cleanly when
  /// Stop() is called or when *stop_flag becomes nonzero (polled every
  /// ~100 ms — the flag can be written from a signal handler). On return
  /// the workers have drained and joined.
  Status Serve(const volatile std::sig_atomic_t* stop_flag = nullptr);

  /// Ends the accept loop and wakes the workers into their drain path.
  /// Idempotent; safe from any thread (including concurrently with a
  /// blocked Serve(), which performs the actual teardown).
  void Stop();

  /// Bound port after Start() (resolves port 0 to the real one).
  int port() const { return port_; }
  size_t shard_count() const { return workers_.size(); }
  /// Connections currently owned by shard `s` (approximate: updated by
  /// the worker as connections open and close).
  size_t shard_connections(size_t s) const;

 private:
  /// Everything one shard worker owns. Connection state (buffers, epoll
  /// registration) lives only on the worker thread; the mutex covers just
  /// the accept-side intake queue.
  struct Worker {
    size_t index = 0;
    int epoll_fd = -1;
    /// Kicked by the acceptor on handoff and by Stop() for drain.
    int event_fd = -1;
    std::thread thread;
    Mutex mu;
    std::vector<int> intake RLL_GUARDED_BY(mu);
    /// Gauges mirrored for statusz/metricsz without touching the maps.
    std::atomic<size_t> connections{0};
    std::atomic<size_t> intake_depth{0};
    std::atomic<uint64_t> lines_handled{0};
  };

  /// One socket's event-loop state, owned by exactly one worker.
  struct Connection {
    std::string read_buf;
    /// Bytes accepted from HandleLine but not yet written to the socket.
    std::string write_buf;
    /// EPOLLOUT is armed (write_buf was non-empty at last flush).
    bool want_write = false;
    /// EPOLLIN disarmed under write-buffer backpressure.
    bool read_paused = false;
    /// Close as soon as write_buf drains (EOF seen or line-cap breach).
    bool close_after_flush = false;
  };

  void RunWorker(Worker* worker);
  /// Drains the intake queue into the epoll set.
  void AdoptIntake(Worker* worker, std::map<int, Connection>* conns);
  /// Reads until EAGAIN/EOF, frames lines, handles them, flushes.
  /// Returns false when the connection should be closed now.
  bool OnReadable(Worker* worker, int fd, Connection* conn);
  /// Writes as much of write_buf as the socket accepts; re-arms EPOLLOUT
  /// on partial progress and resumes reading once under the cap. Returns
  /// false when the connection should be closed now.
  bool FlushWrites(Worker* worker, int fd, Connection* conn);
  /// Frames and handles every complete line currently in read_buf.
  /// Returns false on a line-cap breach (error queued, close pending).
  bool ProcessFrames(Worker* worker, int fd, Connection* conn);
  /// Queues the bad_request for a line past `max_line_bytes` and marks the
  /// connection to close once it is flushed.
  void RejectOversizedLine(Connection* conn);
  void UpdateEpoll(Worker* worker, int fd, const Connection& conn);
  void CloseConnection(Worker* worker, int fd,
                       std::map<int, Connection>* conns);
  /// Flush-with-deadline then close everything: the SIGINT drain path.
  void DrainWorker(Worker* worker, std::map<int, Connection>* conns);
  void CloseListener();
  /// JSON object for statusz's "transport" key.
  std::string TransportStatusJson() const;

  const EventServerOptions options_;
  ServerCore* const core_;  // Not owned.
  /// Atomic because Stop() (any thread) closes it while the accept loop
  /// polls it; CloseListener's exchange makes the close idempotent.
  std::atomic<int> listen_fd_{-1};
  int port_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<bool> draining_{false};
  std::atomic<size_t> active_connections_{0};
  std::atomic<uint64_t> accepted_total_{0};
  /// Sized at Start(), structurally immutable afterwards (workers
  /// themselves are internally synchronized).
  std::vector<std::unique_ptr<Worker>> workers_;
};

}  // namespace rll::serve

#endif  // RLL_SERVE_EVENT_EVENT_SERVER_H_
