#include "serve/event/event_server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <string_view>
#include <utility>

#include "common/logging.h"
#include "common/strings.h"
#include "common/thread_registry.h"
#include "obs/metrics.h"
#include "obs/profiler.h"

namespace rll::serve {

namespace {

constexpr int kPollTimeoutMs = 100;
constexpr int kEpollBatch = 64;

/// Blocking full write, used only on the acceptor's turn-away path where
/// the fd is still in blocking mode (handles short writes; MSG_NOSIGNAL
/// so a vanished client surfaces as EPIPE, not SIGPIPE).
bool WriteAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

bool SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/// Wakes a worker blocked in epoll_wait.
void KickEventFd(int event_fd) {
  const uint64_t one = 1;
  // A full eventfd counter already guarantees a pending wakeup.
  [[maybe_unused]] const ssize_t n =
      ::write(event_fd, &one, sizeof(one));
}

bool IsBlank(const std::string& s) {
  return s.find_first_not_of(" \t\r") == std::string::npos;
}

}  // namespace

EventServer::EventServer(const EventServerOptions& options, ServerCore* core)
    : options_(options), core_(core) {}

EventServer::~EventServer() {
  Stop();
  // Workers may still be parked in epoll_wait if Serve() was never
  // entered (Start-then-destroy); join them here.
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
    if (worker->epoll_fd >= 0) ::close(worker->epoll_fd);
    if (worker->event_fd >= 0) ::close(worker->event_fd);
  }
  core_->SetTransportStatusProvider(nullptr);
}

Status EventServer::Start() {
  if (options_.shards == 0) {
    return Status::InvalidArgument("shards must be >= 1");
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  listen_fd_.store(fd, std::memory_order_release);
  const int reuse = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    CloseListener();
    return Status::InvalidArgument("cannot parse listen host: " +
                                   options_.host);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const Status status = Status::IOError(
        "bind " + options_.host + ":" + std::to_string(options_.port) +
        ": " + std::strerror(errno));
    CloseListener();
    return status;
  }
  if (::listen(fd, 128) != 0) {
    const Status status =
        Status::IOError(std::string("listen: ") + std::strerror(errno));
    CloseListener();
    return status;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
    port_ = ntohs(bound.sin_port);
  }

  workers_.reserve(options_.shards);
  for (size_t s = 0; s < options_.shards; ++s) {
    auto worker = std::make_unique<Worker>();
    worker->index = s;
    worker->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    if (worker->epoll_fd < 0) {
      CloseListener();
      return Status::IOError(std::string("epoll_create1: ") +
                             std::strerror(errno));
    }
    worker->event_fd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    if (worker->event_fd < 0) {
      ::close(worker->epoll_fd);
      CloseListener();
      return Status::IOError(std::string("eventfd: ") +
                             std::strerror(errno));
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = worker->event_fd;
    if (::epoll_ctl(worker->epoll_fd, EPOLL_CTL_ADD, worker->event_fd,
                    &ev) != 0) {
      ::close(worker->epoll_fd);
      ::close(worker->event_fd);
      CloseListener();
      return Status::IOError(std::string("epoll_ctl: ") +
                             std::strerror(errno));
    }
    workers_.push_back(std::move(worker));
  }
  for (auto& worker : workers_) {
    worker->thread = std::thread([this, w = worker.get()] { RunWorker(w); });
  }
  core_->SetTransportStatusProvider(
      [this] { return TransportStatusJson(); });
  return Status::OK();
}

size_t EventServer::shard_connections(size_t s) const {
  return workers_[s]->connections.load(std::memory_order_relaxed);
}

std::string EventServer::TransportStatusJson() const {
  std::string out = StrFormat("{\"max_connections\":%zu,\"shard_count\":%zu",
                              options_.max_connections, workers_.size());
  out += ",\"shards\":[";
  for (size_t s = 0; s < workers_.size(); ++s) {
    const Worker& w = *workers_[s];
    if (s > 0) out += ",";
    out += StrFormat(
        "{\"connections\":%zu,\"intake\":%zu,\"lines\":%llu}",
        w.connections.load(std::memory_order_relaxed),
        w.intake_depth.load(std::memory_order_relaxed),
        static_cast<unsigned long long>(
            w.lines_handled.load(std::memory_order_relaxed)));
  }
  out += "],\"type\":\"epoll\"}";
  return out;
}

Status EventServer::Serve(const volatile std::sig_atomic_t* stop_flag) {
  if (listen_fd_.load(std::memory_order_acquire) < 0) {
    return Status::FailedPrecondition("Serve called before Start");
  }
  obs::Gauge* active =
      obs::MetricRegistry::Global().GetGauge("serve_connections_active");
  obs::Counter* accepted =
      obs::MetricRegistry::Global().GetCounter("serve_connections_total");

  size_t next_shard = 0;
  Status status = Status::OK();
  while (!stop_.load(std::memory_order_acquire) &&
         (stop_flag == nullptr || *stop_flag == 0)) {
    // Reloaded every iteration: a concurrent Stop() closes the socket and
    // stores -1, and the loop must never poll a dead (or recycled) fd.
    const int listen_fd = listen_fd_.load(std::memory_order_acquire);
    if (listen_fd < 0) break;
    pollfd pfd{listen_fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, kPollTimeoutMs);
    if (ready < 0) {
      if (errno == EINTR) continue;  // Signal delivery; loop re-checks.
      if (stop_.load(std::memory_order_acquire)) break;
      status = Status::IOError(std::string("poll: ") + std::strerror(errno));
      break;
    }
    if (ready == 0) continue;  // Timeout tick: re-check the stop flags.

    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (stop_.load(std::memory_order_acquire)) break;
      status =
          Status::IOError(std::string("accept: ") + std::strerror(errno));
      break;
    }
    accepted->Increment();
    accepted_total_.fetch_add(1, std::memory_order_relaxed);

    if (active_connections_.load(std::memory_order_relaxed) >=
        options_.max_connections) {
      WriteAll(fd, SerializeResponse(MakeErrorResponse(
                       "", ServeError::kOverloaded,
                       "too many concurrent connections")) +
                       "\n");
      ::close(fd);
      continue;
    }
    if (!SetNonBlocking(fd)) {
      ::close(fd);
      continue;
    }

    active_connections_.fetch_add(1, std::memory_order_relaxed);
    active->Set(static_cast<double>(
        active_connections_.load(std::memory_order_relaxed)));
    Worker* worker = workers_[next_shard].get();
    next_shard = (next_shard + 1) % workers_.size();
    {
      MutexLock lock(worker->mu);
      worker->intake.push_back(fd);
      worker->intake_depth.store(worker->intake.size(),
                                 std::memory_order_relaxed);
    }
    KickEventFd(worker->event_fd);
  }

  // Teardown: stop accepting, then let every worker drain and join. Done
  // here (not in Stop) so exactly one thread runs the joins.
  Stop();
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
  active->Set(0.0);
  return status;
}

void EventServer::Stop() {
  stop_.store(true, std::memory_order_release);
  CloseListener();
  draining_.store(true, std::memory_order_release);
  for (auto& worker : workers_) {
    if (worker->event_fd >= 0) KickEventFd(worker->event_fd);
  }
}

void EventServer::CloseListener() {
  const int fd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
  if (fd >= 0) ::close(fd);
}

void EventServer::RunWorker(Worker* worker) {
  // Shard workers are where every byte is parsed and every response
  // serialized — name them and give them a profiler buffer so that time
  // is attributed, not "unattributed".
  SetCurrentThreadName(StrFormat("rll-shard-%zu", worker->index));
  obs::RegisterProfilerThread();
  obs::Gauge* shard_gauge = obs::MetricRegistry::Global().GetGauge(
      "serve_shard_connections", {{"shard", std::to_string(worker->index)}});
  obs::Counter* shard_lines = obs::MetricRegistry::Global().GetCounter(
      "serve_shard_lines_total", {{"shard", std::to_string(worker->index)}});

  std::map<int, Connection> conns;
  epoll_event events[kEpollBatch];
  while (!draining_.load(std::memory_order_acquire)) {
    const int n =
        ::epoll_wait(worker->epoll_fd, events, kEpollBatch, kPollTimeoutMs);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == worker->event_fd) {
        uint64_t drained;
        while (::read(worker->event_fd, &drained, sizeof(drained)) > 0) {
        }
        AdoptIntake(worker, &conns);
        shard_gauge->Set(static_cast<double>(conns.size()));
        continue;
      }
      auto it = conns.find(fd);
      if (it == conns.end()) continue;  // Closed earlier in this batch.
      Connection* conn = &it->second;
      bool alive = true;
      const uint64_t before =
          worker->lines_handled.load(std::memory_order_relaxed);
      if ((events[i].events & EPOLLOUT) != 0) {
        alive = FlushWrites(worker, fd, conn);
      }
      // EPOLLHUP/EPOLLERR still route through the read path: recv returns
      // any bytes the peer flushed before dying, then 0/-1 closes cleanly.
      if (alive &&
          (events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0) {
        alive = OnReadable(worker, fd, conn);
      }
      const uint64_t after =
          worker->lines_handled.load(std::memory_order_relaxed);
      if (after != before) {
        shard_lines->Increment(after - before);
      }
      if (!alive) {
        CloseConnection(worker, fd, &conns);
        shard_gauge->Set(static_cast<double>(conns.size()));
      }
    }
  }
  DrainWorker(worker, &conns);
  shard_gauge->Set(0.0);
}

void EventServer::AdoptIntake(Worker* worker,
                              std::map<int, Connection>* conns) {
  std::vector<int> fresh;
  {
    MutexLock lock(worker->mu);
    fresh.swap(worker->intake);
    worker->intake_depth.store(0, std::memory_order_relaxed);
  }
  for (int fd : fresh) {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(worker->epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      active_connections_.fetch_sub(1, std::memory_order_relaxed);
      continue;
    }
    (*conns)[fd] = Connection{};
  }
  worker->connections.store(conns->size(), std::memory_order_relaxed);
}

bool EventServer::ProcessFrames(Worker* worker, int fd, Connection* conn) {
  (void)fd;
  // Each line is a view into read_buf, which nothing below touches until
  // the consumed prefix is erased; answers are appended to write_buf in
  // place.
  const std::string_view buf = conn->read_buf;
  size_t start = 0;
  for (size_t nl = buf.find('\n', start); nl != std::string_view::npos;
       nl = buf.find('\n', start)) {
    std::string_view line = buf.substr(start, nl - start);
    start = nl + 1;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.find_first_not_of(" \t") == std::string_view::npos) continue;
    if (line.size() > options_.max_line_bytes) {
      conn->read_buf.erase(0, start);
      RejectOversizedLine(conn);
      return false;
    }
    core_->HandleLine(line, &conn->write_buf);
    conn->write_buf.push_back('\n');
    worker->lines_handled.fetch_add(1, std::memory_order_relaxed);
  }
  conn->read_buf.erase(0, start);
  // A partial line past the cap will never grow a terminator we accept.
  if (conn->read_buf.size() > options_.max_line_bytes) {
    RejectOversizedLine(conn);
    return false;
  }
  return true;
}

void EventServer::RejectOversizedLine(Connection* conn) {
  AppendResponse(MakeErrorResponse("", ServeError::kBadRequest,
                                   "request line exceeds 1 MiB"),
                 &conn->write_buf);
  conn->write_buf.push_back('\n');
  conn->close_after_flush = true;
  conn->read_paused = true;
}

bool EventServer::OnReadable(Worker* worker, int fd, Connection* conn) {
  char chunk[4096];
  bool saw_eof = false;
  while (!conn->read_paused && !conn->close_after_flush) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return false;  // Connection error: drop it, nothing to salvage.
    }
    if (n == 0) {
      saw_eof = true;
      break;
    }
    conn->read_buf.append(chunk, static_cast<size_t>(n));
    if (!ProcessFrames(worker, fd, conn)) break;
    if (conn->write_buf.size() > options_.max_write_buffer_bytes) {
      // Backpressure: stop reading until the peer drains what it owes us.
      conn->read_paused = true;
    }
  }
  if (saw_eof) {
    // A final unterminated line still gets an answer (nc-without-newline),
    // delivered through the flush path before the close.
    if (!conn->read_buf.empty() && !IsBlank(conn->read_buf)) {
      core_->HandleLine(conn->read_buf, &conn->write_buf);
      conn->write_buf.push_back('\n');
      worker->lines_handled.fetch_add(1, std::memory_order_relaxed);
      conn->read_buf.clear();
    }
    conn->close_after_flush = true;
    conn->read_paused = true;
  }
  return FlushWrites(worker, fd, conn);
}

bool EventServer::FlushWrites(Worker* worker, int fd, Connection* conn) {
  std::string& buf = conn->write_buf;
  size_t sent = 0;
  while (sent < buf.size()) {
    const ssize_t n =
        ::send(fd, buf.data() + sent, buf.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      return false;  // Peer is gone; parked bytes are undeliverable.
    }
    sent += static_cast<size_t>(n);
  }
  buf.erase(0, sent);
  if (buf.empty()) {
    if (conn->close_after_flush) return false;
    conn->want_write = false;
    if (conn->read_paused) conn->read_paused = false;  // Backpressure off.
  } else {
    conn->want_write = true;
  }
  UpdateEpoll(worker, fd, *conn);
  return true;
}

void EventServer::UpdateEpoll(Worker* worker, int fd,
                              const Connection& conn) {
  epoll_event ev{};
  ev.events = (conn.read_paused ? 0u : static_cast<uint32_t>(EPOLLIN)) |
              (conn.want_write ? static_cast<uint32_t>(EPOLLOUT) : 0u);
  ev.data.fd = fd;
  ::epoll_ctl(worker->epoll_fd, EPOLL_CTL_MOD, fd, &ev);
}

void EventServer::CloseConnection(Worker* worker, int fd,
                                  std::map<int, Connection>* conns) {
  ::epoll_ctl(worker->epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  conns->erase(fd);
  worker->connections.store(conns->size(), std::memory_order_relaxed);
  active_connections_.fetch_sub(1, std::memory_order_relaxed);
}

void EventServer::DrainWorker(Worker* worker,
                              std::map<int, Connection>* conns) {
  // Adopt any connections still parked on the intake queue so their fds
  // are accounted for (and closed) rather than leaked.
  AdoptIntake(worker, conns);
  // Flush parked responses under a bounded deadline: a graceful stop
  // should not swallow answers already produced, but one stalled reader
  // must not hold the process open either.
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(options_.drain_deadline_ms);
  epoll_event events[kEpollBatch];
  for (;;) {
    bool pending = false;
    for (auto it = conns->begin(); it != conns->end();) {
      const int fd = it->first;
      Connection* conn = &it->second;
      ++it;  // FlushWrites may close (erase) behind us.
      if (conn->write_buf.empty()) continue;
      if (!FlushWrites(worker, fd, conn)) {
        CloseConnection(worker, fd, conns);
      } else if (!conn->write_buf.empty()) {
        pending = true;
      }
    }
    const auto now = std::chrono::steady_clock::now();
    if (!pending || now >= deadline) break;
    const int wait_ms = static_cast<int>(std::min<int64_t>(
        50, std::chrono::duration_cast<std::chrono::milliseconds>(deadline -
                                                                  now)
                .count() +
            1));
    ::epoll_wait(worker->epoll_fd, events, kEpollBatch, wait_ms);
  }
  while (!conns->empty()) {
    CloseConnection(worker, conns->begin()->first, conns);
  }
  worker->connections.store(0, std::memory_order_relaxed);
}

}  // namespace rll::serve
