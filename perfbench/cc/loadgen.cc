#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <deque>
#include <string_view>

#include "common/rng.h"
#include "util.h"

namespace perfbench {

const char* ReqTypeName(ReqType type) {
  switch (type) {
    case ReqType::kEmbed:
      return "embed";
    case ReqType::kPredict:
      return "predict";
    case ReqType::kNeighbors:
      return "neighbors";
  }
  return "embed";
}

namespace {

/// How long after the last scheduled send unanswered requests are still
/// waited for before they count as missing.
constexpr int64_t kDrainNs = 5'000'000'000;

int ConnectLoopback(int port) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    close(fd);
    return -1;
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

struct InFlight {
  uint64_t id;
  WireRequest request;
  int64_t due_ns;   // Latency origin: scheduled arrival or send time.
  int64_t send_ns;
};

struct Conn {
  int fd = -1;
  bool open = false;
  bool want_out = false;
  std::string out;
  std::string in;
  std::deque<InFlight> inflight;
};

bool StartsWithId(std::string_view line, uint64_t id) {
  char prefix[40];
  const int n = std::snprintf(prefix, sizeof(prefix), "{\"id\":%llu,",
                              static_cast<unsigned long long>(id));
  return line.size() >= static_cast<size_t>(n) &&
         line.compare(0, static_cast<size_t>(n), prefix) == 0;
}

bool IsOk(std::string_view line) {
  // "ok" follows the echoed id and type, so it sits in the first bytes.
  return line.substr(0, 96).find("\"ok\":true") != std::string_view::npos;
}

}  // namespace

LoadResult RunLoad(int port, const LoadSpec& spec, const PickFn& pick,
                   const LineFn& line) {
  LoadResult r;
  std::vector<int64_t> schedule_ns;  // Offsets from start (open loop).
  if (spec.open_loop) {
    rll::Rng rng(spec.seed);
    double t = 0.0;
    for (;;) {
      t += -std::log(1.0 - rng.Uniform()) / spec.rate_per_s;
      if (t >= spec.seconds) break;
      schedule_ns.push_back(static_cast<int64_t>(t * 1e9));
    }
  }

  const int ep = epoll_create1(EPOLL_CLOEXEC);
  std::vector<Conn> conns(spec.connections);
  for (size_t c = 0; c < conns.size(); ++c) {
    conns[c].fd = ConnectLoopback(port);
    if (conns[c].fd < 0) {
      r.error = "connect failed: " + std::string(std::strerror(errno));
      r.attempted = r.failed = 1;
      for (Conn& open : conns) {
        if (open.fd >= 0) close(open.fd);
      }
      close(ep);
      return r;
    }
    fcntl(conns[c].fd, F_SETFL, fcntl(conns[c].fd, F_GETFL) | O_NONBLOCK);
    conns[c].open = true;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = c;
    epoll_ctl(ep, EPOLL_CTL_ADD, conns[c].fd, &ev);
  }

  uint64_t next = 0;
  size_t inflight = 0;
  size_t open_conns = 0;
  for (const Conn& c : conns) open_conns += c.open ? 1 : 0;

  auto rearm = [&](size_t c, bool want_out) {
    if (conns[c].want_out == want_out) return;
    conns[c].want_out = want_out;
    epoll_event ev{};
    ev.events = EPOLLIN | (want_out ? EPOLLOUT : 0u);
    ev.data.u64 = c;
    epoll_ctl(ep, EPOLL_CTL_MOD, conns[c].fd, &ev);
  };
  auto flush = [&](size_t c) {
    Conn& conn = conns[c];
    while (!conn.out.empty()) {
      const ssize_t n = write(conn.fd, conn.out.data(), conn.out.size());
      if (n > 0) {
        conn.out.erase(0, static_cast<size_t>(n));
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        break;  // EAGAIN (wait for EPOLLOUT) or an error (seen on read).
      }
    }
    rearm(c, !conn.out.empty());
  };
  auto send = [&](size_t c, int64_t due_ns) {
    Conn& conn = conns[c];
    const uint64_t id = spec.first_id + next;
    const WireRequest request = pick(next);
    ++next;
    ++r.attempted;
    if (!conn.open) {
      ++r.failed;
      return;
    }
    conn.out += line(id, request);
    const int64_t now = NowNs();
    conn.inflight.push_back({id, request, due_ns < 0 ? now : due_ns, now});
    ++inflight;
    flush(c);
  };

  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(spec.seconds * 1e9);
  const int64_t window_ns = static_cast<int64_t>(spec.window_s * 1e9);
  Histogram window_latency;
  Window window;
  auto close_window = [&] {
    window.p50_ms = window_latency.Percentile(0.5);
    window.tail_ms = window_latency.Percentile(spec.tail_q);
    window.beyond_tail = window_latency.Beyond(spec.tail_q);
    r.windows.push_back(window);
    window = Window();
    window_latency.Clear();
  };
  if (!spec.open_loop) {
    for (size_t c = 0; c < conns.size(); ++c) send(c, -1);
  }

  auto complete = [&](size_t c, std::string_view response, int64_t now) {
    Conn& conn = conns[c];
    if (conn.inflight.empty()) {
      ++r.failed;
      if (r.error.empty()) r.error = "unsolicited response";
      return;
    }
    const InFlight f = conn.inflight.front();
    conn.inflight.pop_front();
    --inflight;
    while (start + static_cast<int64_t>(r.windows.size() + 1) * window_ns <=
           now) {
      close_window();
    }
    const double ms = static_cast<double>(now - f.due_ns) / 1e6;
    r.latency_ms.Add(ms);
    window_latency.Add(ms);
    if (StartsWithId(response, f.id) && IsOk(response)) {
      ++r.ok;
      ++window.ok;
    } else {
      ++r.failed;
      if (r.error.empty()) r.error = std::string(response.substr(0, 200));
    }
    if (f.id % spec.sample_every == 0 &&
        r.samples.size() < spec.max_samples) {
      r.samples.push_back(
          {f.id, f.request, f.send_ns, now, std::string(response)});
    }
    if (!spec.open_loop && now < end) send(c, -1);
  };
  auto on_readable = [&](size_t c) {
    Conn& conn = conns[c];
    char buf[65536];
    for (;;) {
      const ssize_t n = read(conn.fd, buf, sizeof(buf));
      if (n > 0) {
        conn.in.append(buf, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && errno == EAGAIN) break;
      // EOF or error: whatever is still in flight here is lost.
      conn.open = false;
      --open_conns;
      epoll_ctl(ep, EPOLL_CTL_DEL, conn.fd, nullptr);
      break;
    }
    const int64_t now = NowNs();
    size_t pos = 0;
    for (;;) {
      const size_t nl = conn.in.find('\n', pos);
      if (nl == std::string::npos) break;
      complete(c, std::string_view(conn.in).substr(pos, nl - pos), now);
      pos = nl + 1;
    }
    conn.in.erase(0, pos);
    if (!conn.open) {
      r.failed += conn.inflight.size();
      inflight -= conn.inflight.size();
      conn.inflight.clear();
      if (r.error.empty()) r.error = "server closed a connection";
    }
  };

  const int64_t last_due =
      spec.open_loop ? start + (schedule_ns.empty() ? 0 : schedule_ns.back())
                     : end;
  epoll_event events[16];
  for (;;) {
    const int64_t now = NowNs();
    if (spec.open_loop) {
      while (next < schedule_ns.size() && start + schedule_ns[next] <= now) {
        const int64_t due = start + schedule_ns[next];
        r.late_ms.Add(static_cast<double>(now - due) / 1e6);
        send(next % conns.size(), due);
      }
    }
    const bool all_sent =
        spec.open_loop ? next == schedule_ns.size() : now >= end;
    if (all_sent && inflight == 0) break;
    if (now > last_due + kDrainNs || open_conns == 0) break;
    int64_t wait_ns = 50'000'000;
    if (spec.open_loop && next < schedule_ns.size()) {
      wait_ns = std::max<int64_t>(0, start + schedule_ns[next] - now);
    }
    const timespec timeout{static_cast<time_t>(wait_ns / 1'000'000'000),
                           static_cast<long>(wait_ns % 1'000'000'000)};
    const int n = epoll_pwait2(ep, events, 16, &timeout, nullptr);
    for (int i = 0; i < n; ++i) {
      const size_t c = static_cast<size_t>(events[i].data.u64);
      if (!conns[c].open) continue;
      if (events[i].events & EPOLLOUT) flush(c);
      if (events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) on_readable(c);
    }
  }
  const int64_t finish = NowNs();
  while (start + static_cast<int64_t>(r.windows.size() + 1) * window_ns <=
         std::min(finish, end)) {
    close_window();
  }
  if (inflight > 0) {
    r.failed += inflight;
    if (r.error.empty()) r.error = "requests left unanswered";
  }
  for (Conn& c : conns) {
    if (c.fd >= 0) close(c.fd);
  }
  close(ep);
  return r;
}

LineClient::~LineClient() {
  if (fd_ >= 0) close(fd_);
}

bool LineClient::Connect(int port) {
  fd_ = ConnectLoopback(port);
  return fd_ >= 0;
}

std::string LineClient::Call(const std::string& line) {
  if (fd_ < 0) return "";
  size_t sent = 0;
  while (sent < line.size()) {
    const ssize_t n = write(fd_, line.data() + sent, line.size() - sent);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return "";
    sent += static_cast<size_t>(n);
  }
  for (;;) {
    const size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      std::string out = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      return out;
    }
    char buf[65536];
    const ssize_t n = read(fd_, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return "";
    buffer_.append(buf, static_cast<size_t>(n));
  }
}

}  // namespace perfbench
