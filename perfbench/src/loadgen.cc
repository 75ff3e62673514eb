#include "loadgen.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstring>
#include <ctime>
#include <thread>

#include "common.h"

namespace perfbench {

namespace {

/// How long the generator waits for outstanding replies after the window.
constexpr int64_t kGraceNs = 1'000'000'000;

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

void AppendInt(int64_t v, std::string* out) {
  char buf[24];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, r.ptr);
}

struct Conn {
  int fd = -1;
  bool want_write = false;
  bool closed = false;
  std::string outbuf;
  size_t out_off = 0;
  std::string inbuf;
};

bool SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

int Connect(int port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      !SetNonBlocking(fd)) {
    close(fd);
    return -1;
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

}  // namespace

void Schedule::AppendPayload(const Op& op, std::string* out) const {
  switch (op.verb) {
    case Op::kScore:
      out->append("SCORE ");
      AppendInt(op.day, out);
      out->push_back(' ');
      AppendInt(op.arg, out);
      break;
    case Op::kRank:
      out->append("RANK ");
      AppendInt(op.day, out);
      out->push_back(' ');
      AppendInt(op.arg, out);
      break;
    case Op::kScoreN:
      out->append("SCOREN ");
      AppendInt(op.day, out);
      out->push_back(' ');
      AppendInt(op.arg, out);
      for (int32_t i = 0; i < op.arg; ++i) {
        out->push_back(' ');
        AppendInt(pool[op.stocks + static_cast<uint32_t>(i)], out);
      }
      break;
  }
  if (op.deadline_ms > 0) {
    out->append(" DEADLINE ");
    AppendInt(op.deadline_ms, out);
  }
}

Schedule MakeSchedule(double rate, double window_s, uint64_t seed,
                      const std::function<void(int64_t, Rng*, Schedule*)>&
                          make) {
  // A Poisson process conditioned on its count: exactly rate * window_s
  // arrivals at sorted uniform times, so the offered load does not vary
  // with the seed.
  Schedule schedule;
  schedule.window_s = window_s;
  Rng rng(seed);
  std::vector<double> times(static_cast<size_t>(std::llround(rate * window_s)));
  for (double& t : times) t = rng.Uniform() * window_s;
  std::sort(times.begin(), times.end());
  for (const double t : times) make(static_cast<int64_t>(t * 1e9), &rng, &schedule);
  return schedule;
}

LoadReport RunLoad(const Schedule& schedule, const LoadOptions& options,
                   const Checker& checker) {
  LoadReport report;
  const std::vector<Op>& ops = schedule.ops;
  const size_t n = ops.size();
  const bool closed_loop = options.in_flight > 0;
  report.latency_us.reserve(n);
  if (!closed_loop) report.late_us.reserve(n);
  // Closed loop: when each request was queued for writing.
  std::vector<int64_t> sent_at(closed_loop ? n : 0);
  // Finer timer slack keeps short sleeps close to the next due time.
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);

  const int ep = epoll_create1(0);
  std::vector<Conn> conns(std::max(1u, std::thread::hardware_concurrency()));
  for (size_t c = 0; c < conns.size(); ++c) {
    conns[c].fd = Connect(options.port);
    if (conns[c].fd < 0) {
      report.protocol_error = "connect failed: " + std::string(strerror(errno));
      for (Conn& done : conns) {
        if (done.fd >= 0) close(done.fd);
      }
      close(ep);
      return report;
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = c;
    epoll_ctl(ep, EPOLL_CTL_ADD, conns[c].fd, &ev);
  }

  // Per request: 0 = not queued, 1 = queued or in flight, 2 = answered.
  std::vector<uint8_t> state(n, 0);
  int64_t outstanding = 0;
  size_t next = 0;
  const int64_t window_ns = static_cast<int64_t>(schedule.window_s * 1e9);
  bool mid_seen = false;
  bool sending = n > 0;
  int64_t last_send_rel = 0;
  // Open loop: a small lead before the first due time, to settle.
  const int64_t t0 = NowNanos() + (closed_loop ? 0 : 2'000'000);
  const double cpu0 = ProcessCpuSeconds(), gen_cpu0 = ThreadCpuSeconds();
  std::string line;

  auto send_next = [&](int64_t rel) {
    const Op& op = ops[next];
    Conn& conn = conns[next % conns.size()];
    line.clear();
    line.append("2 ");
    AppendInt(static_cast<int64_t>(next + 1), &line);
    line.push_back(' ');
    schedule.AppendPayload(op, &line);
    line.push_back('\n');
    conn.outbuf.append(line);
    state[next] = 1;
    ++outstanding;
    if (closed_loop) {
      sent_at[next] = rel;
    } else {
      report.late_us.push_back(static_cast<double>(rel - op.due_ns) * 1e-3);
    }
    ++next;
  };

  auto flush = [&](size_t c) {
    Conn& conn = conns[c];
    while (conn.out_off < conn.outbuf.size()) {
      const ssize_t w =
          send(conn.fd, conn.outbuf.data() + conn.out_off,
               conn.outbuf.size() - conn.out_off, MSG_NOSIGNAL);
      if (w > 0) {
        const char* written = conn.outbuf.data() + conn.out_off;
        report.sent += static_cast<uint64_t>(std::count(written, written + w, '\n'));
        conn.out_off += static_cast<size_t>(w);
        continue;
      }
      if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (w < 0 && errno == EINTR) continue;
      conn.closed = true;
      break;
    }
    if (conn.out_off == conn.outbuf.size()) {
      conn.outbuf.clear();
      conn.out_off = 0;
    } else if (conn.out_off > (1u << 20)) {
      conn.outbuf.erase(0, conn.out_off);
      conn.out_off = 0;
    }
    const bool want = !conn.outbuf.empty() && !conn.closed;
    if (want != conn.want_write) {
      epoll_event ev{};
      ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
      ev.data.u64 = c;
      epoll_ctl(ep, EPOLL_CTL_MOD, conn.fd, &ev);
      conn.want_write = want;
    }
  };

  // A line that answers no request in flight on its connection is counted
  // as an error, so it also shows in the client invariant.
  auto unmatched = [&](const char* why, std::string_view text) {
    ++report.errors;
    if (report.protocol_error.empty()) {
      report.protocol_error = why + std::string(text.substr(0, 80));
    }
  };

  auto on_reply = [&](size_t c, std::string_view text, int64_t rel) {
    // "2 <id> <payload>"
    uint64_t id = 0;
    const char* p = text.data();
    const char* end = text.data() + text.size();
    if (text.size() < 4 || p[0] != '2' || p[1] != ' ') {
      unmatched("unframed reply: ", text);
      return;
    }
    const auto r = std::from_chars(p + 2, end, id);
    if (r.ec != std::errc() || r.ptr == end || *r.ptr != ' ' || id == 0 ||
        id > n || (id - 1) % conns.size() != c) {
      unmatched("reply with unexpected id: ", text);
      return;
    }
    const size_t idx = id - 1;
    if (state[idx] != 1) {
      unmatched(state[idx] == 2 ? "duplicate reply: " : "reply before its request: ",
                text);
      return;
    }
    state[idx] = 2;
    --outstanding;
    const Op& op = ops[idx];
    const int64_t from = closed_loop ? sent_at[idx] : op.due_ns;
    report.latency_us.push_back(static_cast<double>(rel - from) * 1e-3);
    report.reply_bytes[op.verb] += text.size() + 1;
    const std::string_view payload(r.ptr + 1, static_cast<size_t>(end - r.ptr - 1));
    switch (checker(schedule, op, payload)) {
      case Verdict::kOk:
        ++report.ok;
        break;
      case Verdict::kMismatch:
        ++report.ok;
        ++report.mismatched;
        break;
      case Verdict::kBusy:
        ++report.busy;
        break;
      case Verdict::kDeadline:
        ++report.deadline;
        break;
      case Verdict::kError:
        ++report.errors;
        break;
    }
  };

  auto on_readable = [&](size_t c) {
    Conn& conn = conns[c];
    char buf[65536];
    for (;;) {
      const ssize_t got = recv(conn.fd, buf, sizeof(buf), 0);
      if (got > 0) {
        conn.inbuf.append(buf, static_cast<size_t>(got));
        continue;
      }
      if (got == 0) {
        conn.closed = true;
      } else if (errno == EINTR) {
        continue;
      } else if (errno != EAGAIN && errno != EWOULDBLOCK) {
        conn.closed = true;
      }
      break;
    }
    if (conn.closed) {
      epoll_ctl(ep, EPOLL_CTL_DEL, conn.fd, nullptr);
      if (report.protocol_error.empty()) {
        report.protocol_error = "server closed a connection";
      }
    }
    const int64_t rel = NowNanos() - t0;
    size_t start = 0;
    for (;;) {
      const size_t nl = conn.inbuf.find('\n', start);
      if (nl == std::string::npos) break;
      on_reply(c, std::string_view(conn.inbuf).substr(start, nl - start), rel);
      start = nl + 1;
    }
    conn.inbuf.erase(0, start);
    if (options.on_progress) options.on_progress();
  };

  epoll_event events[16];
  for (;;) {
    int64_t rel = NowNanos() - t0;
    if (closed_loop) {
      while (next < n && outstanding < options.in_flight && rel < window_ns) {
        send_next(rel);
      }
    } else {
      while (next < n && ops[next].due_ns <= rel) send_next(rel);
    }
    if (!mid_seen && rel >= window_ns / 2) {
      mid_seen = true;
      report.backlog_mid = outstanding;
    }
    if (sending && (next == n || (closed_loop && rel >= window_ns))) {
      sending = false;
      report.backlog_end = outstanding;
      last_send_rel = rel;
    }
    for (size_t c = 0; c < conns.size(); ++c) {
      // A connection waiting for EPOLLOUT is flushed by that event only.
      if (!conns[c].outbuf.empty() && !conns[c].closed && !conns[c].want_write) {
        flush(c);
      }
    }
    bool all_closed = true;
    for (const Conn& conn : conns) all_closed = all_closed && conn.closed;
    if ((!sending && outstanding == 0) || all_closed) break;
    const int64_t stop_rel = std::max(window_ns, last_send_rel) + kGraceNs;
    if (!sending && rel >= stop_rel) break;

    rel = NowNanos() - t0;
    const int64_t wake_rel = !sending     ? stop_rel
                             : closed_loop ? window_ns
                                           : ops[next].due_ns;
    // Sleep (never spin) until the next request is due or a reply comes:
    // a spinning generator takes a core from the server under test.
    const int64_t sleep_ns = std::clamp<int64_t>(wake_rel - rel, 0, 20'000'000);
    timespec ts{static_cast<time_t>(sleep_ns / 1'000'000'000),
                static_cast<long>(sleep_ns % 1'000'000'000)};
    const int ready = epoll_pwait2(ep, events, 16, &ts, nullptr);
    for (int i = 0; i < ready; ++i) {
      const size_t c = static_cast<size_t>(events[i].data.u64);
      if (events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) on_readable(c);
      if (events[i].events & EPOLLOUT) flush(c);
    }
  }
  report.elapsed_s = static_cast<double>(NowNanos() - t0) * 1e-9;
  report.process_cpu_s = ProcessCpuSeconds() - cpu0;
  report.generator_cpu_s = ThreadCpuSeconds() - gen_cpu0;
  for (const uint8_t st : state) {
    if (st == 1) ++report.abandoned;
  }
  for (Conn& conn : conns) {
    if (conn.fd >= 0) close(conn.fd);
  }
  close(ep);
  return report;
}

}  // namespace perfbench
