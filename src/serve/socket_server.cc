#include "serve/socket_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "obs/trace.h"

namespace rtgcn::serve {

namespace {

// Transient accept() failures that must not kill the listener: fd
// exhaustion (ours or system-wide), a client aborting the handshake, or
// momentary kernel memory pressure. Everything else (EBADF/EINVAL after
// Stop() closed the listener) ends the loop.
bool AcceptErrnoIsTransient(int err) {
  return err == ECONNABORTED || err == EMFILE || err == ENFILE ||
         err == ENOBUFS || err == ENOMEM || err == EAGAIN ||
         err == EWOULDBLOCK || err == EPROTO;
}

}  // namespace

SocketServer::SocketServer(Backend* server, Metrics* metrics,
                           Options options)
    : server_(server),
      metrics_(metrics),
      options_(options),
      conn_gate_({std::max<int64_t>(options.max_connections, 1),
                  AdmissionPolicy::kRejectFast, 0, "connections"}) {
  RTGCN_CHECK(server_ != nullptr);
  options_.max_line_bytes = std::max<int64_t>(options_.max_line_bytes, 64);
}

SocketServer::~SocketServer() { Stop(); }

Status SocketServer::Start() {
  if (started_) return Status::OK();
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IoError("socket: ", std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IoError("bind port ", options_.port, ": ", err);
  }
  if (::listen(listen_fd_, options_.backlog) < 0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IoError("listen: ", err);
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) ==
      0) {
    port_ = ntohs(addr.sin_port);
  }
  stopping_ = false;
  conn_gate_.Reopen();
  started_ = true;
  acceptor_ = std::thread([this] { AcceptLoop(); });
  RTGCN_LOG(Info) << "serve: listening on 127.0.0.1:" << port_;
  return Status::OK();
}

void SocketServer::Stop() {
  if (!started_) return;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    stopping_ = true;
  }
  // Closing the listener unblocks accept(); shutting connections down
  // unblocks their reads. listen_fd_ itself is only overwritten after the
  // acceptor has joined — AcceptLoop holds its own copy of the fd.
  ::shutdown(listen_fd_, SHUT_RDWR);
  ::close(listen_fd_);
  if (acceptor_.joinable()) acceptor_.join();
  listen_fd_ = -1;
  // Wake every live connection; each thread closes its own fd (fd == -1
  // marks it already closed — never shut down a recycled descriptor).
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (auto& [id, conn] : conns_) {
      if (conn.fd >= 0) ::shutdown(conn.fd, SHUT_RDWR);
    }
  }
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    threads.reserve(conns_.size());
    for (auto& [id, conn] : conns_) threads.push_back(std::move(conn.thread));
    conns_.clear();
    done_ids_.clear();
  }
  for (std::thread& t : threads) {
    if (t.joinable()) t.join();
  }
  if (metrics_) metrics_->conns_active.Set(0);
  started_ = false;
}

void SocketServer::ReapFinishedConnections() {
  std::vector<std::thread> finished;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (int64_t id : done_ids_) {
      auto it = conns_.find(id);
      if (it == conns_.end()) continue;
      finished.push_back(std::move(it->second.thread));
      conns_.erase(it);
    }
    done_ids_.clear();
    if (metrics_) {
      metrics_->conns_active.Set(static_cast<double>(conns_.size()));
    }
  }
  for (std::thread& t : finished) {
    if (t.joinable()) t.join();
  }
}

void SocketServer::AcceptLoop() {
  // Copy once: Start() wrote listen_fd_ before spawning this thread, and
  // Stop() does not overwrite it until after joining it.
  const int listen_fd = listen_fd_;
  while (true) {
    // Reap connections that ended since the last accept, so fds and
    // threads are reclaimed continuously instead of pooling until Stop().
    ReapFinishedConnections();
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      {
        std::lock_guard<std::mutex> lock(conn_mu_);
        if (stopping_) return;
      }
      if (AcceptErrnoIsTransient(errno)) {
        RTGCN_LOG(Warning) << "serve: accept: " << std::strerror(errno)
                           << " — backing off and continuing";
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        continue;
      }
      return;  // listener closed by Stop()
    }
    if (options_.send_timeout_ms > 0) {
      timeval tv{};
      tv.tv_sec = static_cast<time_t>(options_.send_timeout_ms / 1000);
      tv.tv_usec =
          static_cast<suseconds_t>((options_.send_timeout_ms % 1000) * 1000);
      ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    }
    if (!conn_gate_.Admit().ok()) {
      if (metrics_) {
        metrics_->busy_rejected.Increment();
      }
      SendAll(fd, "BUSY too many connections\n");  // best-effort
      ::close(fd);
      continue;
    }
    std::lock_guard<std::mutex> lock(conn_mu_);
    if (stopping_) {
      conn_gate_.Release();
      ::close(fd);
      return;
    }
    const int64_t id = next_conn_id_++;
    Conn& conn = conns_[id];
    conn.fd = fd;
    if (metrics_) {
      metrics_->conns_active.Set(static_cast<double>(conns_.size()));
    }
    conn.thread = std::thread([this, id, fd] { HandleConnection(id, fd); });
  }
}

bool SocketServer::SendAll(int fd, std::string_view data) {
  size_t off = 0;
  while (off < data.size()) {
    // MSG_NOSIGNAL: a peer that closed its socket yields EPIPE here — a
    // per-connection error — instead of a process-wide SIGPIPE kill.
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      // EAGAIN/EWOULDBLOCK: SO_SNDTIMEO expired — a slow reader whose
      // socket buffer stayed full for the whole timeout. Drop it.
      if (metrics_) {
        metrics_->send_errors.Increment();
      }
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

bool SocketServer::WriteReply(int fd, const std::string& reply) {
  const std::string wire = reply + "\n";
  if (chaos_ != nullptr) {
    const ChaosInjector::ReplyPlan plan = chaos_->PlanReply(wire.size());
    switch (plan.fault) {
      case ChaosInjector::ReplyFault::kDelay:
        std::this_thread::sleep_for(std::chrono::milliseconds(plan.delay_ms));
        break;
      case ChaosInjector::ReplyFault::kDrop:
        return true;  // swallow the reply; the client's read times out
      case ChaosInjector::ReplyFault::kTruncate:
        SendAll(fd, std::string_view(wire).substr(0, plan.truncate_at));
        return false;  // drop the connection mid-line
      case ChaosInjector::ReplyFault::kReset: {
        // RST instead of FIN: the peer sees ECONNRESET mid-reply.
        linger lg{1, 0};
        ::setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
        return false;
      }
      case ChaosInjector::ReplyFault::kNone:
        break;
    }
  }
  return SendAll(fd, wire);
}

void SocketServer::HandleConnection(int64_t id, int fd) {
  std::string buffer;
  char chunk[4096];
  bool open = true;
  while (open) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      break;
    }
    buffer.append(chunk, static_cast<size_t>(n));
    size_t pos;
    while (open && (pos = buffer.find('\n')) != std::string::npos) {
      std::string line = buffer.substr(0, pos);
      buffer.erase(0, pos + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      const std::string reply = HandleLine(line);
      if (reply.empty()) {  // QUIT (either framing): close the connection
        open = false;
        break;
      }
      if (!WriteReply(fd, reply)) open = false;
    }
    // Bounded read buffer: a line that exceeds the cap without a
    // terminator would otherwise grow `buffer` without limit. Reject it
    // and drop the connection — the sender is not speaking the protocol.
    if (open &&
        static_cast<int64_t>(buffer.size()) > options_.max_line_bytes) {
      if (metrics_) {
        metrics_->oversized_lines.Increment();
      }
      SendAll(fd, "ERR line too long\n");
      open = false;
    }
  }
  FinishConnection(id, fd);
}

void SocketServer::FinishConnection(int64_t id, int fd) {
  {
    // fd close and the fd = -1 marker are atomic with respect to Stop()'s
    // shutdown pass, so a recycled descriptor can never be shut down.
    std::lock_guard<std::mutex> lock(conn_mu_);
    ::close(fd);
    auto it = conns_.find(id);
    if (it != conns_.end()) it->second.fd = -1;
    done_ids_.push_back(id);
  }
  conn_gate_.Release();
}

std::string SocketServer::HandleLine(const std::string& line) {
  return ExecuteLine(server_, metrics_, line);
}

}  // namespace rtgcn::serve
