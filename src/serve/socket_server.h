// POSIX-socket line-protocol front-end for a serve::Backend.
//
// One accept thread plus one thread per connection; each connection is a
// newline-delimited request/response stream. The wire grammar (v1 and v2)
// lives in serve/protocol.h — this class only owns sockets and threads;
// parsing and dispatch are ExecuteLine.
//
// Overload safety: at most max_connections concurrent connections (excess
// accepts answer "BUSY too many connections" and close), request lines are
// capped at max_line_bytes (oversized senders get "ERR line too long" and
// are disconnected), and reply writes carry a send timeout so one slow
// reader cannot pin a handler thread forever. Connection threads and fds
// are reaped as connections end, not accumulated until Stop(). All writes
// use MSG_NOSIGNAL, so a client closing mid-reply surfaces as EPIPE, never
// as a process-wide SIGPIPE.
//
// Scores are printed with %.9g, which round-trips binary float32 exactly —
// a client can compare replies bit-for-bit against a local forward pass.
#ifndef RTGCN_SERVE_SOCKET_SERVER_H_
#define RTGCN_SERVE_SOCKET_SERVER_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "serve/admission.h"
#include "serve/chaos.h"
#include "serve/metrics.h"
#include "serve/protocol.h"

namespace rtgcn::serve {

/// \brief TCP listener translating the line protocol into Backend calls.
/// `server` (and its metrics) must outlive the SocketServer.
class SocketServer {
 public:
  struct Options {
    int port = 0;      ///< 0 picks an ephemeral port (see port())
    int backlog = 64;
    int64_t max_connections = 256;   ///< excess accepts get BUSY + close
    int64_t max_line_bytes = 65536;  ///< request-line cap (admission for bytes)
    int64_t send_timeout_ms = 5000;  ///< per-write bound against slow readers
  };

  SocketServer(Backend* server, Metrics* metrics, Options options);
  ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// Binds, listens, and starts the accept thread.
  Status Start();

  /// Closes the listener and all connections, then joins their threads.
  void Stop();

  /// Port actually bound (resolves an ephemeral request after Start).
  int port() const { return port_; }

  /// Number of currently open protocol connections.
  int64_t active_connections() const { return conn_gate_.in_use(); }

  /// Installs a fault injector consulted on every reply write. Call
  /// before Start(); pass nullptr to disable. `chaos` must outlive the
  /// server. Test/bench hook — never enabled in production paths.
  void SetChaos(ChaosInjector* chaos) { chaos_ = chaos; }

  /// Executes one protocol line and returns the reply (without trailing
  /// newline; STATS replies are multi-line; empty for QUIT). Thin wrapper
  /// over serve::ExecuteLine, kept for tests and the connection handlers.
  std::string HandleLine(const std::string& line);

 private:
  struct Conn {
    int fd = -1;  ///< -1 once the owning thread closed it
    std::thread thread;
  };

  void AcceptLoop();
  void HandleConnection(int64_t id, int fd);
  void FinishConnection(int64_t id, int fd);
  /// Joins and erases connections whose threads have finished.
  void ReapFinishedConnections();
  /// Writes `data` with MSG_NOSIGNAL, tolerating short writes; false on
  /// error or send-timeout (slow reader).
  bool SendAll(int fd, std::string_view data);
  /// Writes one reply line, applying the chaos plan when an injector is
  /// installed; false when the connection must be dropped.
  bool WriteReply(int fd, const std::string& reply);

  Backend* server_;
  Metrics* metrics_;
  Options options_;
  ChaosInjector* chaos_ = nullptr;

  int listen_fd_ = -1;
  int port_ = 0;
  std::thread acceptor_;
  bool started_ = false;

  AdmissionController conn_gate_;

  std::mutex conn_mu_;
  std::unordered_map<int64_t, Conn> conns_;
  std::vector<int64_t> done_ids_;
  int64_t next_conn_id_ = 0;
  bool stopping_ = false;
};

}  // namespace rtgcn::serve

#endif  // RTGCN_SERVE_SOCKET_SERVER_H_
