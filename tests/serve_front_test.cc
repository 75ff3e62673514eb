// Tests for the socket front end over one InferenceServer (DESIGN.md §15):
//
//  * protocol v1/v2 cross-compat matrix over the epoll AsyncServer: same
//    payload bytes in every cell, PROTO negotiation reports the shard
//    count (always 1) and model version;
//  * slow-reader backpressure: a client that pipelines without reading
//    loses EPOLLIN (its sends block), other connections keep being
//    served, and its replies all arrive in request order once it reads;
//  * serve::ServerConfig flag registration/validation round-trips.
//
// The chaos + protocol-abuse scenario over this front end lives in
// chaos_test.cc.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/flags.h"
#include "market/dataset.h"
#include "serve/async_server.h"
#include "serve/chaos.h"
#include "serve/client.h"
#include "serve/config.h"
#include "serve/metrics.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "serve_test_util.h"

namespace rtgcn::serve {
namespace {

// ---------------------------------------------------------------------------
// Protocol v1/v2 cross-compat matrix.
// ---------------------------------------------------------------------------

TEST(FrontProtocolTest, V1V2MatrixIdenticalPayloads) {
  market::WindowDataset data = MakePanel();
  const std::string dir = TestDir("matrix");
  TrainAndExport(data, dir, /*epoch=*/1, /*epochs=*/1, /*seed=*/61);
  Metrics metrics;
  ModelRegistry registry({dir, 0}, MakeFactory(), &metrics);
  ASSERT_TRUE(registry.Start().ok());

  InferenceServer server(&data, &registry, {}, &metrics);
  ASSERT_TRUE(server.Start().ok());

  AsyncServer front(&server, &metrics, {});
  ASSERT_TRUE(front.Start().ok());

  const int64_t day = data.first_day();
  std::vector<std::string> score_cells, rank_cells;
  for (int proto : {1, 2}) {
    Client::Options copts;
    copts.port = front.port();
    Client client(copts);
    if (proto == 2) {
      auto nego = client.Negotiate(2);
      ASSERT_TRUE(nego.ok()) << nego.status().ToString();
      EXPECT_EQ(nego.ValueOrDie().version, 2);
      EXPECT_EQ(nego.ValueOrDie().shards, 1);
      EXPECT_EQ(nego.ValueOrDie().current_version, 1);
      EXPECT_EQ(client.proto(), 2);
    } else {
      EXPECT_EQ(client.proto(), 1);
    }

    auto score = client.Score(day, 3);
    ASSERT_TRUE(score.ok()) << score.status().ToString();
    score_cells.push_back(FormatScoreValue(score.ValueOrDie().score) + "/" +
                          std::to_string(score.ValueOrDie().rank));

    auto rank = client.Rank(day, 5);
    ASSERT_TRUE(rank.ok()) << rank.status().ToString();
    std::string cell;
    for (const RankEntry& e : rank.ValueOrDie().top) {
      cell += std::to_string(e.stock) + ":" + FormatScoreValue(e.score) + " ";
    }
    rank_cells.push_back(cell);

    auto health = client.Health();
    ASSERT_TRUE(health.ok()) << health.status().ToString();
    EXPECT_NE(health.ValueOrDie().find("SERVING"), std::string::npos)
        << health.ValueOrDie();

    if (proto == 2) {
      // The batched verb only exists under v2 framing.
      auto batch = client.ScoreBatch(day, {0, 3, 7});
      ASSERT_TRUE(batch.ok()) << batch.status().ToString();
      ASSERT_EQ(batch.ValueOrDie().size(), 3u);
      EXPECT_EQ(FormatScoreValue(batch.ValueOrDie()[1].score),
                FormatScoreValue(score.ValueOrDie().score));
    }
  }
  for (size_t i = 1; i < score_cells.size(); ++i) {
    EXPECT_EQ(score_cells[0], score_cells[i]) << "matrix cell " << i;
    EXPECT_EQ(rank_cells[0], rank_cells[i]) << "matrix cell " << i;
  }

  // Raw wire checks: v1 lines answer with legacy framing, v2 lines echo
  // the caller's id, and one connection may interleave both.
  {
    RawClient raw(front.port());
    ASSERT_TRUE(raw.connected());
    ASSERT_TRUE(raw.Send("PING\n2 77 PING\nPROTO 2\n2 9 RANK " +
                         std::to_string(day) + " 3\n"));
    EXPECT_EQ(raw.ReadLine(), "PONG");
    EXPECT_EQ(raw.ReadLine(), "2 77 PONG");
    const std::string ack = raw.ReadLine();
    EXPECT_EQ(ack, "OK PROTO 2 SHARDS 1 VERSION 1");
    const std::string rank = raw.ReadLine();
    EXPECT_EQ(rank.rfind("2 9 OK 1 3 ", 0), 0u) << rank;
  }

  front.Stop();
  server.Stop();
  registry.Stop();
  EXPECT_EQ(metrics.requests.Value(), AccountedRequests(metrics));
}

// ---------------------------------------------------------------------------
// Slow-reader backpressure.
// ---------------------------------------------------------------------------

// A non-blocking loopback connection with small kernel buffers, so a
// client that stops reading fills the path to the server quickly.
int ConnectNonBlockingSmallBuffers(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const int small = 4096;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &small, sizeof(small));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &small, sizeof(small));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// Reads one '\n'-terminated line from a non-blocking fd; "" on EOF,
// error, or `timeout_ms` without a complete line.
std::string ReadLineNonBlocking(int fd, std::string* buffer,
                                int timeout_ms = 5000) {
  for (;;) {
    const size_t pos = buffer->find('\n');
    if (pos != std::string::npos) {
      std::string line = buffer->substr(0, pos);
      buffer->erase(0, pos + 1);
      return line;
    }
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, timeout_ms) <= 0) return "";
    char chunk[65536];
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n <= 0) return "";
    buffer->append(chunk, static_cast<size_t>(n));
  }
}

TEST(FrontBackpressureTest, SlowReaderIsPausedAndRepliesStayInOrder) {
  market::WindowDataset data = MakePanel();
  const std::string dir = TestDir("backpressure");
  TrainAndExport(data, dir, /*epoch=*/1, /*epochs=*/1, /*seed=*/61);
  Metrics metrics;
  ModelRegistry registry({dir, 0}, MakeFactory(), &metrics);
  ASSERT_TRUE(registry.Start().ok());
  InferenceServer server(&data, &registry, {}, &metrics);
  ASSERT_TRUE(server.Start().ok());

  AsyncServer::Options fopts;
  fopts.max_outbox_bytes = 4096;  // the floor AsyncServer allows
  fopts.max_pending_lines = 8;
  fopts.executor_threads = 2;
  AsyncServer front(&server, &metrics, fopts);
  ASSERT_TRUE(front.Start().ok());

  const int fd = ConnectNonBlockingSmallBuffers(front.port());
  ASSERT_GE(fd, 0);

  // Pipeline v2 requests — mostly PING, every 16th a SCORE (the first one
  // a cache miss through the executors) — without reading any reply,
  // until the socket stays unwritable: the server stopped reading us.
  const std::string score = " SCORE " + std::to_string(data.first_day()) + " ";
  std::vector<size_t> line_ends;  ///< stream offset after each request
  std::string unsent;             ///< generated bytes the kernel has not taken
  size_t sent = 0;
  int64_t next_id = 1;
  bool paused = false;
  constexpr size_t kSendLimit = size_t{64} << 20;
  while (!paused && sent < kSendLimit) {
    if (unsent.empty()) {
      for (int i = 0; i < 256; ++i, ++next_id) {
        unsent += "2 " + std::to_string(next_id) +
                  (next_id % 16 == 0
                       ? score + std::to_string(next_id % data.num_stocks())
                       : std::string(" PING")) +
                  "\n";
        line_ends.push_back(sent + unsent.size());
      }
    }
    const ssize_t n =
        ::send(fd, unsent.data(), unsent.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      unsent.erase(0, static_cast<size_t>(n));
      sent += static_cast<size_t>(n);
      continue;
    }
    ASSERT_TRUE(n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
        << "send failed: " << std::strerror(errno);
    // EAGAIN alone can be a momentary full buffer; a server that still
    // reads drains it within the poll window.
    pollfd pfd{fd, POLLOUT, 0};
    paused = ::poll(&pfd, 1, /*timeout_ms=*/300) == 0;
  }
  ASSERT_TRUE(paused) << "sends never blocked after " << sent << " bytes";

  // Another connection is served while the first one is paused.
  {
    RawClient other(front.port());
    ASSERT_TRUE(other.connected());
    EXPECT_EQ(RoundTrip(other, "PING"), "PONG");
  }

  // Once the slow client reads, every fully sent request is answered in
  // id order; then the rest of the stream goes out and is answered too.
  std::string buffer;
  int64_t expect_id = 1;
  auto read_replies = [&](int64_t last_id) {
    for (; expect_id <= last_id; ++expect_id) {
      const std::string reply = ReadLineNonBlocking(fd, &buffer);
      const std::string prefix = "2 " + std::to_string(expect_id) + " ";
      ASSERT_EQ(reply.rfind(prefix, 0), 0u)
          << "expected id " << expect_id << ", got \"" << reply << "\"";
      const std::string body = reply.substr(prefix.size());
      if (expect_id % 16 == 0) {
        EXPECT_EQ(body.rfind("OK 1 ", 0), 0u) << reply;
      } else {
        EXPECT_EQ(body, "PONG");
      }
    }
  };
  const int64_t fully_sent = static_cast<int64_t>(
      std::upper_bound(line_ends.begin(), line_ends.end(), sent) -
      line_ends.begin());
  read_replies(fully_sent);
  while (!unsent.empty()) {
    pollfd pfd{fd, POLLOUT, 0};
    ASSERT_EQ(::poll(&pfd, 1, 5000), 1);
    const ssize_t n =
        ::send(fd, unsent.data(), unsent.size(), MSG_NOSIGNAL | MSG_DONTWAIT);
    ASSERT_GT(n, 0);
    unsent.erase(0, static_cast<size_t>(n));
  }
  read_replies(next_id - 1);
  ::close(fd);

  front.Stop();
  server.Stop();
  registry.Stop();
  EXPECT_EQ(metrics.requests.Value(), AccountedRequests(metrics));
}

// ---------------------------------------------------------------------------
// ServerConfig: one flag surface for every serving binary.
// ---------------------------------------------------------------------------

TEST(ServerConfigTest, FlagsRoundTripIntoEveryProjection) {
  ServerConfig cfg;
  FlagSet fs("test");
  cfg.RegisterFlags(&fs);
  std::vector<std::string> args = {
      "prog",
      "--max_line_bytes", "512",
      "--max_batch", "8",
      "--cache", "0",
      "--max_queue", "17",
      "--admission", "block",
      "--port", "7171",
      "--executor_threads", "3",
      "--max_attempts", "2",
  };
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (std::string& a : args) argv.push_back(a.data());
  ASSERT_TRUE(fs.Parse(static_cast<int>(argv.size()), argv.data()).ok());
  ASSERT_TRUE(cfg.Validate().ok());

  EXPECT_EQ(cfg.admission_policy(), AdmissionPolicy::kBlockWithTimeout);

  const InferenceServer::Options so = cfg.server_options();
  EXPECT_EQ(so.max_batch, 8);
  EXPECT_FALSE(so.enable_cache);
  EXPECT_EQ(so.max_queue, 17);
  EXPECT_EQ(so.admission, AdmissionPolicy::kBlockWithTimeout);

  EXPECT_EQ(cfg.async_options().port, 7171);
  EXPECT_EQ(cfg.async_options().max_line_bytes, 512);
  EXPECT_EQ(cfg.async_options().executor_threads, 3);
  EXPECT_EQ(cfg.client_options().port, 7171);
  EXPECT_EQ(cfg.client_options().max_attempts, 2);
}

TEST(ServerConfigTest, RejectsBadChoicesAndBounds) {
  {
    ServerConfig cfg;
    FlagSet fs("test");
    cfg.RegisterFlags(&fs);
    std::vector<std::string> args = {"prog", "--admission", "carrier-pigeon"};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    EXPECT_FALSE(fs.Parse(static_cast<int>(argv.size()), argv.data()).ok());
  }
  {
    ServerConfig cfg;
    cfg.max_batch = 0;
    EXPECT_FALSE(cfg.Validate().ok());
  }
  {
    ServerConfig cfg;
    cfg.admission = "smoke-signals";
    EXPECT_FALSE(cfg.Validate().ok());
  }
  {
    ServerConfig cfg;
    cfg.executor_threads = 0;
    EXPECT_FALSE(cfg.Validate().ok());
  }
}

TEST(ServerConfigTest, PrefixedRegistrationKeepsNamesDisjoint) {
  ServerConfig a, b;
  FlagSet fs("test");
  a.RegisterFlags(&fs);
  b.RegisterFlags(&fs, "peer_");
  std::vector<std::string> args = {"prog", "--max_batch", "2",
                                   "--peer_max_batch", "8"};
  std::vector<char*> argv;
  for (std::string& s : args) argv.push_back(s.data());
  ASSERT_TRUE(fs.Parse(static_cast<int>(argv.size()), argv.data()).ok());
  EXPECT_EQ(a.max_batch, 2);
  EXPECT_EQ(b.max_batch, 8);
}

}  // namespace
}  // namespace rtgcn::serve
