// Tests for the socket front ends over one InferenceServer (DESIGN.md §15):
//
//  * protocol v1/v2 cross-compat matrix over both front ends (threaded
//    SocketServer, epoll AsyncServer): same payload bytes in every cell,
//    PROTO negotiation reports the shard count (always 1) and model
//    version;
//  * the epoll front end survives the chaos + protocol-abuse suite with
//    the accounting invariant intact;
//  * serve::ServerConfig flag registration/validation round-trips.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "autograd/ops.h"
#include "common/file_util.h"
#include "common/flags.h"
#include "harness/checkpoint.h"
#include "harness/gradient_predictor.h"
#include "market/dataset.h"
#include "nn/linear.h"
#include "serve/async_server.h"
#include "serve/chaos.h"
#include "serve/client.h"
#include "serve/config.h"
#include "serve/metrics.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "serve/socket_server.h"

namespace rtgcn::serve {
namespace {

// ---------------------------------------------------------------------------
// Fixture: the tiny linear ranker serve_test.cc and chaos_test.cc use.
// ---------------------------------------------------------------------------

class LinearRanker : public harness::GradientPredictor {
 public:
  explicit LinearRanker(int64_t num_features, uint64_t seed = 1)
      : rng_(seed), linear_(num_features, 1, &rng_) {}

  std::string name() const override { return "LinearRanker"; }

 protected:
  nn::Module* module() override { return &linear_; }
  ag::VarPtr Forward(const Tensor& features, Rng*) override {
    const int64_t t_len = features.dim(0);
    const int64_t n = features.dim(1);
    const int64_t d = features.dim(2);
    auto x = ag::Constant(features);
    auto last = ag::Reshape(ag::SliceOp(x, 0, t_len - 1, t_len), {n, d});
    return ag::Reshape(linear_.Forward(last), {n});
  }
  float alpha() const override { return 0.0f; }

 private:
  Rng rng_;
  nn::Linear linear_;
};

market::WindowDataset MakePanel(int64_t days = 90, int64_t n = 10) {
  Rng rng(17);
  Tensor prices({days, n});
  for (int64_t i = 0; i < n; ++i) prices.at({0, i}) = 50.0f + 2.0f * i;
  for (int64_t t = 1; t < days; ++t) {
    for (int64_t i = 0; i < n; ++i) {
      const float drift = 0.002f * static_cast<float>((i % 5) - 2);
      const float noise = static_cast<float>(rng.Gaussian(0, 0.001));
      prices.at({t, i}) = prices.at({t - 1, i}) * (1.0f + drift + noise);
    }
  }
  return market::WindowDataset(prices, /*window=*/5, /*num_features=*/2);
}

ServableFactory MakeFactory() {
  return [] { return WrapPredictor(std::make_unique<LinearRanker>(2)); };
}

void TrainAndExport(const market::WindowDataset& data, const std::string& dir,
                    int64_t epoch, uint64_t seed) {
  LinearRanker model(2, seed);
  harness::TrainOptions opts;
  opts.epochs = 1;
  opts.learning_rate = 1e-2f;
  opts.seed = seed;
  model.Fit(data, data.Days(data.first_day(), 60), opts);
  harness::CheckpointManager manager({dir, 1, 0});
  ASSERT_TRUE(manager.Init().ok());
  ASSERT_TRUE(model.ExportSnapshot(manager.CheckpointPath(epoch)).ok());
}

std::string TestDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "front_" + name + "_" +
                          std::to_string(::getpid());
  auto entries = ListDirectory(dir);
  if (entries.ok()) {
    for (const std::string& e : entries.ValueOrDie()) {
      std::remove((dir + "/" + e).c_str());
    }
  }
  ::rmdir(dir.c_str());
  return dir;
}

uint64_t AccountedRequests(const Metrics& m) {
  return m.responses_ok.Value() + m.responses_error.Value() +
         m.expired.Value() + m.shed.Value();
}

// ---------------------------------------------------------------------------
// Protocol v1/v2 cross-compat matrix over both front ends.
// ---------------------------------------------------------------------------

TEST(FrontProtocolTest, V1V2MatrixIdenticalPayloadsOverBothFrontEnds) {
  market::WindowDataset data = MakePanel();
  const std::string dir = TestDir("matrix");
  TrainAndExport(data, dir, /*epoch=*/1, /*seed=*/61);
  Metrics metrics;
  ModelRegistry registry({dir, 0}, MakeFactory(), &metrics);
  ASSERT_TRUE(registry.Start().ok());

  InferenceServer server(&data, &registry, {}, &metrics);
  ASSERT_TRUE(server.Start().ok());

  SocketServer threaded(&server, &metrics, {/*port=*/0});
  ASSERT_TRUE(threaded.Start().ok());
  AsyncServer epoll(&server, &metrics, {});
  ASSERT_TRUE(epoll.Start().ok());

  const int64_t day = data.first_day();
  std::vector<std::string> score_cells, rank_cells;
  for (int port : {threaded.port(), epoll.port()}) {
    for (int proto : {1, 2}) {
      Client::Options copts;
      copts.port = port;
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
        cell += std::to_string(e.stock) + ":" + FormatScoreValue(e.score) +
                " ";
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
  }
  for (size_t i = 1; i < score_cells.size(); ++i) {
    EXPECT_EQ(score_cells[0], score_cells[i]) << "matrix cell " << i;
    EXPECT_EQ(rank_cells[0], rank_cells[i]) << "matrix cell " << i;
  }

  // Raw wire checks: v1 lines answer with legacy framing, v2 lines echo
  // the caller's id, and one connection may interleave both.
  {
    RawClient raw(epoll.port());
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

  epoll.Stop();
  threaded.Stop();
  server.Stop();
  registry.Stop();
  EXPECT_EQ(metrics.requests.Value(), AccountedRequests(metrics));
}

// ---------------------------------------------------------------------------
// Chaos + protocol abuse against the epoll front end.
// ---------------------------------------------------------------------------

TEST(FrontChaosTest, EpollFrontSurvivesChaosAndAccountsForEveryRequest) {
  market::WindowDataset data = MakePanel();
  const std::string dir = TestDir("chaos");
  TrainAndExport(data, dir, /*epoch=*/1, /*seed=*/61);

  Metrics metrics;
  ModelRegistry registry({dir, /*reload_interval_ms=*/5}, MakeFactory(),
                         &metrics);
  ASSERT_TRUE(registry.Start().ok());

  InferenceServer::Options sopts;
  sopts.max_queue = 64;
  InferenceServer server(&data, &registry, sopts, &metrics);
  ASSERT_TRUE(server.Start().ok());

  ChaosInjector::Options copts;
  copts.seed = 1234;
  copts.delay_prob = 0.10;
  copts.drop_prob = 0.05;
  copts.truncate_prob = 0.05;
  copts.reset_prob = 0.05;
  copts.delay_ms_max = 5;
  ChaosInjector chaos(copts);

  AsyncServer::Options fopts;
  fopts.max_line_bytes = 4096;
  fopts.executor_threads = 4;
  AsyncServer front(&server, &metrics, fopts);
  front.SetChaos(&chaos);
  ASSERT_TRUE(front.Start().ok());

  constexpr int kClients = 4;
  constexpr int kPerClient = 30;
  std::atomic<int> client_ok{0}, client_err{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client::Options copts2;
      copts2.port = front.port();
      copts2.recv_timeout_ms = 500;
      copts2.max_attempts = 5;
      copts2.backoff_initial_ms = 2;
      copts2.backoff_max_ms = 20;
      copts2.seed = 100 + static_cast<uint64_t>(c);
      Client client(copts2, &metrics);
      if (c % 2 == 0) (void)client.Negotiate(2);  // half the fleet on v2
      for (int i = 0; i < kPerClient; ++i) {
        const int64_t day = data.first_day() + (i % 3);
        const int64_t deadline = (i % 7 == 0) ? 1000 : 0;
        bool ok;
        if (i % 2 == 0) {
          ok = client.Score(day, i % data.num_stocks(), deadline).ok();
        } else {
          ok = client.Rank(day, 3, deadline).ok();
        }
        (ok ? client_ok : client_err)++;
      }
    });
  }

  std::thread abuser([&] {
    for (int i = 0; i < 12; ++i) {
      RawClient raw(front.port());
      if (!raw.connected()) continue;
      switch (i % 6) {
        case 0:  // binary garbage
          raw.Send("\x00\x01\xfe garbage\n");
          raw.ReadLine(200);
          break;
        case 1:  // oversized line
          raw.Send(std::string(8192, 'A') + "\n");
          raw.ReadLine(200);
          break;
        case 2:  // half-open, then vanish
          raw.Send("PING\n");
          raw.CloseSend();
          raw.ReadLine(200);
          break;
        case 3:  // request, then RST without reading the reply
          raw.Send("RANK " + std::to_string(data.first_day()) + " 5\n");
          raw.Reset();
          break;
        case 4:  // v2 framing abuse: bad ids, bad verbs, bad PROTO
          raw.Send("2 notanid PING\nPROTO 99\n2 1 FLY\n2 2\n");
          raw.ReadLine(200);
          break;
        case 5:  // a flood of pipelined v2 requests, then vanish
          raw.Send("2 1 RANK " + std::to_string(data.first_day()) +
                   " 3\n2 2 SCORE " + std::to_string(data.first_day()) +
                   " 1\n2 3 HEALTH\n");
          raw.Reset();
          break;
      }
    }
  });

  // Mid-run reload chaos: a corrupt checkpoint the live poller keeps
  // tripping over, then a good one that must eventually be promoted.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  {
    harness::CheckpointManager manager({dir, 1, 0});
    ASSERT_TRUE(manager.Init().ok());
    std::ofstream out(manager.CheckpointPath(2), std::ios::binary);
    out << "this is not a checkpoint";
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  TrainAndExport(data, dir, /*epoch=*/3, /*seed=*/63);

  for (auto& t : threads) t.join();
  abuser.join();

  // No crash, no hang — the server still answers cleanly.
  {
    Client::Options copts2;
    copts2.port = front.port();
    Client probe(copts2);
    auto health = probe.Health();
    ASSERT_TRUE(health.ok()) << health.status().ToString();
    auto sane = probe.Score(data.first_day(), 1);
    ASSERT_TRUE(sane.ok()) << sane.status().ToString();
  }

  front.Stop();
  server.Stop();
  registry.Stop();

  EXPECT_EQ(metrics.requests.Value(), AccountedRequests(metrics));
  EXPECT_GE(metrics.requests.Value(), kClients * kPerClient);
  EXPECT_GT(chaos.plans(), 0u);
  EXPECT_GT(chaos.faults(), 0u);
  EXPECT_EQ(client_ok.load() + client_err.load(), kClients * kPerClient);
  EXPECT_GT(client_ok.load(), 0);
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
      "--front", "threaded",
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

  EXPECT_FALSE(cfg.use_epoll());
  EXPECT_EQ(cfg.admission_policy(), AdmissionPolicy::kBlockWithTimeout);

  const InferenceServer::Options so = cfg.server_options();
  EXPECT_EQ(so.max_batch, 8);
  EXPECT_FALSE(so.enable_cache);
  EXPECT_EQ(so.max_queue, 17);
  EXPECT_EQ(so.admission, AdmissionPolicy::kBlockWithTimeout);

  EXPECT_EQ(cfg.socket_options().port, 7171);
  EXPECT_EQ(cfg.async_options().port, 7171);
  EXPECT_EQ(cfg.async_options().executor_threads, 3);
  EXPECT_EQ(cfg.client_options().port, 7171);
  EXPECT_EQ(cfg.client_options().max_attempts, 2);
}

TEST(ServerConfigTest, RejectsBadChoicesAndBounds) {
  {
    ServerConfig cfg;
    FlagSet fs("test");
    cfg.RegisterFlags(&fs);
    std::vector<std::string> args = {"prog", "--front", "carrier-pigeon"};
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
    cfg.front = "smoke-signals";
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
