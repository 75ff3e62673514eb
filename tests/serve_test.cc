// Tests for the inference serving subsystem (src/serve/):
//
//  * metrics counters and fixed-bucket histograms;
//  * snapshot load/score parity with the training-side forward pass;
//  * registry promotion order and corrupt-checkpoint skipping;
//  * batching equivalence — scores through the micro-batcher are
//    bit-identical to a direct single-request Predict at every batch size
//    and client-thread count (the serving analogue of
//    parallel_equivalence_test.cc);
//  * hot reload under load — concurrent clients never see a failed query
//    or a response that does not match exactly one published version;
//  * the line protocol end-to-end over a real TCP connection to the
//    epoll front end, and its protocol-abuse suite.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "harness/checkpoint.h"
#include "market/dataset.h"
#include "serve/async_server.h"
#include "serve/chaos.h"
#include "serve/metrics.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "serve_test_util.h"
#include "tensor/ops.h"

namespace rtgcn::serve {
namespace {

std::vector<float> ToVector(const Tensor& t) {
  return std::vector<float>(t.data(), t.data() + t.numel());
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

// Bucket and percentile arithmetic is obs_test's; these pin the serving
// layouts and how STATS renders them.
TEST(MetricsTest, LatencyHistogramCoversTheServingRange) {
  Metrics metrics;
  EXPECT_EQ(metrics.latency.num_buckets(), Metrics::kLatencyBuckets);
  for (uint64_t us = 1; us <= 1000; ++us) metrics.latency.Record(us);
  const double p99 = metrics.latency.Percentile(0.99);
  EXPECT_GE(p99, 512.0);
  EXPECT_LE(p99, 1024.0);
  // A sample far past any real latency still lands in the last bucket.
  metrics.latency.Record(uint64_t{1} << 45);
  EXPECT_EQ(metrics.latency.BucketCount(Metrics::kLatencyBuckets - 1), 1u);
}

TEST(MetricsTest, BatchSizeHistogramRendersWithOverflow) {
  Metrics metrics;
  metrics.batch_size.Record(1);
  metrics.batch_size.Record(1);
  metrics.batch_size.Record(8);
  metrics.batch_size.Record(Metrics::kMaxBatchTracked + 5);
  EXPECT_EQ(metrics.batch_size.BucketCount(1), 2u);
  EXPECT_EQ(metrics.batch_size.BucketCount(8), 1u);
  EXPECT_EQ(metrics.batch_size.Count(), 4u);
  EXPECT_NE(metrics.DumpText().find("serve.batch_size.hist 1:2 8:1 >:1\n"),
            std::string::npos)
      << metrics.DumpText();
}

TEST(MetricsTest, DumpTextContainsAllSections) {
  Metrics metrics;
  metrics.requests.Increment(3);
  metrics.responses_ok.Increment(3);
  metrics.latency.Record(100);
  metrics.batch_size.Record(3);
  const std::string text = metrics.DumpText();
  for (const char* key :
       {"serve.requests 3", "serve.responses_ok 3", "serve.latency_us.p50",
        "serve.latency_us.p99", "serve.batch_size.hist", "serve.qps",
        "serve.cache_hit_rate", "serve.reload_success"}) {
    EXPECT_NE(text.find(key), std::string::npos) << "missing " << key
                                                 << " in:\n" << text;
  }
}

// ---------------------------------------------------------------------------
// Snapshot + registry
// ---------------------------------------------------------------------------

TEST(ModelSnapshotTest, ScoresMatchTrainingSideForwardBitIdentically) {
  market::WindowDataset data = MakePanel();
  const std::string dir = TestDir("snapshot");
  auto trained = TrainAndExport(data, dir, /*epoch=*/1, /*epochs=*/3, 9);

  harness::CheckpointManager manager({dir, 1, 0});
  auto snap = ModelSnapshot::Load(MakeFactory(), manager.CheckpointPath(1), 1);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  const auto& snapshot = snap.ValueOrDie();
  EXPECT_EQ(snapshot->version(), 1);
  EXPECT_GT(snapshot->num_parameters(), 0);

  for (int64_t day : {data.first_day(), data.first_day() + 7}) {
    const Tensor direct = trained->Predict(data, day);
    const Tensor served = snapshot->Score(data.Features(day));
    ASSERT_EQ(direct.numel(), served.numel());
    EXPECT_EQ(std::memcmp(direct.data(), served.data(),
                          sizeof(float) * static_cast<size_t>(direct.numel())),
              0);
  }
}

TEST(ModelRegistryTest, PromotesNewestAndOnlyNewer) {
  market::WindowDataset data = MakePanel();
  const std::string dir = TestDir("registry");
  TrainAndExport(data, dir, /*epoch=*/1, /*epochs=*/1, 11);
  TrainAndExport(data, dir, /*epoch=*/2, /*epochs=*/2, 12);

  Metrics metrics;
  ModelRegistry registry({dir, /*reload_interval_ms=*/0}, MakeFactory(),
                         &metrics);
  ASSERT_TRUE(registry.Start().ok());
  EXPECT_EQ(registry.CurrentVersion(), 2);
  EXPECT_EQ(metrics.reload_success.Value(), 1u);
  // Nothing newer: a second poll is a no-op.
  EXPECT_FALSE(registry.PollOnce());
  EXPECT_EQ(registry.CurrentVersion(), 2);
  // A newer checkpoint is picked up.
  TrainAndExport(data, dir, /*epoch=*/3, /*epochs=*/3, 13);
  EXPECT_TRUE(registry.PollOnce());
  EXPECT_EQ(registry.CurrentVersion(), 3);
  EXPECT_EQ(metrics.reload_success.Value(), 2u);
  EXPECT_EQ(metrics.reload_failure.Value(), 0u);
  registry.Stop();
}

TEST(ModelRegistryTest, StartWithoutCheckpointsReportsNotFound) {
  const std::string dir = TestDir("registry_empty");
  Metrics metrics;
  ModelRegistry registry({dir, /*reload_interval_ms=*/0}, MakeFactory(),
                         &metrics);
  const Status status = registry.Start();
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
  EXPECT_EQ(registry.Current(), nullptr);
  registry.Stop();
}

// ---------------------------------------------------------------------------
// Registry promotion across universe-size changes
// ---------------------------------------------------------------------------

// A ranker whose parameters are sized by the stock universe (a per-stock
// bias), so a checkpoint from a differently-sized universe has mismatched
// parameter shapes — the streaming-retrain hazard when consecutive
// snapshots disagree on universe size.
class BiasModule : public nn::Module {
 public:
  BiasModule(int64_t num_stocks, Rng* rng) {
    Tensor init({num_stocks});
    for (int64_t i = 0; i < num_stocks; ++i) {
      init.at({i}) = static_cast<float>(rng->Gaussian(0, 0.1));
    }
    bias = RegisterParameter("bias", std::move(init));
  }
  ag::VarPtr bias;
};

class UniverseRanker : public harness::GradientPredictor {
 public:
  explicit UniverseRanker(int64_t num_stocks, uint64_t seed = 1)
      : rng_(seed), module_(num_stocks, &rng_) {}

  std::string name() const override { return "UniverseRanker"; }

 protected:
  nn::Module* module() override { return &module_; }
  ag::VarPtr Forward(const Tensor& features, Rng*) override {
    const int64_t t_len = features.dim(0);
    const int64_t n = features.dim(1);
    const int64_t d = features.dim(2);
    auto x = ag::Constant(features);
    auto last = ag::Reshape(ag::SliceOp(x, 0, t_len - 1, t_len), {n, d});
    return ag::Add(ag::Mean(last, 1), module_.bias);
  }
  float alpha() const override { return 0.0f; }

 private:
  Rng rng_;
  BiasModule module_;
};

std::unique_ptr<UniverseRanker> FitUniverseRanker(
    const market::WindowDataset& data, int64_t num_stocks, uint64_t seed) {
  auto model = std::make_unique<UniverseRanker>(num_stocks, seed);
  harness::TrainOptions opts;
  opts.epochs = 2;
  opts.learning_rate = 1e-2f;
  opts.seed = seed;
  model->Fit(data, data.Days(data.first_day(), 60), opts);
  return model;
}

TEST(ModelRegistryTest, RejectsUniverseSizeMismatchAndSwapsAtomically) {
  const std::string dir = TestDir("registry_universe");
  market::WindowDataset data10 = MakePanel(90, 10);
  market::WindowDataset data6 = MakePanel(90, 6);
  const Tensor f10 = data10.Features(data10.last_day());

  harness::CheckpointManager manager({dir, 1, 0});
  ASSERT_TRUE(manager.Init().ok());

  // v1: trained on the 10-stock universe the serving factory is built for.
  auto m1 = FitUniverseRanker(data10, 10, 3);
  ASSERT_TRUE(m1->ExportSnapshot(manager.CheckpointPath(1)).ok());

  Metrics metrics;
  ModelRegistry registry(
      {dir, /*reload_interval_ms=*/0},
      [] { return WrapPredictor(std::make_unique<UniverseRanker>(10)); },
      &metrics);
  ASSERT_TRUE(registry.Start().ok());
  ASSERT_EQ(registry.CurrentVersion(), 1);
  const std::vector<float> expected_v1 = ToVector(m1->Score(f10));
  EXPECT_EQ(ToVector(registry.Current()->Score(f10)), expected_v1);

  // v2: a refit on a churned 6-stock universe. Its per-stock parameters no
  // longer match the factory's architecture — promotion must REJECT the
  // checkpoint and keep serving v1 unchanged; it must never publish a
  // snapshot that would emit 6 scores for 10-stock queries.
  auto m2 = FitUniverseRanker(data6, 6, 4);
  ASSERT_TRUE(m2->ExportSnapshot(manager.CheckpointPath(2)).ok());
  EXPECT_FALSE(registry.PollOnce());
  EXPECT_EQ(registry.CurrentVersion(), 1);
  EXPECT_GE(registry.consecutive_reload_failures(), 1);
  EXPECT_GE(metrics.reload_failure.Value(), 1u);
  EXPECT_EQ(ToVector(registry.Current()->Score(f10)), expected_v1)
      << "served scores changed after a rejected promotion";

  // v3: compatible again. The swap is atomic: a snapshot pinned before the
  // poll keeps serving v1's exact scores while new queries get v3's — at no
  // point can one reply mix the two universes.
  auto m3 = FitUniverseRanker(data10, 10, 5);
  ASSERT_TRUE(m3->ExportSnapshot(manager.CheckpointPath(3)).ok());
  const std::shared_ptr<const ModelSnapshot> pinned = registry.Current();
  EXPECT_TRUE(registry.PollOnce());
  EXPECT_EQ(registry.CurrentVersion(), 3);
  EXPECT_EQ(registry.consecutive_reload_failures(), 0);
  EXPECT_EQ(ToVector(pinned->Score(f10)), expected_v1);
  EXPECT_EQ(ToVector(registry.Current()->Score(f10)),
            ToVector(m3->Score(f10)));
  registry.Stop();
}

// ---------------------------------------------------------------------------
// Batching equivalence (satellite): micro-batched scores == direct Predict.
// ---------------------------------------------------------------------------

TEST(InferenceServerTest, BatchedScoresBitIdenticalToDirectPredict) {
  market::WindowDataset data = MakePanel();
  const std::string dir = TestDir("equivalence");
  auto trained = TrainAndExport(data, dir, /*epoch=*/1, /*epochs=*/4, 21);

  const std::vector<int64_t> days = data.Days(data.first_day(), 80);
  std::map<int64_t, std::vector<float>> expected;
  for (int64_t day : days) expected[day] = ToVector(trained->Predict(data, day));

  const int saved_threads = NumThreads();
  for (const int pool_threads : {1, 4}) {
    SetNumThreads(pool_threads);
    for (const int64_t max_batch : {int64_t{1}, int64_t{7}, int64_t{32}}) {
      for (const int num_clients : {1, 8}) {
        Metrics metrics;
        ModelRegistry registry({dir, /*reload_interval_ms=*/0}, MakeFactory(),
                               &metrics);
        ASSERT_TRUE(registry.Start().ok());
        InferenceServer::Options opts;
        opts.max_batch = max_batch;
        opts.batch_timeout_us = 100;
        InferenceServer server(&data, &registry, opts, &metrics);
        ASSERT_TRUE(server.Start().ok());

        std::atomic<int> mismatches{0};
        std::atomic<int> failures{0};
        std::vector<std::thread> clients;
        for (int c = 0; c < num_clients; ++c) {
          clients.emplace_back([&, c] {
            for (size_t q = 0; q < days.size(); ++q) {
              const int64_t day =
                  days[(q + static_cast<size_t>(c) * 3) % days.size()];
              auto reply = server.Rank(day);
              if (!reply.ok()) {
                failures.fetch_add(1);
                continue;
              }
              const auto& scores = reply.ValueOrDie().scores;
              const auto& want = expected.at(day);
              if (scores.size() != want.size() ||
                  std::memcmp(scores.data(), want.data(),
                              sizeof(float) * want.size()) != 0) {
                mismatches.fetch_add(1);
              }
            }
          });
        }
        for (auto& t : clients) t.join();
        server.Stop();
        registry.Stop();
        EXPECT_EQ(failures.load(), 0)
            << "pool=" << pool_threads << " max_batch=" << max_batch
            << " clients=" << num_clients;
        EXPECT_EQ(mismatches.load(), 0)
            << "pool=" << pool_threads << " max_batch=" << max_batch
            << " clients=" << num_clients;
      }
    }
  }
  SetNumThreads(saved_threads);
}

TEST(InferenceServerTest, CacheCoalescesRepeatQueriesIntoOneForward) {
  market::WindowDataset data = MakePanel();
  const std::string dir = TestDir("cache");
  TrainAndExport(data, dir, /*epoch=*/1, /*epochs=*/1, 31);

  Metrics metrics;
  ModelRegistry registry({dir, /*reload_interval_ms=*/0}, MakeFactory(),
                         &metrics);
  ASSERT_TRUE(registry.Start().ok());
  InferenceServer server(&data, &registry, {}, &metrics);
  ASSERT_TRUE(server.Start().ok());

  const int64_t day = data.first_day();
  for (int i = 0; i < 20; ++i) {
    auto reply = server.Score(day, i % data.num_stocks());
    ASSERT_TRUE(reply.ok());
    EXPECT_EQ(reply.ValueOrDie().num_stocks, data.num_stocks());
  }
  EXPECT_EQ(metrics.forwards.Value(), 1u);
  EXPECT_GT(metrics.cache_hits.Value(), 0u);
  EXPECT_EQ(metrics.responses_ok.Value(), 20u);

  // Ranks are a permutation consistent with the scores.
  auto rank_reply = server.Rank(day);
  ASSERT_TRUE(rank_reply.ok());
  const auto& scores = rank_reply.ValueOrDie().scores;
  auto best = server.Score(day, 0);
  ASSERT_TRUE(best.ok());
  float max_score = scores[0];
  for (float s : scores) max_score = std::max(max_score, s);
  for (int64_t i = 0; i < data.num_stocks(); ++i) {
    auto r = server.Score(day, i);
    ASSERT_TRUE(r.ok());
    if (r.ValueOrDie().rank == 0) {
      EXPECT_EQ(r.ValueOrDie().score, max_score);
    }
  }
  server.Stop();
  registry.Stop();
}

TEST(InferenceServerTest, InvalidDayFailsThatQueryOnly) {
  market::WindowDataset data = MakePanel();
  const std::string dir = TestDir("invalid");
  TrainAndExport(data, dir, /*epoch=*/1, /*epochs=*/1, 41);

  Metrics metrics;
  ModelRegistry registry({dir, /*reload_interval_ms=*/0}, MakeFactory(),
                         &metrics);
  ASSERT_TRUE(registry.Start().ok());
  InferenceServer server(&data, &registry, {}, &metrics);
  ASSERT_TRUE(server.Start().ok());

  EXPECT_FALSE(server.Rank(data.last_day() + 100).ok());
  EXPECT_FALSE(server.Score(data.first_day(), -1).ok());
  EXPECT_FALSE(server.Score(data.first_day(), data.num_stocks()).ok());
  EXPECT_TRUE(server.Rank(data.first_day()).ok());
  EXPECT_EQ(metrics.responses_error.Value(), 3u);
  server.Stop();
  registry.Stop();
}

// The score cache is keyed by the (version, day) pair itself: no other
// pair may alias a cached entry. A day past the panel must miss the cache
// on the fast path and get the blocking path's range error.
TEST(InferenceServerTest, OutOfRangeDayNeverHitsAnotherDaysCacheEntry) {
  market::WindowDataset data = MakePanel();
  const std::string dir = TestDir("cache_alias");
  TrainAndExport(data, dir, /*epoch=*/1, /*epochs=*/1, 43);

  Metrics metrics;
  ModelRegistry registry({dir, /*reload_interval_ms=*/0}, MakeFactory(),
                         &metrics);
  ASSERT_TRUE(registry.Start().ok());
  ASSERT_EQ(registry.CurrentVersion(), 1);
  InferenceServer server(&data, &registry, {}, &metrics);
  ASSERT_TRUE(server.Start().ok());

  const int64_t day = data.first_day();
  ASSERT_TRUE(server.Rank(day).ok());
  RankReply cached;
  ASSERT_TRUE(server.TryRankCached(day, &cached));

  // 2^20 + day is the day a (version << 20) | day key folds onto `day`
  // under version 1; last_day + 1 is a plain out-of-range day.
  for (const int64_t far_day : {(int64_t{1} << 20) + day,
                                data.last_day() + 1}) {
    RankReply rank;
    ScoreReply score;
    EXPECT_FALSE(server.TryRankCached(far_day, &rank)) << far_day;
    EXPECT_FALSE(server.TryScoreCached(far_day, 3, &score)) << far_day;

    const std::string want = "ERR Invalid argument: day " +
                             std::to_string(far_day) +
                             " outside the valid range [" +
                             std::to_string(data.first_day()) + ", " +
                             std::to_string(data.last_day()) + "]";
    for (const std::string verb : {"RANK ", "SCORE "}) {
      const std::string line = verb + std::to_string(far_day) + " 3";
      std::string reply;
      EXPECT_FALSE(TryExecuteLineFast(&server, &metrics, line, &reply))
          << line << " answered from cache: " << reply;
      EXPECT_EQ(ExecuteLine(&server, &metrics, line), want) << line;
    }
  }
  server.Stop();
  registry.Stop();
  EXPECT_EQ(metrics.requests.Value(),
            metrics.responses_ok.Value() + metrics.responses_error.Value() +
                metrics.expired.Value() + metrics.shed.Value());
}

// ---------------------------------------------------------------------------
// Hot reload under load (satellite): N clients hammer the server while
// checkpoints are swapped in; zero failed queries, and every response's
// scores match exactly the model version it reports.
// ---------------------------------------------------------------------------

TEST(HotReloadTest, LosslessUnderConcurrentLoad) {
  market::WindowDataset data = MakePanel();
  const std::string dir = TestDir("hot_reload");

  // Two distinct weight sets; versions alternate between them so every
  // swap changes the served scores.
  auto model_a = TrainAndExport(data, dir, /*epoch=*/1, /*epochs=*/1, 51);
  auto model_b = std::make_unique<LinearRanker>(2, 52);
  {
    harness::TrainOptions opts;
    opts.epochs = 4;
    opts.learning_rate = 1e-2f;
    opts.seed = 52;
    model_b->Fit(data, data.Days(data.first_day(), 60), opts);
  }

  const std::vector<int64_t> days = data.Days(data.first_day(), 70);
  std::map<int64_t, std::vector<float>> expected_a, expected_b;
  for (int64_t day : days) {
    expected_a[day] = ToVector(model_a->Predict(data, day));
    expected_b[day] = ToVector(model_b->Predict(data, day));
    // The two versions must be distinguishable for the check to mean
    // anything.
    ASSERT_NE(expected_a[day], expected_b[day]);
  }

  Metrics metrics;
  ModelRegistry registry({dir, /*reload_interval_ms=*/2}, MakeFactory(),
                         &metrics);
  ASSERT_TRUE(registry.Start().ok());
  InferenceServer::Options opts;
  opts.max_batch = 16;
  opts.batch_timeout_us = 100;
  InferenceServer server(&data, &registry, opts, &metrics);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kClients = 4;
  constexpr int64_t kSwaps = 12;
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::atomic<int> version_mismatches{0};
  std::atomic<int64_t> answered{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      size_t q = static_cast<size_t>(c);
      while (!done.load(std::memory_order_acquire)) {
        const int64_t day = days[q++ % days.size()];
        auto reply = server.Rank(day);
        if (!reply.ok()) {
          failures.fetch_add(1);
          continue;
        }
        const auto& r = reply.ValueOrDie();
        // Version v serves weight set A when odd, B when even.
        const auto& want =
            (r.model_version % 2 == 1) ? expected_a.at(day) : expected_b.at(day);
        const auto& other =
            (r.model_version % 2 == 1) ? expected_b.at(day) : expected_a.at(day);
        const bool matches_reported =
            r.scores.size() == want.size() &&
            std::memcmp(r.scores.data(), want.data(),
                        sizeof(float) * want.size()) == 0;
        const bool matches_other =
            r.scores.size() == other.size() &&
            std::memcmp(r.scores.data(), other.data(),
                        sizeof(float) * other.size()) == 0;
        // Exactly one published version: the reported one.
        if (!matches_reported || matches_other) {
          version_mismatches.fetch_add(1);
        }
        answered.fetch_add(1);
      }
    });
  }

  // Publish kSwaps new versions while the clients hammer the server.
  harness::CheckpointManager manager({dir, 1, 0});
  for (int64_t epoch = 2; epoch <= 1 + kSwaps; ++epoch) {
    harness::GradientPredictor* source =
        (epoch % 2 == 1) ? static_cast<harness::GradientPredictor*>(
                               model_a.get())
                         : model_b.get();
    ASSERT_TRUE(source->ExportSnapshot(manager.CheckpointPath(epoch)).ok());
    // Wait until the poller promotes it, keeping load flowing meanwhile.
    while (registry.CurrentVersion() < epoch) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  // Let the clients observe the final version for a moment.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  done.store(true, std::memory_order_release);
  for (auto& t : clients) t.join();
  server.Stop();
  registry.Stop();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(version_mismatches.load(), 0);
  EXPECT_GT(answered.load(), 0);
  EXPECT_GE(metrics.reload_success.Value(), static_cast<uint64_t>(kSwaps));
  EXPECT_EQ(metrics.reload_failure.Value(), 0u);
  EXPECT_EQ(registry.CurrentVersion(), 1 + kSwaps);
}

// Each version serves its own sub-universe (the first n stocks), the way
// stream::RollingPipeline serves a refit on a churned universe, so every
// reload changes the sizes a snapshot's storage pool caches. Replies stay
// bitwise those of a scope-free GradientPredictor::Score, the retired
// snapshot is released together with its pooled buffers, and the
// accounting identity holds.
TEST(HotReloadTest, SnapshotStoragePoolsFollowTheUniverseAcrossReloads) {
  constexpr int64_t kStocks = 1500;
  constexpr int64_t kChurned = 1100;  // both sizes have pooled tensors
  market::WindowDataset data = MakePanel(40, kStocks);
  const std::string dir = TestDir("pool_universe");
  LinearRanker model_a(2, 61);
  LinearRanker model_b(2, 62);
  // Odd versions: weights A on every stock; even: weights B on kChurned.
  auto universe = [](int64_t version) {
    return version % 2 == 1 ? kStocks : kChurned;
  };
  auto stocks = [&](int64_t day, int64_t n) {
    return Slice(data.Features(day), 1, 0, n);
  };
  auto pad = [](const Tensor& scores) {
    std::vector<float> full(static_cast<size_t>(kStocks),
                            std::numeric_limits<float>::lowest());
    std::copy(scores.data(), scores.data() + scores.numel(), full.begin());
    return full;
  };
  const std::vector<int64_t> days = data.Days(data.first_day(), 12);
  std::map<int64_t, std::vector<float>> expected_a, expected_b;
  for (int64_t day : days) {
    expected_a[day] = pad(model_a.Score(stocks(day, kStocks)));
    expected_b[day] = pad(model_b.Score(stocks(day, kChurned)));
  }

  harness::CheckpointManager manager({dir, 1, 0});
  ASSERT_TRUE(manager.Init().ok());
  ASSERT_TRUE(model_a.ExportSnapshot(manager.CheckpointPath(1)).ok());
  Metrics metrics;
  ModelRegistry registry({dir, /*reload_interval_ms=*/0}, MakeFactory(),
                         &metrics);
  ASSERT_TRUE(registry.Start().ok());
  InferenceServer::ScoreFn score_fn =
      [&](const ModelSnapshot& snapshot,
          int64_t day) -> Result<std::vector<float>> {
    return pad(snapshot.Score(stocks(day, universe(snapshot.version()))));
  };
  InferenceServer::Options opts;
  opts.max_batch = 8;
  opts.batch_timeout_us = 100;
  opts.enable_cache = false;  // every request runs a forward
  InferenceServer server(score_fn, kStocks, &registry, opts, &metrics);
  ASSERT_TRUE(server.Start().ok());

  std::weak_ptr<const ModelSnapshot> retired;
  for (int64_t version = 1; version <= 5; ++version) {
    if (version > 1) {
      LinearRanker& source = version % 2 == 1 ? model_a : model_b;
      ASSERT_TRUE(
          source.ExportSnapshot(manager.CheckpointPath(version)).ok());
      ASSERT_TRUE(registry.PollOnce());
    }
    ASSERT_EQ(registry.CurrentVersion(), version);
    const auto& want = version % 2 == 1 ? expected_a : expected_b;
    std::atomic<int> failures{0};
    std::atomic<int> mismatches{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < 4; ++c) {
      clients.emplace_back([&, c] {
        for (size_t q = 0; q < days.size(); ++q) {
          const int64_t day = days[(q + static_cast<size_t>(c) * 5) %
                                   days.size()];
          auto reply = server.Rank(day);
          if (!reply.ok()) {
            failures.fetch_add(1);
            continue;
          }
          const RankReply& r = reply.ValueOrDie();
          if (r.model_version != version || r.scores != want.at(day)) {
            mismatches.fetch_add(1);
          }
        }
      });
    }
    for (auto& t : clients) t.join();
    EXPECT_EQ(failures.load(), 0) << "version " << version;
    EXPECT_EQ(mismatches.load(), 0) << "version " << version;
    // Every batch that pinned the previous version finished before this
    // version's first reply, so nothing holds that snapshot or its pool.
    if (version > 1) {
      EXPECT_TRUE(retired.expired()) << "version " << version - 1;
    }
    const std::shared_ptr<const ModelSnapshot> current = registry.Current();
    EXPECT_GT(current->storage_pool().recycled(), 0) << "version " << version;
    EXPECT_GT(current->storage_pool().cached(), 0) << "version " << version;
    retired = current;
  }
  server.Stop();
  registry.Stop();
  EXPECT_EQ(metrics.requests.Value(), AccountedRequests(metrics));
  EXPECT_EQ(metrics.responses_ok.Value(), metrics.requests.Value());
}

// ---------------------------------------------------------------------------
// Socket front end
// ---------------------------------------------------------------------------

TEST(AsyncServerTest, LineProtocolEndToEnd) {
  market::WindowDataset data = MakePanel();
  const std::string dir = TestDir("socket");
  auto trained = TrainAndExport(data, dir, /*epoch=*/1, /*epochs=*/2, 61);

  Metrics metrics;
  ModelRegistry registry({dir, /*reload_interval_ms=*/0}, MakeFactory(),
                         &metrics);
  ASSERT_TRUE(registry.Start().ok());
  InferenceServer server(&data, &registry, {}, &metrics);
  ASSERT_TRUE(server.Start().ok());
  AsyncServer front(&server, &metrics, {/*port=*/0});
  ASSERT_TRUE(front.Start().ok());
  ASSERT_GT(front.port(), 0);

  RawClient client(front.port());
  ASSERT_TRUE(client.connected());
  EXPECT_EQ(RoundTrip(client, "PING"), "PONG");

  // SCORE returns the bit-exact forward-pass score (%.9g round-trips f32).
  const int64_t day = data.first_day();
  const Tensor direct = trained->Predict(data, day);
  const std::string reply =
      RoundTrip(client, "SCORE " + std::to_string(day) + " 3");
  ASSERT_EQ(reply.rfind("OK ", 0), 0u) << reply;
  {
    std::istringstream in(reply);
    std::string ok;
    int64_t version, rank, n;
    float score;
    in >> ok >> version >> score >> rank >> n;
    EXPECT_EQ(version, 1);
    EXPECT_EQ(n, data.num_stocks());
    EXPECT_EQ(score, direct.data()[3]);
    EXPECT_GE(rank, 0);
    EXPECT_LT(rank, n);
  }

  const std::string rank_reply =
      RoundTrip(client, "RANK " + std::to_string(day) + " 3");
  EXPECT_EQ(rank_reply.rfind("OK 1 3 ", 0), 0u) << rank_reply;

  // STATS streams the metrics dump, terminated by END.
  std::string stats = RoundTrip(client, "STATS");
  bool saw_requests = false;
  while (!stats.empty() && stats != "END") {
    if (stats.rfind("serve.requests", 0) == 0) saw_requests = true;
    stats = client.ReadLine();
  }
  EXPECT_EQ(stats, "END");
  EXPECT_TRUE(saw_requests);

  EXPECT_EQ(RoundTrip(client, "BOGUS"), "ERR unknown command: BOGUS");
  EXPECT_EQ(RoundTrip(client, "SCORE nope 1"),
            "ERR usage: SCORE <day> <stock> [DEADLINE <ms>]");
  const std::string bad_day = RoundTrip(client, "SCORE 99999 0");
  EXPECT_EQ(bad_day.rfind("ERR ", 0), 0u) << bad_day;

  // HEALTH reports the state machine plus the live model version.
  const std::string health = RoundTrip(client, "HEALTH");
  EXPECT_EQ(health.rfind("OK SERVING version=1", 0), 0u) << health;

  // An over-generous deadline changes nothing about the reply shape.
  const std::string deadline_ok = RoundTrip(
      client, "SCORE " + std::to_string(day) + " 3 DEADLINE 10000");
  EXPECT_EQ(deadline_ok.rfind("OK ", 0), 0u) << deadline_ok;
  EXPECT_EQ(RoundTrip(client, "SCORE 1 2 DEADLINE nope"),
            "ERR usage: SCORE <day> <stock> [DEADLINE <ms>]");
  EXPECT_EQ(RoundTrip(client, "RANK 1 2 DEADLINE -5"),
            "ERR usage: RANK <day> <k> [DEADLINE <ms>]");

  front.Stop();
  server.Stop();
  registry.Stop();
}

// ---------------------------------------------------------------------------
// Protocol abuse: hostile framing must never crash, hang, or leak a
// connection slot. RawClient reads time out, so a regression fails the
// test instead of hanging it.
// ---------------------------------------------------------------------------

struct AbuseStack {
  market::WindowDataset data = MakePanel();
  Metrics metrics;
  std::unique_ptr<ModelRegistry> registry;
  std::unique_ptr<InferenceServer> server;
  std::unique_ptr<AsyncServer> front;

  explicit AbuseStack(const std::string& name, AsyncServer::Options fopts = {
                                                   /*port=*/0}) {
    const std::string dir = TestDir(name);
    TrainAndExport(data, dir, /*epoch=*/1, /*epochs=*/1, 7);
    registry = std::make_unique<ModelRegistry>(
        ModelRegistry::Options{dir, /*reload_interval_ms=*/0}, MakeFactory(),
        &metrics);
    EXPECT_TRUE(registry->Start().ok());
    server = std::make_unique<InferenceServer>(&data, registry.get(),
                                               InferenceServer::Options{},
                                               &metrics);
    EXPECT_TRUE(server->Start().ok());
    front = std::make_unique<AsyncServer>(server.get(), &metrics, fopts);
    EXPECT_TRUE(front->Start().ok());
  }
  ~AbuseStack() {
    front->Stop();
    server->Stop();
    registry->Stop();
  }
};

TEST(AsyncServerAbuseTest, MalformedAndBinaryFramesGetErrNotCrash) {
  AbuseStack stack("abuse_binary");
  RawClient client(stack.front->port());
  ASSERT_TRUE(client.connected());

  // Binary garbage with an eventual newline parses as an unknown command.
  std::string frame("\x01\x02\xff\xfe garbage", 12);
  EXPECT_EQ(RoundTrip(client, frame).rfind("ERR ", 0), 0u);
  // Empty lines and whitespace-only lines get a usage-style error too.
  EXPECT_EQ(RoundTrip(client, "").rfind("ERR", 0), 0u);
  // The connection is still usable afterwards.
  EXPECT_EQ(RoundTrip(client, "PING"), "PONG");
}

TEST(AsyncServerAbuseTest, OversizedLineIsRejectedAndDisconnected) {
  constexpr int64_t kCap = 128;
  AsyncServer::Options fopts{/*port=*/0};
  fopts.max_line_bytes = kCap;
  AbuseStack stack("abuse_oversized", fopts);

  // Request lines beyond max_line_bytes, each in one write with its
  // newline: just over the cap, one 4 KiB page, and more than one 16 KiB
  // read. Every one is rejected without buffering it all, and the peer is
  // disconnected.
  uint64_t rejected = 0;
  for (const size_t bytes : {static_cast<size_t>(kCap + 1), size_t{4096},
                             size_t{20000}}) {
    RawClient client(stack.front->port());
    ASSERT_TRUE(client.connected());
    EXPECT_EQ(RoundTrip(client, std::string(bytes, 'A')), "ERR line too long")
        << bytes << "-byte line";
    EXPECT_TRUE(PeerClosed(client)) << bytes << "-byte line";
    EXPECT_EQ(stack.metrics.oversized_lines.Value(), ++rejected);
  }

  // Lines before the oversized one are still answered, in order.
  {
    RawClient client(stack.front->port());
    ASSERT_TRUE(client.connected());
    ASSERT_TRUE(client.Send("PING\n" + std::string(kCap + 1, 'A') + "\n"));
    EXPECT_EQ(client.ReadLine(), "PONG");
    EXPECT_EQ(client.ReadLine(), "ERR line too long");
    EXPECT_TRUE(PeerClosed(client));
  }

  // A line of exactly the cap is protocol, not abuse.
  {
    RawClient client(stack.front->port());
    ASSERT_TRUE(client.connected());
    EXPECT_EQ(RoundTrip(client, std::string(kCap, 'A')).rfind("ERR unknown", 0),
              0u);
    EXPECT_EQ(RoundTrip(client, "PING"), "PONG");
  }

  // A fresh connection still works: the abuse cost one connection, not
  // the server.
  RawClient again(stack.front->port());
  ASSERT_TRUE(again.connected());
  EXPECT_EQ(RoundTrip(again, "PING"), "PONG");
}

TEST(AsyncServerAbuseTest, ConnectionCapAnswersBusyAndReapsSlots) {
  AsyncServer::Options fopts{/*port=*/0};
  fopts.max_connections = 2;
  AbuseStack stack("abuse_cap", fopts);

  auto a = std::make_unique<RawClient>(stack.front->port());
  auto b = std::make_unique<RawClient>(stack.front->port());
  ASSERT_TRUE(a->connected());
  ASSERT_TRUE(b->connected());
  EXPECT_EQ(RoundTrip(*a, "PING"), "PONG");
  EXPECT_EQ(RoundTrip(*b, "PING"), "PONG");

  // Third connection is over the cap: BUSY + close, counted in metrics.
  RawClient c(stack.front->port());
  ASSERT_TRUE(c.connected());
  EXPECT_EQ(c.ReadLine(), "BUSY too many connections");
  EXPECT_TRUE(PeerClosed(c));
  EXPECT_GE(stack.metrics.busy_rejected.Value(), 1u);

  // Releasing a connection frees its slot, so a new client gets in.
  a.reset();
  for (int i = 0; i < 200 && stack.front->active_connections() >= 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_LT(stack.front->active_connections(), 2);
  RawClient d(stack.front->port());
  ASSERT_TRUE(d.connected());
  EXPECT_EQ(RoundTrip(d, "PING"), "PONG");
}

TEST(AsyncServerAbuseTest, HalfOpenAndQuitlessDisconnectsDoNotWedge) {
  AbuseStack stack("abuse_halfopen");

  // Half-open: client shuts its write side without QUIT. The server sees
  // EOF, closes, and releases the slot.
  {
    RawClient raw(stack.front->port());
    ASSERT_TRUE(raw.connected());
    ASSERT_TRUE(raw.Send("PING\n"));
    EXPECT_EQ(raw.ReadLine(), "PONG");
    raw.CloseSend();
    EXPECT_TRUE(PeerClosed(raw));  // orderly close from the server
  }
  // QUIT-less hard close mid-stream, and an RST right after a request —
  // the reply write hits a dead socket. Without MSG_NOSIGNAL this
  // delivers SIGPIPE and kills the process (the regression this guards).
  for (int i = 0; i < 8; ++i) {
    RawClient raw(stack.front->port());
    ASSERT_TRUE(raw.connected());
    ASSERT_TRUE(
        raw.Send("RANK " + std::to_string(stack.data.first_day()) + " 5\n"));
    if (i % 2 == 0) {
      raw.Reset();  // RST without reading the reply
    }                // else: destructor's plain close without QUIT
  }
  // The server is still alive and serving.
  RawClient after(stack.front->port());
  ASSERT_TRUE(after.connected());
  EXPECT_EQ(RoundTrip(after, "PING"), "PONG");
  // All abused slots were reaped.
  for (int i = 0; i < 200 && stack.front->active_connections() > 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_LE(stack.front->active_connections(), 1);
}

}  // namespace
}  // namespace rtgcn::serve
