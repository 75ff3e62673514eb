// Shared fixtures for the serving suites (serve_test, chaos_test,
// serve_front_test): a tiny linear ranking model over a deterministic
// price panel, checkpoint export, per-process scratch directories, the
// server-side accounting sum, and line helpers over serve::RawClient.
#ifndef RTGCN_TESTS_SERVE_TEST_UTIL_H_
#define RTGCN_TESTS_SERVE_TEST_UTIL_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>

#include "autograd/ops.h"
#include "common/file_util.h"
#include "harness/checkpoint.h"
#include "harness/gradient_predictor.h"
#include "market/dataset.h"
#include "nn/linear.h"
#include "serve/chaos.h"
#include "serve/metrics.h"
#include "serve/snapshot.h"

namespace rtgcn::serve {

/// Scores each stock with one linear layer over its last window row.
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

inline market::WindowDataset MakePanel(int64_t days = 90, int64_t n = 10) {
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

inline ServableFactory MakeFactory() {
  return [] { return WrapPredictor(std::make_unique<LinearRanker>(2)); };
}

/// Trains a LinearRanker for `epochs` on the panel and exports its weights
/// as checkpoint `epoch` in `dir`; returns the trained predictor so tests
/// can compute expected scores directly.
inline std::unique_ptr<LinearRanker> TrainAndExport(
    const market::WindowDataset& data, const std::string& dir, int64_t epoch,
    int64_t epochs, uint64_t seed) {
  auto model = std::make_unique<LinearRanker>(2, seed);
  harness::TrainOptions opts;
  opts.epochs = epochs;
  opts.learning_rate = 1e-2f;
  opts.seed = seed;
  model->Fit(data, data.Days(data.first_day(), 60), opts);
  harness::CheckpointManager manager({dir, 1, 0});
  EXPECT_TRUE(manager.Init().ok());
  EXPECT_TRUE(model->ExportSnapshot(manager.CheckpointPath(epoch)).ok());
  return model;
}

/// A per-process scratch directory, emptied if a previous run left files.
inline std::string TestDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "serve_" + name + "_" +
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

/// Right-hand side of the server accounting identity
/// requests == ok + error + expired + shed.
inline uint64_t AccountedRequests(const Metrics& m) {
  return m.responses_ok.Value() + m.responses_error.Value() +
         m.expired.Value() + m.shed.Value();
}

/// Sends one line and reads one reply line ("" on EOF or read timeout).
inline std::string RoundTrip(RawClient& client, const std::string& line) {
  EXPECT_TRUE(client.Send(line + "\n"));
  return client.ReadLine();
}

/// True when the server closed the connection: the read ends in EOF well
/// before its timeout, with no further line.
inline bool PeerClosed(RawClient& client) {
  constexpr int64_t kTimeoutMs = 5000;
  const auto start = std::chrono::steady_clock::now();
  const std::string line = client.ReadLine(kTimeoutMs);
  const auto waited = std::chrono::steady_clock::now() - start;
  return line.empty() && waited < std::chrono::milliseconds(kTimeoutMs / 2);
}

}  // namespace rtgcn::serve

#endif  // RTGCN_TESTS_SERVE_TEST_UTIL_H_
