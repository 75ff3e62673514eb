#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "autograd/gradcheck.h"
#include "autograd/optimizer.h"
#include "baselines/rtgcn_predictor.h"
#include "common/thread_pool.h"
#include "core/loss.h"
#include "core/rtgcn.h"
#include "graph/adjacency.h"
#include "graph/sparse.h"
#include "graph_checker.h"
#include "market/dataset.h"
#include "tensor/init.h"
#include "tensor/kernels/kernels.h"
#include "tensor/ops.h"

namespace rtgcn::core {
namespace {

graph::RelationTensor SmallRelations() {
  graph::RelationTensor rel(6, 3);
  rel.AddRelation(0, 1, 0).Abort();
  rel.AddRelation(1, 2, 0).Abort();
  rel.AddRelation(0, 2, 1).Abort();
  rel.AddRelation(3, 4, 2).Abort();
  return rel;
}

RtGcnConfig SmallConfig(Strategy s) {
  RtGcnConfig cfg;
  cfg.strategy = s;
  cfg.window = 8;
  cfg.num_features = 3;
  cfg.relational_filters = 4;
  cfg.temporal_stride = 2;
  cfg.dropout = 0.0f;
  return cfg;
}

class RtGcnTest : public ::testing::TestWithParam<Strategy> {
 protected:
  graph::RelationTensor rel_ = SmallRelations();
  Rng rng_{11};
};

TEST_P(RtGcnTest, ForwardShape) {
  RtGcnConfig cfg = SmallConfig(GetParam());
  RtGcnModel model(rel_, cfg, &rng_);
  Tensor x = RandomUniform({8, 6, 3}, 0.9f, 1.1f, &rng_);
  ag::NoGradGuard no_grad;
  auto scores = model.Forward(ag::Constant(x), &rng_);
  EXPECT_EQ(scores->shape(), (Shape{6}));
}

TEST_P(RtGcnTest, GradientsReachEveryParameter) {
  RtGcnConfig cfg = SmallConfig(GetParam());
  RtGcnModel model(rel_, cfg, &rng_);
  Tensor x = RandomUniform({8, 6, 3}, 0.9f, 1.1f, &rng_);
  Tensor y = RandomGaussian({6}, 0, 0.02f, &rng_);
  auto scores = model.Forward(ag::Constant(x), &rng_);
  ag::Backward(CombinedLoss(scores, y, 0.1f));
  for (const auto& p : model.Parameters()) {
    EXPECT_TRUE(p->grad.defined());
    EXPECT_GT(Norm(p->grad), 0.0f);
  }
}

TEST_P(RtGcnTest, EndToEndGradCheck) {
  RtGcnConfig cfg = SmallConfig(GetParam());
  cfg.window = 5;
  RtGcnModel model(rel_, cfg, &rng_);
  model.SetTraining(false);
  Tensor x = RandomUniform({5, 6, 3}, 0.9f, 1.1f, &rng_);
  Tensor y = RandomGaussian({6}, 0, 0.02f, &rng_);
  auto params = model.Parameters();
  Rng fwd_rng(3);
  EXPECT_TRUE(ag::GradCheck(
      [&](const std::vector<ag::VarPtr>&) {
        auto scores = model.Forward(ag::Constant(x), &fwd_rng);
        return CombinedLoss(scores, y, 0.1f);
      },
      params, /*tol=*/8e-2f));
}

TEST_P(RtGcnTest, TrainingReducesLoss) {
  RtGcnConfig cfg = SmallConfig(GetParam());
  RtGcnModel model(rel_, cfg, &rng_);
  ag::Adam opt(model.Parameters(), 5e-3f);
  Tensor x = RandomUniform({8, 6, 3}, 0.9f, 1.1f, &rng_);
  Tensor y({6}, {0.02f, -0.01f, 0.03f, -0.02f, 0.0f, 0.01f});
  float first = 0, last = 0;
  for (int step = 0; step < 60; ++step) {
    opt.ZeroGrad();
    auto loss = CombinedLoss(model.Forward(ag::Constant(x), &rng_), y, 0.1f);
    if (step == 0) first = loss->value.item();
    last = loss->value.item();
    ag::Backward(loss);
    opt.Step();
  }
  EXPECT_LT(last, 0.5f * first);
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, RtGcnTest,
                         ::testing::Values(Strategy::kUniform,
                                           Strategy::kWeight,
                                           Strategy::kTimeSensitive),
                         [](const auto& info) {
                           return StrategyName(info.param);
                         });

TEST(RtGcnLayerTest, TemporalCompression) {
  auto rel = SmallRelations();
  Rng rng(1);
  RtGcnConfig cfg = SmallConfig(Strategy::kUniform);
  cfg.temporal_stride = 2;
  RtGcnLayer layer(rel, cfg, 3, 4, &rng);
  EXPECT_EQ(layer.out_length(8), 2);  // ceil(ceil(8/2)/2)
  Tensor x = RandomUniform({8, 6, 3}, 0.9f, 1.1f, &rng);
  ag::NoGradGuard no_grad;
  auto h = layer.Forward(ag::Constant(x), &rng);
  EXPECT_EQ(h->shape(), (Shape{2, 6, 4}));
}

TEST(RtGcnLayerTest, UniformPropagationMatchesNormalizedAdjacency) {
  auto rel = SmallRelations();
  Rng rng(2);
  RtGcnConfig cfg = SmallConfig(Strategy::kUniform);
  RtGcnLayer layer(rel, cfg, 3, 4, &rng);
  ag::NoGradGuard no_grad;
  Tensor x = RandomUniform({8, 6, 3}, 0.9f, 1.1f, &rng);
  layer.Forward(ag::Constant(x), &rng);
  EXPECT_TRUE(
      AllClose(layer.last_propagation(), graph::NormalizedAdjacency(rel)));
}

TEST(RtGcnLayerTest, TimeSensitivePropagationVariesWithFeatures) {
  auto rel = SmallRelations();
  Rng rng(3);
  RtGcnConfig cfg = SmallConfig(Strategy::kTimeSensitive);
  RtGcnLayer layer(rel, cfg, 3, 4, &rng);
  ag::NoGradGuard no_grad;
  Tensor x1 = RandomUniform({8, 6, 3}, 0.9f, 1.1f, &rng);
  layer.Forward(ag::Constant(x1), &rng);
  Tensor p1 = layer.last_propagation().Clone();
  Tensor x2 = RandomUniform({8, 6, 3}, 0.5f, 1.5f, &rng);
  layer.Forward(ag::Constant(x2), &rng);
  EXPECT_FALSE(AllClose(p1, layer.last_propagation()));
}

// The sparse backend keeps no per-forward edge values: last_propagation()
// recomputes them from the last Forward's input under the current
// parameters. It must equal, bit for bit, the densified values of a direct
// call with save_edge_values on that input (time-averaged for the
// time-sensitive strategy), and follow the next Forward.
TEST(RtGcnLayerTest, SparseLastPropagationIsRecomputedFromLastInput) {
  ScopedGraphBackend sparse(graph::GraphBackend::kSparse);
  const graph::RelationTensor rel = SmallRelations();
  const graph::CsrPtr g = graph::CsrGraph::NormalizedAdjacency(rel);
  for (const Strategy strategy :
       {Strategy::kWeight, Strategy::kTimeSensitive}) {
    Rng rng(21);
    RtGcnLayer layer(rel, SmallConfig(strategy), 3, 4, &rng);
    ag::VarPtr w, b;
    for (const auto& [name, p] : layer.NamedParameters()) {
      if (name == "relation_w") w = p;
      if (name == "relation_b") b = p;
    }
    ASSERT_TRUE(w && b);
    // The direct call's values, densified as the layer documents.
    auto direct = [&](const Tensor& x) {
      ag::NoGradGuard no_grad;
      Tensor values;
      if (strategy == Strategy::kWeight) {
        graph::SparseEdgeWeightPropagate(
            g, w, b, ag::Constant(Tensor({g->num_nodes(), 2})), &values);
        return g->Densify(values.data());
      }
      graph::SparseTimeSensitivePropagate(g, w, b, ag::Constant(x), &values);
      const int64_t t_len = values.dim(0);
      const int64_t nnz = values.dim(1);
      std::vector<float> avg(static_cast<size_t>(nnz), 0.0f);
      for (int64_t t = 0; t < t_len; ++t) {
        for (int64_t e = 0; e < nnz; ++e) {
          avg[e] += values.data()[t * nnz + e];
        }
      }
      const float inv = 1.0f / static_cast<float>(t_len);
      for (int64_t e = 0; e < nnz; ++e) avg[e] *= inv;
      return g->Densify(avg.data());
    };
    auto bitwise_equal = [](const Tensor& a, const Tensor& c) {
      return a.shape() == c.shape() &&
             std::memcmp(a.data(), c.data(), sizeof(float) * a.numel()) == 0;
    };

    const Tensor x1 = RandomUniform({8, 6, 3}, 0.9f, 1.1f, &rng);
    {
      ag::NoGradGuard no_grad;
      layer.Forward(ag::Constant(x1), &rng);
    }
    const Tensor p1 = layer.last_propagation().Clone();
    EXPECT_TRUE(bitwise_equal(p1, direct(x1))) << StrategyName(strategy);

    // A later Forward on new input (and, for W, new weights, on which its
    // values alone depend) replaces it.
    const Tensor x2 = RandomUniform({8, 6, 3}, 0.5f, 1.5f, &rng);
    if (strategy == Strategy::kWeight) w->value.data()[0] += 0.5f;
    {
      ag::NoGradGuard no_grad;
      layer.Forward(ag::Constant(x2), &rng);
    }
    const Tensor p2 = layer.last_propagation().Clone();
    EXPECT_FALSE(bitwise_equal(p1, p2)) << StrategyName(strategy);
    EXPECT_TRUE(bitwise_equal(p2, direct(x2))) << StrategyName(strategy);
  }
}

TEST(RtGcnModelTest, AblationConfigsWork) {
  auto rel = SmallRelations();
  Rng rng(4);
  RtGcnConfig r_conv = SmallConfig(Strategy::kUniform);
  r_conv.use_temporal = false;
  RtGcnModel rc(rel, r_conv, &rng);
  RtGcnConfig t_conv = SmallConfig(Strategy::kUniform);
  t_conv.use_relational = false;
  RtGcnModel tc(rel, t_conv, &rng);
  ag::NoGradGuard no_grad;
  Tensor x = RandomUniform({8, 6, 3}, 0.9f, 1.1f, &rng);
  EXPECT_EQ(rc.Forward(ag::Constant(x), &rng)->shape(), (Shape{6}));
  EXPECT_EQ(tc.Forward(ag::Constant(x), &rng)->shape(), (Shape{6}));
}

TEST(RtGcnModelTest, StackedLayers) {
  auto rel = SmallRelations();
  Rng rng(5);
  RtGcnConfig cfg = SmallConfig(Strategy::kWeight);
  cfg.num_layers = 2;
  cfg.temporal_stride = 2;
  RtGcnModel model(rel, cfg, &rng);
  ag::NoGradGuard no_grad;
  Tensor x = RandomUniform({8, 6, 3}, 0.9f, 1.1f, &rng);
  EXPECT_EQ(model.Forward(ag::Constant(x), &rng)->shape(), (Shape{6}));
}

TEST(RtGcnModelTest, LastPoolingMode) {
  auto rel = SmallRelations();
  Rng rng(6);
  RtGcnConfig cfg = SmallConfig(Strategy::kUniform);
  cfg.pooling = TemporalPooling::kLast;
  RtGcnModel model(rel, cfg, &rng);
  ag::NoGradGuard no_grad;
  Tensor x = RandomUniform({8, 6, 3}, 0.9f, 1.1f, &rng);
  EXPECT_EQ(model.Forward(ag::Constant(x), &rng)->shape(), (Shape{6}));
}

// ---------------------------------------------------------------------------
// Loss (Eq. 7-9)
// ---------------------------------------------------------------------------

TEST(LossTest, RegressionLossIsMse) {
  auto scores = ag::Constant(Tensor({3}, {0.1f, 0.2f, 0.3f}));
  Tensor labels({3}, {0.1f, 0.0f, 0.3f});
  EXPECT_NEAR(RegressionLoss(scores, labels)->value.item(), 0.04f / 3.0f,
              1e-6);
}

TEST(LossTest, RankingLossZeroForPerfectOrder) {
  // Scores ordered like labels: every pairwise product positive -> 0 loss.
  auto scores = ag::Constant(Tensor({3}, {3.0f, 2.0f, 1.0f}));
  Tensor labels({3}, {0.3f, 0.2f, 0.1f});
  EXPECT_NEAR(PairwiseRankingLoss(scores, labels)->value.item(), 0.0f, 1e-7);
}

TEST(LossTest, RankingLossPenalizesInversions) {
  auto good = ag::Constant(Tensor({2}, {1.0f, 0.0f}));
  auto bad = ag::Constant(Tensor({2}, {0.0f, 1.0f}));
  Tensor labels({2}, {0.1f, -0.1f});
  EXPECT_EQ(PairwiseRankingLoss(good, labels)->value.item(), 0.0f);
  EXPECT_GT(PairwiseRankingLoss(bad, labels)->value.item(), 0.0f);
}

TEST(LossTest, CombinedRespectsAlpha) {
  auto scores = ag::MakeVariable(Tensor({3}, {0.0f, 0.1f, -0.1f}), true);
  Tensor labels({3}, {0.05f, -0.05f, 0.02f});
  const float reg = RegressionLoss(scores, labels)->value.item();
  const float rank = PairwiseRankingLoss(scores, labels)->value.item();
  EXPECT_NEAR(CombinedLoss(scores, labels, 0.5f)->value.item(),
              reg + 0.5f * rank, 1e-6);
  EXPECT_NEAR(CombinedLoss(scores, labels, 0.0f)->value.item(), reg, 1e-6);
}

TEST(LossTest, GradCheckCombined) {
  Rng rng(7);
  auto scores = ag::MakeVariable(RandomGaussian({5}, 0, 0.1f, &rng), true);
  Tensor labels = RandomGaussian({5}, 0, 0.02f, &rng);
  EXPECT_TRUE(ag::GradCheck(
      [&](const std::vector<ag::VarPtr>& in) {
        return CombinedLoss(in[0], labels, 0.3f);
      },
      {scores}));
}

// ---------------------------------------------------------------------------
// Fused ranking loss vs the broadcast composition it replaced
// ---------------------------------------------------------------------------

// The pre-fusion PairwiseRankingLoss, verbatim: outer differences by
// broadcasting, then Mul/Neg/Relu/MeanAll over [N, N] temporaries. Kept
// only as the oracle the fused op must match bit for bit.
ag::VarPtr OracleRankingLoss(const ag::VarPtr& scores, const Tensor& labels) {
  const int64_t n = scores->numel();
  ag::VarPtr col = ag::Reshape(scores, {n, 1});
  ag::VarPtr row = ag::Reshape(scores, {1, n});
  ag::VarPtr pred_diff = ag::Sub(col, row);
  Tensor lcol = labels.Reshape({n, 1});
  Tensor lrow = labels.Reshape({1, n});
  Tensor label_diff = rtgcn::Sub(rtgcn::BroadcastTo(lcol, {n, n}),
                                 rtgcn::BroadcastTo(lrow, {n, n}));
  ag::VarPtr product = ag::Mul(pred_diff, ag::Constant(label_diff));
  return ag::MeanAll(ag::Relu(ag::Neg(product)));
}

ag::VarPtr OracleCombinedLoss(const ag::VarPtr& scores, const Tensor& labels,
                              float alpha) {
  return ag::Add(RegressionLoss(scores, labels),
                 ag::MulScalar(OracleRankingLoss(scores, labels), alpha));
}

bool BitEqual(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

// Rounds to multiples of `step` so many entries tie exactly.
Tensor Quantize(const Tensor& t, float step) {
  return Map(t, [step](float v) { return std::round(v / step) * step; });
}

struct LossRun {
  Tensor value;
  Tensor grad;
};

template <typename LossFn>
LossRun RunLoss(const Tensor& scores, const LossFn& loss_fn) {
  auto s = ag::MakeVariable(scores.Clone(), /*requires_grad=*/true);
  ag::VarPtr loss = loss_fn(s);
  ag::Backward(loss);
  return {loss->value, s->grad};
}

TEST(LossTest, FusedRankingLossMatchesCompositionBitwise) {
  const kernels::Backend saved_backend = kernels::ActiveBackend();
  for (const kernels::KernelSet* ks : kernels::AllKernels()) {
    if (!ks->supported()) continue;
    kernels::SetBackend(ks == &kernels::Avx2() ? kernels::Backend::kAvx2
                                               : kernels::Backend::kReference);
    for (const int threads : {1, 2, 4}) {
      SetNumThreads(threads);
      for (const int64_t n : {1, 2, 7, 8, 9, 840}) {
        for (const bool ties : {false, true}) {
          Rng rng(static_cast<uint64_t>(100 + n));
          Tensor scores = RandomGaussian({n}, 0, 0.1f, &rng);
          Tensor labels = RandomGaussian({n}, 0, 0.02f, &rng);
          if (ties) {
            scores = Quantize(scores, 0.05f);
            labels = Quantize(labels, 0.01f);
          }
          const std::string where = std::string(ks->name) + ", " +
                                    std::to_string(threads) + " threads, N=" +
                                    std::to_string(n) +
                                    (ties ? ", ties" : "");
          const LossRun fused = RunLoss(scores, [&](const ag::VarPtr& s) {
            return PairwiseRankingLoss(s, labels);
          });
          const LossRun oracle = RunLoss(scores, [&](const ag::VarPtr& s) {
            return OracleRankingLoss(s, labels);
          });
          EXPECT_TRUE(BitEqual(fused.value, oracle.value)) << where;
          EXPECT_TRUE(BitEqual(fused.grad, oracle.grad)) << where;
          // Inside the combined loss the MSE gradient lands on the same
          // buffer afterwards, which pins the accumulation order.
          const LossRun fused_c = RunLoss(scores, [&](const ag::VarPtr& s) {
            return CombinedLoss(s, labels, 0.1f);
          });
          const LossRun oracle_c = RunLoss(scores, [&](const ag::VarPtr& s) {
            return OracleCombinedLoss(s, labels, 0.1f);
          });
          EXPECT_TRUE(BitEqual(fused_c.value, oracle_c.value)) << where;
          EXPECT_TRUE(BitEqual(fused_c.grad, oracle_c.grad)) << where;
        }
      }
    }
  }
  SetNumThreads(0);
  kernels::SetBackend(saved_backend);
}

// RT-GCN trained through the oracle composition instead of the fused loss.
class OracleLossPredictor : public baselines::RtGcnPredictor {
 public:
  using RtGcnPredictor::RtGcnPredictor;

 protected:
  ag::VarPtr Loss(const ag::VarPtr& scores, const Tensor& labels) override {
    return OracleCombinedLoss(scores, labels, alpha());
  }
};

TEST(LossTest, FitWithFusedLossMatchesOracleFitBitwise) {
  Rng rng(9);
  const int64_t days = 40, n = 32;
  Tensor prices({days, n});
  for (int64_t i = 0; i < n; ++i) prices.at({0, i}) = 100.0f;
  for (int64_t t = 1; t < days; ++t) {
    for (int64_t i = 0; i < n; ++i) {
      prices.at({t, i}) = prices.at({t - 1, i}) *
                          (1.0f + static_cast<float>(rng.Gaussian(0, 0.02)));
    }
  }
  const market::WindowDataset data(prices, 8, 3);
  const std::vector<int64_t> train_days =
      data.Days(data.first_day(), data.first_day() + 5);
  graph::RelationTensor rel(n, 2);
  for (int64_t i = 0; i + 1 < n; ++i) rel.AddRelation(i, i + 1, i % 2).Abort();
  RtGcnConfig cfg = SmallConfig(Strategy::kTimeSensitive);
  harness::TrainOptions options;
  options.epochs = 2;
  options.seed = 4;
  // A large α so the ranking gradient moves every parameter's low bits.
  const float alpha = 1.0f;
  baselines::RtGcnPredictor fused(rel, cfg, alpha, /*seed=*/17);
  OracleLossPredictor oracle(rel, cfg, alpha, /*seed=*/17);
  fused.Fit(data, train_days, options);
  oracle.Fit(data, train_days, options);
  const auto a = fused.mutable_module()->Parameters();
  const auto b = oracle.mutable_module()->Parameters();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(BitEqual(a[i]->value, b[i]->value)) << "parameter " << i;
  }
}

}  // namespace
}  // namespace rtgcn::core
