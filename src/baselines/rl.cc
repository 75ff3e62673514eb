#include "baselines/rl.h"

#include "autograd/ops.h"
#include "autograd/optimizer.h"
#include "common/stopwatch.h"
#include "core/loss.h"
#include "tensor/storage_pool.h"

namespace rtgcn::baselines {

ag::VarPtr Mlp::Forward(const ag::VarPtr& x) const {
  return fc2_.Forward(ag::Relu(fc1_.Forward(x)));
}

namespace {

// Flattens one day's window features [T, N, D] to per-stock states [N, T*D].
Tensor FlattenFeatures(const Tensor& features) {
  const int64_t t_len = features.dim(0);
  const int64_t n = features.dim(1);
  const int64_t d = features.dim(2);
  return Permute(features, {1, 0, 2}).Reshape({n, t_len * d});
}

}  // namespace

// ---------------------------------------------------------------------------
// DQN
// ---------------------------------------------------------------------------

DqnPredictor::DqnPredictor(int64_t window, int64_t num_features,
                           int64_t hidden, int64_t ensemble, uint64_t seed)
    : window_(window), num_features_(num_features), rng_(seed) {
  for (int64_t e = 0; e < ensemble; ++e) {
    q_nets_.push_back(std::make_unique<Mlp>(window * num_features, hidden,
                                            /*out=*/2, &rng_));
  }
}

Tensor DqnPredictor::FlattenDay(const market::WindowDataset& data,
                                int64_t day) const {
  return FlattenFeatures(data.Features(day));
}

void DqnPredictor::Fit(const market::WindowDataset& data,
                       const std::vector<int64_t>& train_days,
                       const harness::TrainOptions& options) {
  ScopedStoragePool storage_pool;  // as in GradientPredictor::Fit
  Stopwatch watch;
  // The RL loops have no checkpointed state to roll back to, so the guard
  // degrades kRollback to per-step skipping here.
  harness::GuardOptions guard_options = options.guard;
  if (guard_options.policy == harness::GuardPolicy::kRollback) {
    guard_options.policy = harness::GuardPolicy::kSkip;
  }
  harness::TrainingGuard guard(guard_options, options.learning_rate);
  for (auto& net : q_nets_) {
    ag::Adam optimizer(net->Parameters(), options.learning_rate);
    std::vector<int64_t> days = train_days;
    for (int64_t epoch = 0; epoch < options.epochs; ++epoch) {
      rng_.Shuffle(&days);
      for (int64_t day : days) {
        if (day + 1 > data.last_day()) continue;
        Tensor states = FlattenDay(data, day);
        Tensor rewards = data.Labels(day);  // reward of `buy` at day
        const int64_t n = states.dim(0);

        // One-step TD target: r(a) + γ max_a' Q(s', a'); hold pays 0.
        Tensor next_q_max;
        {
          ag::NoGradGuard no_grad;
          Tensor next_states = FlattenDay(data, day + 1);
          Tensor next_q = net->Forward(ag::Constant(next_states))->value;
          next_q_max = Max(next_q, 1);  // [N]
        }
        Tensor target({n, 2});
        for (int64_t i = 0; i < n; ++i) {
          const float boot = gamma_ * next_q_max.data()[i];
          target.data()[i * 2 + 0] = boot;                      // hold
          target.data()[i * 2 + 1] = rewards.data()[i] + boot;  // buy
        }
        optimizer.ZeroGrad();
        ag::VarPtr q = net->Forward(ag::Constant(states));
        ag::VarPtr loss =
            ag::MeanAll(ag::Square(ag::Sub(q, ag::Constant(target))));
        const double loss_value = loss->value.item();
        if (!guard.StepLossOk(loss_value)) continue;
        ag::Backward(loss);
        const float norm = optimizer.ClipGradNorm(options.grad_clip);
        if (!guard.GradNormOk(norm)) continue;
        optimizer.Step();
        guard.OnGoodStep(loss_value);
      }
    }
    if (guard.aborted()) break;
  }
  fit_stats_.train_seconds = watch.ElapsedSeconds();
  fit_stats_.epochs = options.epochs;
  fit_stats_.guard_events = guard.events();
  fit_stats_.guard_aborted = guard.aborted();
}

Tensor DqnPredictor::Predict(const market::WindowDataset& data, int64_t day) {
  ag::NoGradGuard no_grad;
  Tensor states = FlattenDay(data, day);
  const int64_t n = states.dim(0);
  Tensor scores = Tensor::Zeros({n});
  for (auto& net : q_nets_) {
    Tensor q = net->Forward(ag::Constant(states))->value;
    for (int64_t i = 0; i < n; ++i) {
      // Advantage of buying over holding, ensemble-averaged.
      scores.data()[i] += (q.at({i, 1}) - q.at({i, 0})) /
                          static_cast<float>(q_nets_.size());
    }
  }
  return scores;
}

// ---------------------------------------------------------------------------
// iRDPG
// ---------------------------------------------------------------------------

IrdpgPredictor::IrdpgPredictor(int64_t window, int64_t num_features,
                               int64_t hidden, uint64_t seed)
    : window_(window), num_features_(num_features), rng_(seed) {
  policy_ = std::make_unique<Mlp>(window * num_features, hidden, 1, &rng_);
}

Tensor IrdpgPredictor::FlattenDay(const market::WindowDataset& data,
                                  int64_t day) const {
  return FlattenFeatures(data.Features(day));
}

void IrdpgPredictor::Fit(const market::WindowDataset& data,
                         const std::vector<int64_t>& train_days,
                         const harness::TrainOptions& options) {
  ScopedStoragePool storage_pool;  // as in GradientPredictor::Fit
  Stopwatch watch;
  ag::Adam optimizer(policy_->Parameters(), options.learning_rate);
  harness::GuardOptions guard_options = options.guard;
  if (guard_options.policy == harness::GuardPolicy::kRollback) {
    guard_options.policy = harness::GuardPolicy::kSkip;
  }
  harness::TrainingGuard guard(guard_options, options.learning_rate);
  std::vector<int64_t> days = train_days;
  for (int64_t epoch = 0; epoch < options.epochs; ++epoch) {
    rng_.Shuffle(&days);
    for (int64_t day : days) {
      Tensor states = FlattenDay(data, day);
      Tensor labels = data.Labels(day);
      const int64_t n = states.dim(0);
      optimizer.ZeroGrad();
      ag::VarPtr actions =
          ag::Reshape(policy_->Forward(ag::Constant(states)), {n});
      // Imitation of the greedy expert (realized returns) + profitability.
      ag::VarPtr imitation = core::RegressionLoss(actions, labels);
      ag::VarPtr profit = core::PairwiseRankingLoss(actions, labels);
      ag::VarPtr loss = ag::Add(ag::MulScalar(imitation, imitation_weight_),
                                ag::MulScalar(profit, profit_weight_));
      const double loss_value = loss->value.item();
      if (!guard.StepLossOk(loss_value)) continue;
      ag::Backward(loss);
      const float norm = optimizer.ClipGradNorm(options.grad_clip);
      if (!guard.GradNormOk(norm)) continue;
      optimizer.Step();
      guard.OnGoodStep(loss_value);
    }
    if (guard.aborted()) break;
  }
  fit_stats_.train_seconds = watch.ElapsedSeconds();
  fit_stats_.epochs = options.epochs;
  fit_stats_.guard_events = guard.events();
  fit_stats_.guard_aborted = guard.aborted();
}

Tensor IrdpgPredictor::Predict(const market::WindowDataset& data,
                               int64_t day) {
  ag::NoGradGuard no_grad;
  Tensor states = FlattenDay(data, day);
  const int64_t n = states.dim(0);
  return policy_->Forward(ag::Constant(states))->value.Reshape({n});
}

}  // namespace rtgcn::baselines
