// `train`: RtGcnPredictor::Fit, one epoch over a seeded list of train
// days, alternately at the host's default thread count and at 1 thread
// from the same seed. The traced run replays the same steps through the
// public calls Fit makes (features, forward, loss, backward, clip + step)
// with a span around each phase.
#include <cstring>

#include "autograd/optimizer.h"
#include "autograd/variable.h"
#include "baselines/rtgcn_predictor.h"
#include "common/thread_pool.h"
#include "core/loss.h"
#include "layers.h"
#include "obs/trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace rt = rtgcn;

/// Train days per Fit: one epoch of about a second at N = 840.
constexpr int64_t kTrainDays = 16;
constexpr float kAlpha = 0.1f;  // Eq. (9) balance, the predictor default

/// RtGcnPredictor whose Fit steps are timed one by one.
class TimedPredictor : public rt::baselines::RtGcnPredictor {
 public:
  using RtGcnPredictor::RtGcnPredictor;
  std::vector<double>* step_us = nullptr;

 protected:
  double TrainStep(const rt::Tensor& features, const rt::Tensor& labels,
                   rt::ag::Optimizer* optimizer,
                   const rt::harness::TrainOptions& options,
                   rt::Rng* rng) override {
    const int64_t t0 = NowNanos();
    const double loss =
        RtGcnPredictor::TrainStep(features, labels, optimizer, options, rng);
    if (step_us != nullptr) {
      step_us->push_back(static_cast<double>(NowNanos() - t0) * 1e-3);
    }
    Watchdog::Progress();
    return loss;
  }
};

std::vector<int64_t> TrainDays(const Market& market, uint64_t seed) {
  const rt::market::WindowDataset& ds = *market.dataset;
  std::vector<int64_t> days =
      ds.Days(ds.first_day(), market.data.spec.test_boundary() - 1);
  rt::Rng rng(seed ^ 0x7261696eull);
  rng.Shuffle(&days);
  days.resize(static_cast<size_t>(kTrainDays));
  return days;
}

std::vector<float> Flatten(rt::nn::Module* module) {
  std::vector<float> out;
  for (const auto& p : module->Parameters()) {
    out.insert(out.end(), p->value.data(), p->value.data() + p->value.numel());
  }
  return out;
}

struct FitOutcome {
  double seconds = 0;
  double cpu_s = 0;
  double setup_s = 0;
  double peak_rss_mb = 0;
  int64_t guard_events = 0;
  bool aborted = false;
  std::vector<float> params;
};

// One timed set-up (market + predictor) and one Fit at `threads`.
FitOutcome FitOnce(const RunArgs& args, int threads,
                   std::vector<double>* step_us,
                   std::unique_ptr<Market>* market_out) {
  FitOutcome out;
  rt::SetNumThreads(threads);
  ResetPeakRss();
  const double t0 = NowSeconds();
  std::unique_ptr<Market> market = BuildMarket(args.seed);
  TimedPredictor predictor(market->data.relations.relations, market->config,
                           kAlpha, args.seed);
  out.setup_s = NowSeconds() - t0;
  predictor.step_us = step_us;
  const std::vector<int64_t> days = TrainDays(*market, args.seed);
  rt::harness::TrainOptions options;
  options.epochs = 1;
  options.seed = args.seed;
  const double t1 = NowSeconds(), cpu1 = ProcessCpuSeconds();
  predictor.Fit(*market->dataset, days, options);
  out.seconds = NowSeconds() - t1;
  out.cpu_s = ProcessCpuSeconds() - cpu1;
  out.peak_rss_mb = PeakRssMiB();
  out.guard_events =
      static_cast<int64_t>(predictor.fit_stats().guard_events.size());
  out.aborted = predictor.fit_stats().guard_aborted;
  out.params = Flatten(predictor.mutable_module());
  if (market_out != nullptr) *market_out = std::move(market);
  return out;
}

// The Fit step, phase by phase, through the same public calls.
struct ManualSteps {
  double wall_s = 0;
  int64_t steps = 0;
  std::vector<double> step_us;
};

// `spans` non-null traces the steps (not the model's construction) into it.
ManualSteps RunManualSteps(const Market& market, uint64_t seed, int threads,
                           SpanTotals* spans = nullptr) {
  rt::SetNumThreads(threads);
  rt::baselines::RtGcnPredictor predictor(market.data.relations.relations,
                                          market.config, kAlpha, seed);
  rt::core::RtGcnModel* model = predictor.mutable_model();
  model->SetTraining(true);
  const rt::harness::TrainOptions options;  // Fit's settings
  rt::ag::Adam optimizer(model->Parameters(), options.learning_rate, 0.9f,
                         0.999f, 1e-8f, options.weight_decay);
  rt::Rng rng(seed);
  const rt::market::WindowDataset& ds = *market.dataset;
  ManualSteps out;
  if (spans != nullptr) BeginTrace();
  const double t0 = NowSeconds();
  for (const int64_t day : TrainDays(market, seed)) {
    const int64_t step_start = NowNanos();
    rt::Tensor features, labels;
    {
      rt::obs::Span span("pb.train.features", "perfbench");
      features = ds.Features(day);
      labels = ds.Labels(day);
    }
    rt::ag::VarPtr scores, loss;
    {
      rt::obs::Span span("pb.train.forward", "perfbench");
      scores = model->Forward(rt::ag::Constant(features), &rng);
    }
    {
      rt::obs::Span span("pb.train.loss", "perfbench");
      loss = rt::core::CombinedLoss(scores, labels, kAlpha);
      (void)loss->value.item();
    }
    {
      rt::obs::Span span("pb.train.backward", "perfbench");
      rt::ag::Backward(loss);
    }
    {
      rt::obs::Span span("pb.train.optimizer", "perfbench");
      optimizer.ClipGradNorm(options.grad_clip);
      optimizer.Step();
      optimizer.ZeroGrad();
    }
    ++out.steps;
    out.step_us.push_back(static_cast<double>(NowNanos() - step_start) * 1e-3);
    Watchdog::Progress();
  }
  out.wall_s = NowSeconds() - t0;
  if (spans != nullptr) {
    *spans = CollectSpans();
    spans->wall_s = out.wall_s;
  }
  return out;
}

void AddPhaseMetrics(const SpanTotals& t, int64_t steps,
                     const std::string& suffix, Result* result) {
  const double per_step_ms = steps > 0 ? 1e-3 / static_cast<double>(steps) : 0;
  for (const char* phase :
       {"features", "forward", "loss", "backward", "optimizer"}) {
    const auto it = t.total_us.find(std::string("pb.train.") + phase);
    const double us = it == t.total_us.end() ? 0 : it->second;
    result->Metric(std::string("train.") + phase + "_ms" + suffix,
                   us * per_step_ms, "ms");
  }
}

void Accumulate(const SpanTotals& from, SpanTotals* into) {
  for (const auto& [k, v] : from.self_us) into->self_us[k] += v;
  for (const auto& [k, v] : from.total_us) into->total_us[k] += v;
  into->pool_work_us += from.pool_work_us;
  into->events += from.events;
  into->dropped += from.dropped;
  into->wall_s += from.wall_s;
  if (into->error.empty()) into->error = from.error;
}

Result RunTrainTraced(const RunArgs& args) {
  Result result;
  AddLayerDefaults(&result);
  const int threads = DefaultThreads();
  std::unique_ptr<Market> market = BuildMarket(args.seed);
  RecordRun(args, *market, &result);

  // Untraced and traced passes alternate until the time is spent; each
  // traced pass is collected on its own so no ring wraps.
  SpanTotals traced, traced_1t;
  double untraced_s = 0, traced_s = 0;
  std::vector<double> untraced_step_us;
  int64_t steps = 0, steps_1t = 0;
  const double t_end = NowSeconds() + args.seconds;
  do {
    Watchdog::Phase("train traced pass");
    const ManualSteps plain = RunManualSteps(*market, args.seed, threads);
    untraced_s += plain.wall_s;
    untraced_step_us.insert(untraced_step_us.end(), plain.step_us.begin(),
                            plain.step_us.end());
    SpanTotals t, t1;
    const ManualSteps pass = RunManualSteps(*market, args.seed, threads, &t);
    Accumulate(t, &traced);
    traced_s += pass.wall_s;
    steps += pass.steps;
    steps_1t += RunManualSteps(*market, args.seed, 1, &t1).steps;
    Accumulate(t1, &traced_1t);
  } while (NowSeconds() < t_end);
  rt::SetNumThreads(threads);

  AddPhaseMetrics(traced, steps, "", &result);
  AddPhaseMetrics(traced_1t, steps_1t, "_1t", &result);
  const double per_step_ms = 1e-3 / static_cast<double>(steps);
  double graph_us = 0, matmul_us = 0;
  for (const auto& [name, us] : traced.self_us) {
    if (name.rfind("graph.", 0) == 0) graph_us += us;
    if (name.rfind("tensor.MatMul", 0) == 0 ||
        name.rfind("tensor.BatchMatMul", 0) == 0) {
      matmul_us += us;
    }
  }
  result.Metric("train.graph_ms", graph_us * per_step_ms, "ms");
  result.Metric("train.matmul_ms", matmul_us * per_step_ms, "ms");
  for (const char* op : kTopBackwardOps) {
    const auto it = traced.self_us.find(op);
    result.Metric(std::string("train.bwd_op.") + op + "_ms",
                  it == traced.self_us.end() ? 0 : it->second * per_step_ms,
                  "ms");
  }
  result.Metric("pool.busy_share",
                traced.pool_work_us * 1e-6 / (threads * traced.wall_s),
                "ratio");
  result.Metric("trace.dropped_spans",
                static_cast<double>(traced.dropped + traced_1t.dropped),
                "count");
  result.Metric("trace.overhead_share", traced_s / untraced_s - 1.0, "ratio");
  result.Metric("e2e.p50_us", Percentile(&untraced_step_us, 0.50), "us");
  result.Metric("e2e.p99_us", Percentile(&untraced_step_us, 0.99), "us");
  if (traced.dropped + traced_1t.dropped > 0) {
    result.Fail("trace rings wrapped: spans were dropped");
  }
  for (const SpanTotals* t : {&traced, &traced_1t}) {
    if (!t->error.empty()) result.Fail("trace export unreadable: " + t->error);
  }

  // Backward ops by self time, for the record (the metric list is fixed).
  std::string ops = "{";
  for (const auto& [name, us] : traced.self_us) {
    if (name.find('.') != std::string::npos) continue;  // ops have bare names
    ops += (ops.size() > 1 ? ", " : "") + JsonString(name) + ": " +
           std::to_string(us * per_step_ms);
  }
  result.Fact("bwd_op_self_ms_per_step", ops + "}");
  result.Fact("traced_steps", static_cast<double>(steps));
  result.Fact("traced_steps_1t", static_cast<double>(steps_1t));
  result.Fact("traced_spans", static_cast<double>(traced.events + traced_1t.events));
  result.attempted = steps + steps_1t;
  return result;
}

}  // namespace

Result RunTrain(const RunArgs& args) {
  if (args.trace) return RunTrainTraced(args);
  Result result;
  const int threads = DefaultThreads();
  std::vector<double> setup_s, rate, rate_1t, cpu, cpu_1t, rss, step_us;
  std::vector<float> reference;
  int64_t attempted = 0, skipped = 0, fits = 0;
  std::unique_ptr<Market> market;
  // Every Fit, at either thread count, must end with parameters
  // bit-identical to the first one's.
  auto check_params = [&](const std::vector<float>& params, int t) {
    if (reference.empty()) {
      reference = params;
    } else if (params.size() != reference.size() ||
               std::memcmp(params.data(), reference.data(),
                           reference.size() * sizeof(float)) != 0) {
      result.Fail("parameters after Fit " + std::to_string(fits) + " at " +
                  std::to_string(t) +
                  " thread(s) differ from those of the first Fit");
    }
    ++fits;
  };
  // An untimed pair first: pool start-up, page faults and allocator growth
  // are paid once per process, not by the timed Fits.
  for (const int t : {threads, 1}) {
    Watchdog::Phase("train warm-up");
    check_params(FitOnce(args, t, nullptr, market ? nullptr : &market).params, t);
  }
  const double t_end = NowSeconds() + args.seconds;
  // Pairs alternate which thread count runs first.
  for (int pair = 0; pair < 2 || NowSeconds() < t_end; ++pair) {
    for (int k = 0; k < 2; ++k) {
      const bool one = (pair + k) % 2 == 1;
      const int t = one ? 1 : threads;
      Watchdog::Phase(one ? "train fit at 1 thread" : "train fit");
      const FitOutcome fit = FitOnce(args, t, one ? nullptr : &step_us, nullptr);
      setup_s.push_back(fit.setup_s);
      (one ? rate_1t : rate).push_back(kTrainDays / fit.seconds);
      (one ? cpu_1t : cpu).push_back(fit.cpu_s * 1e6 / kTrainDays);
      rss.push_back(fit.peak_rss_mb);
      attempted += kTrainDays;
      skipped += fit.guard_events;
      if (fit.aborted) result.Fail("Fit aborted by the training guard");
      check_params(fit.params, t);
    }
  }
  rt::SetNumThreads(threads);
  RecordRun(args, *market, &result);
  result.attempted = attempted;
  result.failed = skipped;
  std::vector<double> steps = step_us;
  result.Metric("setup_s", Median(setup_s), "s");
  result.Metric("peak_rss_mb", Median(rss), "MiB");
  result.Metric("ok_share",
                1.0 - static_cast<double>(skipped) / static_cast<double>(attempted),
                "ratio");
  // At 1 thread the process's CPU time is the Fit's own cost.
  result.Metric("ops_per_cpu_s_1t", 1e6 / LowerQuartile(cpu_1t), "1/s");
  // Recorded, not bounded: the host moves them too far (README.md).
  result.Fact("ops_per_s", UpperQuartile(rate));
  result.Fact("ops_per_s_1t", UpperQuartile(rate_1t));
  result.Fact("cpu_us_per_op", LowerQuartile(cpu));
  result.Fact("cpu_us_per_op_1t", LowerQuartile(cpu_1t));
  auto list = [](const std::vector<double>& v) {
    std::string out = "[";
    for (size_t i = 0; i < v.size(); ++i) {
      out += (i ? ", " : "") + std::to_string(v[i]);
    }
    return out + "]";
  };
  result.Fact("fit_days_per_s", list(rate));
  result.Fact("fit_days_per_s_1t", list(rate_1t));
  result.Fact("fit_cpu_us_per_day", list(cpu));
  result.Fact("fit_cpu_us_per_day_1t", list(cpu_1t));
  result.Fact("step_p50_us", Percentile(&steps, 0.50));
  result.Fact("step_p99_us", Percentile(&steps, 0.99));
  result.Fact("fits", static_cast<double>(fits));
  result.Fact("train_days_per_fit", static_cast<double>(kTrainDays));
  result.Fact("step_samples", static_cast<double>(step_us.size()));
  result.Fact("setup_samples", static_cast<double>(setup_s.size()));
  result.Fact("guard_skipped_steps", static_cast<double>(skipped));
  return result;
}

}  // namespace perfbench
