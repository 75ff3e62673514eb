// The three benchmark workloads and what they share: the seeded paper-size
// NASDAQ-sim market and the list of metric names every run reports.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <memory>

#include "common.h"
#include "core/rtgcn.h"
#include "market/market.h"

namespace perfbench {

/// Paper-size universe: NASDAQ-sim at --scale full (N = 840).
inline constexpr double kFullScale = 7.0;

/// The five backward ops with the largest self time on `train` on the
/// capture host, reported as train.bwd_op.<op>_ms. Every op's self time is
/// in the traced run's record.
inline constexpr const char* kTopBackwardOps[] = {"Relu", "SliceOp", "MatMul",
                                                  "Sub", "SumAll"};

/// Market, window dataset and model config built from the run seed.
struct Market {
  rtgcn::market::MarketData data;
  std::unique_ptr<rtgcn::market::WindowDataset> dataset;
  rtgcn::core::RtGcnConfig config;  ///< defaults: time-sensitive strategy
};

/// The paper-size universe with prices simulated from `seed` (the program
/// sees only these inputs).
std::unique_ptr<Market> BuildMarket(uint64_t seed);

/// Thread count the host runs at by default (RTGCN_NUM_THREADS, else the
/// hardware concurrency).
int DefaultThreads();

/// Fills the facts every result records about the host and the run.
void RecordRun(const RunArgs& args, const Market& market, Result* result);

/// Adds every per-layer metric the benchmark defines with value 0, so a
/// traced run reports the full set; layers a workload does not exercise
/// keep 0 (no work done).
void AddLayerDefaults(Result* result);

Result RunTrain(const RunArgs& args);
Result RunServe(const RunArgs& args, bool hot);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
