// Per-layer attribution for the traced runs.
//
// The benchmark records its own obs::Span scopes around the calls it makes
// into each layer (category "perfbench", names "pb.*"): a serve::Backend
// decorator between the front end and the InferenceServer, a ServableModel
// decorator installed through the registry's ServableFactory, and the
// train-step phases. The program's existing spans (graph.*, tensor.*, the
// per-op autograd spans, pool.work) are recorded alongside them while the
// tracer is on. CollectSpans() exports the rings, parses them back and
// reduces them to self time per span name.
#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "serve/protocol.h"
#include "serve/snapshot.h"

namespace perfbench {

/// Span totals of one traced window.
struct SpanTotals {
  std::map<std::string, double> self_us;   ///< duration minus child spans
  std::map<std::string, double> total_us;  ///< duration
  /// Individual durations (µs) of the benchmark's own "pb.*" spans.
  std::map<std::string, std::vector<double>> durations_us;
  double pool_work_us = 0;  ///< pool.work summed over every thread
  uint64_t cache_hits = 0;    ///< score-cache hits during the window
  uint64_t cache_misses = 0;
  int64_t fast_hits = 0;      ///< requests answered by the inline cache path
  size_t events = 0;
  size_t dropped = 0;
  double wall_s = 0;  ///< enable-to-collect wall time
  std::string error;  ///< set when the exported trace could not be parsed
};

/// Clears the rings and turns the tracer on.
void BeginTrace();

/// Turns the tracer off and reduces every recorded span. pool.* spans are
/// transparent for self time: a kernel's time spent running its own chunks
/// stays with the kernel.
SpanTotals CollectSpans();

/// \brief Backend decorator: spans "pb.backend.fast" around the cache
/// fast path and "pb.backend.blocking" around blocking queries, and a
/// count of fast-path hits.
class TracedBackend : public rtgcn::serve::Backend {
 public:
  explicit TracedBackend(rtgcn::serve::Backend* inner) : inner_(inner) {}

  rtgcn::Result<rtgcn::serve::RankReply> Rank(
      int64_t day, rtgcn::serve::RequestOptions request) override;
  rtgcn::Result<rtgcn::serve::ScoreReply> Score(
      int64_t day, int64_t stock, rtgcn::serve::RequestOptions request) override;
  bool TryRankCached(int64_t day, rtgcn::serve::RankReply* out) override;
  bool TryScoreCached(int64_t day, int64_t stock,
                      rtgcn::serve::ScoreReply* out) override;
  rtgcn::serve::HealthState Health() override { return inner_->Health(); }
  std::string HealthLine() override { return inner_->HealthLine(); }
  int64_t CurrentVersion() const override { return inner_->CurrentVersion(); }
  int64_t num_shards() const override { return inner_->num_shards(); }

  int64_t fast_hits() const { return fast_hits_.load(); }

 private:
  rtgcn::serve::Backend* inner_;
  std::atomic<int64_t> fast_hits_{0};
};

/// Wraps a servable so each forward records a "pb.model.forward" span.
std::unique_ptr<rtgcn::serve::ServableModel> TraceServable(
    std::unique_ptr<rtgcn::serve::ServableModel> inner);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
