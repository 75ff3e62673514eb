#include "layers.h"

#include <algorithm>
#include <sstream>
#include <unordered_map>

#include "common.h"
#include "obs/trace.h"

namespace perfbench {

namespace sv = rtgcn::serve;
using rtgcn::obs::Span;
using rtgcn::obs::Tracer;

namespace {

double g_trace_start = 0;

bool IsPoolSpan(const std::string& name) {
  return name.rfind("pool.", 0) == 0;
}

}  // namespace

void BeginTrace() {
  Tracer::Clear();
  g_trace_start = NowSeconds();
  Tracer::SetEnabled(true);
}

SpanTotals CollectSpans() {
  Tracer::SetEnabled(false);
  SpanTotals totals;
  totals.wall_s = NowSeconds() - g_trace_start;
  totals.dropped = Tracer::DroppedCount();
  std::ostringstream json;
  Tracer::WriteChromeJson(json);
  Tracer::Clear();
  std::vector<rtgcn::obs::TraceEventRecord> events;
  if (!rtgcn::obs::ParseChromeTraceJson(json.str(), &events, &totals.error)) {
    return totals;
  }
  std::unordered_map<int64_t, std::vector<const rtgcn::obs::TraceEventRecord*>>
      by_thread;
  for (const auto& e : events) {
    if (e.ph != "X") continue;
    ++totals.events;
    totals.total_us[e.name] += e.dur;
    if (e.name == "pool.work") totals.pool_work_us += e.dur;
    if (e.name.rfind("pb.", 0) == 0) {
      totals.durations_us[e.name].push_back(e.dur);
    }
    if (!IsPoolSpan(e.name)) by_thread[e.tid].push_back(&e);
  }
  // Self time: walk each thread's spans in start order with a stack of
  // open ancestors; a span's duration is charged against its direct parent.
  for (auto& [tid, spans] : by_thread) {
    std::sort(spans.begin(), spans.end(), [](auto* a, auto* b) {
      return a->ts != b->ts ? a->ts < b->ts : a->dur > b->dur;
    });
    struct Open {
      const rtgcn::obs::TraceEventRecord* e;
      double child_us;
    };
    std::vector<Open> stack;
    auto close_top = [&] {
      const Open& top = stack.back();
      totals.self_us[top.e->name] += std::max(0.0, top.e->dur - top.child_us);
      stack.pop_back();
    };
    for (const auto* e : spans) {
      while (!stack.empty() &&
             stack.back().e->ts + stack.back().e->dur <= e->ts) {
        close_top();
      }
      if (!stack.empty()) stack.back().child_us += e->dur;
      stack.push_back({e, 0});
    }
    while (!stack.empty()) close_top();
  }
  return totals;
}

rtgcn::Result<sv::RankReply> TracedBackend::Rank(int64_t day,
                                                 sv::RequestOptions request) {
  Span span("pb.backend.blocking", "perfbench");
  return inner_->Rank(day, request);
}

rtgcn::Result<sv::ScoreReply> TracedBackend::Score(
    int64_t day, int64_t stock, sv::RequestOptions request) {
  Span span("pb.backend.blocking", "perfbench");
  return inner_->Score(day, stock, request);
}

bool TracedBackend::TryRankCached(int64_t day, sv::RankReply* out) {
  Span span("pb.backend.fast", "perfbench");
  const bool hit = inner_->TryRankCached(day, out);
  if (hit) fast_hits_.fetch_add(1, std::memory_order_relaxed);
  return hit;
}

bool TracedBackend::TryScoreCached(int64_t day, int64_t stock,
                                   sv::ScoreReply* out) {
  Span span("pb.backend.fast", "perfbench");
  const bool hit = inner_->TryScoreCached(day, stock, out);
  if (hit) fast_hits_.fetch_add(1, std::memory_order_relaxed);
  return hit;
}

namespace {

class TracedServable : public sv::ServableModel {
 public:
  explicit TracedServable(std::unique_ptr<sv::ServableModel> inner)
      : inner_(std::move(inner)) {}

  rtgcn::nn::Module* module() override { return inner_->module(); }

  rtgcn::Tensor Score(const rtgcn::Tensor& features) override {
    Span span("pb.model.forward", "perfbench");
    return inner_->Score(features);
  }

 private:
  std::unique_ptr<sv::ServableModel> inner_;
};

}  // namespace

std::unique_ptr<sv::ServableModel> TraceServable(
    std::unique_ptr<sv::ServableModel> inner) {
  return std::make_unique<TracedServable>(std::move(inner));
}

}  // namespace perfbench
