// `serve_hot` and `serve_cold`: open-loop traffic over loopback into the
// default serving stack (serve::ServerConfig defaults: the epoll
// AsyncServer over one InferenceServer with the score cache on), serving
// an exported, untrained RT-GCN snapshot.
//
// serve_hot is a "today dashboard": every request asks about one of the
// latest five days, all warmed before timing, so the timed window runs no
// forward and the front end does the work. serve_cold replays a history
// sweep: every valid day once per pass in a seeded order, as a short burst
// of lines, so nearly every day's first line misses the cache and waits
// for the batcher and one forward.
//
// Each timed window starts from a freshly set-up, idle stack. Open-loop
// windows offer the workload's traffic at fixed rates; closed-loop windows
// keep a fixed number of its requests in flight to measure capacity.
#include <algorithm>
#include <charconv>
#include <cstring>
#include <deque>
#include <numeric>
#include <unordered_set>

#include "baselines/rtgcn_predictor.h"
#include "common/thread_pool.h"
#include "harness/checkpoint.h"
#include "layers.h"
#include "loadgen.h"
#include "serve/async_server.h"
#include "serve/config.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace rt = rtgcn;
namespace sv = rtgcn::serve;

constexpr float kAlpha = 0.1f;
constexpr int kHotDays = 5;          // the dashboard's "latest days"
constexpr int32_t kScoreNStocks = 32;
constexpr int32_t kRankTopK = 10;
constexpr int32_t kColdDeadlineMs = 100;
/// Ladder pass rule besides the p99 limit: failed share at most 0.1%.
constexpr double kLadderMaxFailedShare = 0.001;
/// Traced windows are short enough that no per-thread span ring wraps.
constexpr double kHotTraceWindowS = 1.0;
constexpr double kColdTraceWindowS = 2.0;

/// Load of one workload, as absolute values. Rates are arrivals per
/// second: requests on serve_hot, day bursts on serve_cold.
struct Plan {
  double reference = 0;        ///< the open-loop reference windows' rate
  std::vector<double> ladder;  ///< recorded: highest rate within the limit
  double p99_limit_us = 0;
  int lines_per_arrival = 1;
  int in_flight = 0;           ///< capacity windows: requests in flight
  /// Capacity windows draw their requests from a schedule at this rate;
  /// a server faster than it runs out of requests before the window ends,
  /// which shortens the window but leaves the measured rate right.
  double capacity_ceiling = 0;
};

Plan MakePlan(bool hot) {
  if (hot) return {20000, {10000, 20000, 40000, 80000}, 1000, 1, 256, 400000};
  return {50, {25, 50, 100, 200}, 50000, 4, 16, 1000};
}

/// Bit-exact expected scores per day, from ModelSnapshot::Score.
struct Oracle {
  const rt::market::WindowDataset* dataset = nullptr;
  int64_t first_day = 0;
  int64_t n = 0;
  std::vector<std::vector<float>> scores;   // [day - first_day][stock]
  std::vector<std::vector<int32_t>> rank;   // rank of each stock, 0 = best
  std::vector<std::vector<int32_t>> order;  // stocks best first
};

std::vector<int64_t> ServedDays(const rt::market::WindowDataset& ds, bool hot) {
  return hot ? ds.Days(ds.last_day() - kHotDays + 1, ds.last_day())
             : ds.Days(ds.first_day(), ds.last_day());
}

std::string SnapshotDir(const RunArgs& args) {
  return args.work_dir + "/" + args.workload + "-snapshot";
}

std::unique_ptr<rt::harness::GradientPredictor> UntrainedModel(
    const Market& market, uint64_t seed) {
  return std::make_unique<rt::baselines::RtGcnPredictor>(
      market.data.relations.relations, market.config, kAlpha, seed);
}

// Exports the untrained snapshot every stack of this run serves.
std::string ExportSnapshot(const RunArgs& args, const Market& market) {
  rt::harness::CheckpointManager manager({SnapshotDir(args), 1, 0});
  manager.Init().Abort();
  const std::string path = manager.CheckpointPath(1);
  UntrainedModel(market, args.seed)->ExportSnapshot(path).Abort();
  return path;
}

Oracle ComputeOracle(const RunArgs& args, const Market& market, bool hot) {
  Watchdog::Phase("oracle");
  const std::string path = ExportSnapshot(args, market);
  const Market* m = &market;
  const uint64_t seed = args.seed;
  auto snapshot = sv::ModelSnapshot::Load(
                      [m, seed] { return sv::WrapPredictor(UntrainedModel(*m, seed)); },
                      path, 1)
                      .MoveValueOrDie();
  const rt::market::WindowDataset& ds = *market.dataset;
  Oracle oracle;
  oracle.dataset = &ds;
  oracle.first_day = ds.first_day();
  oracle.n = ds.num_stocks();
  const size_t days = static_cast<size_t>(ds.last_day() - ds.first_day() + 1);
  oracle.scores.resize(days);
  oracle.rank.resize(days);
  oracle.order.resize(days);
  for (const int64_t day : ServedDays(ds, hot)) {
    const rt::Tensor t = snapshot->Score(ds.Features(day));
    const size_t i = static_cast<size_t>(day - oracle.first_day);
    std::vector<float>& s = oracle.scores[i];
    s.assign(t.data(), t.data() + t.numel());
    std::vector<int32_t>& order = oracle.order[i];
    order.resize(s.size());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(),
                     [&](int32_t a, int32_t b) { return s[a] > s[b]; });
    oracle.rank[i].assign(s.size(), 0);
    for (size_t r = 0; r < order.size(); ++r) {
      oracle.rank[i][static_cast<size_t>(order[r])] = static_cast<int32_t>(r);
    }
    Watchdog::Progress();
  }
  return oracle;
}

// --- reply checking --------------------------------------------------------

class Cursor {
 public:
  explicit Cursor(std::string_view s) : s_(s) {}
  bool Token(std::string_view* out) {
    if (pos_ >= s_.size()) return false;
    const size_t sp = s_.find(' ', pos_);
    const size_t end = sp == std::string_view::npos ? s_.size() : sp;
    *out = s_.substr(pos_, end - pos_);
    pos_ = end + 1;
    return !out->empty();
  }
  bool Done() const { return pos_ >= s_.size(); }

 private:
  std::string_view s_;
  size_t pos_ = 0;
};

template <typename T>
bool ParseNum(std::string_view s, T* out) {
  const auto r = std::from_chars(s.data(), s.data() + s.size(), *out);
  return r.ec == std::errc() && r.ptr == s.data() + s.size();
}

bool SameBits(float a, float b) { return std::memcmp(&a, &b, sizeof(a)) == 0; }

/// Splits "a:b[:c]" into its fields.
bool SplitEntry(std::string_view e, std::string_view* f, int count) {
  for (int i = 0; i < count; ++i) {
    const size_t colon = e.find(':');
    if (i == count - 1) {
      if (colon != std::string_view::npos) return false;
      f[i] = e;
    } else {
      if (colon == std::string_view::npos) return false;
      f[i] = e.substr(0, colon);
      e = e.substr(colon + 1);
    }
  }
  return true;
}

// True when an OK payload agrees bit-for-bit with the oracle.
bool OkMatches(const Oracle& oracle, const Schedule& schedule, const Op& op,
               Cursor* c) {
  const size_t d = static_cast<size_t>(op.day - oracle.first_day);
  const std::vector<float>& scores = oracle.scores[d];
  std::string_view tok;
  int64_t version = 0;
  if (!c->Token(&tok) || !ParseNum(tok, &version) || version != 1) return false;
  switch (op.verb) {
    case Op::kScore: {
      float score = 0;
      int64_t rank = 0, n = 0;
      if (!c->Token(&tok) || !ParseNum(tok, &score)) return false;
      if (!c->Token(&tok) || !ParseNum(tok, &rank)) return false;
      if (!c->Token(&tok) || !ParseNum(tok, &n)) return false;
      return c->Done() && n == oracle.n &&
             SameBits(score, scores[static_cast<size_t>(op.arg)]) &&
             rank == oracle.rank[d][static_cast<size_t>(op.arg)];
    }
    case Op::kRank: {
      int64_t k = 0;
      if (!c->Token(&tok) || !ParseNum(tok, &k) ||
          k != std::min<int64_t>(op.arg, oracle.n)) {
        return false;
      }
      for (int64_t i = 0; i < k; ++i) {
        std::string_view f[2];
        int32_t stock = 0;
        float score = 0;
        if (!c->Token(&tok) || !SplitEntry(tok, f, 2) ||
            !ParseNum(f[0], &stock) || !ParseNum(f[1], &score) ||
            stock != oracle.order[d][static_cast<size_t>(i)] ||
            !SameBits(score, scores[static_cast<size_t>(stock)])) {
          return false;
        }
      }
      return c->Done();
    }
    case Op::kScoreN: {
      int64_t n = 0;
      if (!c->Token(&tok) || !ParseNum(tok, &n) || n != op.arg) return false;
      for (int32_t i = 0; i < op.arg; ++i) {
        const int32_t want = schedule.pool[op.stocks + static_cast<uint32_t>(i)];
        std::string_view f[3];
        int32_t stock = 0, rank = 0;
        float score = 0;
        if (!c->Token(&tok) || !SplitEntry(tok, f, 3) ||
            !ParseNum(f[0], &stock) || !ParseNum(f[1], &score) ||
            !ParseNum(f[2], &rank) || stock != want ||
            !SameBits(score, scores[static_cast<size_t>(stock)]) ||
            rank != oracle.rank[d][static_cast<size_t>(stock)]) {
          return false;
        }
      }
      return c->Done();
    }
  }
  return false;
}

Checker MakeChecker(const Oracle& oracle, std::string* first_mismatch) {
  return [&oracle, first_mismatch](const Schedule& schedule, const Op& op,
                                   std::string_view payload) {
    Cursor c(payload);
    std::string_view head;
    if (!c.Token(&head)) return Verdict::kError;
    if (head == "BUSY") return Verdict::kBusy;
    if (head == "ERR") {
      return payload.find("deadline exceeded") != std::string_view::npos
                 ? Verdict::kDeadline
                 : Verdict::kError;
    }
    if (head != "OK") return Verdict::kError;
    if (OkMatches(oracle, schedule, op, &c)) return Verdict::kOk;
    if (first_mismatch->empty()) {
      std::string request;
      schedule.AppendPayload(op, &request);
      *first_mismatch = request + " -> " +
                        std::string(payload.substr(0, 200));
    }
    return Verdict::kMismatch;
  };
}

// --- traffic ---------------------------------------------------------------

Schedule MakeTraffic(bool hot, const rt::market::WindowDataset& ds,
                     double rate, double window_s, uint64_t seed) {
  const std::vector<int64_t> days = ServedDays(ds, hot);
  const int32_t n = static_cast<int32_t>(ds.num_stocks());
  auto stock = [n](Rng* rng) {
    return static_cast<int32_t>(rng->UniformInt(static_cast<uint64_t>(n)));
  };
  auto add_scoren = [&](Op op, Rng* rng, Schedule* s) {
    op.verb = Op::kScoreN;
    op.arg = kScoreNStocks;
    op.stocks = static_cast<uint32_t>(s->pool.size());
    for (int32_t i = 0; i < kScoreNStocks; ++i) s->pool.push_back(stock(rng));
    s->ops.push_back(op);
  };
  if (hot) {
    // Mostly SCORE; some SCOREN of 32 stocks and top-10 RANKs; 1% full
    // RANKs of every stock (replies of about 14 KB).
    return MakeSchedule(rate, window_s, seed,
                        [&](int64_t due, Rng* rng, Schedule* s) {
      Op op;
      op.due_ns = due;
      op.day = static_cast<int32_t>(days[rng->UniformInt(days.size())]);
      const double u = rng->Uniform();
      if (u < 0.01) {
        op.verb = Op::kRank;
        op.arg = n;
      } else if (u < 0.05) {
        op.verb = Op::kRank;
        op.arg = kRankTopK;
      } else if (u < 0.08) {
        add_scoren(op, rng, s);
        return;
      } else {
        op.verb = Op::kScore;
        op.arg = stock(rng);
      }
      s->ops.push_back(op);
    });
  }
  // Cold: the days in a seeded order, reshuffled every pass; each day is a
  // burst of RANK 10, SCOREN 32 and two SCOREs, each with a deadline.
  Rng order_rng(seed ^ 0x636f6c64ull);
  std::vector<int64_t> order;
  size_t next = 0;
  return MakeSchedule(rate, window_s, seed,
                      [&](int64_t due, Rng* rng, Schedule* s) {
    if (next == order.size()) {
      order = days;
      order_rng.Shuffle(&order);
      next = 0;
    }
    Op op;
    op.due_ns = due;
    op.day = static_cast<int32_t>(order[next++]);
    op.deadline_ms = kColdDeadlineMs;
    op.verb = Op::kRank;
    op.arg = kRankTopK;
    s->ops.push_back(op);
    add_scoren(op, rng, s);
    for (int i = 0; i < 2; ++i) {
      op.verb = Op::kScore;
      op.arg = stock(rng);
      s->ops.push_back(op);
    }
  });
}

// --- serving stack -----------------------------------------------------------

/// The default serving stack over a freshly built market.
struct Stack {
  std::unique_ptr<Market> market;
  sv::Metrics metrics;
  std::unique_ptr<sv::ModelRegistry> registry;
  std::unique_ptr<sv::InferenceServer> server;
  std::unique_ptr<TracedBackend> traced;
  std::unique_ptr<sv::AsyncServer> front;

  /// Stops front to back (the members' destructors do the same).
  void Stop() {
    front->Stop();
    server->Stop();
    registry->Stop();
  }
};

/// `traced` installs the span decorators around the backend and the model.
std::unique_ptr<Stack> SetUp(const RunArgs& args, bool hot, bool traced,
                             double* setup_s) {
  Watchdog::Phase("serving stack set-up");
  const double t0 = NowSeconds();
  auto stack = std::make_unique<Stack>();
  stack->market = BuildMarket(args.seed);
  ExportSnapshot(args, *stack->market);
  const Market* market = stack->market.get();
  const uint64_t seed = args.seed;
  sv::ServableFactory factory = [market, seed, traced] {
    auto servable = sv::WrapPredictor(UntrainedModel(*market, seed));
    return traced ? TraceServable(std::move(servable)) : std::move(servable);
  };
  stack->registry = std::make_unique<sv::ModelRegistry>(
      sv::ModelRegistry::Options{SnapshotDir(args), /*reload_interval_ms=*/0},
      factory, &stack->metrics);
  stack->registry->Start().Abort();
  const sv::ServerConfig config;
  stack->server = std::make_unique<sv::InferenceServer>(
      market->dataset.get(), stack->registry.get(), config.server_options(),
      &stack->metrics);
  stack->server->Start().Abort();
  sv::Backend* backend = stack->server.get();
  if (traced) {
    stack->traced = std::make_unique<TracedBackend>(backend);
    backend = stack->traced.get();
  }
  stack->front = std::make_unique<sv::AsyncServer>(backend, &stack->metrics,
                                                   config.async_options());
  stack->front->Start().Abort();
  if (hot) {
    for (const int64_t day : ServedDays(*market->dataset, true)) {
      stack->server->Rank(day).status().Abort();
    }
  }
  *setup_s = NowSeconds() - t0;
  return stack;
}

/// Outcome of one timed window.
struct Window {
  std::string label;
  int threads = 0;
  int in_flight = 0;         ///< 0: open loop
  double offered_rps = 0;    ///< open loop only
  LoadReport load;
  uint64_t srv_requests = 0, srv_ok = 0, srv_error = 0, srv_expired = 0,
           srv_shed = 0;
  double p50_us = 0, p99_us = 0, late_p99_us = 0;
  double ops_per_s = 0;      ///< OK replies per second, start to last reply
  double cpu_us_per_op = 0;  ///< process CPU minus the generator's, per request
  double peak_rss_mb = 0;    ///< set-up plus window
  bool within_limit = false; ///< ladder rule: p99, failures and backlog

  bool ServerAccounted() const {
    return srv_requests == srv_ok + srv_error + srv_expired + srv_shed;
  }
  std::string Json() const {
    char buf[1536];
    std::snprintf(
        buf, sizeof(buf),
        "{\"window\": %s, \"threads\": %d, \"in_flight\": %d, "
        "\"offered_rps\": %.1f, "
        "\"p50_us\": %.3f, \"p99_us\": %.3f, \"latency_samples\": %zu, "
        "\"late_p99_us\": %.3f, \"ops_per_s\": %.1f, \"cpu_us_per_op\": %.3f, "
        "\"generator_busy_share\": %.3f, "
        "\"reply_bytes\": {\"SCORE\": %llu, \"RANK\": %llu, \"SCOREN\": %llu}, "
        "\"peak_rss_mb\": %.2f, \"backlog_mid\": %lld, \"backlog_end\": %lld, "
        "\"within_limit\": %s, "
        "\"client\": {\"sent\": %llu, \"ok\": %llu, \"busy\": %llu, "
        "\"deadline\": %llu, \"errors\": %llu, \"abandoned\": %llu, "
        "\"mismatched\": %llu, \"invariant_holds\": %s}, "
        "\"server\": {\"requests\": %llu, \"ok\": %llu, \"error\": %llu, "
        "\"expired\": %llu, \"shed\": %llu, \"invariant_holds\": %s}}",
        JsonString(label).c_str(), threads, in_flight, offered_rps, p50_us, p99_us,
        load.latency_us.size(), late_p99_us, ops_per_s, cpu_us_per_op,
        load.generator_cpu_s / std::max(1e-9, load.elapsed_s),
        static_cast<unsigned long long>(load.reply_bytes[Op::kScore]),
        static_cast<unsigned long long>(load.reply_bytes[Op::kRank]),
        static_cast<unsigned long long>(load.reply_bytes[Op::kScoreN]),
        peak_rss_mb, static_cast<long long>(load.backlog_mid),
        static_cast<long long>(load.backlog_end),
        within_limit ? "true" : "false",
        static_cast<unsigned long long>(load.sent),
        static_cast<unsigned long long>(load.ok),
        static_cast<unsigned long long>(load.busy),
        static_cast<unsigned long long>(load.deadline),
        static_cast<unsigned long long>(load.errors),
        static_cast<unsigned long long>(load.abandoned),
        static_cast<unsigned long long>(load.mismatched),
        load.Accounted() ? "true" : "false",
        static_cast<unsigned long long>(srv_requests),
        static_cast<unsigned long long>(srv_ok),
        static_cast<unsigned long long>(srv_error),
        static_cast<unsigned long long>(srv_expired),
        static_cast<unsigned long long>(srv_shed),
        ServerAccounted() ? "true" : "false");
    return buf;
  }
};

/// The run's windows, each on a freshly set-up stack.
class Windows {
 public:
  Windows(const RunArgs& args, bool hot, const Oracle& oracle, Result* result)
      : args_(args), hot_(hot), plan_(MakePlan(hot)), oracle_(oracle),
        result_(result) {}

  /// Sets up a stack at `threads`, offers `arrivals` per second for
  /// `window_s`, stops the stack and checks replies and both invariants.
  /// `in_flight` > 0 runs the window closed loop instead (LoadOptions).
  /// `spans` non-null traces the window into it.
  Window& Run(const std::string& label, int threads, double arrivals,
              double window_s, uint64_t seed, int in_flight = 0,
              SpanTotals* spans = nullptr);

  const Plan& plan() const { return plan_; }
  const std::deque<Window>& all() const { return windows_; }
  std::vector<double>& setup_s() { return setup_s_; }
  std::string Json() const {
    std::string out = "[";
    for (size_t i = 0; i < windows_.size(); ++i) {
      out += (i ? ", " : "") + windows_[i].Json();
    }
    return out + "]";
  }

 private:
  const RunArgs& args_;
  bool hot_;
  Plan plan_;
  const Oracle& oracle_;
  Result* result_;
  std::deque<Window> windows_;  // stable references across Run calls
  std::vector<double> setup_s_;
};

Window& Windows::Run(const std::string& label, int threads, double arrivals,
                     double window_s, uint64_t seed, int in_flight,
                     SpanTotals* spans) {
  const rt::market::WindowDataset& ds = *oracle_.dataset;
  const Schedule schedule = MakeTraffic(hot_, ds, arrivals, window_s, seed);
  ResetPeakRss();
  // Every set-up runs at the default thread count, so set-up times are
  // comparable; the pool size takes effect at the stack's next forward.
  rt::SetNumThreads(DefaultThreads());
  double setup = 0;
  std::unique_ptr<Stack> stack = SetUp(args_, hot_, spans != nullptr, &setup);
  setup_s_.push_back(setup);
  rt::SetNumThreads(threads);

  Watchdog::Phase(label);
  Window& w = windows_.emplace_back();
  w.label = label;
  w.threads = threads;
  w.in_flight = in_flight;
  w.offered_rps = in_flight > 0 ? 0 : arrivals * plan_.lines_per_arrival;
  std::string mismatch;
  LoadOptions options;
  options.port = stack->front->port();
  options.in_flight = in_flight;
  options.on_progress = [] { Watchdog::Progress(); };
  const uint64_t hits0 = stack->metrics.cache_hits.Value();
  const uint64_t misses0 = stack->metrics.cache_misses.Value();
  if (spans != nullptr) BeginTrace();
  w.load = RunLoad(schedule, options, MakeChecker(oracle_, &mismatch));
  if (spans != nullptr) {
    *spans = CollectSpans();
    spans->cache_hits = stack->metrics.cache_hits.Value() - hits0;
    spans->cache_misses = stack->metrics.cache_misses.Value() - misses0;
    spans->fast_hits = stack->traced->fast_hits();
  }
  stack->Stop();
  w.peak_rss_mb = PeakRssMiB();
  const sv::Metrics& m = stack->metrics;
  w.srv_requests = m.requests.Value();
  w.srv_ok = m.responses_ok.Value();
  w.srv_error = m.responses_error.Value();
  w.srv_expired = m.expired.Value();
  w.srv_shed = m.shed.Value();
  std::vector<double> lat = w.load.latency_us;
  w.p50_us = Percentile(&lat, 0.50);
  w.p99_us = Percentile(&lat, 0.99);
  std::vector<double> late = w.load.late_us;
  w.late_p99_us = Percentile(&late, 0.99);
  const double sent = static_cast<double>(std::max<uint64_t>(1, w.load.sent));
  w.ops_per_s = static_cast<double>(w.load.ok) / std::max(1e-9, w.load.elapsed_s);
  w.cpu_us_per_op =
      (w.load.process_cpu_s - w.load.generator_cpu_s) * 1e6 / sent;
  const int64_t growth = w.load.backlog_end - w.load.backlog_mid;
  w.within_limit =
      w.load.sent > 0 && w.p99_us <= plan_.p99_limit_us &&
      static_cast<double>(w.load.failed()) / sent <= kLadderMaxFailedShare &&
      growth <= std::max<int64_t>(16, static_cast<int64_t>(0.002 * sent));
  if (!w.load.protocol_error.empty()) {
    result_->Fail(label + ": " + w.load.protocol_error);
  }
  if (!mismatch.empty()) {
    result_->Fail(label + ": reply disagrees with the oracle: " + mismatch);
  }
  if (!w.load.Accounted()) {
    result_->Fail(label + ": client invariant sent == ok+busy+deadline+errors+abandoned broken");
  }
  if (!w.ServerAccounted()) {
    result_->Fail(label + ": server invariant requests == ok+error+expired+shed broken");
  }
  return w;
}

uint64_t WindowSeed(uint64_t seed, int index) {
  return seed * 1000003ull + static_cast<uint64_t>(index);
}

// Distinct (version, day) cache misses the traffic implies: a FIFO of the
// server's cache capacity replayed over the requested days in order.
int64_t ExpectedMisses(const Schedule& schedule,
                       const std::vector<int64_t>& warm, int64_t capacity) {
  std::deque<int32_t> fifo;
  std::unordered_set<int32_t> cached;
  auto insert = [&](int32_t day) {
    if (!cached.insert(day).second) return false;
    fifo.push_back(day);
    if (static_cast<int64_t>(fifo.size()) > capacity) {
      cached.erase(fifo.front());
      fifo.pop_front();
    }
    return true;
  };
  for (const int64_t day : warm) insert(static_cast<int32_t>(day));
  int64_t misses = 0;
  for (const Op& op : schedule.ops) misses += insert(op.day) ? 1 : 0;
  return misses;
}

double Mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

// Per-layer breakdown: untraced and traced windows alternate on fresh
// stacks over the same schedules, at the reference rate.
Result RunServeTraced(const RunArgs& args, bool hot, const Oracle& oracle) {
  Result result;
  AddLayerDefaults(&result);
  const int threads = DefaultThreads();
  const rt::market::WindowDataset& ds = *oracle.dataset;
  Windows windows(args, hot, oracle, &result);
  const Plan& plan = windows.plan();
  const double window_s = hot ? kHotTraceWindowS : kColdTraceWindowS;
  const std::vector<int64_t> warm =
      hot ? ServedDays(ds, true) : std::vector<int64_t>{};

  std::vector<double> untraced_lat, traced_lat, late, send_to_reply;
  std::vector<double> fast, blocking, forward;
  double pool_work_us = 0, traced_wall_s = 0;
  size_t dropped = 0, events = 0;
  uint64_t hits = 0, misses = 0;
  int64_t sent = 0, fast_hits = 0, expected_misses = 0;
  const double t_end = NowSeconds() + args.seconds;
  for (int i = 0; i == 0 || NowSeconds() < t_end; ++i) {
    const uint64_t seed = WindowSeed(args.seed, i);
    const Window& u = windows.Run("reference untraced", threads,
                                  plan.reference, window_s, seed);
    untraced_lat.insert(untraced_lat.end(), u.load.latency_us.begin(),
                        u.load.latency_us.end());
    late.insert(late.end(), u.load.late_us.begin(), u.load.late_us.end());

    SpanTotals t;
    const Window& w = windows.Run("reference traced", threads, plan.reference,
                                  window_s, seed, /*in_flight=*/0, &t);
    if (!t.error.empty()) result.Fail("trace export unreadable: " + t.error);
    for (auto [name, into] : {std::pair{"pb.backend.fast", &fast},
                              std::pair{"pb.backend.blocking", &blocking},
                              std::pair{"pb.model.forward", &forward}}) {
      const std::vector<double>& d = t.durations_us[name];
      into->insert(into->end(), d.begin(), d.end());
    }
    pool_work_us += t.pool_work_us;
    traced_wall_s += t.wall_s;
    dropped += t.dropped;
    events += t.events;
    hits += t.cache_hits;
    misses += t.cache_misses;
    fast_hits += t.fast_hits;
    traced_lat.insert(traced_lat.end(), w.load.latency_us.begin(),
                      w.load.latency_us.end());
    // Send-to-reply time: due-time latency less the generator's mean delay.
    const double mean_late = Mean(w.load.late_us);
    for (const double l : w.load.latency_us) send_to_reply.push_back(l - mean_late);
    sent += static_cast<int64_t>(w.load.sent);
    expected_misses += ExpectedMisses(
        MakeTraffic(hot, ds, plan.reference, window_s, seed), warm,
        sv::ServerConfig().cache_capacity);
  }
  rt::SetNumThreads(threads);

  std::vector<double> backend = fast;
  backend.insert(backend.end(), blocking.begin(), blocking.end());
  const double backend_sum = std::accumulate(backend.begin(), backend.end(), 0.0);
  const double forwards = static_cast<double>(forward.size());
  const double sent_d = static_cast<double>(std::max<int64_t>(1, sent));
  result.Metric("serve.fast_path_share",
                static_cast<double>(fast_hits) / sent_d, "ratio");
  result.Metric("serve.front_us", Mean(send_to_reply) - backend_sum / sent_d, "us");
  std::vector<double> b = backend;
  result.Metric("serve.backend_us_p50", Percentile(&b, 0.50), "us");
  result.Metric("serve.backend_us_p99", Percentile(&b, 0.99), "us");
  result.Metric("serve.queue_wait_us",
                blocking.empty() ? 0 : Mean(blocking) - Mean(forward), "us");
  result.Metric("serve.requests_per_forward",
                forwards > 0 ? static_cast<double>(blocking.size()) / forwards : 0,
                "ratio");
  result.Metric("serve.cache_hit_ratio",
                hits + misses > 0 ? static_cast<double>(hits) /
                                        static_cast<double>(hits + misses)
                                  : 0,
                "ratio");
  result.Metric("serve.forward_ms", Mean(forward) * 1e-3, "ms");
  result.Metric("serve.forwards_per_miss",
                expected_misses > 0
                    ? forwards / static_cast<double>(expected_misses)
                    : 0,
                "ratio");
  result.Metric("pool.busy_share",
                pool_work_us * 1e-6 / (threads * std::max(1e-9, traced_wall_s)),
                "ratio");
  result.Metric("gen.late_p99_us", Percentile(&late, 0.99), "us");
  result.Metric("e2e.p50_us", Percentile(&untraced_lat, 0.50), "us");
  result.Metric("e2e.p99_us", Percentile(&untraced_lat, 0.99), "us");
  result.Metric("trace.dropped_spans", static_cast<double>(dropped), "count");
  result.Metric("trace.overhead_share",
                Percentile(&traced_lat, 0.50) /
                        std::max(1e-9, Percentile(&untraced_lat, 0.50)) -
                    1.0,
                "ratio");
  if (dropped > 0) result.Fail("trace rings wrapped: spans were dropped");

  for (const Window& w : windows.all()) {
    result.attempted += static_cast<int64_t>(w.load.sent);
    result.failed += static_cast<int64_t>(w.load.failed());
  }
  result.Fact("windows", windows.Json());
  result.Fact("latency_samples", static_cast<double>(untraced_lat.size()));
  result.Fact("traced_spans", static_cast<double>(events));
  result.Fact("traced_forwards", forwards);
  result.Fact("expected_misses", static_cast<double>(expected_misses));
  result.Fact("backend_samples", static_cast<double>(backend.size()));
  return result;
}

}  // namespace

Result RunServe(const RunArgs& args, bool hot) {
  std::unique_ptr<Market> market = BuildMarket(args.seed);
  const Oracle oracle = ComputeOracle(args, *market, hot);
  Result result = args.trace ? RunServeTraced(args, hot, oracle) : Result();
  RecordRun(args, *market, &result);
  if (args.trace) return result;

  // Shares of --seconds, in four rounds: an open-loop reference window at
  // the default thread count, then closed-loop capacity windows at the
  // default thread count and at 1 thread; then the four ladder rates.
  const int threads = DefaultThreads();
  Windows windows(args, hot, oracle, &result);
  const Plan& plan = windows.plan();
  const double round_s = 0.06 * args.seconds;
  const double ladder_s = 0.04 * args.seconds;
  std::vector<double> cap, cap_1t, cap_cpu, cap_cpu_1t, cpu, rss, p50, p99;
  int64_t sent = 0, failed = 0, good = 0;
  // An untimed window first (checked like the others): one-off start-up
  // costs of the process stay out of the figures.
  windows.Run("warm-up", threads, plan.reference, 0.5, WindowSeed(args.seed, 99));
  windows.setup_s().clear();
  for (int round = 0; round < 4; ++round) {
    const uint64_t seed = WindowSeed(args.seed, round);
    const Window& ref =
        windows.Run("reference", threads, plan.reference, round_s, seed);
    p50.push_back(ref.p50_us);
    p99.push_back(ref.p99_us);
    cpu.push_back(ref.cpu_us_per_op);
    for (const int t : {threads, 1}) {
      const Window& w =
          windows.Run(t == 1 ? "capacity @1 thread" : "capacity", t,
                      plan.capacity_ceiling, round_s, seed, plan.in_flight);
      (t == 1 ? cap_1t : cap).push_back(w.ops_per_s);
      (t == 1 ? cap_cpu_1t : cap_cpu).push_back(w.cpu_us_per_op);
    }
  }
  for (const Window& w : windows.all()) {
    if (w.label == "warm-up") continue;
    rss.push_back(w.peak_rss_mb);
    sent += static_cast<int64_t>(w.load.sent);
    failed += static_cast<int64_t>(w.load.failed());
    good += static_cast<int64_t>(w.load.ok - w.load.mismatched);
  }
  double ladder_max = 0;
  for (size_t r = 0; r < plan.ladder.size(); ++r) {
    const Window& w = windows.Run("ladder", threads, plan.ladder[r], ladder_s,
                                  WindowSeed(args.seed, 10 + static_cast<int>(r)));
    if (w.within_limit) ladder_max = std::max(ladder_max, w.offered_rps);
  }
  rt::SetNumThreads(threads);

  result.attempted = sent;
  result.failed = failed;
  result.Metric("setup_s", Median(windows.setup_s()), "s");
  // Thread stacks and arena memory kept from earlier windows only add to a
  // window's peak, so the smallest peak is the stack's own footprint.
  result.Metric("peak_rss_mb", *std::min_element(rss.begin(), rss.end()), "MiB");
  result.Metric("ok_share",
                static_cast<double>(good) / static_cast<double>(std::max<int64_t>(1, sent)),
                "ratio");
  // Requests per second of server CPU at capacity: the program's own cost,
  // which the generator's rate does not set.
  result.Metric("ops_per_cpu_s_1t", 1e6 / LowerQuartile(cap_cpu_1t), "1/s");
  // Recorded, not bounded: the host moves them too far (README.md).
  result.Fact("ops_per_s", UpperQuartile(cap));
  result.Fact("ops_per_s_1t", UpperQuartile(cap_1t));
  result.Fact("cpu_us_per_op", LowerQuartile(cap_cpu));
  result.Fact("cpu_us_per_op_1t", LowerQuartile(cap_cpu_1t));
  result.Fact("reference_cpu_us_per_op", LowerQuartile(cpu));
  result.Fact("reference_p50_us", Median(p50));
  result.Fact("reference_p99_us", Median(p99));
  result.Fact("ladder_max_rps", ladder_max);
  result.Fact("p99_limit_us", plan.p99_limit_us);
  result.Fact("in_flight", static_cast<double>(plan.in_flight));
  result.Fact("setup_samples", static_cast<double>(windows.setup_s().size()));
  result.Fact("windows", windows.Json());
  return result;
}

}  // namespace perfbench
