// Benchmark driver: runs one workload for a fixed time and prints its
// metrics as one JSON object on the last line of standard output.
//
//   perfbench --workload train|serve_hot|serve_cold --seed N --seconds S
//             --trace 0|1 [--work_dir DIR]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same
// workload with spans on and prints the per-layer breakdown. The line
// before the result is a record of the host and the run.
#include <sys/utsname.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "common/thread_pool.h"
#include "graph/sparse.h"
#include "tensor/kernels/kernels.h"
#include "workloads.h"

namespace perfbench {

namespace rt = rtgcn;

std::unique_ptr<Market> BuildMarket(uint64_t seed) {
  // The universe and its relation graph are the fixed NASDAQ-sim preset, so
  // every seed does the same amount of graph work; the seed drives the
  // simulated prices (and, in the workloads, model init and traffic).
  auto market = std::make_unique<Market>();
  const rt::market::MarketSpec spec = rt::market::NasdaqSpec(kFullScale);
  market->data.spec = spec;
  rt::Rng rng(spec.seed);
  market->data.universe = rt::market::StockUniverse::Generate(
      spec.num_stocks, spec.num_industries, &rng);
  rt::market::RelationConfig relations;
  relations.num_wiki_types = spec.num_wiki_types;
  relations.wiki_links_per_stock = spec.wiki_links_per_stock;
  market->data.relations =
      rt::market::GenerateRelations(market->data.universe, relations, &rng);
  rt::market::SimulatorConfig sim;
  sim.num_days = spec.num_days();
  sim.crash_day = spec.test_boundary();
  sim.seed = seed;
  market->data.sim = rt::market::Simulate(market->data.universe,
                                          market->data.relations, sim);
  market->dataset = std::make_unique<rt::market::WindowDataset>(
      market->data.MakeDataset(market->config.window,
                               market->config.num_features));
  return market;
}

int DefaultThreads() {
  static const int threads = [] {
    rt::SetNumThreads(0);
    return rt::NumThreads();
  }();
  return threads;
}

namespace {

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string EnvOr(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? v : fallback;
}

}  // namespace

void RecordRun(const RunArgs& args, const Market& market, Result* result) {
  utsname host{};
  uname(&host);
  result->Fact("workload", JsonString(args.workload));
  result->Fact("seed", static_cast<double>(args.seed));
  result->Fact("seconds", args.seconds);
  result->Fact("trace", args.trace ? "true" : "false");
  result->Fact("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  result->Fact("cpu_model", JsonString(CpuModel()));
  result->Fact("os_kernel", JsonString(std::string(host.sysname) + " " + host.release));
  result->Fact("threads", static_cast<double>(DefaultThreads()));
  result->Fact("kernel_backend", JsonString(rt::kernels::Active().name));
  result->Fact("graph_backend", JsonString(rt::graph::GraphBackendName(
                                    rt::graph::ActiveGraphBackend())));
  result->Fact("num_stocks", static_cast<double>(market.dataset->num_stocks()));
  result->Fact("valid_days",
               static_cast<double>(market.dataset->last_day() -
                                   market.dataset->first_day() + 1));
  result->Fact("git_commit", JsonString(EnvOr("PERFBENCH_GIT_COMMIT", "unknown")));
  result->Fact("source_digest", JsonString(EnvOr("PERFBENCH_SOURCE_DIGEST", "unknown")));
}

void AddLayerDefaults(Result* result) {
  static const char* const kMs[] = {
      "train.features_ms",  "train.forward_ms",   "train.loss_ms",
      "train.backward_ms",  "train.optimizer_ms", "train.features_ms_1t",
      "train.forward_ms_1t", "train.loss_ms_1t",  "train.backward_ms_1t",
      "train.optimizer_ms_1t", "train.graph_ms",  "train.matmul_ms",
      "serve.forward_ms"};
  for (const char* name : kMs) result->Metric(name, 0, "ms");
  for (const char* op : kTopBackwardOps) {
    result->Metric(std::string("train.bwd_op.") + op + "_ms", 0, "ms");
  }
  for (const char* name : {"serve.front_us", "serve.backend_us_p50",
                           "serve.backend_us_p99", "serve.queue_wait_us",
                           "gen.late_p99_us", "e2e.p50_us", "e2e.p99_us"}) {
    result->Metric(name, 0, "us");
  }
  for (const char* name :
       {"pool.busy_share", "serve.fast_path_share", "serve.cache_hit_ratio",
        "serve.requests_per_forward", "serve.forwards_per_miss",
        "trace.overhead_share"}) {
    result->Metric(name, 0, "ratio");
  }
  result->Metric("trace.dropped_spans", 0, "count");
}

}  // namespace perfbench

namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "train|serve_hot|serve_cold --seed N --seconds S --trace 0|1 "
               "[--work_dir DIR]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  args.work_dir = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args.trace = value == "1";
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
    } else if (flag == "--work_dir") {
      args.work_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') Usage(("bad value for " + flag).c_str());
  }
  if (args.seconds <= 0) Usage("--seconds must be positive");
  if (args.workload != "train" && args.workload != "serve_hot" &&
      args.workload != "serve_cold") {
    Usage(("unknown workload '" + args.workload + "'").c_str());
  }

  perfbench::Watchdog::Start(args.workload, /*stall_seconds=*/20);
  const perfbench::Result result =
      args.workload == "train"
          ? perfbench::RunTrain(args)
          : perfbench::RunServe(args, /*hot=*/args.workload == "serve_hot");
  perfbench::Watchdog::Stop();
  perfbench::PrintResult(result);
  return result.correct ? 0 : 1;
}
