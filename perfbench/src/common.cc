#include "common.h"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <thread>

namespace perfbench {

double Percentile(std::vector<double>* v, double p) {
  if (v->empty()) return 0;
  std::sort(v->begin(), v->end());
  const double idx = p * static_cast<double>(v->size() - 1);
  const size_t lo = static_cast<size_t>(idx);
  const size_t hi = std::min(lo + 1, v->size() - 1);
  return (*v)[lo] + ((*v)[hi] - (*v)[lo]) * (idx - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Percentile(&v, 0.5); }
double LowerQuartile(std::vector<double> v) { return Percentile(&v, 0.25); }
double UpperQuartile(std::vector<double> v) { return Percentile(&v, 0.75); }

void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";  // 5: reset VmHWM
}

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out.append(buf);
    } else {
      out.push_back(c);
    }
  }
  return out + "\"";
}

namespace {

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Result::Fact(const std::string& key, double value) {
  record[key] = JsonNumber(value);
}

void PrintResult(const Result& result) {
  std::string record = "{\"perfbench_record\": {";
  bool first = true;
  for (const auto& [key, value] : result.record) {
    record += (first ? "" : ", ") + JsonString(key) + ": " + value;
    first = false;
  }
  record += std::string(first ? "" : ", ") + "\"problems\": [";
  for (size_t i = 0; i < result.problems.size(); ++i) {
    record += (i ? ", " : "") + JsonString(result.problems[i]);
  }
  record += "]}}";
  std::string line = "{\"correct\": ";
  line += result.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(std::max<int64_t>(1, result.attempted));
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  first = true;
  for (const auto& [name, metric] : result.metrics) {
    line += (first ? "" : ", ") + JsonString(name) + ": {\"value\": " +
            JsonNumber(metric.first) + ", \"unit\": " +
            JsonString(metric.second) + "}";
    first = false;
  }
  line += "}}";
  std::printf("%s\n%s\n", record.c_str(), line.c_str());
  std::fflush(stdout);
}

namespace {

struct WatchdogState {
  std::mutex mu;
  std::string workload;
  std::string phase = "setup";
  double stall_seconds = 0;
  bool stop = false;
  std::thread thread;
};

WatchdogState& State() {
  static WatchdogState* state = new WatchdogState;  // outlives exit paths
  return *state;
}

std::atomic<int64_t> g_last_progress_ns{0};

}  // namespace

void Watchdog::Start(const std::string& workload, double stall_seconds) {
  WatchdogState& s = State();
  s.workload = workload;
  s.stall_seconds = stall_seconds;
  Progress();
  s.thread = std::thread([&s] {
    for (;;) {
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
      std::lock_guard<std::mutex> lock(s.mu);
      if (s.stop) return;
      const double idle =
          static_cast<double>(NowNanos() - g_last_progress_ns.load()) * 1e-9;
      if (idle < s.stall_seconds) continue;
      Result stalled;
      stalled.Fact("workload", JsonString(s.workload));
      stalled.Fact("stalled_phase", JsonString(s.phase));
      stalled.Fact("stalled_for_s", idle);
      stalled.Fail("workload " + s.workload + " stalled in phase '" + s.phase +
                   "': no operation completed for " +
                   std::to_string(static_cast<int>(idle)) + " s");
      stalled.attempted = 1;
      stalled.failed = 1;
      stalled.Metric("ok_share", 0.0, "ratio");
      PrintResult(stalled);
      std::fprintf(stderr, "perfbench: %s\n", stalled.problems[0].c_str());
      // Threads blocked inside the program cannot be joined; end here.
      _exit(3);
    }
  });
}

void Watchdog::Progress() {
  g_last_progress_ns.store(NowNanos(), std::memory_order_relaxed);
}

void Watchdog::Phase(const std::string& phase) {
  WatchdogState& s = State();
  std::lock_guard<std::mutex> lock(s.mu);
  s.phase = phase;
  g_last_progress_ns.store(NowNanos(), std::memory_order_relaxed);
}

void Watchdog::Stop() {
  WatchdogState& s = State();
  {
    std::lock_guard<std::mutex> lock(s.mu);
    s.stop = true;
  }
  if (s.thread.joinable()) s.thread.join();
}

}  // namespace perfbench
