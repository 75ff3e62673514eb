// Shared helpers of the benchmark driver: run arguments, clocks, sample
// statistics, the progress watchdog and the result record.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Command-line arguments of one run.
struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;  ///< scratch directory for exported snapshots
};

/// Seconds on the steady clock.
inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nanoseconds on the steady clock.
inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolated percentile `p` in [0, 1] of `v` (sorted in place);
/// 0 for an empty sample.
double Percentile(std::vector<double>* v, double p);

/// Median of a copy of `v`.
double Median(std::vector<double> v);

/// Host stalls (vCPU steal, throttling) only ever add time, so the least
/// disturbed quarter of repeated measurements carries the signal: the
/// lower quartile of times and costs, the upper quartile of rates.
double LowerQuartile(std::vector<double> v);
double UpperQuartile(std::vector<double> v);

/// Returns memory freed so far to the OS (malloc_trim) and restarts the
/// kernel's peak-RSS mark, so PeakRssMiB() covers what runs next.
void ResetPeakRss();

/// Peak resident set size since the last ResetPeakRss(), MiB.
double PeakRssMiB();

/// CPU seconds (user + system) this process has used.
double ProcessCpuSeconds();

/// \brief Everything a run measured: end-to-end or per-layer metrics, the
/// operation accounting, and free-form facts about the host and the run.
struct Result {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> problems;  ///< why `correct` is false
  std::map<std::string, std::pair<double, std::string>> metrics;  ///< value, unit
  std::map<std::string, std::string> record;  ///< run facts (JSON values)

  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void Fact(const std::string& key, const std::string& json_value) {
    record[key] = json_value;
  }
  void Fact(const std::string& key, double value);
  void Fail(const std::string& problem) {
    correct = false;
    problems.push_back(problem);
  }
};

/// JSON string literal for `s`.
std::string JsonString(const std::string& s);

/// Prints the run record line and, last, the one-line result object.
void PrintResult(const Result& result);

/// \brief Progress watchdog. Workload code calls Progress() whenever an
/// operation completes; when none completes for `stall_seconds`, the
/// watchdog prints a failed result naming the stalled phase and ends the
/// process (threads blocked in the program cannot be joined).
class Watchdog {
 public:
  static void Start(const std::string& workload, double stall_seconds);
  static void Progress();
  /// Names the phase a stall would be attributed to.
  static void Phase(const std::string& phase);
  static void Stop();
};

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
