// Load generator over protocol v2 (serve/protocol.h).
//
// Open loop: requests arrive on a precomputed schedule (a seeded Poisson
// process, or bursts on Poisson arrival times) regardless of how fast
// replies come back, so a stall queues later requests instead of slowing
// the offered load. Each request is timed from its due time, not from the
// moment it was written, so queueing a stall imposes on later requests is
// counted. How late the generator itself ran is reported separately.
//
// Closed loop: the same requests in order, due times ignored, with a fixed
// number in flight, for a fixed time. The server is never idle, so its
// answer rate is its capacity. Each request is timed from its write.
//
// One thread drives one pipelined connection per core. Every reply line is
// matched to its request by the echoed v2 id and handed to a Checker,
// which compares OK payloads against an oracle.
#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"

namespace perfbench {

using rtgcn::Rng;

/// One scheduled request.
struct Op {
  enum Verb : uint8_t { kScore, kRank, kScoreN };
  int64_t due_ns = 0;  ///< offset from the window start
  Verb verb = kScore;
  int32_t day = 0;
  int32_t arg = 0;     ///< kScore: stock; kRank: k; kScoreN: stock count
  uint32_t stocks = 0; ///< kScoreN: offset of its stock ids in Schedule::pool
  int32_t deadline_ms = 0;  ///< 0 = no DEADLINE suffix
};

/// Requests of one timed window, ordered by due time.
struct Schedule {
  std::vector<Op> ops;
  std::vector<int32_t> pool;  ///< SCOREN stock lists
  double window_s = 0;        ///< last due time is below this

  /// Appends the request's v1 payload ("SCORE 130 7 DEADLINE 50").
  void AppendPayload(const Op& op, std::string* out) const;
};

/// How one reply was judged by the Checker.
enum class Verdict { kOk, kBusy, kDeadline, kError, kMismatch };

/// Judges one reply payload (the line after "2 <id> ") for `op`.
using Checker = std::function<Verdict(const Schedule&, const Op&,
                                      std::string_view payload)>;

struct LoadOptions {
  int port = 0;
  /// 0: open loop. Otherwise closed loop with this many requests in flight;
  /// no request is written after the schedule's window_s.
  int in_flight = 0;
  /// Called whenever a reply arrives (progress for the watchdog).
  std::function<void()> on_progress;
};

/// Client-side outcome of one window. The counters come from two sides:
/// `sent` counts request lines the sockets accepted, the reply counters
/// count every reply line received (one a line, duplicates and replies
/// to unknown ids included), and `abandoned` counts requests queued for
/// sending but never answered. So `sent == ok+busy+deadline+errors+
/// abandoned` fails on a lost write, a duplicate, misrouted or unsolicited
/// reply.
struct LoadReport {
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t busy = 0;
  uint64_t deadline = 0;
  uint64_t errors = 0;     ///< ERR replies and lines matching no request
  uint64_t abandoned = 0;  ///< no reply by the end of the grace period
  uint64_t mismatched = 0; ///< OK replies whose payload disagreed (⊂ ok)
  double elapsed_s = 0;    ///< window start to last reply or grace end
  /// CPU seconds the process spent during the window, and the share of it
  /// the generator thread itself used.
  double process_cpu_s = 0;
  double generator_cpu_s = 0;
  /// Latency of every answered request, µs: from its due time (open loop)
  /// or from its write (closed loop).
  std::vector<double> latency_us;
  /// Send time minus due time of every request, µs (open loop only).
  std::vector<double> late_us;
  /// Bytes of the reply lines matched to requests, by Op::Verb.
  uint64_t reply_bytes[3] = {0, 0, 0};
  int64_t backlog_mid = 0;  ///< outstanding at half the window
  int64_t backlog_end = 0;  ///< outstanding when the last request was sent
  std::string protocol_error;  ///< first reply that broke framing, if any

  uint64_t failed() const {
    return busy + deadline + errors + abandoned + mismatched;
  }
  bool Accounted() const {
    return sent == ok + busy + deadline + errors + abandoned;
  }
};

/// Poisson arrivals at `rate` per second over `window_s` (exactly
/// rate * window_s of them); `make` fills the requests of one arrival (one
/// for single requests, several for a burst) at the given due time.
Schedule MakeSchedule(double rate, double window_s, uint64_t seed,
                      const std::function<void(int64_t due_ns, Rng*,
                                               Schedule*)>& make);

/// Runs `schedule` against a server on loopback and judges every reply.
/// Request i of the schedule carries v2 id i + 1.
/// After the window (open loop: after the last request is due) the
/// generator waits a fixed grace period for outstanding replies.
LoadReport RunLoad(const Schedule& schedule, const LoadOptions& options,
                   const Checker& checker);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
