// Bounded waits for tests that could deadlock: a hang fails the test
// instead of stalling ctest until its global timeout.
#ifndef RTGCN_TESTS_DEADLINE_H_
#define RTGCN_TESTS_DEADLINE_H_

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <future>
#include <memory>
#include <thread>

namespace rtgcn::test {

/// Runs `body` on its own thread and waits at most `limit` for it. Stuck
/// threads cannot be joined, so a timeout reports `what` and ends the
/// process at once with a failing exit code.
inline void RunWithDeadline(std::function<void()> body,
                            std::chrono::seconds limit, const char* what) {
  auto done = std::make_shared<std::promise<void>>();
  std::future<void> finished = done->get_future();
  std::thread runner([body = std::move(body), done] {
    body();
    done->set_value();
  });
  if (finished.wait_for(limit) != std::future_status::ready) {
    std::fprintf(stderr, "FAILED: %s did not finish within %lld s\n", what,
                 static_cast<long long>(limit.count()));
    std::fflush(stderr);
    std::_Exit(1);
  }
  runner.join();
}

}  // namespace rtgcn::test

#endif  // RTGCN_TESTS_DEADLINE_H_
