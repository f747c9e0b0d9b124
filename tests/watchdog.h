// A watchdog for tests whose failure mode is a hang: if the guarded scope
// has not ended within its limit, the test binary prints what hung and
// exits 1 at once, instead of holding ctest until its timeout.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>

namespace emlio::testing {

class Watchdog {
 public:
  Watchdog(std::chrono::milliseconds limit, std::string what)
      : what_(std::move(what)), thread_([this, limit] {
          std::unique_lock<std::mutex> lock(mu_);
          if (!cv_.wait_for(lock, limit, [this] { return done_; })) {
            std::fprintf(stderr, "watchdog: %s still running after %lld ms\n", what_.c_str(),
                         static_cast<long long>(limit.count()));
            std::fflush(stderr);
            std::_Exit(1);
          }
        }) {}

  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::string what_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;  // last: starts after the fields it reads
};

}  // namespace emlio::testing
