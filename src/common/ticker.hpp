// Periodic callback on a background thread that stops without waiting out
// its period: `araxl sweep` prints its progress heartbeat this way, and a
// sweep that finishes mid-period must not sleep on until the next tick.
#ifndef ARAXL_COMMON_TICKER_HPP
#define ARAXL_COMMON_TICKER_HPP

#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>

namespace araxl {

/// Calls `tick` every `period` until stop() (or destruction), which wakes
/// and joins the thread at once. `tick` must not throw: an exception
/// escaping the thread ends the program.
class Ticker {
 public:
  Ticker(std::chrono::milliseconds period, std::function<void()> tick);
  ~Ticker();
  Ticker(const Ticker&) = delete;
  Ticker& operator=(const Ticker&) = delete;

  /// Idempotent; a tick already running finishes first.
  void stop();

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace araxl

#endif  // ARAXL_COMMON_TICKER_HPP
