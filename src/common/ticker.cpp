#include "common/ticker.hpp"

#include <utility>

namespace araxl {

Ticker::Ticker(std::chrono::milliseconds period, std::function<void()> tick)
    : thread_([this, period, tick = std::move(tick)] {
        std::unique_lock<std::mutex> lock(mu_);
        while (!cv_.wait_for(lock, period, [this] { return stop_; })) {
          lock.unlock();
          tick();
          lock.lock();
        }
      }) {}

Ticker::~Ticker() { stop(); }

void Ticker::stop() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

}  // namespace araxl
