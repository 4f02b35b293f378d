#include "apps/app.hpp"

#include <stdexcept>

namespace hars {

App::App(std::string name, int thread_count, SpeedModel speed,
         std::size_t heartbeat_window)
    : name_(std::move(name)),
      thread_count_(thread_count),
      speed_(speed),
      heartbeats_(heartbeat_window) {
  if (thread_count <= 0) {
    throw std::invalid_argument("App requires at least one thread");
  }
}

void App::subtract_tick_major(double* acc, std::size_t n, std::size_t stride,
                              TickOperands full, TickOperands part,
                              const bool* short_ticks, std::int64_t ticks) {
  for (std::int64_t k = 0; k < ticks; ++k) {
    const TickOperands& tick =
        short_ticks != nullptr && short_ticks[k] ? part : full;
    for (int j = 0; j < tick.rows; ++j) {
      const double* row = tick.ops + static_cast<std::size_t>(j) * stride;
      for (std::size_t m = 0; m < n; ++m) acc[m] -= row[m];
    }
  }
}

}  // namespace hars
