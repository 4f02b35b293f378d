// Base class for simulated self-adaptive multithreaded applications.
//
// An App owns its heartbeat monitor and a speed model (how fast one of its
// threads retires work on each core type). The SimEngine drives it through
// execute / end_tick; heartbeats are emitted from end_tick when a unit of
// work completes.
#pragma once

#include <cmath>
#include <string>
#include <vector>

#include "hmp/machine.hpp"
#include "heartbeats/heartbeat.hpp"
#include "util/common.hpp"

namespace hars {

/// Per-application execution speed model. `ipc_big` / `ipc_little` are
/// effective work-units per second per GHz on each core type; their ratio
/// (at equal frequency) is the benchmark's true big:little performance
/// ratio r — e.g. blackscholes measures r ~= 1.0 in the paper even though
/// the architectural width ratio is 1.5.
///
/// `mem_sensitivity` models the memory wall: a fraction of execution time
/// that does not scale with core frequency (0 = fully compute-bound, the
/// paper's implicit assumption; 1 = fully memory-bound). Effective speed
/// is ipc * f^(1 - mem_sensitivity) with f in GHz, so CPU-frequency
/// scaling buys less on memory-bound code — a known failure mode of the
/// performance estimator's linearity assumption.
struct SpeedModel {
  double ipc_big = 3.0;
  double ipc_little = 2.0;
  double mem_sensitivity = 0.0;

  double speed(CoreType type, double freq_ghz) const {
    const double ipc = type == CoreType::kBig ? ipc_big : ipc_little;
    if (mem_sensitivity <= 0.0) return ipc * freq_ghz;
    return ipc * std::pow(freq_ghz, 1.0 - mem_sensitivity);
  }
};

/// One thread's CPU grant for every tick of a quiet span (SimEngine's
/// fast-forward): the share and the core it would be handed by
/// execute() each tick. A share of 0 means the engine does not execute
/// the thread (it is not runnable or not placed). A span tick is either
/// full or *short*: the manager core lost one overhead charge, so the
/// threads on it get `short_share_us` (everyone else's equals share_us).
struct ThreadGrant {
  TimeUs share_us = 0;
  TimeUs short_share_us = 0;
  CoreType type = CoreType::kLittle;
  double freq_ghz = 0.0;
  TimeUs used_us = 0;        ///< Out (App::quiet_ticks): per full tick.
  TimeUs short_used_us = 0;  ///< Out (App::quiet_ticks): per short tick.
};

class App {
 public:
  App(std::string name, int thread_count, SpeedModel speed,
      std::size_t heartbeat_window = 10);
  virtual ~App() = default;

  App(const App&) = delete;
  App& operator=(const App&) = delete;

  const std::string& name() const { return name_; }
  int thread_count() const { return thread_count_; }
  const SpeedModel& speed_model() const { return speed_; }

  HeartbeatMonitor& heartbeats() { return heartbeats_; }
  const HeartbeatMonitor& heartbeats() const { return heartbeats_; }

  /// Does thread `local_tid` want CPU this tick?
  virtual bool runnable(int local_tid) const = 0;

  /// Batch form of runnable() for the engine's tick hot path: writes one
  /// flag per thread into `out` (which has room for thread_count()
  /// entries). Must produce exactly runnable(i) for every i — the default
  /// does literally that; subclasses override to answer for all threads
  /// with one virtual dispatch.
  virtual void refresh_runnable(bool* out) const {
    for (int i = 0; i < thread_count(); ++i) out[i] = runnable(i);
  }

  /// Gives thread `local_tid` up to `share_us` of CPU on a core of `type`
  /// at `freq_ghz`. Returns the CPU time actually consumed (a thread that
  /// completes its pending work mid-share yields the rest).
  virtual TimeUs execute(int local_tid, TimeUs share_us, CoreType type,
                         double freq_ghz) = 0;

  /// Called after all threads executed; barrier/heartbeat logic lives here.
  virtual void end_tick(TimeUs now) = 0;

  /// Quiet-span horizon for the engine's fast-forward: the number of
  /// upcoming ticks, at most `limit`, in which executing every thread
  /// with `grants` (one per thread, in thread order) and then end_tick()
  /// would change nothing but per-thread work progress: every executed
  /// thread uses the same CPU time each full tick and each short tick
  /// (written to grants[i].used_us / short_used_us), runnable() answers
  /// stay as they are now, and no heartbeat is emitted. `short_ticks[k]`
  /// says whether upcoming tick k is short; null means every tick is
  /// full. The engine grants a positive share exactly to the threads it
  /// ran last tick, so an app whose runnable() now differs from that must
  /// answer 0. The default, 0, never fast-forwards.
  virtual std::int64_t quiet_ticks(ThreadGrant* grants,
                                   const bool* short_ticks,
                                   std::int64_t limit) const {
    (void)grants;
    (void)short_ticks;
    (void)limit;
    return 0;
  }

  /// Applies `ticks` quiet ticks (at most the last quiet_ticks() answer
  /// for the same grants and tick flags): the exact state change of that
  /// many execute()/end_tick() rounds, in tick order.
  virtual void advance_quiet(const ThreadGrant* grants,
                             const bool* short_ticks, std::int64_t ticks) {
    (void)grants;
    (void)short_ticks;
    (void)ticks;
  }

  /// True once the application has retired all its input (simulations
  /// normally end on time instead).
  virtual bool finished() const { return false; }

  /// Workload-phase multiplier (scenario `set_phase` events): the app's
  /// work appears `scale`× heavier — effective per-thread speed is divided
  /// by it, which is equivalent to multiplying every iteration's work.
  /// 1.0 = nominal; must be > 0.
  void set_phase_scale(double scale) {
    if (scale > 0.0) phase_scale_ = scale;
  }
  double phase_scale() const { return phase_scale_; }

  /// Thread-hierarchy information (thesis §3.1.4, option 2): sizes of the
  /// application's thread groups in thread-ID order. Data-parallel apps
  /// are one flat group; pipeline apps report one group per stage so a
  /// hierarchy-aware scheduler can give every stage its fair share of big
  /// cores. Sizes must sum to thread_count().
  virtual std::vector<int> thread_group_sizes() const {
    return {thread_count()};
  }

 protected:
  /// One tick class's operands for subtract_tick_major(): `rows` rows,
  /// row j holding one operand per chain from ops + j * stride.
  struct TickOperands {
    const double* ops = nullptr;
    int rows = 0;
  };

  /// advance_quiet()'s kernel: `ticks` rounds on the `n` independent
  /// subtraction chains `acc`, tick-major. Tick k subtracts, row by row,
  /// its class's operands (`part` when short_ticks[k] is set, `full`
  /// otherwise), so every chain takes its operands in tick order, as
  /// stepping would; a chain without an operand in a row holds 0.0 there,
  /// the identity. Looping over ticks outside lets the chains overlap and
  /// the inner loop vectorise.
  static void subtract_tick_major(double* acc, std::size_t n,
                                  std::size_t stride, TickOperands full,
                                  TickOperands part, const bool* short_ticks,
                                  std::int64_t ticks);

  double thread_speed(CoreType type, double freq_ghz) const {
    const double s = speed_.speed(type, freq_ghz);
    // IEEE division by exactly 1.0 is the identity, so skipping it at the
    // nominal phase is bit-identical and saves a divide on the hot path.
    return phase_scale_ == 1.0 ? s : s / phase_scale_;
  }

 private:
  std::string name_;
  int thread_count_;
  SpeedModel speed_;
  HeartbeatMonitor heartbeats_;
  double phase_scale_ = 1.0;
};

}  // namespace hars
