// Per-thread load tracking, a simplified analogue of the kernel's
// per-entity load tracking that drives GTS migration decisions: an
// exponentially weighted moving average of the thread's runnable fraction.
#pragma once

#include "util/common.hpp"
#include "util/hot_path.hpp"

namespace hars {

class LoadTracker {
 public:
  /// `half_life_us` controls how quickly the average follows behaviour
  /// changes; the kernel's PELT half-life is ~32 ms.
  explicit LoadTracker(TimeUs half_life_us = 32 * kUsPerMs);

  /// Records one tick of `runnable` (1) or idle (0) behaviour.
  void update(bool runnable, TimeUs tick_us);

  /// The per-tick EWMA factor `update` derives from the tick length.
  /// Exposed so the engine can compute it once per tick instead of once
  /// per thread (exp2 dominates the update otherwise).
  double decay_for(TimeUs tick_us) const;

  /// Hot-path form of update(): `decay` must equal decay_for(tick_us) for
  /// this tracker, which makes the result bit-identical to update().
  HARS_HOT void update_with_decay(bool runnable, double decay) {
    // Exact fixed points, skipped bit-identically: 0 is always one
    // (0*d + 0*(1-d) == 0); 1 is one when d >= 1/2, where 1-d is exact
    // (Sterbenz) and d + (1-d) rounds to exactly 1.0.
    if (runnable ? (value_ == 1.0 && decay >= 0.5) : (value_ == 0.0)) return;
    value_ = step(value_, decay, input(runnable, decay));
  }

  /// The branch-free parts of update_with_decay() for a batch of values
  /// kept outside their trackers: step(v, decay, input(runnable, decay))
  /// is update_with_decay()'s result on a tracker holding v, since the
  /// skipped fixed points reproduce themselves exactly.
  static double input(bool runnable, double decay) {
    return (runnable ? 1.0 : 0.0) * (1.0 - decay);
  }
  static double step(double value, double decay, double input) {
    return value * decay + input;
  }
  void set_value(double value) { value_ = value; }

  TimeUs half_life_us() const { return half_life_us_; }

  /// Current load average in [0, 1].
  double value() const { return value_; }

  /// Threads start "hot" so freshly spawned CPU-bound work migrates up
  /// immediately, as GTS does for forked tasks.
  void prime(double initial) { value_ = initial; }

 private:
  TimeUs half_life_us_;
  double value_ = 1.0;
};

}  // namespace hars
