// Host cost in units of a fixed reference loop.
//
// The measuring host is shared: the CPU time one simulated tick takes
// drifts with what the host's other tenants run (on a 4-vCPU x86-64 host
// the same campaign went from 48 to 30 cases per CPU-second within 25
// minutes), which no amount of repetition inside a run averages out. So
// every timed unit of work is followed by a reference loop on as many
// threads as the unit used, and the unit's CPU time is reported in
// iterations of that loop. The loop lives here, not in the simulator, so
// no change to the program can change it: a faster simulator still reads
// faster, while the host's drift largely cancels.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>

#include "common.hpp"

namespace perfbench {

/// Seconds per reference-loop iteration at the nominal host speed: about
/// the loop's CPU time per iteration on the 4-vCPU x86-64 host the bounds
/// were set on (9-12 ns). setup_s, which must be in seconds, is reported
/// in these reference seconds.
inline constexpr double kNominalRefSeconds = 10e-9;

/// CPU nanoseconds per iteration of the reference loop (dependent
/// floating-point and integer arithmetic and unpredictable branches over
/// a 16 KiB table), run at once on `threads` threads, about 40 ms each.
double reference_ns_per_iter(int threads);

/// Measures units of work (a pass, a round, a second of daemon traffic):
/// each unit's process CPU time and tick samples, divided by the
/// reference loop's CPU time per iteration measured right after it.
class RefMeter {
 public:
  /// `threads`: how many threads the units keep busy.
  explicit RefMeter(int threads) : threads_(threads) {}

  /// Runs `unit`, which returns the number of cases it completed, then
  /// the reference loop.
  void measure(const std::function<std::size_t()>& unit);
  /// Runs a set-up step as one unit.
  void measure_setup(const std::function<void()>& step);

  std::size_t units() const { return units_; }
  std::size_t cases() const { return cases_; }
  /// Reference iterations, in millions, of CPU time per case.
  double case_cost_mrefs() const;
  /// Reference iterations of CPU time per simulated tick, per slice.
  const Reservoir& tick_cost() const { return tick_cost_; }

  /// The same costs in plain CPU time, for the readable report.
  double cpu_s_per_case() const;
  const Reservoir& cpu_ns_per_tick() const { return cpu_ns_per_tick_; }
  /// Median reference-loop ns per iteration over the units.
  double ref_ns_per_iter() const { return median(ref_ns_); }
  /// Median over the units of their reference iterations, and of their
  /// CPU seconds.
  double unit_refs_p50() const { return median(unit_refs_); }
  double unit_cpu_s_p50() const { return median(unit_cpu_s_); }

 private:
  int threads_;
  std::size_t units_ = 0;
  std::size_t cases_ = 0;
  double refs_ = 0.0;
  double cpu_ns_ = 0.0;
  std::vector<double> ref_ns_;
  std::vector<double> unit_refs_;
  std::vector<double> unit_cpu_s_;
  Reservoir tick_cost_;
  Reservoir cpu_ns_per_tick_;
};

/// Adds a meter's case_cost, or its tick_cost_p50 and tick_cost_p99, or
/// (for a meter of set-up steps) setup_s — the median step in reference
/// seconds — to `result`, with their plain-CPU-time counterparts as
/// readable notes.
void add_setup_time(const RefMeter& meter, Result& result);
void add_case_cost(const RefMeter& meter, Result& result);
void add_tick_cost(const RefMeter& meter, Result& result);

}  // namespace perfbench
