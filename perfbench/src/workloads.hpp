// The three workloads and the pieces their traced runs share.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common.hpp"
#include "obs/metrics.hpp"
#include "sweep/sweep_engine.hpp"

namespace perfbench {

void run_figures(const Options& options, Result& result);
void run_churn(const Options& options, Result& result);
void run_daemon(const Options& options, Result& result);

/// The core.search micro-row (traced runs), timed for about `budget_s`.
void run_search_row(const Options& options, double budget_s, Result& result);

/// Runs fn(0..n-1) on up to `jobs` threads; an exception in a task is
/// counted as a failure with its message.
void parallel_for(int jobs, std::size_t n,
                  const std::function<void(std::size_t)>& fn, Result& result);

/// Wall times of the figures campaign's cache fill at experiment seed
/// `seed`: calibration, then the static-optimal oracle, then the
/// multi-app baseline probes, each phase on `jobs` threads.
struct SetupTimes {
  double calibrate_s = 0.0;
  double static_optimal_s = 0.0;
  double probe_s = 0.0;
  double total_s() const { return calibrate_s + static_optimal_s + probe_s; }
};
SetupTimes fill_figures_caches(std::uint64_t seed, int jobs, Result& result);

/// A small loopback daemon campaign set measuring svc.* (used as is by
/// the daemon workload's traced run, and as a side probe by the others).
void measure_svc_layer(const Options& options, double budget_s,
                       Result& result);

/// What the traced sections of a workload observed: spans (via the
/// tracer mark), registry counters, sweep case walls.
struct TracedSection {
  std::size_t span_mark = 0;
  hars::obs::MetricsSnapshot before;
  hars::obs::MetricsSnapshot after;
  std::vector<double> case_ms;
  double case_ms_sum = 0.0;
  double campaign_ms_sum = 0.0;  ///< Wall of the traced campaigns.
  int jobs = 1;
  std::vector<double> traced_ns_per_tick;
  std::vector<double> untraced_ns_per_tick;
};

/// Runs `untraced` and `traced` alternately until `seconds` pass (at
/// least `min_pairs` pairs). Tick samples go to the section's untraced
/// and traced lists; the registry is on, and snapshotted, around the
/// traced units only, so the section's counter deltas cover exactly
/// those.
void alternate(double seconds, int min_pairs, TracedSection& section,
               const std::function<void()>& untraced,
               const std::function<void()>& traced);

/// Adds a sweep's case walls to `section`.
void add_sweep(TracedSection& section, const hars::SweepReport& report);

/// Emits the per-layer metrics of a traced section (exp.run, hmp, sched,
/// mgr, search, sweep, trace overhead).
void emit_layer_metrics(const TracedSection& section, Result& result);

/// The traced-run epilogue every workload shares: the set-up phases,
/// svc (unless the workload measured it), the search micro-row, and the
/// span file.
void finish_traced_run(const Options& options, Result& result);

/// Turns the metrics registry on (traced sections) or off.
void set_registry(bool on);

}  // namespace perfbench
