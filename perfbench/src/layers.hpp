// Measuring the layers from outside: every number here comes from timing
// calls into a layer's public surface, never from code inside src/.
//
//  * tick_sampler(): an ExperimentBuilder::sample_every sampler that turns
//    each fixed slice of simulated time into one host-CPU-ns-per-tick
//    sample (the hmp SimEngine tick, end to end).
//  * Tracer: the traced run's in-memory span store. Spans are
//    exp.run (one Experiment::run, via a SweepSpec case runner),
//    hmp.slice (one sampler slice), and per slice the aggregated time of
//    its sched.assign and mgr.on_tick calls, timed by decorators: a
//    Scheduler passed to ExperimentBuilder::os_scheduler and a
//    VariantInstance re-registered under every variant's own name.
//    Spans are written out when the benchmark ends, and the per-layer
//    self times are derived from them.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common.hpp"
#include "exp/experiment.hpp"
#include "obs/metrics.hpp"
#include "sweep/sweep_spec.hpp"

namespace perfbench {

/// A fresh ExperimentBuilder::sample_every sampler for one run: each
/// slice becomes one sample of the running thread's CPU nanoseconds per
/// simulated tick (thread_cpu_ns(); the spans stay in wall time). The
/// first slice of every run is dropped (it also holds the run's
/// set-up). Safe to use from any worker thread.
hars::SampleFn tick_sampler();
/// Every sample recorded since the last call. Call only while no run is
/// in flight.
std::vector<double> take_tick_samples();

/// Simulated time per slice: 1000 ticks of 1 ms — thousands of slices
/// per run, each long enough that one slow tick does not set it.
constexpr hars::TimeUs kSlicePeriod = hars::kUsPerSec;

enum class SpanKind : std::uint8_t { kRun, kSlice, kAssign, kOnTick };
const char* span_name(SpanKind kind);

struct Span {
  std::int64_t id = 0;
  std::int64_t parent = 0;  ///< 0 = none.
  std::int64_t case_id = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  /// Slices: simulated ticks (0 for a run's first slice, which also
  /// holds its set-up). Aggregated children: calls folded in.
  std::int64_t count = 0;
  SpanKind kind = SpanKind::kRun;
};

/// Self times and shares derived from the spans.
struct LayerTimes {
  std::size_t runs = 0;
  double run_ms_p50 = 0.0;
  double run_ns = 0.0;  ///< Sum of exp.run durations.
  double run_self_ns = 0.0;  ///< exp.run minus its slices.
  double tick_self_ns = 0.0;  ///< Slices minus their children.
  std::vector<double> tick_self_ns_per_tick;  ///< Per regular slice.
  std::vector<double> ns_per_tick;  ///< Per regular slice, whole slice.
  double assign_ns = 0.0;
  std::int64_t assign_calls = 0;
  double on_tick_ns = 0.0;
  std::int64_t on_tick_calls = 0;
};

class Tracer {
 public:
  /// The tracer the decorators and samplers record into; null in an
  /// untraced run. install() is called once, before any run starts.
  static Tracer* active();
  static void install(Tracer* tracer);

  std::int64_t next_id();
  void record(const Span& span);
  /// Number of spans recorded so far; a mark for derive().
  std::size_t size();
  /// Layer times over the spans recorded since mark `from`.
  LayerTimes derive(std::size_t from);
  /// Writes every span as one JSON object per line.
  bool write_jsonl(const std::string& path);

 private:
  std::mutex mutex_;
  std::vector<Span> spans_;
  std::int64_t next_id_ = 1;
};

/// Wraps `spec` so every case runs through a timed Experiment::run (an
/// exp.run span) with the GTS scheduler behind a timing decorator; the
/// records are unchanged.
void trace_cases(hars::SweepSpec& spec);

/// Re-registers every variant under its own name with a factory that
/// wraps the original instance in an on_tick timing decorator. Call
/// before any experiment runs.
void register_timed_variants();

/// Registers kProbeVariant: a variant whose factory throws ProbeOnly, so
/// Experiment::run stops right after resolving its targets — which
/// fills the calibration and baseline-probe caches and nothing else.
void register_probe_variant();
inline constexpr const char* kProbeVariant = "perfbench-probe";
struct ProbeOnly {};

/// Counter value in `after` minus `before` (0 when absent).
std::uint64_t counter_delta(const hars::obs::MetricsSnapshot& before,
                            const hars::obs::MetricsSnapshot& after,
                            const char* name);

}  // namespace perfbench
