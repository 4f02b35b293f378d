// The `figures` workload: the paper's evaluation campaign — the Fig 5.1,
// 5.2, 5.3 and 5.4 grids, 144 cases — as one SweepSpec on a SweepEngine
// at --jobs = nproc. A cold pass fills the compute-once caches; warm
// passes are timed and must reproduce its records byte for byte.
#include <limits>
#include <optional>

#include "layers.hpp"
#include "meter.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using hars::BuilderMutator;
using hars::ExperimentBuilder;
using hars::SweepSpec;

constexpr int kSetupReps = 7;

/// Appends every case of `grid` to `out`, tagged with a "fig" coordinate
/// and led by the grid's own base mutator.
void append_grid(SweepSpec& out, const std::string& fig,
                 const SweepSpec& grid) {
  for (const hars::SweepCase& c : grid.expand()) {
    std::vector<hars::CaseCoord> coords{
        {"fig", fig, std::numeric_limits<double>::quiet_NaN()}};
    coords.insert(coords.end(), c.coords.begin(), c.coords.end());
    std::vector<BuilderMutator> mutators{grid.base_mutator()};
    mutators.insert(mutators.end(), c.mutators.begin(), c.mutators.end());
    out.add_case(std::move(coords), std::move(mutators));
  }
}

SweepSpec figures_spec(std::uint64_t seed) {
  const auto benches = hars::all_parsec_benchmarks();
  SweepSpec fig51;
  fig51.base([](ExperimentBuilder& b) { b.target_fraction(0.50); })
      .benchmarks(benches)
      .variants({"Baseline", "SO", "HARS-I", "HARS-E", "HARS-EI"});
  SweepSpec fig52;
  fig52.base([](ExperimentBuilder& b) { b.target_fraction(0.75); })
      .benchmarks(benches)
      .variants({"Baseline", "SO", "HARS-I", "HARS-E", "HARS-EI"});
  SweepSpec fig53;
  fig53.base([](ExperimentBuilder& b) {
         b.variant("HARS-EI").duration(90 * hars::kUsPerSec);
       })
      .target_fractions({0.50, 0.75})
      .search_distances({1, 3, 5, 7, 9})
      .benchmarks(benches);
  std::vector<hars::AxisPoint> mcases;
  const auto cases = hars::multiapp_cases();
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto apps = cases[i];
    mcases.emplace_back("Case " + std::to_string(i + 1),
                        static_cast<double>(i + 1),
                        [apps](ExperimentBuilder& b) { b.apps(apps); });
  }
  SweepSpec fig54;
  fig54.base([](ExperimentBuilder& b) { b.duration(150 * hars::kUsPerSec); })
      .axis("mcase", std::move(mcases))
      .variants({"Baseline", "CONS-I", "MP-HARS-I", "MP-HARS-E"});

  SweepSpec spec;
  spec.name("figures").base([seed](ExperimentBuilder& b) {
    b.seed(seed).sample_every(kSlicePeriod, tick_sampler());
  });
  append_grid(spec, "5.1", fig51);
  append_grid(spec, "5.2", fig52);
  append_grid(spec, "5.3", fig53);
  append_grid(spec, "5.4", fig54);
  return spec;
}

struct Pass {
  CaptureSink sink;
  hars::SweepReport report;
};

Pass run_pass(const SweepSpec& spec, int jobs) {
  Pass pass;
  hars::SweepOptions options;
  options.jobs = jobs;
  options.keep_results = false;
  hars::SweepEngine engine(options);
  engine.add_sink(pass.sink);
  pass.report = engine.run(spec);
  return pass;
}

/// Counts every case of `pass` whose records differ from `reference`.
void check_pass(const Pass& pass, const Pass& reference, Result& result) {
  result.attempt(pass.report.outcomes.size());
  for (const hars::CaseOutcome& outcome : pass.report.outcomes) {
    if (!outcome.ok()) result.fail("figures case failed: " + outcome.error);
  }
  const std::size_t differing =
      differing_lines(pass.sink.lines, reference.sink.lines);
  for (std::size_t i = 0; i < differing; ++i) {
    result.fail("figures record differs from the cold pass");
  }
}

/// The paper-model numbers of one pass: Fig 5.1 HARS-EI/Baseline and
/// Fig 5.4 MP-HARS-E/CONS-I perf/watt ratios (geomean), mean time in the
/// target window, and Fig 5.3's modelled manager CPU.
void add_model_metrics(const std::vector<hars::Record>& rows, Result& result) {
  std::vector<double> ratios;
  for (hars::ParsecBenchmark bench : hars::all_parsec_benchmarks()) {
    const std::string_view code = hars::parsec_code(bench);
    ratios.push_back(
        hars::record_number(
            rows, {{"fig", "5.1"}, {"bench", code}, {"variant", "HARS-EI"}},
            "perf_per_watt") /
        hars::record_number(
            rows, {{"fig", "5.1"}, {"bench", code}, {"variant", "Baseline"}},
            "perf_per_watt"));
  }
  for (int c = 1; c <= 6; ++c) {
    const std::string mcase = hars::format_number(c);
    for (const char* app : {"0", "1"}) {
      ratios.push_back(hars::record_number(rows,
                                           {{"fig", "5.4"},
                                            {"mcase", mcase},
                                            {"variant", "MP-HARS-E"},
                                            {"app_index", app}},
                                           "perf_per_watt") /
                       hars::record_number(rows,
                                           {{"fig", "5.4"},
                                            {"mcase", mcase},
                                            {"variant", "CONS-I"},
                                            {"app_index", app}},
                                           "perf_per_watt"));
    }
  }
  std::vector<double> in_window;
  std::vector<double> mgr_cpu;
  for (const hars::Record& r : rows) {
    in_window.push_back(r.number("in_window_fraction"));
    if (r.text("fig") == "5.3") mgr_cpu.push_back(r.number("manager_cpu_pct"));
  }
  result.add("model.gm_pp_norm", geomean(ratios), "ratio", ratios.size());
  result.add("model.in_window", mean(in_window), "fraction", in_window.size());
  result.add("model.mgr_cpu_pct", mean(mgr_cpu), "%", mgr_cpu.size());
}

void run_traced(const Options& options, const SweepSpec& plain,
                Result& result) {
  const SetupTimes setup =
      fill_figures_caches(options.seed, options.jobs, result);
  result.add("exp.setup.calibrate_ms", setup.calibrate_s * 1e3, "ms");
  result.add("exp.setup.static_optimal_ms", setup.static_optimal_s * 1e3,
             "ms");
  result.add("exp.setup.probe_ms", setup.probe_s * 1e3, "ms");

  SweepSpec traced = plain;
  trace_cases(traced);
  const Pass reference = run_pass(plain, options.jobs);
  check_pass(reference, reference, result);
  TracedSection section;
  alternate(
      options.seconds, 2, section,
      [&] { check_pass(run_pass(plain, options.jobs), reference, result); },
      [&] {
        const Pass pass = run_pass(traced, options.jobs);
        check_pass(pass, reference, result);
        add_sweep(section, pass.report);
      });
  // The set-up above filled every cache the campaign reads, so the
  // traced passes must never miss one.
  for (const char* cache :
       {"cache.calibration.miss", "cache.static_optimal.miss"}) {
    if (counter_delta(section.before, section.after, cache) != 0) {
      result.fail(std::string("figures pass missed ") + cache);
    }
  }
  emit_layer_metrics(section, result);
  finish_traced_run(options, result);
}

}  // namespace

void run_figures(const Options& options, Result& result) {
  const SweepSpec spec = figures_spec(options.seed);
  if (options.trace) {
    run_traced(options, spec, result);
    return;
  }

  // Set-up: fill the caches for fresh seeds, several times.
  RefMeter setup(options.jobs);
  for (int k = 1; k <= kSetupReps; ++k) {
    setup.measure_setup([&] {
      (void)fill_figures_caches(options.seed + 1000003ull * k, options.jobs,
                                result);
    });
  }

  const Pass cold = run_pass(spec, options.jobs);
  check_pass(cold, cold, result);
  (void)take_tick_samples();

  // Warm passes until the time is up; the costs pool every pass.
  RefMeter meter(options.jobs);
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(options.seconds * 1e9);
  while (meter.units() < 3 || now_ns() < deadline) {
    std::optional<Pass> warm;
    meter.measure([&] {
      warm.emplace(run_pass(spec, options.jobs));
      return warm->report.outcomes.size();
    });
    check_pass(*warm, cold, result);
  }

  add_setup_time(setup, result);
  add_case_cost(meter, result);
  add_tick_cost(meter, result);
  add_model_metrics(cold.sink.records, result);
}

}  // namespace perfbench
