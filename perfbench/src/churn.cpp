// The `churn` workload: long generated scenarios — gen:churn,
// gen:hotplug and gen:mixed, in six sets seeded from --seed — on
// exynos5422 and manycore4x4 under Baseline, decision-dense HARS-EI and
// MP-HARS-E. Each case is a serial simulation on one thread; a round runs
// one set's 18 cases nproc at a time, so a run of fixed length times
// nproc times as many slices. Spawns, kills and hotplug defeat GTS's
// stable-placement skip, so the time goes to the tick; the calibration
// caches are warmed before the timed rounds. Every round must repeat the
// records of its set's first round exactly.
#include <optional>

#include "layers.hpp"
#include "meter.hpp"
#include "scenario/generator.hpp"
#include "scenario/scenario_runtime.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using hars::ExperimentBuilder;
using hars::SweepSpec;

constexpr double kHorizonS = 150.0;
/// Overrides on every profile: arrivals fast enough that the live-app cap
/// is reached early and held, and light-tailed lifetimes that always end
/// in a kill, so the load and the number of apps per run do not swing
/// with the seed while spawns, kills and each profile's own events
/// (hotplug cascades, phase storms, retargets) keep coming.
constexpr const char* kOverrides =
    "rate=1.5;max_live=4;life_min=4;life_max=16;alpha=2;depart=1";
constexpr int kSetupReps = 3;
/// Scenario sets per run, each from its own generator seed; round r runs
/// set r % kSets. A run's numbers then average over kSets x 6 generated
/// scenarios instead of one seed's draw (whose spawn count, and so its
/// cost, swings with the seed), and every set still repeats.
constexpr std::uint64_t kSets = 6;
const char* const kProfiles[] = {"churn", "hotplug", "mixed"};
const char* const kPlatforms[] = {"exynos5422", "manycore4x4"};
const char* const kVariants[] = {"Baseline", "HARS-EI", "MP-HARS-E"};

/// The generated scenario with its first app (g0, spawned at t = 0) made
/// the foreground app: it runs `bench` and stays alive to the end, so
/// HARS-EI manages it for the whole run while the background apps churn
/// around it.
hars::Scenario make_scenario(const char* profile, std::uint64_t seed,
                             hars::ParsecBenchmark bench) {
  hars::Scenario s = hars::ScenarioGenerator::from_name(
      std::string("gen:") + profile + ":seed=" + std::to_string(seed) +
      ";horizon=" + hars::format_number(kHorizonS) + ";" + kOverrides);
  std::erase_if(s.events, [](const hars::ScenarioEvent& e) {
    return e.kind == hars::ScenarioEventKind::kKill && e.app == "g0";
  });
  for (hars::ScenarioEvent& e : s.events) {
    if (e.kind == hars::ScenarioEventKind::kSpawn && e.app == "g0") {
      e.spawn.bench = bench;
    }
  }
  s.validate();
  return s;
}

/// The foreground benchmark of (profile, platform) combination `i`: each
/// run gives every benchmark the foreground once, in a seeded order.
hars::ParsecBenchmark foreground(std::size_t i, std::uint64_t seed) {
  const auto benches = hars::all_parsec_benchmarks();
  return benches[(i + seed) % benches.size()];
}

/// The run every case shares, before its variant is chosen.
void configure(ExperimentBuilder& b, const hars::Scenario& scenario,
               const char* platform, std::uint64_t seed) {
  b.platform(std::string_view(platform))
      .scenario(scenario)
      .duration_sec(kHorizonS)
      .seed(seed);
}

/// One campaign of every (profile, platform, variant) case.
SweepSpec churn_cases(std::uint64_t gen_seed, std::uint64_t seed) {
  SweepSpec spec;
  spec.name("churn");
  std::size_t combo = 0;
  for (const char* profile : kProfiles) {
    for (const char* platform : kPlatforms) {
      const hars::Scenario scenario =
          make_scenario(profile, gen_seed, foreground(combo++, gen_seed));
      for (const char* variant : kVariants) {
        spec.add_case(
            {{"profile", profile, std::nan("")},
             {"platform", platform, std::nan("")},
             {"variant", variant, std::nan("")}},
            {[=](ExperimentBuilder& b) {
              configure(b, scenario, platform, seed);
              b.variant(variant).sample_every(kSlicePeriod, tick_sampler());
              // Decision-dense tuning: a decision every heartbeat, and for
              // HARS-EI a wider search window and distance.
              if (std::string_view(variant) == "HARS-EI") {
                b.adapt_period(1).search_window(6).search_distance(9);
              } else if (std::string_view(variant) == "MP-HARS-E") {
                b.adapt_period(1);
              }
            }});
      }
    }
  }
  return spec;
}

/// The generator seed of scenario set `set` of a run at --seed `seed`.
std::uint64_t set_seed(std::uint64_t seed, std::uint64_t set) {
  return seed * kSets + set;
}

/// Resolves the spawn targets of every scenario of every set at `seed`,
/// which fills the calibration cache the runs read.
void warm_caches(std::uint64_t seed_arg, std::uint64_t seed, int jobs,
                 Result& result) {
  constexpr std::size_t kCombos = std::size(kProfiles) * std::size(kPlatforms);
  parallel_for(
      jobs, kSets * kCombos,
      [&](std::size_t n) {
        const std::uint64_t gen_seed = set_seed(seed_arg, n / kCombos);
        const std::size_t i = n % kCombos;
        ExperimentBuilder b;
        configure(b,
                  make_scenario(kProfiles[i / std::size(kPlatforms)], gen_seed,
                                foreground(i, gen_seed)),
                  kPlatforms[i % std::size(kPlatforms)], seed);
        const hars::Experiment experiment = b.variant("Baseline").build();
        (void)hars::resolve_scenario_targets(experiment.spec(),
                                             *experiment.spec().scenario);
      },
      result);
}

struct Round {
  CaptureSink sink;
  hars::SweepReport report;
};

/// One campaign of all cases: each case runs on one thread, `jobs` at a
/// time.
Round run_round(const SweepSpec& spec, int jobs, Result& result) {
  Round round;
  hars::SweepOptions options;
  options.jobs = jobs;
  options.keep_results = false;
  hars::SweepEngine engine(options);
  engine.add_sink(round.sink);
  round.report = engine.run(spec);
  result.attempt(round.report.outcomes.size());
  for (const hars::CaseOutcome& outcome : round.report.outcomes) {
    if (!outcome.ok()) result.fail("churn case failed: " + outcome.error);
  }
  return round;
}

void check_round(const Round& round, const Round& reference, Result& result) {
  const std::size_t differing =
      differing_lines(round.sink.lines, reference.sink.lines);
  for (std::size_t i = 0; i < differing; ++i) {
    result.fail("churn record differs from its set's first round");
  }
}

/// The model numbers of the managed runs (HARS-EI and MP-HARS-E) of
/// every scenario set.
struct Model {
  std::vector<double> ratios;
  std::vector<double> in_window;
  std::vector<double> mgr_cpu;
};

/// Adds one set's records to `model`: every app's perf/watt normalised to
/// the same app under Baseline on the same scenario and platform, and its
/// time in the target window; and each managed run's modelled manager CPU.
void add_model(const std::vector<hars::Record>& rows, Model& model) {
  for (const hars::Record& r : rows) {
    if (r.text("variant") == "Baseline") continue;
    model.in_window.push_back(r.number("in_window_fraction"));
    if (r.text("app_index") == "0") {
      model.mgr_cpu.push_back(r.number("manager_cpu_pct"));
    }
    model.ratios.push_back(
        r.number("perf_per_watt") /
        hars::record_number(rows,
                            {{"profile", r.text("profile")},
                             {"platform", r.text("platform")},
                             {"variant", "Baseline"},
                             {"app_index", r.text("app_index")}},
                            "perf_per_watt"));
  }
}

void run_traced(const Options& options, const SweepSpec& plain,
                Result& result) {
  SweepSpec traced = plain;
  trace_cases(traced);
  const Round reference = run_round(plain, options.jobs, result);
  TracedSection section;
  alternate(
      options.seconds, 1, section,
      [&] {
        check_round(run_round(plain, options.jobs, result), reference, result);
      },
      [&] {
        const Round round = run_round(traced, options.jobs, result);
        check_round(round, reference, result);
        add_sweep(section, round.report);
      });
  emit_layer_metrics(section, result);
  finish_traced_run(options, result);
}

}  // namespace

void run_churn(const Options& options, Result& result) {
  // Set-up: the calibration fill for fresh experiment seeds; the last
  // one is the seed the timed rounds run at.
  RefMeter setup(options.jobs);
  std::uint64_t run_seed = options.seed;
  for (int k = 1; k <= (options.trace ? 1 : kSetupReps); ++k) {
    run_seed = options.seed + 1000003ull * k;
    setup.measure_setup(
        [&] { warm_caches(options.seed, run_seed, options.jobs, result); });
  }
  std::vector<SweepSpec> sets;
  for (std::uint64_t set = 0; set < kSets; ++set) {
    sets.push_back(churn_cases(set_seed(options.seed, set), run_seed));
  }
  if (options.trace) {
    run_traced(options, sets[0], result);
    return;
  }

  // Whole rounds only, so every case weighs the same in every metric.
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(options.seconds * 1e9);
  RefMeter meter(options.jobs);
  std::vector<Round> first;
  for (std::uint64_t r = 0; r < 2 * kSets || now_ns() < deadline; ++r) {
    std::optional<Round> round;
    meter.measure([&] {
      round.emplace(run_round(sets[r % kSets], options.jobs, result));
      return round->report.outcomes.size();
    });
    if (r < kSets) {
      first.push_back(std::move(*round));
    } else {
      check_round(*round, first[r % kSets], result);
    }
  }

  add_setup_time(setup, result);
  add_case_cost(meter, result);
  add_tick_cost(meter, result);
  Model model;
  for (const Round& round : first) add_model(round.sink.records, model);
  result.add("model.gm_pp_norm", geomean(model.ratios), "ratio",
             model.ratios.size());
  result.add("model.in_window", mean(model.in_window), "fraction",
             model.in_window.size());
  result.add("model.mgr_cpu_pct", mean(model.mgr_cpu), "%",
             model.mgr_cpu.size());
}

}  // namespace perfbench
