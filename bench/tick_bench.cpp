// tick_bench: the simulation tick-throughput campaign.
//
// The per-tick simulation cost is the dominant wall-clock term of every
// sweep, so this bench makes it a tracked first-class metric
// (BENCH_tick.json, uploaded by CI like the other BENCH artifacts). It
// reports:
//
//  1. Grid: ticks/sec for every valid (platform x variant x app-count)
//     combination, measured serially, then re-run on a work-stealing
//     pool (--jobs N) with a byte-identical-records assertion — the
//     engine must produce the same metrics at any parallelism.
//  2. Speedup: on exynos5422 under all eight runtime versions, the
//     staggered scenario, a generated churn scenario (gen:churn: a steady
//     stream of arrivals and departures) and plain runs of each —
//     bodytrack alone and ferret alone, or Fig 5.4 case 1 for multi-app
//     versions — on the optimized tick/search path (which fast-forwards
//     quiet spans, absorbing managers' no-news polls) and on the
//     retained reference path (--reference semantics of
//     ExperimentBuilder::reference_impl), min of --reps repetitions; the
//     geomean covers the staggered rows.
//     Asserts (a) records are bit-identical between the two paths and
//     (b) the optimized path is at least as fast (perf smoke).
//
//  3. Telemetry overhead: the staggered scenario with the metrics
//     registry + phase timers off and on (min-of-reps each). Asserts
//     records are bit-identical and the enabled-path slowdown stays
//     under --telemetry-budget percent (default 3; the observability
//     layer's zero-cost contract, gated in CI). The ON pass's phase
//     timer percentiles are emitted under "telemetry".
//
//   tick_bench [--duration SEC] [--grid-duration SEC] [--reps N]
//              [--jobs N] [--out FILE] [--reference]
//              [--telemetry-budget PCT]
//
// --reference additionally runs the *grid* on the reference path (the
// speedup section always measures both paths).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "exp/experiment.hpp"
#include "exp/variant_registry.hpp"
#include "hmp/platform_registry.hpp"
#include "obs/catalog.hpp"
#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "sweep/result_sink.hpp"
#include "sweep/work_stealing_pool.hpp"
#include "util/stats.hpp"

namespace {

using namespace hars;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

struct GridCase {
  std::string platform;
  std::string variant;
  int apps = 1;
};

// No blackscholes here: its ~10 s serial warm-up emits no heartbeats
// within a short probe, which the derived-target validation now rejects
// (it used to silently derive a {0, 0} target).
const std::vector<ParsecBenchmark>& grid_benchmarks() {
  static const std::vector<ParsecBenchmark> k = {
      ParsecBenchmark::kSwaptions, ParsecBenchmark::kBodytrack,
      ParsecBenchmark::kFluidanimate, ParsecBenchmark::kFacesim};
  return k;
}

Experiment build_case(const GridCase& c, double duration_sec, bool reference) {
  ExperimentBuilder b;
  b.platform(std::string_view(c.platform)).variant(c.variant);
  for (int i = 0; i < c.apps; ++i) {
    // Explicit targets: the grid measures tick throughput, and short
    // measured spans could not support a derived-target baseline probe.
    b.app(grid_benchmarks()[static_cast<std::size_t>(i)])
        .target(PerfTarget::around(1.0 + 0.2 * i));
  }
  b.duration_sec(duration_sec).reference_impl(reference);
  return b.build();
}

/// One flat record of everything metric-bearing in a result, used for the
/// byte-identical comparisons (format_number round-trips doubles).
Record result_record(const ExperimentResult& r) {
  Record rec;
  rec.set("avg_power_w", r.avg_power_w);
  rec.set("adaptations", r.adaptations);
  for (std::size_t i = 0; i < r.apps.size(); ++i) {
    const AppRunResult& app = r.apps[i];
    const std::string p = "app" + std::to_string(i) + "_";
    rec.set(p + "label", app.label);
    rec.set(p + "heartbeats", app.metrics.heartbeats);
    rec.set(p + "norm_perf", app.metrics.norm_perf);
    rec.set(p + "avg_rate_hps", app.metrics.avg_rate_hps);
    rec.set(p + "perf_per_watt", app.metrics.perf_per_watt);
    rec.set(p + "in_window", app.metrics.in_window_fraction);
    rec.set(p + "energy_j", app.metrics.energy_j);
    rec.set(p + "manager_cpu_pct", app.metrics.manager_cpu_pct);
    rec.set(p + "trace_points", static_cast<std::int64_t>(app.trace.size()));
  }
  return rec;
}

std::string fingerprint(const std::vector<Record>& records) {
  std::ostringstream out;
  JsonlSink sink(out);
  for (const Record& r : records) sink.write(r);
  return out.str();
}

struct GridOutcome {
  GridCase c;
  double wall_ms = 0.0;
  double ticks = 0.0;
  Record record;
};

}  // namespace

int main(int argc, char** argv) {
  double speedup_duration_sec = 40.0;
  double grid_duration_sec = 5.0;
  int reps = 3;
  int jobs = 0;  // 0 = hardware concurrency.
  bool reference_grid = false;
  double telemetry_budget_pct = 3.0;
  std::string out_path = "BENCH_tick.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--duration") == 0 && i + 1 < argc) {
      speedup_duration_sec = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--grid-duration") == 0 && i + 1 < argc) {
      grid_duration_sec = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = std::max(1, std::atoi(argv[++i]));
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      jobs = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--reference") == 0) {
      reference_grid = true;
    } else if (std::strcmp(argv[i], "--telemetry-budget") == 0 &&
               i + 1 < argc) {
      telemetry_budget_pct = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    }
  }
  if (jobs <= 0) {
    jobs = std::max(1u, std::thread::hardware_concurrency());
  }
  const double tick_sec = us_to_sec(SimConfig{}.tick_us);

  // ---- Part 1: the throughput grid -------------------------------------
  std::vector<GridCase> cases;
  for (const char* platform : {"exynos5422", "sd855"}) {
    for (const std::string& variant : VariantRegistry::instance().names()) {
      const VariantEntry* entry = VariantRegistry::instance().find(variant);
      for (int apps : {1, 2, 4}) {
        if (apps < entry->traits.min_apps || apps > entry->traits.max_apps) {
          continue;
        }
        cases.push_back(GridCase{platform, variant, apps});
      }
    }
  }

  // Untimed warm-up: populate the calibration / baseline-probe caches so
  // neither timed pass (nor the parallel pass) pays them.
  for (const GridCase& c : cases) {
    (void)build_case(c, grid_duration_sec, reference_grid).run();
  }

  std::vector<GridOutcome> grid(cases.size());
  const auto grid_start = Clock::now();
  for (std::size_t i = 0; i < cases.size(); ++i) {
    GridOutcome& out = grid[i];
    out.c = cases[i];
    out.ticks = grid_duration_sec / tick_sec;
    const auto start = Clock::now();
    const ExperimentResult r =
        build_case(cases[i], grid_duration_sec, reference_grid).run();
    out.wall_ms = ms_since(start);
    out.record = result_record(r);
  }
  const double grid_serial_ms = ms_since(grid_start);

  // Parallel pass over the same grid: same records, any worker count.
  std::vector<Record> parallel_records(cases.size());
  const auto par_start = Clock::now();
  {
    WorkStealingPool pool(jobs);
    for (std::size_t i = 0; i < cases.size(); ++i) {
      pool.submit([&, i] {
        const ExperimentResult r =
            build_case(cases[i], grid_duration_sec, reference_grid).run();
        parallel_records[i] = result_record(r);
      });
    }
    pool.wait_idle();
  }
  const double grid_parallel_ms = ms_since(par_start);

  std::vector<Record> serial_records;
  serial_records.reserve(grid.size());
  for (const GridOutcome& o : grid) serial_records.push_back(o.record);
  const bool grid_identical =
      fingerprint(serial_records) == fingerprint(parallel_records);

  for (const GridOutcome& o : grid) {
    std::printf("grid %-11s %-10s apps=%d  %8.1f kticks/s\n",
                o.c.platform.c_str(), o.c.variant.c_str(), o.c.apps,
                o.ticks / (o.wall_ms / 1000.0) / 1000.0);
  }
  std::printf("grid: %zu cases, serial %.1f ms, parallel(%d) %.1f ms, "
              "records %s\n",
              grid.size(), grid_serial_ms, jobs, grid_parallel_ms,
              grid_identical ? "identical" : "DIVERGENT");

  // ---- Part 2: optimized vs reference, per variant ---------------------
  // Every row compares fast-forwarded runs (managed ones included)
  // against the per-tick reference path: the staggered scenario, the
  // generated churn scenario (events end spans) and plain runs.
  // Single-app variants get a plain row on bodytrack (data-parallel) and
  // one on ferret (pipeline).
  struct SpeedupCase {
    std::string variant;
    std::string scenario;                ///< A scenario name, or "plain".
    std::vector<ParsecBenchmark> apps;   ///< Plain rows' apps.
  };
  struct SpeedupRow {
    SpeedupCase c;
    double opt_tps = 0.0;
    double ref_tps = 0.0;
    bool identical = false;
  };
  const auto apps_label = [](const SpeedupCase& c) {
    std::string label;
    for (const ParsecBenchmark bench : c.apps) {
      if (!label.empty()) label += '+';
      label += parsec_code(bench);
    }
    return label.empty() ? std::string("-") : label;
  };
  const double speedup_ticks = speedup_duration_sec / tick_sec;
  std::vector<SpeedupRow> speedups;
  auto run_speedup = [&](const SpeedupCase& c, bool reference,
                         double* wall_ms) {
    ExperimentBuilder b;
    b.platform(std::string_view("exynos5422"))
        .variant(c.variant)
        .duration_sec(speedup_duration_sec)
        .reference_impl(reference);
    if (c.scenario == "plain") {
      b.apps(c.apps);
    } else {
      b.scenario(std::string_view(c.scenario));
    }
    const Experiment experiment = b.build();
    const auto start = Clock::now();
    const ExperimentResult r = experiment.run();
    *wall_ms = ms_since(start);
    return result_record(r);
  };

  std::vector<SpeedupCase> speedup_cases;
  for (const char* scenario : {"staggered", "gen:churn"}) {
    for (const std::string& variant : VariantRegistry::instance().names()) {
      speedup_cases.push_back({variant, scenario, {}});
    }
  }
  for (const std::string& variant : VariantRegistry::instance().names()) {
    const VariantEntry* entry = VariantRegistry::instance().find(variant);
    if (entry->traits.min_apps > 1) {
      // Fig 5.4 case 1 (BO+SW).
      speedup_cases.push_back({variant, "plain", multiapp_cases().front()});
    } else {
      speedup_cases.push_back({variant, "plain", {ParsecBenchmark::kBodytrack}});
      speedup_cases.push_back({variant, "plain", {ParsecBenchmark::kFerret}});
    }
  }
  for (const SpeedupCase& c : speedup_cases) {
    // Warm calibration caches for this variant's targets.
    {
      double ignored = 0.0;
      (void)run_speedup(c, false, &ignored);
    }
    std::vector<double> opt_ms;
    std::vector<double> ref_ms;
    Record opt_record;
    Record ref_record;
    for (int rep = 0; rep < reps; ++rep) {
      double w = 0.0;
      opt_record = run_speedup(c, false, &w);
      opt_ms.push_back(w);
      ref_record = run_speedup(c, true, &w);
      ref_ms.push_back(w);
    }
    // Min-of-reps: the least-interfered repetition is the standard
    // noise-robust wall-clock estimator for both paths.
    std::sort(opt_ms.begin(), opt_ms.end());
    std::sort(ref_ms.begin(), ref_ms.end());
    SpeedupRow row;
    row.c = c;
    row.opt_tps = speedup_ticks / (opt_ms.front() / 1000.0);
    row.ref_tps = speedup_ticks / (ref_ms.front() / 1000.0);
    row.identical = fingerprint({opt_record}) == fingerprint({ref_record});
    speedups.push_back(row);
    std::printf("speedup %-10s %-9s %-5s opt %8.1f kticks/s  "
                "ref %8.1f kticks/s  %.2fx  records %s\n",
                c.variant.c_str(), c.scenario.c_str(), apps_label(c).c_str(),
                row.opt_tps / 1000.0, row.ref_tps / 1000.0,
                row.opt_tps / row.ref_tps,
                row.identical ? "identical" : "DIVERGENT");
  }

  // The geomean stays over the staggered rows, the trajectory it tracks.
  std::vector<double> ratios;
  for (const SpeedupRow& row : speedups) {
    if (row.c.scenario == "staggered") {
      ratios.push_back(row.opt_tps / row.ref_tps);
    }
  }
  const double geomean_speedup = geomean(ratios);

  // ---- Part 3: telemetry overhead --------------------------------------
  // The zero-cost contract, measured: the staggered scenario with
  // telemetry fully off vs fully on (phase timers at the default
  // sampling shift, no file sinks — this isolates instrumentation cost
  // from I/O). OFF reps all run first so the ON passes can't warm
  // anything for them.
  const int tel_reps = std::max(reps, 5);
  struct PhaseRow {
    const char* phase;
    std::uint64_t count = 0;
    double p50 = 0.0, p90 = 0.0, p99 = 0.0;
  };
  auto run_telemetry = [&](bool telemetry, double* wall_ms) {
    ExperimentBuilder b;
    b.platform(std::string_view("exynos5422"))
        .scenario(std::string_view("staggered"))
        .variant("HARS-E")
        .duration_sec(speedup_duration_sec);
    if (telemetry) {
      obs::TelemetryConfig cfg;
      cfg.enabled = true;
      b.telemetry(cfg);
    }
    const Experiment experiment = b.build();
    const auto start = Clock::now();
    const ExperimentResult r = experiment.run();
    *wall_ms = ms_since(start);
    return result_record(r);
  };

  std::vector<double> tel_off_ms;
  std::vector<double> tel_on_ms;
  Record tel_off_record;
  Record tel_on_record;
  for (int rep = 0; rep < tel_reps; ++rep) {
    double w = 0.0;
    tel_off_record = run_telemetry(false, &w);
    tel_off_ms.push_back(w);
  }
  for (int rep = 0; rep < tel_reps; ++rep) {
    double w = 0.0;
    tel_on_record = run_telemetry(true, &w);
    tel_on_ms.push_back(w);
  }
  std::sort(tel_off_ms.begin(), tel_off_ms.end());
  std::sort(tel_on_ms.begin(), tel_on_ms.end());
  const double tel_off_tps = speedup_ticks / (tel_off_ms.front() / 1000.0);
  const double tel_on_tps = speedup_ticks / (tel_on_ms.front() / 1000.0);
  const double tel_overhead_pct =
      (tel_on_ms.front() / tel_off_ms.front() - 1.0) * 100.0;
  const bool tel_identical =
      fingerprint({tel_off_record}) == fingerprint({tel_on_record});
  const bool tel_within_budget = tel_overhead_pct <= telemetry_budget_pct;

  // Phase percentiles of the last enabled run (its session disabled the
  // registry at finish but the accumulated shards survive).
  std::vector<PhaseRow> phase_rows;
  {
    obs::MetricsSnapshot snap = obs::MetricsRegistry::instance().take_snapshot();
    for (int p = 0; p < static_cast<int>(obs::TickPhase::kCount); ++p) {
      const obs::TickPhase phase = static_cast<obs::TickPhase>(p);
      std::string name = "engine.phase.";
      name += obs::tick_phase_name(phase);
      name += "_ns";
      const obs::MetricValue* v = snap.find(name);
      if (v == nullptr || v->count == 0) continue;
      PhaseRow row;
      row.phase = obs::tick_phase_name(phase);
      row.count = v->count;
      row.p50 = obs::histogram_quantile(*v, 0.50);
      row.p90 = obs::histogram_quantile(*v, 0.90);
      row.p99 = obs::histogram_quantile(*v, 0.99);
      phase_rows.push_back(row);
    }
  }

  std::printf("telemetry off %8.1f kticks/s  on %8.1f kticks/s  "
              "overhead %+.2f%% (budget %.1f%%)  records %s\n",
              tel_off_tps / 1000.0, tel_on_tps / 1000.0, tel_overhead_pct,
              telemetry_budget_pct, tel_identical ? "identical" : "DIVERGENT");
  for (const PhaseRow& row : phase_rows) {
    std::printf("  phase %-18s n=%-8llu p50 %7.0f ns  p90 %7.0f ns  "
                "p99 %7.0f ns\n",
                row.phase, static_cast<unsigned long long>(row.count), row.p50,
                row.p90, row.p99);
  }

  // ---- Emit BENCH_tick.json --------------------------------------------
  std::ofstream out(out_path);
  out << "{\n  \"campaign\": \"tick_bench\",\n"
      << "  \"grid_duration_sec\": " << format_number(grid_duration_sec)
      << ",\n  \"speedup_duration_sec\": "
      << format_number(speedup_duration_sec) << ",\n  \"reps\": " << reps
      << ",\n  \"jobs\": " << jobs << ",\n  \"reference_grid\": "
      << (reference_grid ? "true" : "false")
      << ",\n  \"hardware_threads\": " << std::thread::hardware_concurrency()
      << ",\n  \"grid_serial_ms\": " << format_number(grid_serial_ms)
      << ",\n  \"grid_parallel_ms\": " << format_number(grid_parallel_ms)
      << ",\n  \"grid_records_identical\": "
      << (grid_identical ? "true" : "false") << ",\n  \"grid\": [\n";
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const GridOutcome& o = grid[i];
    out << "    {\"platform\": \"" << json_escape(o.c.platform)
        << "\", \"variant\": \"" << json_escape(o.c.variant)
        << "\", \"apps\": " << o.c.apps
        << ", \"wall_ms\": " << format_number(o.wall_ms)
        << ", \"ticks_per_sec\": "
        << format_number(o.ticks / (o.wall_ms / 1000.0)) << "}"
        << (i + 1 < grid.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"speedup\": {\n    \"scenario\": \"staggered\",\n"
      << "    \"platform\": \"exynos5422\",\n    \"variants\": [\n";
  bool all_identical = grid_identical;
  bool all_at_least_ref = true;
  for (std::size_t i = 0; i < speedups.size(); ++i) {
    const SpeedupRow& row = speedups[i];
    all_identical = all_identical && row.identical;
    all_at_least_ref = all_at_least_ref && row.opt_tps >= row.ref_tps;
    out << "      {\"variant\": \"" << json_escape(row.c.variant)
        << "\", \"scenario\": \"" << row.c.scenario
        << "\", \"apps\": \"" << apps_label(row.c)
        << "\", \"opt_ticks_per_sec\": " << format_number(row.opt_tps)
        << ", \"ref_ticks_per_sec\": " << format_number(row.ref_tps)
        << ", \"speedup\": " << format_number(row.opt_tps / row.ref_tps)
        << ", \"records_identical\": " << (row.identical ? "true" : "false")
        << "}" << (i + 1 < speedups.size() ? "," : "") << "\n";
  }
  out << "    ],\n    \"geomean_speedup\": " << format_number(geomean_speedup)
      << "\n  },\n  \"telemetry\": {\n    \"scenario\": \"staggered\",\n"
      << "    \"platform\": \"exynos5422\",\n    \"variant\": \"HARS-E\",\n"
      << "    \"reps\": " << tel_reps
      << ",\n    \"off_ticks_per_sec\": " << format_number(tel_off_tps)
      << ",\n    \"on_ticks_per_sec\": " << format_number(tel_on_tps)
      << ",\n    \"overhead_pct\": " << format_number(tel_overhead_pct)
      << ",\n    \"budget_pct\": " << format_number(telemetry_budget_pct)
      << ",\n    \"records_identical\": "
      << (tel_identical ? "true" : "false") << ",\n    \"phases\": [\n";
  for (std::size_t i = 0; i < phase_rows.size(); ++i) {
    const PhaseRow& row = phase_rows[i];
    out << "      {\"phase\": \"" << row.phase
        << "\", \"samples\": " << row.count
        << ", \"p50_ns\": " << format_number(row.p50)
        << ", \"p90_ns\": " << format_number(row.p90)
        << ", \"p99_ns\": " << format_number(row.p99) << "}"
        << (i + 1 < phase_rows.size() ? "," : "") << "\n";
  }
  out << "    ]\n  }\n}\n";
  all_identical = all_identical && tel_identical;
  std::printf("wrote %s (geomean speedup %.2fx, telemetry %+.2f%%, "
              "records %s)\n",
              out_path.c_str(), geomean_speedup, tel_overhead_pct,
              all_identical ? "identical" : "DIVERGENT");

  // Records must match everywhere; the optimized path must not regress
  // below the reference path (perf smoke); enabling telemetry must stay
  // within its overhead budget.
  if (!all_identical || !all_at_least_ref || !tel_within_budget ||
      !out.good()) {
    return 1;
  }
  return 0;
}
