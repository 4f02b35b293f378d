// Pieces the workloads share: the parallel helper, the figures
// campaign's cache fill (the set-up every exp.setup.* row times), and the
// traced run's per-layer metrics.
#include <atomic>
#include <exception>
#include <thread>

#include "exp/calibration.hpp"
#include "exp/static_optimal.hpp"
#include "layers.hpp"
#include "obs/metrics.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

hars::obs::MetricValue hist_delta(const hars::obs::MetricsSnapshot& before,
                                  const hars::obs::MetricsSnapshot& after,
                                  const char* name) {
  const hars::obs::MetricValue* a = after.find(name);
  if (a == nullptr) return {};
  hars::obs::MetricValue out = *a;
  if (const hars::obs::MetricValue* b = before.find(name)) {
    for (std::size_t i = 0; i < out.buckets.size() && i < b->buckets.size();
         ++i) {
      out.buckets[i] -= b->buckets[i];
    }
    out.sum -= b->sum;
    out.count -= b->count;
  }
  return out;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

void set_registry(bool on) {
  hars::obs::MetricsRegistry::instance().set_enabled(on);
}

void parallel_for(int jobs, std::size_t n,
                  const std::function<void(std::size_t)>& fn,
                  Result& result) {
  std::atomic<std::size_t> next{0};
  std::mutex errors_mutex;
  std::vector<std::string> errors;
  const auto worker = [&] {
    for (std::size_t i = next++; i < n; i = next++) {
      try {
        fn(i);
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(errors_mutex);
        errors.emplace_back(e.what());
      }
    }
  };
  std::vector<std::thread> threads;
  const std::size_t count =
      std::min<std::size_t>(n, static_cast<std::size_t>(std::max(1, jobs)));
  for (std::size_t t = 1; t < count; ++t) threads.emplace_back(worker);
  worker();
  for (std::thread& t : threads) t.join();
  for (const std::string& e : errors) result.fail(e);
}

SetupTimes fill_figures_caches(std::uint64_t seed, int jobs, Result& result) {
  using hars::ParsecBenchmark;
  const hars::PlatformSpec platform =
      hars::PlatformSpec::from_machine(hars::Machine::exynos5422());
  const std::vector<ParsecBenchmark> benches = hars::all_parsec_benchmarks();
  const double fractions[] = {0.50, 0.75};
  SetupTimes times;

  std::int64_t start = now_ns();
  parallel_for(
      jobs, benches.size(),
      [&](std::size_t i) {
        (void)hars::calibrate_benchmark(platform, benches[i], 8, seed);
      },
      result);
  times.calibrate_s = ms_since(start) / 1e3;

  start = now_ns();
  parallel_for(
      jobs, benches.size() * 2,
      [&](std::size_t i) {
        const ParsecBenchmark bench = benches[i / 2];
        const hars::Calibration cal =
            hars::calibrate_benchmark(platform, bench, 8, seed);
        hars::StaticOptimalOptions so;
        so.threads = 8;
        so.seed = seed;
        so.platform = platform;
        (void)hars::find_static_optimal(
            bench, cal.target_for_fraction(fractions[i % 2]), so);
      },
      result);
  times.static_optimal_s = ms_since(start) / 1e3;

  start = now_ns();
  const auto cases = hars::multiapp_cases();
  parallel_for(
      jobs, cases.size(),
      [&](std::size_t i) {
        try {
          (void)hars::ExperimentBuilder()
              .apps(cases[i])
              .duration(150 * hars::kUsPerSec)
              .seed(seed)
              .variant(kProbeVariant)
              .build()
              .run();
        } catch (const ProbeOnly&) {
          // Targets resolved, so the probe cache is filled.
        }
      },
      result);
  times.probe_s = ms_since(start) / 1e3;
  result.attempt(benches.size() * 3 + cases.size());
  return times;
}

void alternate(double seconds, int min_pairs, TracedSection& section,
               const std::function<void()>& untraced,
               const std::function<void()>& traced) {
  hars::obs::MetricsRegistry& registry = hars::obs::MetricsRegistry::instance();
  const auto append = [](std::vector<double>& to) {
    const std::vector<double> samples = take_tick_samples();
    to.insert(to.end(), samples.begin(), samples.end());
  };
  (void)take_tick_samples();
  section.span_mark = Tracer::active()->size();
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  for (int pairs = 0; pairs < min_pairs || now_ns() < deadline; ++pairs) {
    untraced();
    append(section.untraced_ns_per_tick);
    set_registry(true);
    hars::obs::MetricsSnapshot before = registry.take_snapshot();
    traced();
    hars::obs::MetricsSnapshot after = registry.take_snapshot();
    set_registry(false);
    append(section.traced_ns_per_tick);
    if (pairs == 0) section.before = std::move(before);
    section.after = std::move(after);
  }
}

void add_sweep(TracedSection& section, const hars::SweepReport& report) {
  for (const hars::CaseOutcome& outcome : report.outcomes) {
    section.case_ms.push_back(outcome.wall_ms);
    section.case_ms_sum += outcome.wall_ms;
  }
  section.campaign_ms_sum += report.wall_ms;
  section.jobs = report.jobs;
}

void emit_layer_metrics(const TracedSection& section, Result& result) {
  const LayerTimes lt = Tracer::active()->derive(section.span_mark);
  result.add("exp.run.ms_p50", lt.run_ms_p50, "ms", lt.runs);
  result.add("exp.run.count", static_cast<double>(lt.runs), "count");
  result.add("exp.run.self_share", ratio(lt.run_self_ns, lt.run_ns), "ratio",
             lt.runs);
  result.add("hmp.tick.self_ns_p50", median(lt.tick_self_ns_per_tick), "ns",
             lt.tick_self_ns_per_tick.size());
  result.add("hmp.tick.self_share", ratio(lt.tick_self_ns, lt.run_ns), "ratio",
             lt.tick_self_ns_per_tick.size());

  const auto& b = section.before;
  const auto& a = section.after;
  result.add("sched.assign.calls", static_cast<double>(lt.assign_calls),
             "count");
  result.add("sched.assign.ns_mean",
             ratio(lt.assign_ns, static_cast<double>(lt.assign_calls)), "ns",
             static_cast<std::size_t>(lt.assign_calls));
  result.add("sched.assign.share", ratio(lt.assign_ns, lt.run_ns), "ratio");
  result.add("sched.assign.skip_ratio",
             ratio(static_cast<double>(
                       counter_delta(b, a, "sched.gts.assign_skips")),
                   static_cast<double>(
                       counter_delta(b, a, "sched.gts.assign_calls"))),
             "ratio");

  result.add("mgr.on_tick.calls", static_cast<double>(lt.on_tick_calls),
             "count");
  result.add("mgr.on_tick.ns_mean",
             ratio(lt.on_tick_ns, static_cast<double>(lt.on_tick_calls)), "ns",
             static_cast<std::size_t>(lt.on_tick_calls));
  result.add("mgr.on_tick.share", ratio(lt.on_tick_ns, lt.run_ns), "ratio");

  const double decisions =
      static_cast<double>(counter_delta(b, a, "search.calls"));
  const double candidates = static_cast<double>(
      counter_delta(b, a, "search.candidates.incremental") +
      counter_delta(b, a, "search.candidates.exhaustive") +
      counter_delta(b, a, "search.candidates.tabu"));
  const double memo_hits = static_cast<double>(
      counter_delta(b, a, "search.memo.unit_time_hits") +
      counter_delta(b, a, "search.memo.power_hits"));
  const double memo_lookups =
      memo_hits + static_cast<double>(
                      counter_delta(b, a, "search.memo.unit_time_misses") +
                      counter_delta(b, a, "search.memo.power_misses"));
  result.add("search.decisions", decisions, "count");
  result.add("search.candidates_per_decision", ratio(candidates, decisions),
             "count");
  result.add("search.memo.hit_ratio", ratio(memo_hits, memo_lookups), "ratio");

  result.add("sweep.case_ms_p50", median(section.case_ms), "ms",
             section.case_ms.size());
  const hars::obs::MetricValue queue = hist_delta(b, a, "sweep.case_queue_ms");
  result.add("sweep.queue_ms_p50", hars::obs::histogram_quantile(queue, 0.5),
             "ms", queue.count);
  result.add("sweep.utilization",
             ratio(section.case_ms_sum, section.jobs * section.campaign_ms_sum),
             "ratio");

  const double traced = median(section.traced_ns_per_tick);
  const double untraced = median(section.untraced_ns_per_tick);
  result.add("trace.cpu_ns_per_tick_p50.traced", traced, "ns",
             section.traced_ns_per_tick.size());
  result.add("trace.cpu_ns_per_tick_p50.untraced", untraced, "ns",
             section.untraced_ns_per_tick.size());
  result.add("trace.overhead_cpu_ns_per_tick", traced - untraced, "ns");
}

void finish_traced_run(const Options& options, Result& result) {
  if (!result.has("exp.setup.calibrate_ms")) {
    const SetupTimes setup =
        fill_figures_caches(options.seed + 7000001, options.jobs, result);
    result.add("exp.setup.calibrate_ms", setup.calibrate_s * 1e3, "ms");
    result.add("exp.setup.static_optimal_ms", setup.static_optimal_s * 1e3,
               "ms");
    result.add("exp.setup.probe_ms", setup.probe_s * 1e3, "ms");
  }
  if (!result.has("svc.ack_ms_p50")) measure_svc_layer(options, 1.5, result);
  run_search_row(options, 1.0, result);

  Tracer* tracer = Tracer::active();
  result.add("trace.spans", static_cast<double>(tracer->size()), "count");
  const std::string path =
      options.out_dir + "/spans-" + options.workload + ".jsonl";
  if (!tracer->write_jsonl(path)) result.fail("cannot write " + path);
}

}  // namespace perfbench
