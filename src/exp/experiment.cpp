#include "exp/experiment.hpp"

#include <algorithm>
#include <tuple>
#include <utility>

#include "backend/sim_backend.hpp"
#include "exp/calibration.hpp"
#include "hmp/platform_registry.hpp"
#include "hmp/sim_engine.hpp"
#include "scenario/scenario_registry.hpp"
#include "scenario/scenario_runtime.hpp"
#include "scenario/trace_sink.hpp"
#include "util/once_cache.hpp"

namespace hars {

std::vector<std::vector<ParsecBenchmark>> multiapp_cases() {
  using B = ParsecBenchmark;
  return {{B::kBodytrack, B::kSwaptions},    // Case 1
          {B::kBlackscholes, B::kSwaptions}, // Case 2
          {B::kFluidanimate, B::kBlackscholes},  // Case 3
          {B::kBodytrack, B::kFluidanimate},     // Case 4
          {B::kFluidanimate, B::kSwaptions},     // Case 5
          {B::kBodytrack, B::kBlackscholes}};    // Case 6
}

namespace {

std::unique_ptr<Scheduler> make_default_scheduler() {
  return std::make_unique<GtsScheduler>();
}

/// The engine + OS scheduler for a measured run, honouring the spec's
/// reference_impl switch (bit-identical simulations either way).
SimEngine make_engine(const ExperimentSpec& spec) {
  std::unique_ptr<Scheduler> scheduler;
  if (spec.make_scheduler) {
    scheduler = spec.make_scheduler();
  } else if (spec.reference_impl) {
    GtsConfig gts;
    gts.reference = true;
    scheduler = std::make_unique<GtsScheduler>(gts);
  } else {
    scheduler = make_default_scheduler();
  }
  SimConfig config;
  config.reference_tick = spec.reference_impl;
  if (spec.audit) config.audit = *spec.audit;
  return SimEngine(spec.platform, std::move(scheduler), config);
}

/// Maximum achievable performance of each app *while running concurrently
/// with its partners* under the baseline (all cores, max frequency, the
/// configured OS scheduler). Multi-app derived targets are fractions of
/// this: with N CPU-bound apps sharing the machine, a fraction of the
/// standalone rate would already be met (or missed) by construction,
/// which is not what §5.2.1 evaluates. Memoized per
/// app-set/machine/duration/threads/seed because every figure re-uses the
/// same probes — but only for PARSEC app sets, whose labels identify
/// their factories (custom factories can share a label).
std::vector<double> probe_baseline_rates(const ExperimentSpec& spec) {
  SimEngine engine(spec.platform, spec.make_scheduler
                                      ? spec.make_scheduler()
                                      : make_default_scheduler());
  std::vector<std::unique_ptr<App>> apps;
  for (std::size_t i = 0; i < spec.apps.size(); ++i) {
    apps.push_back(spec.apps[i].factory(spec.threads, spec.seed + i));
    engine.add_app(apps.back().get());
  }
  engine.run_for(spec.duration);
  std::vector<double> rates;
  for (const auto& app : apps) {
    const auto& history = app->heartbeats().history();
    const TimeUs t0 = history.empty() ? 0 : history.front().time;
    rates.push_back(average_rate(history, t0, engine.now()));
  }
  return rates;
}

std::vector<double> concurrent_baseline_rates(const ExperimentSpec& spec) {
  using Key = std::tuple<std::string, long long, int, std::uint64_t>;
  static OnceCache<Key, std::vector<double>> cache{"baseline_probe"};
  bool cacheable = !spec.make_scheduler;  // Custom schedulers aren't keyed.
  std::string case_key;
  for (const AppSpec& app : spec.apps) {
    cacheable &= app.bench.has_value();
    case_key += app.label;
    case_key += '+';
  }
  if (!cacheable) return probe_baseline_rates(spec);
  case_key += spec.platform.signature();
  const Key key{case_key, static_cast<long long>(spec.duration), spec.threads,
                spec.seed};
  return cache.get_or_compute(key, [&] { return probe_baseline_rates(spec); });
}

/// Per-app targets: explicit ones win. Derived targets follow the
/// protocol: steady-state measurement of a single PARSEC app derives
/// from its standalone calibration (§5.1.1); a cold-start measurement —
/// any multi-app run, or run_multi's legacy single-app form — derives
/// from the concurrent baseline probe (§5.2.1).
std::vector<PerfTarget> resolve_targets(const ExperimentSpec& spec) {
  std::vector<PerfTarget> targets(spec.apps.size());
  bool all_explicit = true;
  for (const AppSpec& app : spec.apps) all_explicit &= app.target.has_value();

  if (all_explicit) {
    for (std::size_t i = 0; i < spec.apps.size(); ++i) {
      targets[i] = *spec.apps[i].target;
    }
    return targets;
  }
  if (spec.protocol == RunProtocol::kSteadyState && spec.apps.size() == 1 &&
      spec.apps.front().bench) {
    const Calibration cal = calibrate_benchmark(
        spec.platform, *spec.apps.front().bench, spec.threads, spec.seed);
    targets[0] = cal.target_for_fraction(spec.target_fraction);
    return targets;
  }
  const std::vector<double> rates = concurrent_baseline_rates(spec);
  for (std::size_t i = 0; i < spec.apps.size(); ++i) {
    if (spec.apps[i].target.has_value()) {
      targets[i] = *spec.apps[i].target;
      continue;
    }
    if (!(rates[i] > 0.0)) {
      // A zero probe rate would derive a {0, 0} target whose zero average
      // silently zeroes every normalized-perf score; fail loudly instead.
      throw std::runtime_error(
          "app \"" + spec.apps[i].label +
          "\" emitted no heartbeats in the baseline probe; cannot derive a "
          "positive performance target (set one explicitly or lengthen the "
          "duration)");
    }
    targets[i] = PerfTarget::around(spec.target_fraction * rates[i]);
  }
  return targets;
}

RunMetrics collect_metrics(const SimEngine& engine, const App& app,
                           const PerfTarget& target, TimeUs t0, TimeUs t1,
                           double avg_power_w) {
  RunMetrics m;
  const auto& history = app.heartbeats().history();
  m.norm_perf = time_weighted_norm_perf(history, target, t0, t1);
  m.avg_rate_hps = average_rate(history, t0, t1);
  m.avg_power_w = avg_power_w;
  m.perf_per_watt = m.avg_power_w > 0.0 ? m.norm_perf / m.avg_power_w : 0.0;
  m.manager_cpu_pct = engine.manager_cpu_utilization_pct();
  m.heartbeats = app.heartbeats().count();
  m.in_window_fraction = time_in_window_fraction(history, target, t0, t1);
  m.energy_j = engine.sensor().total_energy_j();
  const double beats_in_span = m.avg_rate_hps * us_to_sec(t1 - t0);
  m.energy_per_beat_j = beats_in_span > 0.0 ? m.energy_j / beats_in_span : 0.0;
  return m;
}

/// The scenario pipeline: apps arrive and depart per the scenario's event
/// list, dispatched at tick boundaries by the ScenarioRuntime that drives
/// the engine. Cold-start protocol throughout; each app's
/// measurement span runs from its first heartbeat to its departure (or
/// run end).
ExperimentResult run_scenario(const ExperimentSpec& spec) {
  const Scenario& scenario = *spec.scenario;
  SimEngine engine = make_engine(spec);
  ScenarioRuntime runtime(scenario, engine, spec,
                          resolve_scenario_targets(spec, scenario));
  runtime.spawn_initial();

  const std::vector<AppId> initial_ids = runtime.initial_ids();
  const std::vector<PerfTarget> initial_targets = runtime.initial_targets();
  const VariantEntry* entry = VariantRegistry::instance().find(spec.variant);
  SimBackend backend(engine);
  const VariantSetup setup{backend, spec, initial_ids, initial_targets};
  std::unique_ptr<VariantInstance> instance = entry->factory(setup);
  if (instance == nullptr) {
    throw std::runtime_error("variant \"" + spec.variant +
                             "\" factory returned no instance");
  }
  if (instance->active()) engine.set_manager(instance.get());
  runtime.attach_variant(instance.get());

  if (spec.capture != nullptr) {
    TraceMeta meta;
    meta.scenario_dsl = scenario.to_dsl();
    meta.platform = spec.platform.name;
    meta.variant = spec.variant;
    meta.seed = spec.seed;
    meta.threads = spec.threads;
    meta.duration_us = spec.duration;
    meta.fraction = spec.target_fraction;
    meta.sample_ticks = spec.capture->sample_every_ticks();
    spec.capture->write_meta(meta);
    runtime.attach_capture(spec.capture);
  }

  if (spec.sample_period > 0 && spec.sampler) {
    std::vector<App*> app_ptrs;
    std::vector<AppId> ids;
    const TimeUs end = engine.now() + spec.duration;
    while (engine.now() < end) {
      runtime.run_until(engine.now() +
                        std::min(spec.sample_period, end - engine.now()));
      app_ptrs.clear();
      ids.clear();
      for (const ScenarioAppSlot& slot : runtime.slots()) {
        if (!slot.alive) continue;
        app_ptrs.push_back(slot.app.get());
        ids.push_back(slot.id);
      }
      spec.sampler(RunView{engine, app_ptrs, ids, *instance, engine.now()});
    }
  } else {
    runtime.run_until(engine.now() + spec.duration);
  }
  runtime.finish(engine.now());

  ExperimentResult result;
  const TimeUs t1 = engine.now();
  result.avg_power_w = engine.sensor().average_power_w(t1);
  for (const ScenarioAppSlot& slot : runtime.slots()) {
    if (!slot.spawned) continue;  // Arrival beyond the run's duration.
    AppRunResult app_result;
    app_result.label = slot.label;
    app_result.target = slot.target;
    app_result.spawn_time_us = slot.spawn_time;
    app_result.depart_time_us = slot.depart_time;
    const TimeUs span1 = slot.depart_time >= 0 ? slot.depart_time : t1;
    const auto& history = slot.app->heartbeats().history();
    const TimeUs span0 = history.empty() ? slot.spawn_time : history.front().time;
    app_result.metrics = collect_metrics(engine, *slot.app, slot.target,
                                         std::min(span0, span1), span1,
                                         result.avg_power_w);
    app_result.trace = instance->trace(slot.id);
    result.apps.push_back(std::move(app_result));
  }
  result.static_state = instance->static_state();
  result.final_state = instance->current_state();
  result.adaptations = instance->adaptations();

  if (spec.capture != nullptr) {
    for (const AppRunResult& app : result.apps) {
      Record r;
      r.set("kind", "metrics");
      r.set("app", app.label);
      r.set("spawn_us", static_cast<std::int64_t>(app.spawn_time_us));
      r.set("depart_us", static_cast<std::int64_t>(app.depart_time_us));
      r.set("heartbeats", app.metrics.heartbeats);
      r.set("norm_perf", app.metrics.norm_perf);
      r.set("avg_rate_hps", app.metrics.avg_rate_hps);
      r.set("avg_power_w", app.metrics.avg_power_w);
      r.set("perf_per_watt", app.metrics.perf_per_watt);
      r.set("in_window_fraction", app.metrics.in_window_fraction);
      r.set("energy_j", app.metrics.energy_j);
      r.set("manager_cpu_pct", app.metrics.manager_cpu_pct);
      r.set("adaptations", result.adaptations);
      spec.capture->write(r);
    }
  }
  return result;
}

/// The live pipeline: resolve the named backend through the registry,
/// start one synthetic spin workload per configured app, derive any
/// missing targets from a boot-state probe slice, instantiate the variant
/// against the Backend interface and let the backend's wall-clock tick
/// loop drive it. Measurement is cold-start-style over the post-probe
/// span; energy comes from the backend's meters (or its modeled
/// fallback).
ExperimentResult run_live(const ExperimentSpec& spec) {
  BackendOptions options = spec.backend_options;
  if (!options.platform) options.platform = spec.platform;
  std::unique_ptr<Backend> backend =
      BackendRegistry::instance().get_live(spec.backend, options);

  std::vector<AppId> ids;
  for (std::size_t i = 0; i < spec.apps.size(); ++i) {
    WorkloadDesc desc;
    desc.label = spec.apps[i].label;
    desc.threads = spec.threads;
    ids.push_back(backend->add_workload(desc));
  }

  // Targets: explicit ones win; the rest derive from a probe slice at the
  // boot state (the live analogue of the concurrent baseline probe).
  std::vector<PerfTarget> targets(spec.apps.size());
  bool need_probe = false;
  for (const AppSpec& app : spec.apps) need_probe |= !app.target.has_value();
  if (need_probe) {
    backend->run_for(std::max<TimeUs>(spec.duration / 5, kUsPerSec));
  }
  for (std::size_t i = 0; i < spec.apps.size(); ++i) {
    if (spec.apps[i].target) {
      targets[i] = *spec.apps[i].target;
    } else {
      const double rate = backend->heartbeats(ids[i]).rate();
      if (!(rate > 0.0)) {
        throw std::runtime_error(
            "workload \"" + spec.apps[i].label +
            "\" emitted no heartbeats in the live probe on backend \"" +
            spec.backend +
            "\"; cannot derive a target (set one explicitly or lengthen "
            "the duration)");
      }
      targets[i] = PerfTarget::around(spec.target_fraction * rate);
    }
    backend->heartbeats(ids[i]).set_target(targets[i]);
  }

  const VariantEntry* entry = VariantRegistry::instance().find(spec.variant);
  const VariantSetup setup{*backend, spec, ids, targets};
  std::unique_ptr<VariantInstance> instance = entry->factory(setup);
  if (instance == nullptr) {
    throw std::runtime_error("variant \"" + spec.variant +
                             "\" factory returned no instance");
  }
  if (instance->active()) backend->attach_manager(instance.get());

  const TimeUs t0 = backend->now();
  const double energy0 = backend->energy_j();
  backend->run_for(spec.duration);
  const TimeUs t1 = backend->now();
  const double energy_j = backend->energy_j() - energy0;
  const double span_s = us_to_sec(t1 - t0);

  ExperimentResult result;
  result.avg_power_w = span_s > 0.0 ? energy_j / span_s : 0.0;
  for (std::size_t i = 0; i < spec.apps.size(); ++i) {
    AppRunResult app_result;
    app_result.label = spec.apps[i].label;
    app_result.target = targets[i];
    const auto& history = backend->heartbeats(ids[i]).history();
    RunMetrics& m = app_result.metrics;
    m.norm_perf = time_weighted_norm_perf(history, targets[i], t0, t1);
    m.avg_rate_hps = average_rate(history, t0, t1);
    m.avg_power_w = result.avg_power_w;
    m.perf_per_watt = m.avg_power_w > 0.0 ? m.norm_perf / m.avg_power_w : 0.0;
    m.manager_cpu_pct = backend->manager_cpu_utilization_pct();
    m.heartbeats = backend->heartbeats(ids[i]).count();
    m.in_window_fraction =
        time_in_window_fraction(history, targets[i], t0, t1);
    m.energy_j = energy_j;
    const double beats_in_span = m.avg_rate_hps * span_s;
    m.energy_per_beat_j =
        beats_in_span > 0.0 ? m.energy_j / beats_in_span : 0.0;
    app_result.trace = instance->trace(ids[i]);
    result.apps.push_back(std::move(app_result));
  }
  result.static_state = instance->static_state();
  result.final_state = instance->current_state();
  result.adaptations = instance->adaptations();
  return result;
}

}  // namespace

ExperimentResult Experiment::run() const {
  const ExperimentSpec& spec = spec_;
  // Scoped around the whole pipeline (including scenario runs): arms the
  // registry when enabled, writes the configured sinks on exit. With
  // telemetry disabled this is construction of an inert object.
  obs::TelemetrySession telemetry(spec.telemetry);
  if (spec.backend != "sim") return run_live(spec);
  if (spec.scenario) return run_scenario(spec);
  const std::vector<PerfTarget> targets = resolve_targets(spec);

  SimEngine engine = make_engine(spec);
  std::vector<std::unique_ptr<App>> apps;
  std::vector<App*> app_ptrs;
  std::vector<AppId> ids;
  for (std::size_t i = 0; i < spec.apps.size(); ++i) {
    apps.push_back(spec.apps[i].factory(spec.threads, spec.seed + i));
    app_ptrs.push_back(apps.back().get());
    ids.push_back(engine.add_app(apps.back().get()));
    apps.back()->heartbeats().set_target(targets[i]);
  }

  // The registry entry exists: build() validated the variant name.
  const VariantEntry* entry = VariantRegistry::instance().find(spec.variant);
  SimBackend backend(engine);
  const VariantSetup setup{backend, spec, ids, targets};
  std::unique_ptr<VariantInstance> instance = entry->factory(setup);
  if (instance == nullptr) {
    throw std::runtime_error("variant \"" + spec.variant +
                             "\" factory returned no instance");
  }
  if (instance->active()) engine.set_manager(instance.get());

  TimeUs t0 = 0;
  if (spec.protocol == RunProtocol::kSteadyState) {
    const TimeUs warmup_cap = engine.now() + 60 * kUsPerSec;
    const auto all_beating = [&] {
      return std::all_of(app_ptrs.begin(), app_ptrs.end(), [](const App* a) {
        return a->heartbeats().count() > 0;
      });
    };
    while (!all_beating() && engine.now() < warmup_cap) {
      engine.run_for(100 * kUsPerMs);
    }
    t0 = engine.now();
    engine.sensor().reset();
  }

  if (spec.sample_period > 0 && spec.sampler) {
    const TimeUs end = engine.now() + spec.duration;
    while (engine.now() < end) {
      engine.run_for(std::min(spec.sample_period, end - engine.now()));
      spec.sampler(RunView{engine, app_ptrs, ids, *instance, engine.now()});
    }
  } else {
    engine.run_for(spec.duration);
  }

  ExperimentResult result;
  const TimeUs t1 = engine.now();
  result.avg_power_w = engine.sensor().average_power_w(
      spec.protocol == RunProtocol::kSteadyState ? t1 - t0 : t1);
  for (std::size_t i = 0; i < apps.size(); ++i) {
    AppRunResult app_result;
    app_result.label = spec.apps[i].label;
    app_result.target = targets[i];
    TimeUs span0 = t0;
    if (spec.protocol == RunProtocol::kColdStart) {
      const auto& history = apps[i]->heartbeats().history();
      span0 = history.empty() ? 0 : history.front().time;
    }
    app_result.metrics = collect_metrics(engine, *apps[i], targets[i], span0,
                                         t1, result.avg_power_w);
    app_result.trace = instance->trace(ids[i]);
    result.apps.push_back(std::move(app_result));
  }
  result.static_state = instance->static_state();
  result.final_state = instance->current_state();
  result.adaptations = instance->adaptations();
  return result;
}

ExperimentBuilder::ExperimentBuilder() = default;

ExperimentBuilder& ExperimentBuilder::platform(PlatformSpec spec) {
  try {
    spec.validate();
  } catch (const PlatformConfigError& error) {
    throw ExperimentConfigError(error.what());
  }
  spec_.platform = std::move(spec);
  return *this;
}

ExperimentBuilder& ExperimentBuilder::platform(std::string_view name) {
  try {
    spec_.platform = PlatformRegistry::instance().get(name);
  } catch (const PlatformConfigError& error) {
    throw ExperimentConfigError(error.what());
  }
  return *this;
}

ExperimentBuilder& ExperimentBuilder::platform(Machine machine) {
  // Validate at configure time so an unsupportable machine (e.g. a little
  // cluster out-peaking a big one, which the perf-ranked pools cannot
  // represent) fails here with the documented exception type instead of
  // surfacing a PlatformConfigError from inside run().
  return platform(PlatformSpec::from_machine(machine));
}

ExperimentBuilder& ExperimentBuilder::os_scheduler(GtsConfig config) {
  spec_.make_scheduler = [config] {
    return std::make_unique<GtsScheduler>(config);
  };
  return *this;
}

ExperimentBuilder& ExperimentBuilder::os_scheduler(
    std::function<std::unique_ptr<Scheduler>()> factory) {
  spec_.make_scheduler = std::move(factory);
  return *this;
}

ExperimentBuilder& ExperimentBuilder::app(ParsecBenchmark bench) {
  AppSpec spec;
  spec.bench = bench;
  spec.factory = [bench](int threads, std::uint64_t seed) {
    return make_parsec_app(bench, threads, seed);
  };
  spec.label = parsec_code(bench);
  spec_.apps.push_back(std::move(spec));
  return *this;
}

ExperimentBuilder& ExperimentBuilder::app(std::string label,
                                          AppFactory factory) {
  AppSpec spec;
  spec.factory = std::move(factory);
  spec.label = std::move(label);
  spec_.apps.push_back(std::move(spec));
  return *this;
}

ExperimentBuilder& ExperimentBuilder::apps(
    const std::vector<ParsecBenchmark>& benches) {
  for (ParsecBenchmark bench : benches) app(bench);
  return *this;
}

ExperimentBuilder& ExperimentBuilder::scenario(Scenario scenario) {
  try {
    scenario.validate();
  } catch (const ScenarioError& error) {
    throw ExperimentConfigError(error.what());
  }
  spec_.scenario = std::move(scenario);
  return *this;
}

ExperimentBuilder& ExperimentBuilder::scenario(std::string_view name) {
  try {
    spec_.scenario = ScenarioRegistry::instance().get(name);
  } catch (const ScenarioError& error) {
    throw ExperimentConfigError(error.what());
  }
  return *this;
}

ExperimentBuilder& ExperimentBuilder::capture(TraceSink& sink) {
  spec_.capture = &sink;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::target(PerfTarget target) {
  if (spec_.apps.empty()) {
    throw ExperimentConfigError("target() requires an app to be added first");
  }
  spec_.apps.back().target = target;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::target_fraction(double fraction) {
  spec_.target_fraction = fraction;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::backend(std::string_view name) {
  if (!BackendRegistry::instance().known(name)) {
    std::string message = "unknown backend \"" + std::string(name) +
                          "\"; known:";
    for (const std::string& known : BackendRegistry::instance().names()) {
      message += ' ';
      message += known;
    }
    throw ExperimentConfigError(message);
  }
  spec_.backend = std::string(name);
  return *this;
}

ExperimentBuilder& ExperimentBuilder::backend(std::string_view name,
                                              BackendOptions options) {
  backend(name);
  spec_.backend_options = std::move(options);
  return *this;
}

ExperimentBuilder& ExperimentBuilder::variant(std::string name) {
  spec_.variant = std::move(name);
  return *this;
}

ExperimentBuilder& ExperimentBuilder::scheduler(ThreadSchedulerKind kind) {
  spec_.tuning.scheduler = kind;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::predictor(PredictorKind kind) {
  spec_.tuning.predictor = kind;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::policy(SearchPolicy policy) {
  spec_.tuning.policy = policy;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::search_window(int window) {
  spec_.tuning.search_window = window;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::search_distance(int d) {
  spec_.tuning.search_distance = d;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::adapt_period(int heartbeats) {
  spec_.tuning.adapt_period = heartbeats;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::assumed_ratio(double r0) {
  spec_.tuning.r0 = r0;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::learn_ratio(bool on) {
  spec_.tuning.learn_ratio = on;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::tabu(TabuParams params) {
  spec_.tuning.tabu = params;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::reference_impl(bool on) {
  spec_.reference_impl = on;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::audit(bool on) {
  spec_.audit = on;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::telemetry(obs::TelemetryConfig config) {
  config.enabled = true;
  spec_.telemetry = std::move(config);
  return *this;
}

ExperimentBuilder& ExperimentBuilder::protocol(RunProtocol protocol) {
  spec_.protocol = protocol;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::duration(TimeUs duration) {
  spec_.duration = duration;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::duration_sec(double seconds) {
  spec_.duration = sec_to_us(seconds);
  return *this;
}

ExperimentBuilder& ExperimentBuilder::threads(int threads) {
  spec_.threads = threads;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::seed(std::uint64_t seed) {
  spec_.seed = seed;
  return *this;
}

ExperimentBuilder& ExperimentBuilder::sample_every(TimeUs period,
                                                   SampleFn fn) {
  spec_.sample_period = period;
  spec_.sampler = std::move(fn);
  return *this;
}

Experiment ExperimentBuilder::build() const {
  ExperimentSpec spec = spec_;

  if (spec.scenario) {
    if (!spec.apps.empty()) {
      throw ExperimentConfigError(
          "scenario() and app() are exclusive: scenario spawns define the "
          "apps");
    }
    if (spec.protocol == RunProtocol::kSteadyState) {
      throw ExperimentConfigError(
          "scenario runs use the cold-start protocol (a steady-state warmup "
          "has no meaning when apps arrive over time)");
    }
    spec.protocol = RunProtocol::kColdStart;
    // Synthesize the t = 0 app set so variant factories (and the traits
    // validation below) see the initial apps; later arrivals go through
    // VariantInstance::on_app_spawn.
    for (const ScenarioEvent* spawn : spec.scenario->spawns()) {
      if (spawn->time > 0) continue;
      AppSpec app;
      app.bench = spawn->spawn.bench;
      const ParsecBenchmark bench = *spawn->spawn.bench;
      app.factory = [bench](int threads, std::uint64_t seed) {
        return make_parsec_app(bench, threads, seed);
      };
      app.label = spawn->app;
      if (spawn->spawn.target) app.target = *spawn->spawn.target;
      spec.apps.push_back(std::move(app));
    }
  } else if (spec.capture != nullptr) {
    throw ExperimentConfigError("capture() requires scenario()");
  }

  if (spec.apps.empty()) {
    throw ExperimentConfigError("experiment needs at least one app");
  }
  if (!BackendRegistry::instance().known(spec.backend)) {
    std::string message = "unknown backend \"" + spec.backend + "\"; known:";
    for (const std::string& known : BackendRegistry::instance().names()) {
      message += ' ';
      message += known;
    }
    throw ExperimentConfigError(message);
  }
  if (spec.backend != "sim") {
    // The live pipeline drives real (or mock) hardware: no simulated
    // clock to slice for samplers, no engine for scenarios to mutate, and
    // reference_impl selects simulator hot paths that do not exist here.
    if (spec.scenario) {
      throw ExperimentConfigError(
          "scenario() requires the sim backend (scenario events drive the "
          "simulated engine)");
    }
    if (spec.sampler) {
      throw ExperimentConfigError(
          "sample_every() requires the sim backend (RunView exposes the "
          "simulated engine)");
    }
    if (spec.capture != nullptr) {
      throw ExperimentConfigError("capture() requires the sim backend");
    }
    if (spec.reference_impl) {
      throw ExperimentConfigError(
          "reference_impl() requires the sim backend (it selects simulator "
          "hot-path implementations)");
    }
  }
  const VariantEntry* entry = VariantRegistry::instance().find(spec.variant);
  if (entry == nullptr) {
    std::string message = "unknown variant \"" + spec.variant + "\"; known:";
    for (const std::string& name : VariantRegistry::instance().names()) {
      message += ' ';
      message += name;
    }
    throw ExperimentConfigError(message);
  }
  const VariantTraits& traits = entry->traits;
  const int app_count = static_cast<int>(spec.apps.size());
  if (app_count < traits.min_apps || app_count > traits.max_apps) {
    throw ExperimentConfigError(
        "variant \"" + spec.variant + "\" supports " +
        std::to_string(traits.min_apps) + ".." +
        std::to_string(traits.max_apps) + " apps, got " +
        std::to_string(app_count));
  }
  if (traits.requires_parsec) {
    for (const AppSpec& app : spec.apps) {
      if (!app.bench) {
        throw ExperimentConfigError("variant \"" + spec.variant +
                                    "\" requires PARSEC benchmark apps");
      }
    }
  }
  const unsigned rejected = tuning_fields(spec.tuning) & ~traits.accepted_tuning;
  if (rejected != 0) {
    std::string message =
        "variant \"" + spec.variant + "\" does not accept tuning:";
    for (unsigned bit = 1; bit <= kTuneTabu; bit <<= 1) {
      if (rejected & bit) {
        message += ' ';
        message += tuning_field_name(static_cast<TuningField>(bit));
      }
    }
    throw ExperimentConfigError(message);
  }
  if (spec.tuning.tabu) {
    const SearchPolicy effective = spec.tuning.policy
                                       ? *spec.tuning.policy
                                       : traits.base_policy.value_or(
                                             SearchPolicy::kExhaustive);
    if (effective != SearchPolicy::kTabu) {
      throw ExperimentConfigError(
          "tabu parameters require policy(SearchPolicy::kTabu)");
    }
  }
  if (!(spec.target_fraction > 0.0) || spec.target_fraction > 1.0) {
    throw ExperimentConfigError("target_fraction must be in (0, 1]");
  }
  for (const AppSpec& app : spec.apps) {
    if (app.target && !app.target->is_valid_window()) {
      throw ExperimentConfigError(
          "app \"" + app.label +
          "\" needs a positive target window (0 <= min <= max, max > 0); "
          "a non-positive target average would zero every normalized-perf "
          "score");
    }
  }
  if (spec.duration <= 0) {
    throw ExperimentConfigError("duration must be positive");
  }
  if (spec.threads < 1) {
    throw ExperimentConfigError("threads must be >= 1");
  }
  if (spec.tuning.search_window && *spec.tuning.search_window < 0) {
    throw ExperimentConfigError("search_window must be >= 0");
  }
  if (spec.tuning.search_distance && *spec.tuning.search_distance < 0) {
    throw ExperimentConfigError("search_distance must be >= 0");
  }
  if (spec.tuning.adapt_period && *spec.tuning.adapt_period < 1) {
    throw ExperimentConfigError("adapt_period must be >= 1");
  }
  if (spec.tuning.r0 && !(*spec.tuning.r0 > 0.0)) {
    throw ExperimentConfigError("assumed_ratio must be > 0");
  }
  if ((spec.sample_period > 0) != static_cast<bool>(spec.sampler)) {
    throw ExperimentConfigError(
        "sample_every needs both a positive period and a callback");
  }

  if (spec.protocol == RunProtocol::kAuto) {
    spec.protocol = spec.apps.size() == 1 ? RunProtocol::kSteadyState
                                          : RunProtocol::kColdStart;
  }
  return Experiment(std::move(spec));
}

}  // namespace hars
