// Differential tests of SimEngine's quiet-span fast-forward. Every
// manager-less run the paper's targets and oracles rest on — calibration,
// static-optimal probes, concurrent baseline probes, blackscholes' serial
// warm-up, ferret's pipeline, Baseline and SO experiments — and every
// managed run of the evaluation (HARS-I/E/EI, CONS-I, MP-HARS-I/E, whose
// no-news polls are absorbed into spans) runs on the optimized path
// (which fast-forwards) and on the strictly per-tick reference path, and
// the two must agree bit for bit, and so must scenario runs, whose events
// and capture samples end spans. Runs that do not qualify must not
// fast-forward at all.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "apps/data_parallel_app.hpp"
#include "apps/parsec.hpp"
#include "apps/pipeline_app.hpp"
#include "exp/experiment.hpp"
#include "exp/fuzz_harness.hpp"
#include "hmp/platform_registry.hpp"
#include "hmp/sim_engine.hpp"
#include "obs/metrics.hpp"
#include "scenario/scenario.hpp"
#include "scenario/trace_sink.hpp"
#include "sched/gts.hpp"

namespace hars {
namespace {

/// The engine's tick counters over one call (telemetry armed for the
/// call only).
struct TickCounts {
  std::uint64_t ticks = 0;     ///< engine.ticks: stepped and skipped.
  std::uint64_t ff_ticks = 0;  ///< sim.ff_ticks
  std::uint64_t ff_polls = 0;  ///< sim.ff_polls
};

TickCounts counts_during(const std::function<void()>& fn) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();
  registry.set_enabled(true);
  registry.reset();
  fn();
  const obs::MetricsSnapshot snapshot = registry.take_snapshot();
  registry.set_enabled(false);
  const auto counter = [&](const char* name) -> std::uint64_t {
    const obs::MetricValue* v = snapshot.find(name);
    return v == nullptr ? 0 : v->counter;
  };
  return {counter("engine.ticks"), counter("sim.ff_ticks"),
          counter("sim.ff_polls")};
}

/// Everything a run can observe of the engine, captured for an exact
/// comparison.
struct Observed {
  TimeUs now = 0;
  std::vector<std::vector<TimeUs>> heartbeats;  ///< Per app.
  std::vector<double> cluster_energy_j;
  double total_energy_j = 0.0;
  std::vector<std::vector<double>> samples;  ///< Per sample: cluster watts.
  std::vector<double> busy_fraction;         ///< Per core.
  std::vector<TimeUs> cpu_time_us;           ///< Per thread.
  std::int64_t migrations = 0;
  TimeUs manager_overhead_us = 0;

  bool operator==(const Observed&) const = default;
};

/// Field-by-field comparison (readable failures), then the whole.
void expect_same(const Observed& optimized, const Observed& reference) {
  EXPECT_EQ(optimized.now, reference.now);
  EXPECT_EQ(optimized.heartbeats, reference.heartbeats);
  EXPECT_EQ(optimized.cluster_energy_j, reference.cluster_energy_j);
  EXPECT_EQ(optimized.total_energy_j, reference.total_energy_j);
  EXPECT_EQ(optimized.samples, reference.samples);
  EXPECT_EQ(optimized.busy_fraction, reference.busy_fraction);
  EXPECT_EQ(optimized.cpu_time_us, reference.cpu_time_us);
  EXPECT_EQ(optimized.migrations, reference.migrations);
  EXPECT_EQ(optimized.manager_overhead_us, reference.manager_overhead_us);
  EXPECT_TRUE(optimized == reference);
}

Observed observe(const SimEngine& engine, const std::vector<App*>& apps) {
  Observed o;
  o.now = engine.now();
  for (const App* app : apps) {
    std::vector<TimeUs> times;
    for (const HeartbeatRecord& hb : app->heartbeats().history()) {
      times.push_back(hb.time);
    }
    o.heartbeats.push_back(times);
  }
  const Machine& m = engine.machine();
  for (ClusterId cl = 0; cl < m.num_clusters(); ++cl) {
    o.cluster_energy_j.push_back(engine.sensor().cluster_energy_j(cl));
  }
  o.total_energy_j = engine.sensor().total_energy_j();
  for (const PowerSample& s : engine.sensor().samples()) {
    o.samples.push_back(s.cluster_watts);
  }
  for (CoreId c = 0; c < m.num_cores(); ++c) {
    o.busy_fraction.push_back(engine.core_busy_fraction(c));
  }
  for (const SimThread& t : engine.threads()) {
    o.cpu_time_us.push_back(t.cpu_time_us);
  }
  o.migrations = engine.total_migrations();
  o.manager_overhead_us = engine.manager_overhead_us();
  return o;
}

struct EngineOptions {
  GtsConfig gts;
  bool audit = false;
  TimeUs sensor_period_us = PowerSensor::kDefaultSamplePeriodUs;
};

/// A run: registers its apps on the engine and drives it.
using Drive = std::function<void(SimEngine&, std::vector<std::unique_ptr<App>>&)>;

Observed run_engine(const PlatformSpec& platform, bool reference,
                    const Drive& drive, EngineOptions options = {}) {
  options.gts.reference = reference;
  SimConfig config;
  config.reference_tick = reference;
  config.audit = options.audit;
  config.sensor_period_us = options.sensor_period_us;
  SimEngine engine(platform, std::make_unique<GtsScheduler>(options.gts),
                   config);
  std::vector<std::unique_ptr<App>> apps;
  drive(engine, apps);
  std::vector<App*> app_ptrs;
  for (const auto& app : apps) app_ptrs.push_back(app.get());
  return observe(engine, app_ptrs);
}

AppId add_parsec(SimEngine& engine, std::vector<std::unique_ptr<App>>& apps,
                 ParsecBenchmark bench, std::uint64_t seed = 1,
                 int threads = 8) {
  apps.push_back(make_parsec_app(bench, threads, seed));
  return engine.add_app(apps.back().get());
}

/// The warm-up protocol of calibration and static-optimal probes: run
/// in 100 ms slices until the first heartbeat.
void run_to_first_heartbeat(SimEngine& engine, const App& app) {
  while (app.heartbeats().count() == 0 && engine.now() < 60 * kUsPerSec) {
    engine.run_for(100 * kUsPerMs);
  }
}

class FastForward : public testing::TestWithParam<std::string> {
 protected:
  PlatformSpec platform() const {
    return PlatformRegistry::instance().get(GetParam());
  }

  /// Runs `drive` on both paths; asserts bit-identity and returns the
  /// optimized run's tick counts.
  TickCounts expect_identical(const Drive& drive, EngineOptions options = {}) {
    Observed optimized;
    const TickCounts counts = counts_during(
        [&] { optimized = run_engine(platform(), false, drive, options); });
    expect_same(optimized, run_engine(platform(), true, drive, options));
    return counts;
  }

  /// A Baseline or SO experiment on both paths (caches warmed first, so
  /// the counted fast-forward is the measured run's own).
  TickCounts expect_identical_experiment(
      const std::string& variant,
      ParsecBenchmark bench = ParsecBenchmark::kBodytrack) {
    auto run = [&](bool reference) {
      ExperimentBuilder b;
      b.platform(platform())
          .app(bench)
          .variant(variant)
          .duration_sec(4.0)
          .reference_impl(reference);
      return result_fingerprint(b.build().run());
    };
    (void)run(false);
    std::string optimized;
    const TickCounts counts =
        counts_during([&] { optimized = run(false); });
    EXPECT_EQ(optimized, run(true));
    return counts;
  }

  /// A managed experiment on both paths (caches warmed first): the
  /// records, every app's behaviour trace, adaptations, the final state
  /// and the engine's state at every second must all agree. Returns the
  /// optimized run's tick counts.
  TickCounts expect_identical_managed(const std::string& variant,
                                      const std::vector<ParsecBenchmark>& apps,
                                      double fraction, bool audit = false) {
    struct Run {
      std::string record;
      std::vector<std::vector<TracePoint>> traces;  ///< Per app.
      std::int64_t adaptations = 0;
      std::optional<SystemState> final_state;
      std::vector<Observed> seconds;  ///< Engine state at every second.
    };
    auto run = [&](bool reference) {
      Run r;
      ExperimentBuilder b;
      b.platform(platform())
          .apps(apps)
          .variant(variant)
          .target_fraction(fraction)
          .duration_sec(20.0)
          .reference_impl(reference)
          .audit(audit)
          .sample_every(kUsPerSec, [&r](const RunView& view) {
            r.seconds.push_back(observe(view.engine, view.apps));
          });
      const ExperimentResult result = b.build().run();
      r.record = result_fingerprint(result);
      for (const AppRunResult& app : result.apps) r.traces.push_back(app.trace);
      r.adaptations = result.adaptations;
      r.final_state = result.final_state;
      return r;
    };
    (void)run(false);
    Run optimized;
    const TickCounts counts = counts_during([&] { optimized = run(false); });
    const Run reference = run(true);
    EXPECT_EQ(optimized.record, reference.record);
    EXPECT_TRUE(optimized.traces == reference.traces);
    EXPECT_EQ(optimized.adaptations, reference.adaptations);
    EXPECT_EQ(optimized.final_state, reference.final_state);
    EXPECT_EQ(optimized.seconds.size(), reference.seconds.size());
    for (std::size_t i = 0;
         i < std::min(optimized.seconds.size(), reference.seconds.size());
         ++i) {
      SCOPED_TRACE("second " + std::to_string(i + 1));
      expect_same(optimized.seconds[i], reference.seconds[i]);
    }
    return counts;
  }

  /// Asserts a managed run fast-forwarded most of its ticks and absorbed
  /// polls into its spans.
  static void expect_mostly_skipped(const TickCounts& counts) {
    EXPECT_GT(counts.ff_ticks * 10, counts.ticks * 8)
        << counts.ff_ticks << " of " << counts.ticks << " ticks skipped";
    EXPECT_GT(counts.ff_polls, 0u);
  }
};

const Drive kCalibration = [](SimEngine& engine, auto& apps) {
  add_parsec(engine, apps, ParsecBenchmark::kBodytrack);
  run_to_first_heartbeat(engine, *apps.back());
  engine.run_for(3 * kUsPerSec);
};

TEST_P(FastForward, CalibrationRunIsBitIdentical) {
  EXPECT_GT(expect_identical(kCalibration).ff_ticks, 0u);
}

/// A static-optimal probe of `threads` threads pinned to `big` big and
/// `little` little cores at the slowest DVFS levels.
Drive pinned_probe(int big, int little, int threads = 8) {
  return [big, little, threads](SimEngine& engine, auto& apps) {
    const AppId id =
        add_parsec(engine, apps, ParsecBenchmark::kSwaptions, 1, threads);
    Machine& m = engine.machine();
    m.set_freq_level(m.fastest_cluster(), 0);
    m.set_freq_level(m.slowest_cluster(), 0);
    CpuMask allowed;
    for (int i = 0; i < little; ++i) allowed.set(m.slowest_mask().first() + i);
    for (int i = 0; i < big; ++i) allowed.set(m.fastest_mask().first() + i);
    engine.set_app_affinity(id, allowed);
    run_to_first_heartbeat(engine, *apps.back());
    engine.sensor().reset();
    engine.run_for(3 * kUsPerSec);
  };
}

TEST_P(FastForward, PinnedStaticOptimalProbesAreBitIdentical) {
  EXPECT_GT(expect_identical(pinned_probe(1, 0)).ff_ticks, 0u);  // 8 threads, 1 core.
  EXPECT_GT(expect_identical(pinned_probe(1, 1)).ff_ticks, 0u);  // 4 per core.
  EXPECT_GT(expect_identical(pinned_probe(2, 1)).ff_ticks, 0u);  // 2-3 per core.
  // Shares whose busy time is not a whole number of microseconds
  // (3 x 333 us, 6 x 166 us): lifetime busy time must be summed tick by
  // tick, never multiplied out.
  EXPECT_GT(expect_identical(pinned_probe(1, 0, 3)).ff_ticks, 0u);
  EXPECT_GT(expect_identical(pinned_probe(1, 0, 6)).ff_ticks, 0u);
}

TEST_P(FastForward, TwoAppBaselineProbeIsBitIdentical) {
  // Fig 5.4 case 6 (BO+BL), as the concurrent baseline probe runs it.
  const Drive probe = [](SimEngine& engine, auto& apps) {
    add_parsec(engine, apps, ParsecBenchmark::kBodytrack, 1);
    add_parsec(engine, apps, ParsecBenchmark::kBlackscholes, 2);
    engine.run_for(12 * kUsPerSec);
  };
  EXPECT_GT(expect_identical(probe).ff_ticks, 0u);
}

TEST_P(FastForward, BlackscholesSerialWarmupIsBitIdentical) {
  // Within the serial input phase (thread 0 alone, no heartbeat yet)...
  const Drive in_warmup = [](SimEngine& engine, auto& apps) {
    add_parsec(engine, apps, ParsecBenchmark::kBlackscholes);
    engine.run_for(2 * kUsPerSec);
    EXPECT_EQ(apps.back()->heartbeats().count(), 0);
  };
  EXPECT_GT(expect_identical(in_warmup).ff_ticks, 0u);
  // ...and through its end into the first iterations.
  const Drive through_warmup = [](SimEngine& engine, auto& apps) {
    add_parsec(engine, apps, ParsecBenchmark::kBlackscholes);
    run_to_first_heartbeat(engine, *apps.back());
    engine.run_for(kUsPerSec);
  };
  EXPECT_GT(expect_identical(through_warmup).ff_ticks, 0u);
}

TEST_P(FastForward, SpansStopBeforeSamplesOnTickAlignedPeriods) {
  // The default period (263,808 us) never lands on a tick boundary; a
  // 100 ms one does, so a span reaching into the sampling tick would show.
  EngineOptions aligned;
  aligned.sensor_period_us = 100 * kUsPerMs;
  EXPECT_GT(expect_identical(kCalibration, aligned).ff_ticks, 0u);
}

TEST_P(FastForward, AuditedRunsAuditEverySpanAndStayBitIdentical) {
  // Audits do not turn the fast-forward off: each span boundary runs the
  // full per-tick audit set instead.
  EngineOptions audited;
  audited.audit = true;
  EXPECT_GT(expect_identical(kCalibration, audited).ff_ticks, 0u);
}

TEST_P(FastForward, BaselineExperimentIsBitIdentical) {
  EXPECT_GT(expect_identical_experiment("Baseline").ff_ticks, 0u);
}

TEST_P(FastForward, StaticOptimalExperimentIsBitIdentical) {
  EXPECT_GT(expect_identical_experiment("SO").ff_ticks, 0u);
}

// --- Pipeline runs (ferret): spans end at item hand-off, acquisition
// and retirement ----------------------------------------------------------

const Drive kFerretCalibration = [](SimEngine& engine, auto& apps) {
  add_parsec(engine, apps, ParsecBenchmark::kFerret);
  run_to_first_heartbeat(engine, *apps.back());
  engine.run_for(3 * kUsPerSec);
};

/// Asserts a run fast-forwarded more than `share` of its ticks.
void expect_skipped_share(const TickCounts& counts, double share) {
  EXPECT_GT(static_cast<double>(counts.ff_ticks),
            share * static_cast<double>(counts.ticks))
      << counts.ff_ticks << " of " << counts.ticks << " ticks skipped";
}

TEST_P(FastForward, FerretCalibrationRunIsBitIdentical) {
  expect_skipped_share(expect_identical(kFerretCalibration), 0.5);
}

TEST_P(FastForward, PinnedFerretStaticOptimalProbesAreBitIdentical) {
  // Ferret's 8 workers pinned to one big and one little core at the
  // slowest DVFS levels (several workers per core), and to one core.
  for (const auto& [big, little] : {std::pair{1, 1}, std::pair{1, 0}}) {
    const Drive probe = [big, little](SimEngine& engine, auto& apps) {
      const AppId id = add_parsec(engine, apps, ParsecBenchmark::kFerret);
      Machine& m = engine.machine();
      m.set_freq_level(m.fastest_cluster(), 0);
      m.set_freq_level(m.slowest_cluster(), 0);
      CpuMask allowed;
      for (int i = 0; i < little; ++i) allowed.set(m.slowest_mask().first() + i);
      for (int i = 0; i < big; ++i) allowed.set(m.fastest_mask().first() + i);
      engine.set_app_affinity(id, allowed);
      run_to_first_heartbeat(engine, *apps.back());
      engine.sensor().reset();
      engine.run_for(3 * kUsPerSec);
    };
    SCOPED_TRACE(std::to_string(big) + " big + " + std::to_string(little) +
                 " little");
    EXPECT_GT(expect_identical(probe).ff_ticks, 0u);
  }
}

TEST_P(FastForward, PipelineWithDataParallelAppIsBitIdentical) {
  const Drive with_pipeline = [](SimEngine& engine, auto& apps) {
    add_parsec(engine, apps, ParsecBenchmark::kFerret, 2);
    kCalibration(engine, apps);
  };
  EXPECT_GT(expect_identical(with_pipeline).ff_ticks, 0u);
}

TEST_P(FastForward, FerretBaselineAndStaticOptimalExperimentsAreBitIdentical) {
  for (const char* variant : {"Baseline", "SO"}) {
    SCOPED_TRACE(variant);
    expect_skipped_share(
        expect_identical_experiment(variant, ParsecBenchmark::kFerret), 0.8);
  }
}

TEST_P(FastForward, FerretHarsExperimentsAreBitIdentical) {
  for (const char* variant : {"HARS-I", "HARS-E", "HARS-EI"}) {
    for (const double fraction : {0.50, 0.75}) {
      SCOPED_TRACE(std::string(variant) + " @ " + std::to_string(fraction));
      expect_mostly_skipped(expect_identical_managed(
          variant, {ParsecBenchmark::kFerret}, fraction));
    }
  }
}

TEST_P(FastForward, AuditedFerretRunIsBitIdentical) {
  EngineOptions audited;
  audited.audit = true;
  EXPECT_GT(expect_identical(kFerretCalibration, audited).ff_ticks, 0u);
  EXPECT_GT(expect_identical_managed("HARS-E", {ParsecBenchmark::kFerret},
                                     0.5, /*audit=*/true)
                .ff_polls,
            0u);
}

/// A small pipeline on the engine: 2 stages of 1 worker each.
AppId add_pipeline(SimEngine& engine, std::vector<std::unique_ptr<App>>& apps,
                   int max_in_flight, std::int64_t max_items) {
  PipelineConfig config;
  config.stages = {{1, 0.3}, {1, 0.3}};
  config.speed = SpeedModel{3.0, 2.0};
  config.max_in_flight = max_in_flight;
  config.max_items = max_items;
  config.work_noise = 0.05;
  apps.push_back(std::make_unique<PipelineApp>("pipe", config));
  return engine.add_app(apps.back().get());
}

TEST_P(FastForward, PipelineHandOffsAndAdmissionsEndSpans) {
  // One item in flight: every retirement admits the next item and flips
  // stage 0 runnable, every hand-off flips stage 1 — each ends a span.
  const Drive serial = [](SimEngine& engine, auto& apps) {
    add_pipeline(engine, apps, 1, -1);
    engine.run_for(5 * kUsPerSec);
    EXPECT_GT(apps.back()->heartbeats().count(), 5);
  };
  EXPECT_GT(expect_identical(serial).ff_ticks, 0u);
}

TEST_P(FastForward, ExhaustedPipelineSkipsIdleTicks) {
  // After the last item retires nothing is runnable: the rest of the run
  // is one quiet stretch, cut only by sensor samples.
  const Drive exhausted = [](SimEngine& engine, auto& apps) {
    add_pipeline(engine, apps, 4, 3);
    engine.run_for(5 * kUsPerSec);
    EXPECT_TRUE(apps.back()->finished());
  };
  expect_skipped_share(expect_identical(exhausted), 0.8);
}

// --- Managed runs: no-news polls absorbed into spans -------------------

TEST_P(FastForward, HarsExperimentsAreBitIdentical) {
  for (const char* variant : {"HARS-I", "HARS-E", "HARS-EI"}) {
    for (const double fraction : {0.50, 0.75}) {
      SCOPED_TRACE(std::string(variant) + " @ " + std::to_string(fraction));
      expect_mostly_skipped(expect_identical_managed(
          variant, {ParsecBenchmark::kBodytrack}, fraction));
    }
  }
}

TEST_P(FastForward, MultiAppManagerExperimentsAreBitIdentical) {
  const std::vector<ParsecBenchmark> case1 = multiapp_cases().front();  // BO+SW
  for (const char* variant : {"MP-HARS-I", "MP-HARS-E"}) {
    SCOPED_TRACE(variant);
    expect_mostly_skipped(expect_identical_managed(variant, case1, 0.5));
  }
  // CONS-I shares every core between both apps, as Baseline does, so its
  // spans end at the same thread-finish and barrier events (on
  // manycore4x4 neither run skips 80% of its ticks). Its polls must cost
  // it no span length: it skips as large a share as the manager-less
  // Baseline run of the case.
  const TickCounts baseline = expect_identical_managed("Baseline", case1, 0.5);
  const TickCounts cons_i = expect_identical_managed("CONS-I", case1, 0.5);
  const auto skipped = [](const TickCounts& c) {
    return static_cast<double>(c.ff_ticks) / static_cast<double>(c.ticks);
  };
  EXPECT_GT(cons_i.ff_polls, 0u);
  EXPECT_GE(skipped(cons_i), skipped(baseline) - 0.02);
}

TEST_P(FastForward, AuditedManagedExperimentIsBitIdentical) {
  // Spans carrying the manager's charges run the full audit set at every
  // boundary, including the short-tick busy-sum cross-check.
  EXPECT_GT(expect_identical_managed("HARS-E", {ParsecBenchmark::kBodytrack},
                                     0.5, /*audit=*/true)
                .ff_polls,
            0u);
}

/// An engine-level poller over one app: polls every 5 ms for
/// `poll_cost`; a poll that finds a heartbeat it has not seen charges
/// `news_cost` more. With `mark_seen` false it never marks one seen, so
/// after the first heartbeat every poll finds news.
class ScriptedManager final : public ManagerHook {
 public:
  static constexpr TimeUs kPeriod = 5 * kUsPerMs;

  ScriptedManager(const SimEngine& engine, AppId app, TimeUs poll_cost,
                  TimeUs news_cost, bool mark_seen)
      : engine_(engine),
        app_(app),
        poll_cost_(poll_cost),
        news_cost_(news_cost),
        mark_seen_(mark_seen) {}

  TimeUs on_tick(TimeUs now) override {
    if (now < next_poll_) return 0;
    next_poll_ = now + kPeriod;
    ++polls_;
    if (!has_news()) return poll_cost_;
    if (mark_seen_) last_seen_ = engine_.app(app_).heartbeats().last_index();
    return poll_cost_ + news_cost_;
  }

  std::optional<PollPlan> poll_plan() const override {
    return PollPlan{next_poll_, kPeriod, poll_cost_, !has_news()};
  }

  void absorb_polls(TimeUs last_poll_us) override {
    next_poll_ = last_poll_us + kPeriod;
  }

  /// Polls that reached on_tick.
  std::int64_t polls() const { return polls_; }

 private:
  bool has_news() const {
    const std::int64_t idx = engine_.app(app_).heartbeats().last_index();
    return idx >= 0 && idx != last_seen_;
  }

  const SimEngine& engine_;
  AppId app_;
  TimeUs poll_cost_;
  TimeUs news_cost_;
  bool mark_seen_;
  TimeUs next_poll_ = 0;
  std::int64_t last_seen_ = -1;
  std::int64_t polls_ = 0;
};

/// The polls one scripted run's manager saw in on_tick: over the whole
/// run, and over the 3 s after the first heartbeat.
struct ScriptedPolls {
  std::int64_t total = 0;
  std::int64_t after_first_heartbeat = 0;
};

/// kCalibration's run under an engine-owned ScriptedManager; appends the
/// run's poll counts to `polls` (the optimized run comes first).
Drive scripted(TimeUs poll_cost, TimeUs news_cost, bool mark_seen,
               std::vector<ScriptedPolls>& polls) {
  return [=, &polls](SimEngine& engine, auto& apps) {
    const AppId id = add_parsec(engine, apps, ParsecBenchmark::kBodytrack);
    auto owned = std::make_unique<ScriptedManager>(engine, id, poll_cost,
                                                   news_cost, mark_seen);
    const ScriptedManager& manager = *owned;
    engine.set_manager(std::move(owned));
    run_to_first_heartbeat(engine, *apps.back());
    const std::int64_t before = manager.polls();
    engine.run_for(3 * kUsPerSec);
    polls.push_back({manager.polls(), manager.polls() - before});
  };
}

TEST_P(FastForward, ScriptedManagerPollsAreAbsorbed) {
  // Each heartbeat's poll charges 2.5 ms: a drain of 1000 + 1000 + 500 us.
  std::vector<ScriptedPolls> polls;
  const TickCounts counts = expect_identical(scripted(60, 2440, true, polls));
  EXPECT_GT(counts.ff_ticks, 0u);
  EXPECT_GT(counts.ff_polls, 0u);
  // Every poll either reached on_tick or was absorbed.
  ASSERT_EQ(polls.size(), 2u);
  EXPECT_EQ(polls[0].total + static_cast<std::int64_t>(counts.ff_polls),
            polls[1].total);
}

TEST_P(FastForward, UnseenHeartbeatEndsSpansBeforeEachPoll) {
  // After the first heartbeat every poll may find news, so each one
  // reaches on_tick (600 polls in 3 s); the ticks between polls are
  // still skipped.
  std::vector<ScriptedPolls> polls;
  const TickCounts counts = expect_identical(scripted(60, 0, false, polls));
  EXPECT_GT(counts.ff_ticks, 0u);
  ASSERT_EQ(polls.size(), 2u);
  EXPECT_EQ(polls[0].after_first_heartbeat, 600);
  EXPECT_EQ(polls[1].after_first_heartbeat, 600);
}

TEST_P(FastForward, OverheadDrainsOfATickOrMoreAreStepped) {
  // A 1.5 ms poll drains as 1000 + 500 us. Polls are still absorbed, but
  // the full-tick charge right after each one ends its span: at least one
  // stepped tick per poll.
  std::vector<ScriptedPolls> polls;
  const TickCounts counts = expect_identical(scripted(1500, 0, true, polls));
  EXPECT_GT(counts.ff_polls, 0u);
  ASSERT_EQ(polls.size(), 2u);
  EXPECT_GE(static_cast<std::int64_t>(counts.ticks - counts.ff_ticks),
            polls[1].total);
}

TEST_P(FastForward, AuditedSpansWithChargesStayBitIdentical) {
  EngineOptions audited;
  audited.audit = true;
  std::vector<ScriptedPolls> polls;
  const TickCounts counts =
      expect_identical(scripted(60, 2440, true, polls), audited);
  EXPECT_GT(counts.ff_polls, 0u);
}

// --- Scenario runs: events and capture samples end spans ---------------

/// Every scenario event kind, at times off the 1 ms tick grid (and one
/// on it): a foreground app for the whole run, a background app that
/// changes phase twice and departs, a late arrival that stays, a
/// retarget and an outage of two fast cores.
Scenario every_event_kind(const PlatformSpec& platform) {
  const CpuMask fast = platform.make_machine().fastest_mask();
  CpuMask outage;
  for (CoreId c = fast.next(fast.first()); c >= 0 && outage.count() < 2;
       c = fast.next(c)) {
    outage.set(c);
  }
  return ScenarioBuilder("ff-every-event")
      .spawn(0, "fg", ParsecBenchmark::kBodytrack)
      .spawn(456'789, "bg", ParsecBenchmark::kSwaptions)
      .threads(4)
      .set_phase(1'234'567, "bg", 1.6)
      .spawn(2'000'500, "late", ParsecBenchmark::kFluidanimate)
      .threads(4)
      .set_target(2'777'101, "fg", PerfTarget::around(2.0))
      .set_phase(3'000'000, "bg", 1.0)
      .offline_cores(3'333'333, outage)
      .online_cores(4'100'001, outage)
      .kill(4'999'999, "bg")
      .build();
}

class ScenarioFastForward : public FastForward {
 protected:
  /// every_event_kind() under `variant`, audited, on both paths. With
  /// `sample_ticks` > 0 the run is captured at that cadence and driven
  /// in 1 s sampler slices; with 0 it runs in one piece. The records
  /// (spawn and depart times included), the capture's bytes (every
  /// sample row), the traces, adaptations, final state and the engine's
  /// state at every slice must all agree. Returns the optimized run's
  /// tick counts.
  TickCounts expect_identical_scenario(const std::string& variant,
                                       int sample_ticks) {
    struct Run {
      ExperimentResult result;
      std::string capture;
      std::vector<Observed> seconds;
    };
    const Scenario scenario = every_event_kind(platform());
    auto run = [&](bool reference) {
      Run r;
      TraceSink sink(std::max(sample_ticks, 1));
      ExperimentBuilder b;
      b.platform(platform())
          .scenario(scenario)
          .variant(variant)
          .duration_sec(7.0)
          .reference_impl(reference)
          .audit(true);
      if (sample_ticks > 0) {
        b.capture(sink).sample_every(kUsPerSec, [&r](const RunView& view) {
          r.seconds.push_back(observe(view.engine, view.apps));
        });
      }
      r.result = b.build().run();
      r.capture = sink.bytes();
      return r;
    };
    (void)run(false);
    Run optimized;
    const TickCounts counts = counts_during([&] { optimized = run(false); });
    const Run reference = run(true);
    EXPECT_EQ(result_fingerprint(optimized.result),
              result_fingerprint(reference.result));
    EXPECT_EQ(optimized.capture, reference.capture);
    if (sample_ticks > 0) {
      EXPECT_GT(optimized.capture.size(), reference.capture.size() / 2);
      EXPECT_EQ(optimized.seconds.size(), 7u);
    }
    EXPECT_EQ(optimized.seconds.size(), reference.seconds.size());
    for (std::size_t i = 0;
         i < std::min(optimized.seconds.size(), reference.seconds.size());
         ++i) {
      SCOPED_TRACE("second " + std::to_string(i + 1));
      expect_same(optimized.seconds[i], reference.seconds[i]);
    }
    const ExperimentResult& opt = optimized.result;
    const ExperimentResult& ref = reference.result;
    EXPECT_EQ(opt.adaptations, ref.adaptations);
    EXPECT_EQ(opt.final_state, ref.final_state);
    EXPECT_EQ(opt.apps.size(), ref.apps.size());
    for (std::size_t i = 0; i < std::min(opt.apps.size(), ref.apps.size());
         ++i) {
      EXPECT_TRUE(opt.apps[i].trace == ref.apps[i].trace) << opt.apps[i].label;
    }
    // Events apply at the first tick boundary at or after their time.
    EXPECT_EQ(opt.apps.size(), 3u);
    for (const AppRunResult& app : opt.apps) {
      if (app.label == "bg") {
        EXPECT_EQ(app.spawn_time_us, 457 * kUsPerMs);
        EXPECT_EQ(app.depart_time_us, 5000 * kUsPerMs);
      } else if (app.label == "late") {
        EXPECT_EQ(app.spawn_time_us, 2001 * kUsPerMs);
        EXPECT_EQ(app.depart_time_us, -1);
      }
    }
    return counts;
  }
};

TEST_P(ScenarioFastForward, EveryEventKindIsBitIdentical) {
  for (const char* variant : {"Baseline", "HARS-EI", "MP-HARS-E"}) {
    SCOPED_TRACE(variant);
    EXPECT_GT(expect_identical_scenario(variant, 0).ff_ticks, 0u);
  }
}

TEST_P(ScenarioFastForward, CapturedEveryTickIsBitIdentical) {
  // A sample at every boundary leaves no tick to skip.
  for (const char* variant : {"Baseline", "HARS-EI", "MP-HARS-E"}) {
    SCOPED_TRACE(variant);
    EXPECT_EQ(expect_identical_scenario(variant, 1).ff_ticks, 0u);
  }
}

TEST_P(ScenarioFastForward, CapturedEverySeventhTickIsBitIdentical) {
  for (const char* variant : {"Baseline", "HARS-EI", "MP-HARS-E"}) {
    SCOPED_TRACE(variant);
    EXPECT_GT(expect_identical_scenario(variant, 7).ff_ticks, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Platforms, ScenarioFastForward,
                         testing::Values("exynos5422", "manycore4x4"));

// --- Runs that must stay on the per-tick path --------------------------

/// A manager that does not describe its polls (the default PollPlan).
class NullManager final : public ManagerHook {
 public:
  TimeUs on_tick(TimeUs) override { return 0; }
};

TEST_P(FastForward, ManagerAttachedNeverFastForwards) {
  NullManager manager;
  const Drive managed = [&manager](SimEngine& engine, auto& apps) {
    engine.set_manager(&manager);
    kCalibration(engine, apps);
  };
  EXPECT_EQ(expect_identical(managed).ff_ticks, 0u);
}

TEST_P(FastForward, ZeroWorkIterationsNeverFastForward) {
  // Iterations without work reach their barrier at once: a heartbeat
  // every tick, although no thread ever runs.
  const Drive empty = [](SimEngine& engine, auto& apps) {
    DataParallelConfig config;
    config.workload = {WorkloadShape::kStable, 0.0, 0.0, 0.0, 1};
    apps.push_back(std::make_unique<DataParallelApp>("empty", config));
    engine.add_app(apps.back().get());
    engine.run_for(kUsPerSec);
  };
  EXPECT_EQ(expect_identical(empty).ff_ticks, 0u);
}

TEST_P(FastForward, IdlePullNeverFastForwards) {
  EngineOptions idle_pull;
  idle_pull.gts.idle_pull = true;
  EXPECT_EQ(expect_identical(kCalibration, idle_pull).ff_ticks, 0u);
}

INSTANTIATE_TEST_SUITE_P(Platforms, FastForward,
                         testing::Values("exynos5422", "manycore4x4"));

}  // namespace
}  // namespace hars
