// Differential tests of SimEngine's quiet-span fast-forward. Every
// manager-less run the paper's targets and oracles rest on — calibration,
// static-optimal probes, concurrent baseline probes, blackscholes' serial
// warm-up, Baseline and SO experiments — runs on the optimized path
// (which fast-forwards) and on the strictly per-tick reference path, and
// the two must agree bit for bit. Runs that do not qualify must not
// fast-forward at all.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "apps/data_parallel_app.hpp"
#include "apps/parsec.hpp"
#include "exp/experiment.hpp"
#include "exp/fuzz_harness.hpp"
#include "hmp/platform_registry.hpp"
#include "hmp/sim_engine.hpp"
#include "obs/metrics.hpp"
#include "sched/gts.hpp"

namespace hars {
namespace {

/// Ticks the engine fast-forwarded while `fn` ran (telemetry armed for
/// the call only).
std::uint64_t ff_ticks_during(const std::function<void()>& fn) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();
  registry.set_enabled(true);
  registry.reset();
  fn();
  const obs::MetricsSnapshot snapshot = registry.take_snapshot();
  registry.set_enabled(false);
  const obs::MetricValue* ff = snapshot.find("sim.ff_ticks");
  return ff == nullptr ? 0 : ff->counter;
}

/// Everything a manager-less run can observe of the engine, captured
/// for an exact comparison.
struct Observed {
  TimeUs now = 0;
  std::vector<std::vector<TimeUs>> heartbeats;  ///< Per app.
  std::vector<double> cluster_energy_j;
  double total_energy_j = 0.0;
  std::vector<std::vector<double>> samples;  ///< Per sample: cluster watts.
  std::vector<double> busy_fraction;         ///< Per core.
  std::vector<TimeUs> cpu_time_us;           ///< Per thread.
  std::int64_t migrations = 0;

  bool operator==(const Observed&) const = default;
};

Observed observe(const SimEngine& engine,
                 const std::vector<std::unique_ptr<App>>& apps) {
  Observed o;
  o.now = engine.now();
  for (const auto& app : apps) {
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
  return observe(engine, apps);
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
  /// ticks the optimized run fast-forwarded.
  std::uint64_t expect_identical(const Drive& drive,
                                 EngineOptions options = {}) {
    Observed optimized;
    const std::uint64_t ff = ff_ticks_during(
        [&] { optimized = run_engine(platform(), false, drive, options); });
    const Observed reference = run_engine(platform(), true, drive, options);
    EXPECT_EQ(optimized.now, reference.now);
    EXPECT_EQ(optimized.heartbeats, reference.heartbeats);
    EXPECT_EQ(optimized.cluster_energy_j, reference.cluster_energy_j);
    EXPECT_EQ(optimized.total_energy_j, reference.total_energy_j);
    EXPECT_EQ(optimized.samples, reference.samples);
    EXPECT_EQ(optimized.busy_fraction, reference.busy_fraction);
    EXPECT_EQ(optimized.cpu_time_us, reference.cpu_time_us);
    EXPECT_EQ(optimized.migrations, reference.migrations);
    EXPECT_TRUE(optimized == reference);
    return ff;
  }

  /// A Baseline or SO experiment on both paths (caches warmed first, so
  /// the counted fast-forward is the measured run's own).
  std::uint64_t expect_identical_experiment(const std::string& variant) {
    auto run = [&](bool reference) {
      ExperimentBuilder b;
      b.platform(platform())
          .app(ParsecBenchmark::kBodytrack)
          .variant(variant)
          .duration_sec(4.0)
          .reference_impl(reference);
      return result_fingerprint(b.build().run());
    };
    (void)run(false);
    std::string optimized;
    const std::uint64_t ff = ff_ticks_during([&] { optimized = run(false); });
    EXPECT_EQ(optimized, run(true));
    return ff;
  }
};

const Drive kCalibration = [](SimEngine& engine, auto& apps) {
  add_parsec(engine, apps, ParsecBenchmark::kBodytrack);
  run_to_first_heartbeat(engine, *apps.back());
  engine.run_for(3 * kUsPerSec);
};

TEST_P(FastForward, CalibrationRunIsBitIdentical) {
  EXPECT_GT(expect_identical(kCalibration), 0u);
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
  EXPECT_GT(expect_identical(pinned_probe(1, 0)), 0u);  // 8 threads, 1 core.
  EXPECT_GT(expect_identical(pinned_probe(1, 1)), 0u);  // 4 per core.
  EXPECT_GT(expect_identical(pinned_probe(2, 1)), 0u);  // 2-3 per core.
  // Shares whose busy time is not a whole number of microseconds
  // (3 x 333 us, 6 x 166 us): lifetime busy time must be summed tick by
  // tick, never multiplied out.
  EXPECT_GT(expect_identical(pinned_probe(1, 0, 3)), 0u);
  EXPECT_GT(expect_identical(pinned_probe(1, 0, 6)), 0u);
}

TEST_P(FastForward, TwoAppBaselineProbeIsBitIdentical) {
  // Fig 5.4 case 6 (BO+BL), as the concurrent baseline probe runs it.
  const Drive probe = [](SimEngine& engine, auto& apps) {
    add_parsec(engine, apps, ParsecBenchmark::kBodytrack, 1);
    add_parsec(engine, apps, ParsecBenchmark::kBlackscholes, 2);
    engine.run_for(12 * kUsPerSec);
  };
  EXPECT_GT(expect_identical(probe), 0u);
}

TEST_P(FastForward, BlackscholesSerialWarmupIsBitIdentical) {
  // Within the serial input phase (thread 0 alone, no heartbeat yet)...
  const Drive in_warmup = [](SimEngine& engine, auto& apps) {
    add_parsec(engine, apps, ParsecBenchmark::kBlackscholes);
    engine.run_for(2 * kUsPerSec);
    EXPECT_EQ(apps.back()->heartbeats().count(), 0);
  };
  EXPECT_GT(expect_identical(in_warmup), 0u);
  // ...and through its end into the first iterations.
  const Drive through_warmup = [](SimEngine& engine, auto& apps) {
    add_parsec(engine, apps, ParsecBenchmark::kBlackscholes);
    run_to_first_heartbeat(engine, *apps.back());
    engine.run_for(kUsPerSec);
  };
  EXPECT_GT(expect_identical(through_warmup), 0u);
}

TEST_P(FastForward, SpansStopBeforeSamplesOnTickAlignedPeriods) {
  // The default period (263,808 us) never lands on a tick boundary; a
  // 100 ms one does, so a span reaching into the sampling tick would show.
  EngineOptions aligned;
  aligned.sensor_period_us = 100 * kUsPerMs;
  EXPECT_GT(expect_identical(kCalibration, aligned), 0u);
}

TEST_P(FastForward, AuditedRunsAuditEverySpanAndStayBitIdentical) {
  // Audits do not turn the fast-forward off: each span boundary runs the
  // full per-tick audit set instead.
  EngineOptions audited;
  audited.audit = true;
  EXPECT_GT(expect_identical(kCalibration, audited), 0u);
}

TEST_P(FastForward, BaselineExperimentIsBitIdentical) {
  EXPECT_GT(expect_identical_experiment("Baseline"), 0u);
}

TEST_P(FastForward, StaticOptimalExperimentIsBitIdentical) {
  EXPECT_GT(expect_identical_experiment("SO"), 0u);
}

// --- Runs that must stay on the per-tick path --------------------------

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
  EXPECT_EQ(expect_identical(managed), 0u);
}

TEST_P(FastForward, TickHookNeverFastForwards) {
  const Drive hooked = [](SimEngine& engine, auto& apps) {
    engine.set_tick_hook([](TimeUs) {});
    kCalibration(engine, apps);
  };
  EXPECT_EQ(expect_identical(hooked), 0u);
}

TEST_P(FastForward, PipelineAppPresentNeverFastForwards) {
  const Drive with_pipeline = [](SimEngine& engine, auto& apps) {
    add_parsec(engine, apps, ParsecBenchmark::kFerret, 2);
    kCalibration(engine, apps);
  };
  EXPECT_EQ(expect_identical(with_pipeline), 0u);
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
  EXPECT_EQ(expect_identical(empty), 0u);
}

TEST_P(FastForward, IdlePullNeverFastForwards) {
  EngineOptions idle_pull;
  idle_pull.gts.idle_pull = true;
  EXPECT_EQ(expect_identical(kCalibration, idle_pull), 0u);
}

INSTANTIATE_TEST_SUITE_P(Platforms, FastForward,
                         testing::Values("exynos5422", "manycore4x4"));

}  // namespace
}  // namespace hars
