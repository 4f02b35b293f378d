#include "apps/pipeline_app.hpp"

#include <gtest/gtest.h>

#include <array>
#include <vector>

namespace hars {
namespace {

PipelineConfig two_stage() {
  PipelineConfig cfg;
  cfg.stages = {{1, 1.0}, {1, 1.0}};
  cfg.speed = SpeedModel{3.0, 2.0};
  cfg.max_in_flight = 4;
  return cfg;
}

TEST(PipelineApp, ThreadCountSumsStages) {
  PipelineConfig cfg;
  cfg.stages = {{1, 0.2}, {1, 0.6}, {2, 1.6}, {2, 1.6}, {1, 0.6}, {1, 0.2}};
  PipelineApp app("ferret", cfg);
  EXPECT_EQ(app.thread_count(), 8);
  EXPECT_EQ(app.num_stages(), 6);
  EXPECT_EQ(app.stage_of_thread(0), 0);
  EXPECT_EQ(app.stage_of_thread(2), 2);
  EXPECT_EQ(app.stage_of_thread(3), 2);
  EXPECT_EQ(app.stage_of_thread(7), 5);
}

TEST(PipelineApp, ItemsFlowAndEmitHeartbeats) {
  PipelineApp app("p", two_stage());
  TimeUs now = 0;
  for (int step = 0; step < 5000; ++step) {
    now += kUsPerMs;
    for (int i = 0; i < 2; ++i) app.execute(i, kUsPerMs, CoreType::kBig, 1.0);
    app.end_tick(now);
  }
  // Each stage does 1 wu/item at 3 wu/s -> steady state 3 items/s; 5 s run.
  EXPECT_NEAR(static_cast<double>(app.items_retired()), 15.0, 2.0);
  EXPECT_EQ(app.heartbeats().count(), app.items_retired());
}

TEST(PipelineApp, ThroughputLimitedByBottleneckStage) {
  PipelineConfig cfg;
  cfg.stages = {{1, 0.5}, {1, 2.0}};  // Stage 1 is 4x heavier.
  cfg.speed = SpeedModel{2.0, 2.0};
  PipelineApp app("p", cfg);
  TimeUs now = 0;
  for (int step = 0; step < 10000; ++step) {
    now += kUsPerMs;
    for (int i = 0; i < 2; ++i) app.execute(i, kUsPerMs, CoreType::kBig, 1.0);
    app.end_tick(now);
  }
  // Bottleneck: 2 wu at 2 wu/s = 1 item/s.
  EXPECT_NEAR(app.heartbeats().global_rate(now), 1.0, 0.1);
}

TEST(PipelineApp, StarvedStageNotRunnable) {
  PipelineApp app("p", two_stage());
  EXPECT_TRUE(app.runnable(0));   // The constructor admitted items.
  EXPECT_FALSE(app.runnable(1));  // Nothing has reached stage 1 yet.
}

TEST(PipelineApp, InFlightBounded) {
  PipelineConfig cfg = two_stage();
  cfg.max_in_flight = 2;
  PipelineApp app("p", cfg);
  TimeUs now = 0;
  // Stage 1 never executes: items pile up only to the in-flight cap.
  for (int step = 0; step < 1000; ++step) {
    now += kUsPerMs;
    app.execute(0, kUsPerMs, CoreType::kBig, 1.0);
    app.end_tick(now);
  }
  EXPECT_EQ(app.items_retired(), 0);
  EXPECT_TRUE(app.runnable(1));
}

TEST(PipelineApp, MaxItemsFinishes) {
  PipelineConfig cfg = two_stage();
  cfg.max_items = 3;
  PipelineApp app("p", cfg);
  TimeUs now = 0;
  for (int step = 0; step < 20000 && !app.finished(); ++step) {
    now += kUsPerMs;
    for (int i = 0; i < 2; ++i) app.execute(i, kUsPerMs, CoreType::kBig, 1.6);
    app.end_tick(now);
  }
  EXPECT_TRUE(app.finished());
  EXPECT_EQ(app.items_retired(), 3);
}

TEST(PipelineApp, MultipleItemsPerTickWhenFast) {
  PipelineConfig cfg;
  cfg.stages = {{1, 0.001}, {1, 0.001}};  // Tiny items.
  cfg.speed = SpeedModel{3.0, 2.0};
  cfg.max_in_flight = 64;
  PipelineApp app("p", cfg);
  TimeUs now = kUsPerMs;
  app.execute(0, kUsPerMs, CoreType::kBig, 1.6);
  app.execute(1, kUsPerMs, CoreType::kBig, 1.6);
  app.end_tick(now);
  EXPECT_GT(app.heartbeats().count(), 1);
}

TEST(PipelineApp, ZeroChargeChunkEndsTheShare) {
  // A 64 us share on a little core (ipc 2.0) at 0.8 GHz and phase scale
  // 1.637: the first chunk's used time truncates to 63 us and the 1 us
  // chunk after it to 0 us. That chunk ends the share instead of eating
  // the item, and then the whole queue behind it, for free.
  PipelineConfig cfg;
  cfg.stages = {{1, 1e-4}};
  cfg.speed = SpeedModel{3.0, 2.0};
  PipelineApp app("p", cfg);
  app.set_phase_scale(1.637);
  EXPECT_EQ(app.execute(0, 64, CoreType::kLittle, 0.8), 63);
  app.end_tick(kUsPerMs);
  EXPECT_EQ(app.items_retired(), 0);
  EXPECT_EQ(app.heartbeats().count(), 0);
  const double speed = 2.0 * 0.8 / 1.637;
  EXPECT_EQ(app.item_remaining(0), 1e-4 - speed * us_to_sec(64));
}

// --- Quiet spans: quiet_ticks/advance_quiet against stepping ----------

ThreadGrant grant(TimeUs share_us, TimeUs short_share_us, double freq_ghz,
                  CoreType type = CoreType::kLittle) {
  ThreadGrant g;
  g.share_us = share_us;
  g.short_share_us = short_share_us;
  g.type = type;
  g.freq_ghz = freq_ghz;
  return g;
}

/// Steps `app` through one tick under `grants` as the engine would;
/// returns each worker's used time.
std::vector<TimeUs> step(PipelineApp& app,
                         const std::vector<ThreadGrant>& grants,
                         bool short_tick, TimeUs now) {
  std::vector<TimeUs> used(grants.size(), 0);
  for (std::size_t i = 0; i < grants.size(); ++i) {
    const ThreadGrant& g = grants[i];
    const TimeUs share = short_tick ? g.short_share_us : g.share_us;
    if (share > 0) {
      used[i] = app.execute(static_cast<int>(i), share, g.type, g.freq_ghz);
    }
  }
  app.end_tick(now);
  return used;
}

/// Steps one tick of `app` and reports whether it was quiet as
/// quiet_ticks() predicted: every worker used its predicted time, no
/// heartbeat, no runnability flip, and every executed worker still holds
/// its item with less (or, without a share, the same) work left.
bool step_is_quiet(PipelineApp& app, const std::vector<ThreadGrant>& grants,
                   bool short_tick, TimeUs now) {
  const int n = app.thread_count();
  std::vector<bool> runnable;
  std::vector<WorkUnits> before;
  for (int i = 0; i < n; ++i) {
    runnable.push_back(app.runnable(i));
    before.push_back(app.item_remaining(i));
  }
  const std::int64_t beats = app.heartbeats().count();
  const std::vector<TimeUs> used = step(app, grants, short_tick, now);
  bool quiet = app.heartbeats().count() == beats;
  for (int i = 0; i < n; ++i) {
    const ThreadGrant& g = grants[static_cast<std::size_t>(i)];
    const TimeUs share = short_tick ? g.short_share_us : g.share_us;
    const TimeUs predicted =
        share <= 0 ? 0 : (short_tick ? g.short_used_us : g.used_us);
    const WorkUnits after = app.item_remaining(i);
    quiet = quiet && used[static_cast<std::size_t>(i)] == predicted &&
            app.runnable(i) == runnable[static_cast<std::size_t>(i)] &&
            (g.share_us <= 0 ||
             (after > 0.0 && after <= before[static_cast<std::size_t>(i)]));
  }
  return quiet;
}

/// Asks `quiet` for its quiet horizon under `grants` (capped at `limit`)
/// and advances it through those ticks, then steps `stepped` (built and
/// stepped identically so far) through the same ticks: each must step
/// quietly, the tick after a horizon below `limit` must not, and every
/// item must be left with bit-identical work. Returns the horizon.
std::int64_t expect_span_matches_stepping(PipelineApp& quiet,
                                          PipelineApp& stepped,
                                          std::vector<ThreadGrant> grants,
                                          const bool* short_ticks,
                                          std::int64_t limit) {
  const std::int64_t span = quiet.quiet_ticks(grants.data(), short_ticks, limit);
  quiet.advance_quiet(grants.data(), short_ticks, span);
  TimeUs now = 0;
  const auto is_short = [short_ticks](std::int64_t k) {
    return short_ticks != nullptr && short_ticks[k];
  };
  for (std::int64_t k = 0; k < span; ++k) {
    now += kUsPerMs;
    EXPECT_TRUE(step_is_quiet(stepped, grants, is_short(k), now))
        << "tick " << k << " of " << span;
  }
  for (int i = 0; i < quiet.thread_count(); ++i) {
    EXPECT_EQ(quiet.item_remaining(i), stepped.item_remaining(i))
        << "worker " << i;
  }
  if (span < limit) {
    now += kUsPerMs;
    EXPECT_FALSE(step_is_quiet(stepped, grants, is_short(span), now))
        << "the tick after a " << span << "-tick horizon";
  }
  return span;
}

/// Two stage-0 workers on items of ~0.05 work units; the stage-1 worker
/// starves (nothing is handed off for ~170 ticks at 0.7 GHz).
PipelineConfig quiet_pipeline() {
  PipelineConfig cfg;
  cfg.stages = {{2, 0.05}, {1, 0.05}};
  cfg.speed = SpeedModel{3.0, 2.0};
  cfg.work_noise = 0.05;
  cfg.seed = 9;
  return cfg;
}

TEST(PipelineApp, ConstructorAdmits) {
  PipelineConfig cfg = quiet_pipeline();
  cfg.max_in_flight = 5;
  PipelineApp app("p", cfg);
  EXPECT_TRUE(app.runnable(0));
  EXPECT_TRUE(app.runnable(1));
  EXPECT_FALSE(app.runnable(2));
  // The first tick's execute() finds the admitted items.
  EXPECT_EQ(app.execute(0, kUsPerMs, CoreType::kBig, 1.0), kUsPerMs);
}

TEST(PipelineApp, QuietSpanWithTwoChunkSharesMatchesStepping) {
  // Little core (ipc 2.0) at 0.7 GHz: a 200 us share's first chunk
  // truncates to 199 us, a second 1 us chunk follows.
  const std::vector<ThreadGrant> grants = {grant(200, 200, 0.7),
                                           grant(200, 200, 0.7), {}};
  PipelineApp quiet("p", quiet_pipeline());
  PipelineApp stepped("p", quiet_pipeline());
  step(quiet, grants, false, 0);
  step(stepped, grants, false, 0);
  std::vector<ThreadGrant> answered = grants;
  ASSERT_EQ(quiet.quiet_ticks(answered.data(), nullptr, 1), 1);
  EXPECT_EQ(answered[0].used_us, 200);
  const std::int64_t span =
      expect_span_matches_stepping(quiet, stepped, grants, nullptr, 1000);
  EXPECT_GT(span, 100);
  EXPECT_LT(span, 1000);
}

TEST(PipelineApp, QuietSpanWithShortTicksMatchesStepping) {
  // Worker 0 sits on the manager core: every third tick loses a 60 us
  // charge, leaving 940 us (two chunks at 1.1 GHz); worker 1's share is
  // whole.
  const std::vector<ThreadGrant> grants = {grant(1000, 940, 1.1),
                                           grant(1000, 1000, 1.1), {}};
  std::array<bool, 1000> short_ticks{};
  for (std::size_t k = 0; k < short_ticks.size(); k += 3) short_ticks[k] = true;
  PipelineApp quiet("p", quiet_pipeline());
  PipelineApp stepped("p", quiet_pipeline());
  step(quiet, grants, false, 0);
  step(stepped, grants, false, 0);
  const std::int64_t span = expect_span_matches_stepping(
      quiet, stepped, grants, short_ticks.data(), 999);
  EXPECT_GT(span, 10);
  EXPECT_LT(span, 999);
}

TEST(PipelineApp, QuietSpanWithZeroChargeTailMatchesStepping) {
  // The 64 us share of ZeroChargeChunkEndsTheShare: each tick retires one
  // 63 us chunk and stops at the 0 us one.
  const std::vector<ThreadGrant> grants = {grant(64, 64, 0.8),
                                           grant(64, 64, 0.8), {}};
  PipelineConfig cfg = quiet_pipeline();
  cfg.stages = {{2, 0.002}, {1, 0.002}};
  PipelineApp quiet("p", cfg);
  PipelineApp stepped("p", cfg);
  for (PipelineApp* app : {&quiet, &stepped}) {
    app->set_phase_scale(1.637);
    step(*app, grants, false, 0);
  }
  const std::int64_t span =
      expect_span_matches_stepping(quiet, stepped, grants, nullptr, 1000);
  EXPECT_GT(span, 10);
  EXPECT_LT(span, 1000);
}

TEST(PipelineApp, QuietSpanEndsBeforeAHandOffInTheZeroChargeTail) {
  // One item sized to end in the 0 us closing chunk of its 12th tick: a
  // remainder of half that chunk's work is left after the 63 us chunk,
  // and the closing chunk hands it off for free.
  const double speed = 2.0 * 0.8 / 1.637;
  const WorkUnits chunk = speed * us_to_sec(64);
  const WorkUnits tail = speed * us_to_sec(1);
  PipelineConfig cfg;
  cfg.stages = {{1, 12 * chunk + 0.5 * tail}};
  cfg.speed = SpeedModel{3.0, 2.0};
  cfg.max_in_flight = 1;
  const std::vector<ThreadGrant> grants = {grant(64, 64, 0.8)};
  PipelineApp quiet("p", cfg);
  PipelineApp stepped("p", cfg);
  for (PipelineApp* app : {&quiet, &stepped}) {
    app->set_phase_scale(1.637);
    step(*app, grants, false, 0);
  }
  EXPECT_EQ(expect_span_matches_stepping(quiet, stepped, grants, nullptr, 100),
            10);
  EXPECT_EQ(stepped.items_retired(), 1);
}

TEST(PipelineApp, QuietSpanEndsExactlyBeforeTheHandOff) {
  const std::vector<ThreadGrant> grants = {grant(1000, 1000, 1.4),
                                           grant(1000, 1000, 1.4), {}};
  PipelineApp probe("p", quiet_pipeline());
  step(probe, grants, false, 0);
  std::vector<ThreadGrant> answered = grants;
  const std::int64_t horizon = probe.quiet_ticks(answered.data(), nullptr, 1000);
  ASSERT_GT(horizon, 0);
  ASSERT_LT(horizon, 1000);
  // A limit at the horizon is met in full; one tick more is not.
  EXPECT_EQ(probe.quiet_ticks(answered.data(), nullptr, horizon), horizon);
  EXPECT_EQ(probe.quiet_ticks(answered.data(), nullptr, horizon + 1), horizon);
  // Far from the hand-off the horizon comes without a replay.
  EXPECT_EQ(probe.quiet_ticks(answered.data(), nullptr, 5), 5);
  // Advancing to the horizon leaves the item the stepped run has just
  // before its hand-off tick.
  PipelineApp quiet("p", quiet_pipeline());
  PipelineApp stepped("p", quiet_pipeline());
  step(quiet, grants, false, 0);
  step(stepped, grants, false, 0);
  EXPECT_EQ(expect_span_matches_stepping(quiet, stepped, grants, nullptr,
                                         horizon + 1),
            horizon);
}

TEST(PipelineApp, PendingAcquisitionIsNotQuiet) {
  // Before its first tick every stage-0 worker would acquire an item.
  PipelineApp app("p", quiet_pipeline());
  std::vector<ThreadGrant> grants = {grant(1000, 1000, 1.0),
                                     grant(1000, 1000, 1.0), {}};
  EXPECT_EQ(app.quiet_ticks(grants.data(), nullptr, 100), 0);
  step(app, grants, false, 0);
  EXPECT_GT(app.quiet_ticks(grants.data(), nullptr, 100), 0);
  // A runnable worker without a grant would flip: not quiet either.
  grants[1] = {};
  EXPECT_EQ(app.quiet_ticks(grants.data(), nullptr, 100), 0);
}

TEST(PipelineApp, ExhaustedPipelineIsQuietForever) {
  PipelineConfig cfg = quiet_pipeline();
  cfg.max_items = 2;
  PipelineApp app("p", cfg);
  const std::vector<ThreadGrant> busy = {grant(1000, 1000, 1.0),
                                         grant(1000, 1000, 1.0),
                                         grant(1000, 1000, 1.0)};
  TimeUs now = 0;
  while (!app.finished() && now < 10 * kUsPerSec) {
    now += kUsPerMs;
    step(app, busy, false, now);
  }
  ASSERT_TRUE(app.finished());
  std::vector<ThreadGrant> idle(3);
  EXPECT_EQ(app.quiet_ticks(idle.data(), nullptr, 1000), 1000);
}

TEST(PipelineApp, RequiresStages) {
  PipelineConfig cfg;
  EXPECT_THROW(PipelineApp("p", cfg), std::invalid_argument);
}

}  // namespace
}  // namespace hars
