#include "hmp/sim_engine.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <stdexcept>
#include <string>

#include "hmp/platform_spec.hpp"
#include "obs/catalog.hpp"
#include "obs/metrics.hpp"
#include "obs/phase_timer.hpp"
#include "util/alloc_guard.hpp"
#include "util/hot_path.hpp"

namespace hars {

PowerModel SimEngine::make_power_model(const Machine& machine,
                                       const PlatformSpec* platform) {
  if (platform == nullptr) return PowerModel(machine);
  PowerModel model(machine, platform->cluster_power());
  model.set_base_watts(platform->base_watts);
  return model;
}

SimEngine::SimEngine(Machine machine, const PlatformSpec* platform,
                     std::unique_ptr<Scheduler> scheduler, SimConfig config)
    : machine_(std::move(machine)),
      power_model_(make_power_model(machine_, platform)),
      sensor_(machine_, power_model_, config.sensor_period_us,
              config.sensor_noise, config.sensor_seed),
      scheduler_(std::move(scheduler)),
      config_(config),
      core_busy_us_(static_cast<std::size_t>(machine_.num_cores()), 0.0),
      tick_busy_(static_cast<std::size_t>(machine_.num_cores()), 0.0) {
  if (!scheduler_) throw std::invalid_argument("SimEngine requires a scheduler");
  if (config_.tick_us <= 0) throw std::invalid_argument("tick must be positive");
}

SimEngine::SimEngine(Machine machine, std::unique_ptr<Scheduler> scheduler,
                     SimConfig config)
    : SimEngine(std::move(machine), nullptr, std::move(scheduler), config) {}

SimEngine::SimEngine(const PlatformSpec& platform,
                     std::unique_ptr<Scheduler> scheduler, SimConfig config)
    : SimEngine(platform.make_machine(), &platform, std::move(scheduler),
                config) {}

AppId SimEngine::add_app(App* app) {
  assert(app != nullptr);
  const AppId id = static_cast<AppId>(apps_.size());
  live_slots_.push_back(apps_.size());
  apps_.push_back(app);
  app_thread_base_.push_back(static_cast<int>(threads_.size()));
  for (int i = 0; i < app->thread_count(); ++i) {
    SimThread t;
    t.id = next_thread_id_++;
    t.app = id;
    t.app_ptr = app;
    t.local_index = i;
    t.affinity = machine_.all_mask();
    threads_.push_back(t);
  }
  return id;
}

void SimEngine::remove_app(AppId app_id) {
  if (!app_alive(app_id)) {
    throw std::out_of_range("remove_app: unknown or already-removed app " +
                            std::to_string(app_id));
  }
  const auto slot = static_cast<std::size_t>(app_id);
  const int thread_count = apps_[slot]->thread_count();
  std::erase_if(threads_, [&](const SimThread& t) {
    if (t.app != app_id) return false;
    retired_migrations_ += t.migrations;
    return true;
  });
  // Later apps' thread ranges shift down by the erased block.
  for (std::size_t j = slot + 1; j < app_thread_base_.size(); ++j) {
    if (app_thread_base_[j] >= 0) app_thread_base_[j] -= thread_count;
  }
  app_thread_base_[slot] = -1;
  apps_[slot] = nullptr;
  live_slots_.erase(std::find(live_slots_.begin(), live_slots_.end(), slot));
}

SimThread& SimEngine::thread_of(AppId app_id, int local_tid) {
  assert(app_alive(app_id));
  assert(local_tid >= 0 && local_tid < apps_[static_cast<std::size_t>(app_id)]->thread_count());
  return threads_[static_cast<std::size_t>(
      app_thread_base_[static_cast<std::size_t>(app_id)] + local_tid)];
}

const SimThread& SimEngine::thread_of(AppId app_id, int local_tid) const {
  return const_cast<SimEngine*>(this)->thread_of(app_id, local_tid);
}

void SimEngine::set_thread_affinity(AppId app_id, int local_tid, CpuMask mask) {
  thread_of(app_id, local_tid).affinity = mask;
}

void SimEngine::set_app_affinity(AppId app_id, CpuMask mask) {
  App& a = app(app_id);
  for (int i = 0; i < a.thread_count(); ++i) set_thread_affinity(app_id, i, mask);
}

CpuMask SimEngine::thread_affinity(AppId app_id, int local_tid) const {
  return thread_of(app_id, local_tid).affinity;
}

CoreId SimEngine::thread_core(AppId app_id, int local_tid) const {
  return thread_of(app_id, local_tid).core;
}

TimeUs SimEngine::thread_cpu_time_us(AppId app_id, int local_tid) const {
  return thread_of(app_id, local_tid).cpu_time_us;
}

void SimEngine::run_until(TimeUs t) {
  while (now_ < t) {
    step();
    // Only runs with nothing acting between ticks but the manager's polls
    // may skip any: no tick hook, and not the per-tick reference path.
    if (now_ < t && !tick_hook_ && !config_.reference_tick) fast_forward(t);
  }
}

namespace {

/// One runnable thread's equal share of a core's `capacity`. sharers == 1
/// (one thread per core — the common case once a manager has spread the
/// threads) skips the integer division; cap / 1 == cap.
TimeUs equal_share(TimeUs capacity, int sharers) {
  return sharers <= 1 ? (sharers == 1 ? capacity : 0) : capacity / sharers;
}

/// The manager-overhead side of stepped ticks, replayed from a PollPlan:
/// what step() charges each tick and what each no-news poll adds after
/// its tick.
struct ChargeReplay {
  const PollPlan& plan;
  TimeUs pending;
  TimeUs next_poll = plan.next_poll_us;
  std::int64_t polls = 0;
  TimeUs last_poll = 0;

  /// Replays the tick ending at `t`; returns the overhead it charges.
  TimeUs step(TimeUs t, TimeUs tick) {
    const TimeUs use = std::min(pending, tick);
    pending -= use;
    if (t >= next_poll) {
      pending += plan.cost_us;
      next_poll = t + plan.period_us;
      ++polls;
      last_poll = t;
    }
    return use;
  }
};

}  // namespace

HARS_HOT void SimEngine::prepare_scratch() {
  TickScratch& s = scratch_;
  const auto n = static_cast<std::size_t>(machine_.num_cores());
  if (s.core_type.size() != n) {
    // First tick only (the core count never changes): size the scratch.
    allocg::AllowScope allow("TickScratch first-tick growth");
    // hars-lint: allow-begin(no-alloc): one-time growth, guarded above
    s.core_capacity.resize(n);
    s.threads_on_core.resize(n);
    s.core_share.resize(n);
    s.core_type.resize(n);
    s.core_cluster.resize(n);
    s.core_freq_ghz.resize(n);
    s.cluster_busy.resize(static_cast<std::size_t>(machine_.num_clusters()));
    s.cluster_busy_short.resize(static_cast<std::size_t>(machine_.num_clusters()));
    s.core_busy_us.resize(n);
    s.cluster_freq.resize(static_cast<std::size_t>(machine_.num_clusters()));
    s.cluster_online.resize(static_cast<std::size_t>(machine_.num_clusters()));
    // hars-lint: allow-end
    for (CoreId c = 0; c < machine_.num_cores(); ++c) {
      s.core_type[static_cast<std::size_t>(c)] = machine_.core_type(c);
      s.core_cluster[static_cast<std::size_t>(c)] = machine_.cluster_of(c);
    }
    // Force both snapshots to refresh below, whatever the machine state.
    s.dvfs_epoch = 0;  // Machine epochs start at 1.
    s.online_bits = ~machine_.online_mask().bits();
  }
  refresh_machine_snapshot();
}

HARS_HOT void SimEngine::refresh_machine_snapshot() {
  TickScratch& s = scratch_;
  // DVFS levels change at tick boundaries (tick hook, manager — the
  // latter *after* the execute loop but *before* the sensor, so this runs
  // again post-manager); the machine's epoch says when, so the snapshot
  // is refreshed incrementally instead of every tick. Same for the
  // hotplug mask.
  if (s.dvfs_epoch != machine_.dvfs_epoch()) {
    s.dvfs_epoch = machine_.dvfs_epoch();
    for (ClusterId cl = 0; cl < machine_.num_clusters(); ++cl) {
      const double f = machine_.freq_ghz(cl);
      s.cluster_freq[static_cast<std::size_t>(cl)] = f;
      const CpuMask mask = machine_.cluster_mask(cl);
      for (CoreId c = mask.first(); c >= 0; c = mask.next(c)) {
        s.core_freq_ghz[static_cast<std::size_t>(c)] = f;
      }
    }
  }
  if (s.online_bits != machine_.online_mask().bits()) {
    s.online_bits = machine_.online_mask().bits();
    for (ClusterId cl = 0; cl < machine_.num_clusters(); ++cl) {
      s.cluster_online[static_cast<std::size_t>(cl)] =
          (machine_.online_mask() & machine_.cluster_mask(cl)).any() ? 1 : 0;
    }
  }
}

HARS_HOT void SimEngine::step() {
  if (config_.reference_tick) {
    step_reference();
    return;
  }
  // Telemetry attach happens before the AllocGuard: building the shard
  // allocates (under its own AllowScope), and detaching when telemetry
  // was just disabled folds this thread's counts into the registry.
  // After this line the whole tick's instrumentation is a branch + a
  // relaxed add per write. obs_tick gates the phase timers' clock reads
  // to every 2^phase_sample_shift-th tick.
  obs::ensure_thread_registered();  // hars-lint: allow(no-obs-cold): pre-guard attach point
  const bool obs_tick = obs::tick_sample();
  const obs::Catalog& cat = obs::catalog();

  {
    obs::PhaseTimer obs_phase(obs::TickPhase::kScenarioDispatch, obs_tick);
    if (tick_hook_) tick_hook_(now_);
  }

  // From here to the end of the tick the engine is on the allocation-free
  // contract (PR 5): any allocation not inside a declared AllowScope
  // (heartbeat history, sensor samples, manager bookkeeping, guarded
  // first-use growth) is a violation. The scenario hook above is outside
  // the contract — spawning an app allocates by design.
  AllocGuard alloc_guard("SimEngine::step");

  const TimeUs tick = config_.tick_us;
  now_ += tick;

  {
    obs::PhaseTimer obs_phase(obs::TickPhase::kSnapshotRefresh, obs_tick);
    prepare_scratch();
  }
  TickScratch& s = scratch_;

  // Refresh runnability and load averages, one app block at a time: the
  // app answers for all of its (contiguous) threads with one virtual
  // dispatch (App::refresh_runnable). Every SimThread's tracker is
  // default-constructed by add_app, and the tick never changes, so the
  // EWMA decay is one constant (asserted below) — computed at the first
  // tick with threads instead of one exp2 per thread per tick.
  if (!threads_.empty()) {
    obs::PhaseTimer obs_phase(obs::TickPhase::kRunnability, obs_tick);
    if (load_decay_ < 0.0) load_decay_ = threads_.front().load.decay_for(tick);
    const double decay = load_decay_;
    for (const std::size_t slot : live_slots_) {
      App* a = apps_[slot];
      const auto n = static_cast<std::size_t>(a->thread_count());
      if (s.runnable_capacity < n) {
        // Grows only when an app with more threads than ever seen joins.
        allocg::AllowScope allow("runnable buffer growth");
        s.runnable = std::make_unique<bool[]>(n);  // hars-lint: allow(no-alloc): guarded growth
        s.runnable_capacity = n;
      }
      a->refresh_runnable(s.runnable.get());
      SimThread* block = &threads_[static_cast<std::size_t>(
          app_thread_base_[slot])];
      for (std::size_t i = 0; i < n; ++i) {
        SimThread& t = block[i];
        assert(t.load.half_life_us() == threads_.front().load.half_life_us());
        t.runnable = s.runnable[i];
        t.load.update_with_decay(t.runnable, decay);
      }
    }
  }

  {
    obs::PhaseTimer obs_phase(obs::TickPhase::kAssign, obs_tick);
    scheduler_->assign(machine_, threads_);
    if (config_.audit) {
      // Placement is audited here — between assign and the manager hook —
      // because the manager may legitimately narrow affinities or hotplug
      // cores later in this tick; threads keep their stale cores until the
      // next tick's assign pass re-places them.
      allocg::AllowScope allow("audit diagnostics");
      audit_placement();
    }
  }

  {
    obs::PhaseTimer obs_phase(obs::TickPhase::kExecute, obs_tick);
    // tick_busy_ was re-zeroed by the integration pass of the previous
    // tick (and starts zeroed), so no refill is needed here. The capacity
    // array likewise only needs a refill while manager overhead is being
    // charged against it.
    const TimeUs mgr_use = std::min(pending_manager_us_, tick);
    pending_manager_us_ -= mgr_use;
    if (mgr_use > 0 || capacity_dirty_) {
      std::fill(s.core_capacity.begin(), s.core_capacity.end(), tick);
      capacity_dirty_ = false;
    }
    if (mgr_use > 0) {
      s.core_capacity[static_cast<std::size_t>(config_.manager_core)] -=
          mgr_use;
      capacity_dirty_ = true;
      tick_busy_[static_cast<std::size_t>(config_.manager_core)] +=
          static_cast<double>(mgr_use) / static_cast<double>(tick);
    }

    // Count runnable threads per core, then hand out equal shares. The
    // per-core share is computed once per core (bit-identical to the
    // per-thread division of the reference path: same operands).
    const std::vector<int>& counts = runnable_counts();
    for (std::size_t c = 0; c < s.core_share.size(); ++c) {
      s.core_share[c] = equal_share(s.core_capacity[c], counts[c]);
    }
    // The used -> busy-fraction division repeats heavily (most threads use
    // their whole share), so the last quotient is memoized; when computed,
    // it is the same division the reference path performs.
    TimeUs memo_used = -1;
    double memo_busy = 0.0;
    for (SimThread& t : threads_) {
      if (!t.runnable || t.core < 0) continue;
      const auto core = static_cast<std::size_t>(t.core);
      const TimeUs share = s.core_share[core];
      if (share <= 0) continue;
      const TimeUs used = t.app_ptr->execute(
          t.local_index, share, s.core_type[core], s.core_freq_ghz[core]);
      t.cpu_time_us += used;
      if (used != memo_used) {
        memo_used = used;
        memo_busy = static_cast<double>(used) / static_cast<double>(tick);
      }
      tick_busy_[core] += memo_busy;
    }
  }

  {
    obs::PhaseTimer obs_phase(obs::TickPhase::kEndTick, obs_tick);
    for (const std::size_t slot : live_slots_) apps_[slot]->end_tick(now_);
  }

  if (manager_ != nullptr) {
    obs::PhaseTimer obs_phase(obs::TickPhase::kManager, obs_tick);
    const TimeUs cost = manager_->on_tick(now_);
    if (cost > 0) {
      pending_manager_us_ += cost;
      manager_overhead_total_us_ += cost;
    }
    // The manager may have just moved frequencies or hotplugged cores;
    // the sensor below must integrate against the new machine state, as
    // the reference path (live reads) does.
    refresh_machine_snapshot();
  }

  obs::PhaseTimer obs_sensor_phase(obs::TickPhase::kSensor, obs_tick);
  integrate_busy(1);
  sensor_.tick_presummed(now_, tick, s.cluster_busy, s.cluster_freq,
                         s.cluster_online);
  if (config_.audit) {
    allocg::AllowScope allow("audit diagnostics");
    audit_tick();
  }

  obs::counter_add(cat.ticks);
  // Per-tick allocation telemetry (satellite of the AllocGuard contract):
  // total allocations this tick (the declared AllowScopes) and undeclared
  // violations, which must stay at zero.
  obs::counter_add(cat.tick_allocs, alloc_guard.allocations());
  obs::counter_add(cat.tick_alloc_violations, alloc_guard.violations());
}

HARS_HOT const std::vector<int>& SimEngine::runnable_counts() {
  // The scheduler may already track the counts (GTS does); otherwise one
  // pass over the thread table rebuilds them.
  if (const std::vector<int>* counts = scheduler_->runnable_per_core()) {
    return *counts;
  }
  TickScratch& s = scratch_;
  std::fill(s.threads_on_core.begin(), s.threads_on_core.end(), 0);
  for (const SimThread& t : threads_) {
    if (t.runnable && t.core >= 0) {
      ++s.threads_on_core[static_cast<std::size_t>(t.core)];
    }
  }
  return s.threads_on_core;
}

HARS_HOT void SimEngine::integrate_busy(std::int64_t ticks,
                                        const bool* short_ticks,
                                        double manager_short_busy) {
  TickScratch& s = scratch_;
  const TimeUs tick = config_.tick_us;
  const auto manager_core = static_cast<std::size_t>(config_.manager_core);
  // Busy-sum conservation audit, first half: recompute the per-cluster
  // sums through an independent path (the machine's cluster masks, not
  // the core -> cluster scratch map) before the integration pass below
  // consumes and re-zeroes tick_busy_. Same ascending-core addition
  // order, so the sums must be bit-identical.
  std::array<double, 64> audit_cluster_busy;  // CpuMask caps cores at 64.
  std::array<double, 64> audit_short_busy;
  if (config_.audit) {
    audit_cluster_busy.fill(0.0);
    audit_short_busy.fill(0.0);
    for (ClusterId cl = 0; cl < machine_.num_clusters(); ++cl) {
      double sum = 0.0;
      double short_sum = 0.0;
      const CpuMask mask = machine_.cluster_mask(cl);
      for (CoreId c = mask.first(); c >= 0; c = mask.next(c)) {
        const double b = std::min(tick_busy_[static_cast<std::size_t>(c)], 1.0);
        sum += b;
        short_sum += static_cast<std::size_t>(c) == manager_core
                         ? std::min(manager_short_busy, 1.0)
                         : b;
      }
      audit_cluster_busy[static_cast<std::size_t>(cl)] = sum;
      audit_short_busy[static_cast<std::size_t>(cl)] = short_sum;
    }
  }

  // One pass clamps the busy fractions and accumulates the per-cluster
  // busy sums the sensor needs; cores of a cluster are contiguous and
  // ascending, so the addition order matches the sensor's own mask walk.
  // A single tick adds each core's busy time to its lifetime total in the
  // same pass; a span leaves it in TickScratch::core_busy_us for the
  // tick-major loop below. Short span ticks differ only on the manager
  // core, whose lifetime busy time takes each tick's own value.
  const bool single = ticks == 1 && short_ticks == nullptr;
  std::fill(s.cluster_busy.begin(), s.cluster_busy.end(), 0.0);
  if (short_ticks != nullptr) {
    std::fill(s.cluster_busy_short.begin(), s.cluster_busy_short.end(), 0.0);
  }
  for (int c = 0; c < machine_.num_cores(); ++c) {
    const auto i = static_cast<std::size_t>(c);
    const auto cl = static_cast<std::size_t>(s.core_cluster[i]);
    const double b = std::min(tick_busy_[i], 1.0);
    tick_busy_[i] = 0.0;  // Pre-zeroed for the next tick's accumulation.
    const double busy_us = b * static_cast<double>(tick);
    s.cluster_busy[cl] += b;
    if (single) {
      core_busy_us_[i] += busy_us;
      continue;
    }
    s.core_busy_us[i] = busy_us;
    if (short_ticks != nullptr) {
      s.cluster_busy_short[cl] +=
          i == manager_core ? std::min(manager_short_busy, 1.0) : b;
    }
  }
  if (!single) {
    // Tick-major: the cores' independent chains overlap and the inner
    // loop vectorises; each core still adds its value once per tick. The
    // manager core's chain, when short ticks vary it, runs on its own
    // (it adds 0.0, the identity, in the shared loop).
    const double manager_full_us = s.core_busy_us[manager_core];
    if (short_ticks != nullptr) s.core_busy_us[manager_core] = 0.0;
    double* const acc = core_busy_us_.data();
    const double* const busy = s.core_busy_us.data();
    const auto n = s.core_busy_us.size();
    for (std::int64_t k = 0; k < ticks; ++k) {
      for (std::size_t i = 0; i < n; ++i) acc[i] += busy[i];
    }
    if (short_ticks != nullptr) {
      const double short_us =
          std::min(manager_short_busy, 1.0) * static_cast<double>(tick);
      for (std::int64_t k = 0; k < ticks; ++k) {
        acc[manager_core] += short_ticks[k] ? short_us : manager_full_us;
      }
    }
  }
  if (config_.audit) {
    for (ClusterId cl = 0; cl < machine_.num_clusters(); ++cl) {
      const auto i = static_cast<std::size_t>(cl);
      const bool short_diverges =
          short_ticks != nullptr && s.cluster_busy_short[i] != audit_short_busy[i];
      if (s.cluster_busy[i] != audit_cluster_busy[i] || short_diverges) {
        // The diagnostic allocates; the throw must not also trip the
        // tick's AllocGuard mid-unwind.
        allocg::AllowScope allow("audit diagnostics");
        throw AuditError(
            "SimEngine::integrate_busy: cluster " + std::to_string(cl) +
            (short_diverges ? " short-tick" : "") +
            " busy-sum fed to the presummed sensor diverges from the "
            "mask-walk recomputation (" +
            std::to_string(short_diverges ? s.cluster_busy_short[i]
                                          : s.cluster_busy[i]) +
            " vs " +
            std::to_string(short_diverges ? audit_short_busy[i]
                                          : audit_cluster_busy[i]) +
            ")");
      }
    }
  }
}

HARS_HOT void SimEngine::fast_forward(TimeUs until) {
  const TimeUs tick = config_.tick_us;
  // Span ticks end before `until` and before the next sensor sample.
  std::int64_t span = std::min<std::int64_t>(
      (until - now_ - 1) / tick, sensor_.ticks_before_sample(now_, tick));
  if (span <= 0) return;
  // A manager must describe its polls. A poll that may find a new
  // heartbeat is stepped: the span ends before it.
  const std::optional<PollPlan> planned =
      manager_ != nullptr ? manager_->poll_plan() : PollPlan{};
  if (!planned) return;
  const PollPlan& plan = *planned;
  if (!plan.absorbable) {
    span = std::min<std::int64_t>(span, (plan.next_poll_us - now_ - 1) / tick);
    if (span <= 0) return;
  }

  AllocGuard alloc_guard("SimEngine::fast_forward");
  TickScratch& s = scratch_;
  if (s.grants.size() < threads_.size()) {
    allocg::AllowScope allow("quiet-span grant growth");
    // hars-lint: allow-begin(no-alloc): guarded growth
    s.grants.resize(threads_.size());
    s.span_load.resize(threads_.size());
    s.span_load_input.resize(threads_.size());
    // hars-lint: allow-end
  }

  // The charge schedule: replay step()'s overhead drain and the absorbed
  // polls' charges, flagging each tick full or short by one charge below
  // a tick. Manager-less runs with nothing pending skip it: all full.
  const bool charged = manager_ != nullptr || pending_manager_us_ != 0;
  TimeUs charge = 0;
  bool* short_ticks = nullptr;
  if (charged) {
    if (s.short_ticks_capacity < static_cast<std::size_t>(span)) {
      allocg::AllowScope allow("quiet-span tick flag growth");
      s.short_ticks = std::make_unique<bool[]>(static_cast<std::size_t>(span));  // hars-lint: allow(no-alloc): guarded growth
      s.short_ticks_capacity = static_cast<std::size_t>(span);
    }
    ChargeReplay replay{plan, pending_manager_us_};
    std::int64_t k = 0;
    for (; k < span; ++k) {
      const TimeUs use = replay.step(now_ + (k + 1) * tick, tick);
      if (use != 0 && (use >= tick || (charge != 0 && use != charge))) break;
      if (use != 0) charge = use;
      s.short_ticks[static_cast<std::size_t>(k)] = use != 0;
    }
    span = k;
    if (span <= 0) return;
    if (charge != 0) short_ticks = s.short_ticks.get();
  }

  // Every app must be quiet under the grants this placement hands out
  // (each app also rejects a runnability flip against them). A full tick
  // gives every core a whole tick; a short one takes the charge off the
  // manager core.
  const auto manager_core = static_cast<std::size_t>(config_.manager_core);
  const std::vector<int>& counts = runnable_counts();
  for (const std::size_t slot : live_slots_) {
    App& a = *apps_[slot];
    const auto base = static_cast<std::size_t>(app_thread_base_[slot]);
    for (int i = 0; i < a.thread_count(); ++i) {
      const SimThread& t = threads_[base + static_cast<std::size_t>(i)];
      ThreadGrant& g = s.grants[base + static_cast<std::size_t>(i)];
      g.share_us = 0;
      g.short_share_us = 0;
      if (!t.runnable || t.core < 0) continue;
      const auto core = static_cast<std::size_t>(t.core);
      g.share_us = equal_share(tick, counts[core]);
      g.short_share_us = core == manager_core
                             ? equal_share(tick - charge, counts[core])
                             : g.share_us;
      g.type = s.core_type[core];
      g.freq_ghz = s.core_freq_ghz[core];
    }
    span = a.quiet_ticks(&s.grants[base], short_ticks, span);
    if (span <= 0) return;
  }
  span = scheduler_->fixed_point_ticks(machine_, threads_, load_decay_, span);
  if (span <= 0) return;

  // The manager's side of the final span: its overhead is left pending
  // and accrued, and its next poll set, exactly as stepping would.
  std::int64_t polls = 0;
  std::int64_t short_count = 0;
  if (charged) {
    ChargeReplay replay{plan, pending_manager_us_};
    for (std::int64_t k = 0; k < span; ++k) {
      replay.step(now_ + (k + 1) * tick, tick);
    }
    pending_manager_us_ = replay.pending;
    polls = replay.polls;
    manager_overhead_total_us_ += polls * plan.cost_us;
    if (polls > 0) manager_->absorb_polls(replay.last_poll);
    if (short_ticks != nullptr) {
      short_count = std::count(short_ticks, short_ticks + span, true);
      if (short_count == 0) short_ticks = nullptr;
    }
  }

  // The span's arithmetic, accumulator by accumulator: each receives the
  // same operations in the same order as `span` stepped ticks, so every
  // record stays bit-identical.
  now_ += span * tick;
  // Tick-major over the threads' load EWMA chains, gathered into
  // contiguous scratch so they overlap and the inner loop vectorises.
  const std::size_t n_threads = threads_.size();
  double* const load = s.span_load.data();
  double* const load_input = s.span_load_input.data();
  for (std::size_t i = 0; i < n_threads; ++i) {
    load[i] = threads_[i].load.value();
    load_input[i] = LoadTracker::input(threads_[i].runnable, load_decay_);
  }
  for (std::int64_t k = 0; k < span; ++k) {
    for (std::size_t i = 0; i < n_threads; ++i) {
      load[i] = LoadTracker::step(load[i], load_decay_, load_input[i]);
    }
  }
  for (std::size_t i = 0; i < n_threads; ++i) {
    threads_[i].load.set_value(load[i]);
  }
  // The manager core's busy fraction on a short tick starts with the
  // charge, as in step(); thread fractions follow in thread order.
  double manager_short_busy =
      static_cast<double>(charge) / static_cast<double>(tick);
  for (std::size_t i = 0; i < threads_.size(); ++i) {
    SimThread& t = threads_[i];
    const ThreadGrant& g = s.grants[i];
    if (g.share_us <= 0) continue;
    const auto core = static_cast<std::size_t>(t.core);
    t.cpu_time_us += g.used_us * (span - short_count) +
                     g.short_used_us * short_count;
    tick_busy_[core] +=
        static_cast<double>(g.used_us) / static_cast<double>(tick);
    if (core == manager_core) {
      manager_short_busy +=
          static_cast<double>(g.short_used_us) / static_cast<double>(tick);
    }
  }
  for (const std::size_t slot : live_slots_) {
    apps_[slot]->advance_quiet(
        &s.grants[static_cast<std::size_t>(app_thread_base_[slot])],
        short_ticks, span);
  }
  integrate_busy(span, short_ticks, manager_short_busy);
  sensor_.integrate_span(span, tick, s.cluster_busy, s.cluster_freq,
                         s.cluster_online, short_ticks, &s.cluster_busy_short);
  if (config_.audit) {
    // Span boundaries get the full per-tick audit set.
    allocg::AllowScope allow("audit diagnostics");
    audit_placement();
    audit_tick();
  }

  const obs::Catalog& cat = obs::catalog();
  obs::counter_add(cat.ticks, static_cast<std::uint64_t>(span));
  obs::counter_add(cat.ff_ticks, static_cast<std::uint64_t>(span));
  obs::counter_add(cat.ff_spans);
  obs::counter_add(cat.ff_polls, static_cast<std::uint64_t>(polls));
  obs::counter_add(cat.tick_allocs, alloc_guard.allocations());
  obs::counter_add(cat.tick_alloc_violations, alloc_guard.violations());
}

// The retained reference tick path: the pre-TickScratch implementation,
// kept verbatim so bench/tick_bench can measure the optimized path
// against it and assert the two produce bit-identical records.
void SimEngine::step_reference() {
  if (tick_hook_) tick_hook_(now_);

  const TimeUs tick = config_.tick_us;
  now_ += tick;

  // Refresh runnability and load averages.
  for (SimThread& t : threads_) {
    t.runnable = apps_[static_cast<std::size_t>(t.app)]->runnable(t.local_index);
    t.load.update(t.runnable, tick);
  }

  scheduler_->assign(machine_, threads_);
  if (config_.audit) audit_placement();  // Pre-manager: see step().

  std::fill(tick_busy_.begin(), tick_busy_.end(), 0.0);

  // Charge pending runtime-manager overhead against the manager core's
  // capacity for this tick.
  const TimeUs mgr_use = std::min(pending_manager_us_, tick);
  pending_manager_us_ -= mgr_use;
  std::vector<TimeUs> core_capacity(static_cast<std::size_t>(machine_.num_cores()),
                                    tick);
  if (mgr_use > 0) {
    core_capacity[static_cast<std::size_t>(config_.manager_core)] -= mgr_use;
    tick_busy_[static_cast<std::size_t>(config_.manager_core)] +=
        static_cast<double>(mgr_use) / static_cast<double>(tick);
  }

  // Count runnable threads per core, then hand out equal shares.
  std::vector<int> threads_on_core(static_cast<std::size_t>(machine_.num_cores()), 0);
  for (const SimThread& t : threads_) {
    if (t.runnable && t.core >= 0) {
      ++threads_on_core[static_cast<std::size_t>(t.core)];
    }
  }
  for (SimThread& t : threads_) {
    if (!t.runnable || t.core < 0) continue;
    const auto core = static_cast<std::size_t>(t.core);
    const int sharers = threads_on_core[core];
    if (sharers <= 0) continue;
    const TimeUs share = core_capacity[core] / sharers;
    if (share <= 0) continue;
    const CoreType type = machine_.core_type(t.core);
    const double freq = machine_.core_freq_ghz(t.core);
    const TimeUs used =
        apps_[static_cast<std::size_t>(t.app)]->execute(t.local_index, share, type, freq);
    t.cpu_time_us += used;
    tick_busy_[core] += static_cast<double>(used) / static_cast<double>(tick);
  }

  for (App* a : apps_) {
    if (a != nullptr) a->end_tick(now_);
  }

  if (manager_ != nullptr) {
    const TimeUs cost = manager_->on_tick(now_);
    if (cost > 0) {
      pending_manager_us_ += cost;
      manager_overhead_total_us_ += cost;
    }
  }

  for (double& b : tick_busy_) b = std::min(b, 1.0);
  for (int c = 0; c < machine_.num_cores(); ++c) {
    core_busy_us_[static_cast<std::size_t>(c)] +=
        tick_busy_[static_cast<std::size_t>(c)] * static_cast<double>(tick);
  }
  sensor_.tick(now_, tick, tick_busy_);

  // The reference path has no scratch to audit, but thread-table
  // conservation applies to it equally (placement was audited post-assign
  // above, before the manager hook could retune affinities).
  if (config_.audit) audit_now();
}

void SimEngine::audit_now() const {
  const auto n_slots = apps_.size();
  if (app_thread_base_.size() != n_slots) {
    throw AuditError("SimEngine::audit_now: per-app side tables out of sync "
                     "with the app slot table");
  }
  std::size_t alive_threads = 0;
  std::size_t alive_apps = 0;
  for (std::size_t slot = 0; slot < n_slots; ++slot) {
    const App* a = apps_[slot];
    const int base = app_thread_base_[slot];
    if (a == nullptr) {
      if (base != -1) {
        throw AuditError("SimEngine::audit_now: removed app slot " +
                         std::to_string(slot) +
                         " still claims thread base " + std::to_string(base));
      }
      continue;
    }
    if (alive_apps >= live_slots_.size() || live_slots_[alive_apps] != slot) {
      throw AuditError("SimEngine::audit_now: live app slot " +
                       std::to_string(slot) +
                       " is missing from the ascending live-slot list");
    }
    ++alive_apps;
    const int count = a->thread_count();
    if (base < 0 ||
        static_cast<std::size_t>(base) + static_cast<std::size_t>(count) >
            threads_.size()) {
      throw AuditError("SimEngine::audit_now: app " + std::to_string(slot) +
                       " thread block [" + std::to_string(base) + ", " +
                       std::to_string(base + count) +
                       ") falls outside the thread table of size " +
                       std::to_string(threads_.size()));
    }
    for (int i = 0; i < count; ++i) {
      const SimThread& t =
          threads_[static_cast<std::size_t>(base) + static_cast<std::size_t>(i)];
      if (t.app != static_cast<AppId>(slot) || t.app_ptr != a ||
          t.local_index != i) {
        throw AuditError(
            "SimEngine::audit_now: thread table entry " +
            std::to_string(base + i) + " does not belong to app " +
            std::to_string(slot) + " local thread " + std::to_string(i) +
            " (spawn/kill bookkeeping lost conservation)");
      }
    }
    alive_threads += static_cast<std::size_t>(count);
  }
  if (alive_apps != live_slots_.size()) {
    throw AuditError("SimEngine::audit_now: the live-slot list holds " +
                     std::to_string(live_slots_.size()) + " slots for " +
                     std::to_string(alive_apps) + " live apps");
  }
  if (alive_threads != threads_.size()) {
    throw AuditError("SimEngine::audit_now: alive apps account for " +
                     std::to_string(alive_threads) + " threads but the table "
                     "holds " + std::to_string(threads_.size()) +
                     " (spawn/kill/remove lost thread-count conservation)");
  }
}

void SimEngine::audit_placement() const {
  const CpuMask online = machine_.online_mask();
  for (const SimThread& t : threads_) {
    if (t.core >= machine_.num_cores()) {
      throw AuditError("SimEngine::audit_placement: thread " +
                       std::to_string(t.id) + " sits on nonexistent core " +
                       std::to_string(t.core));
    }
    if (!t.runnable || t.core < 0) continue;  // Sleepers keep stale cores.
    if (!online.test(t.core)) {
      throw AuditError("SimEngine::audit_placement: runnable thread " +
                       std::to_string(t.id) + " placed on offline core " +
                       std::to_string(t.core));
    }
    // The scheduler honours affinity unless no allowed core is online, in
    // which case Linux (and the model) falls back to any online core.
    const CpuMask allowed = t.affinity & online;
    if (allowed.any() && !allowed.test(t.core)) {
      throw AuditError("SimEngine::audit_placement: runnable thread " +
                       std::to_string(t.id) + " placed on core " +
                       std::to_string(t.core) +
                       " outside its online affinity set");
    }
  }
}

void SimEngine::audit_tick() const {
  audit_now();
  // audit_placement() deliberately does NOT run here: the manager hook
  // (which ran between assign and this audit) may have narrowed thread
  // affinities or hotplugged cores, making the tick's placement
  // legitimately stale until the next assign. Placement is audited at
  // its freshness point, immediately after scheduler_->assign().

  // Snapshot coherence: the epoch-guarded TickScratch views of DVFS and
  // hotplug state must match the live machine at the end of the tick —
  // the sensor just integrated against them.
  const TickScratch& s = scratch_;
  if (s.core_type.size() != static_cast<std::size_t>(machine_.num_cores())) {
    throw AuditError("SimEngine::audit_tick: scratch never sized for the "
                     "machine (prepare_scratch did not run?)");
  }
  if (s.dvfs_epoch != machine_.dvfs_epoch()) {
    throw AuditError("SimEngine::audit_tick: scratch DVFS epoch " +
                     std::to_string(s.dvfs_epoch) +
                     " is stale against machine epoch " +
                     std::to_string(machine_.dvfs_epoch()) +
                     " (post-manager refresh missed a retune)");
  }
  if (s.online_bits != machine_.online_mask().bits()) {
    throw AuditError("SimEngine::audit_tick: scratch online mask is stale "
                     "against the machine's hotplug state");
  }
  for (ClusterId cl = 0; cl < machine_.num_clusters(); ++cl) {
    const auto i = static_cast<std::size_t>(cl);
    if (s.cluster_freq[i] != machine_.freq_ghz(cl)) {
      throw AuditError("SimEngine::audit_tick: cluster " + std::to_string(cl) +
                       " frequency snapshot " + std::to_string(s.cluster_freq[i]) +
                       " diverges from live " +
                       std::to_string(machine_.freq_ghz(cl)));
    }
    const bool live_online =
        (machine_.online_mask() & machine_.cluster_mask(cl)).any();
    if ((s.cluster_online[i] != 0) != live_online) {
      throw AuditError("SimEngine::audit_tick: cluster " + std::to_string(cl) +
                       " online snapshot diverges from the live mask");
    }
    const double busy = s.cluster_busy[i];
    const double cores = static_cast<double>(machine_.cluster_core_count(cl));
    if (!(busy >= 0.0 && busy <= cores)) {
      throw AuditError("SimEngine::audit_tick: cluster " + std::to_string(cl) +
                       " busy-sum " + std::to_string(busy) +
                       " outside [0, " + std::to_string(cores) +
                       "] after per-core clamping");
    }
  }
  const TimeUs tick = config_.tick_us;
  for (CoreId c = 0; c < machine_.num_cores(); ++c) {
    const auto i = static_cast<std::size_t>(c);
    if (s.core_freq_ghz[i] != machine_.core_freq_ghz(c)) {
      throw AuditError("SimEngine::audit_tick: core " + std::to_string(c) +
                       " frequency snapshot diverges from its cluster's "
                       "live frequency");
    }
    if (s.core_capacity[i] < 0 || s.core_capacity[i] > tick) {
      throw AuditError("SimEngine::audit_tick: core " + std::to_string(c) +
                       " capacity " + std::to_string(s.core_capacity[i]) +
                       " outside [0, tick=" + std::to_string(tick) +
                       "] (manager overhead over-charged)");
    }
    if (s.core_share[i] < 0 || s.core_share[i] > s.core_capacity[i]) {
      throw AuditError("SimEngine::audit_tick: core " + std::to_string(c) +
                       " share " + std::to_string(s.core_share[i]) +
                       " exceeds its capacity " +
                       std::to_string(s.core_capacity[i]));
    }
  }
}

double SimEngine::core_busy_fraction(CoreId core) const {
  if (now_ <= 0) return 0.0;
  return core_busy_us_[static_cast<std::size_t>(core)] / static_cast<double>(now_);
}

double SimEngine::manager_cpu_utilization_pct() const {
  if (now_ <= 0) return 0.0;
  return 100.0 * static_cast<double>(manager_overhead_total_us_) /
         static_cast<double>(now_);
}

std::int64_t SimEngine::total_migrations() const {
  std::int64_t n = retired_migrations_;
  for (const SimThread& t : threads_) n += t.migrations;
  return n;
}

}  // namespace hars
