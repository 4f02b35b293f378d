// SimEngine: the discrete-time execution engine.
//
// Advances the machine in fixed ticks (default 1 ms). Each tick it:
//   1. asks the OS-scheduler model to place runnable threads on cores,
//   2. divides each core's tick equally among the threads on it and lets
//      the owning application consume the CPU shares,
//   3. runs application heartbeat logic (end_tick: barriers, pipeline
//      retirement and admission),
//   4. invokes the attached runtime manager (HARS / MP-HARS / CONS-I),
//      charging its reported CPU cost to the manager core (cpu0) so that
//      runtime overhead both consumes capacity and burns power,
//   5. integrates power and advances the sensor.
//
// Off the reference path, runs also fast-forward through *quiet* tick spans (no
// runnability flip, re-placement, finished share, pipeline item hand-off,
// heartbeat or sensor sample) in a kernel that applies only the
// per-accumulator arithmetic of those ticks, tick-major across the
// independent accumulators; see fast_forward(). A manager takes part
// through its PollPlan: polls that find no new heartbeat are absorbed
// into the span, and every span tick is either full or short by one
// overhead charge on the manager core. Scenario events are applied
// between run_until calls (ScenarioRuntime::run_until), so they end spans
// like any other `until`.
//
// The engine exposes the "syscall surface" the paper's user-level runtime
// uses on Linux: sched_setaffinity (set_thread_affinity), cpufreq
// (machine().set_freq_level) and hotplug (machine().set_online_mask).
#pragma once

#include <memory>
#include <vector>

#include "apps/app.hpp"
#include "backend/backend.hpp"  // ManagerHook lives in the Backend HAL now.
#include "hmp/machine.hpp"
#include "hmp/power_model.hpp"
#include "hmp/power_sensor.hpp"
#include "sched/scheduler.hpp"
#include "util/audit.hpp"

namespace hars {

class SimEngine;

struct SimConfig {
  TimeUs tick_us = 1 * kUsPerMs;
  CoreId manager_core = 0;  ///< Where runtime-manager overhead is charged.
  std::uint64_t sensor_seed = 42;
  TimeUs sensor_period_us = PowerSensor::kDefaultSamplePeriodUs;
  double sensor_noise = 0.01;
  /// Runs the retained, unoptimized tick path (per-tick vector
  /// allocations, per-thread machine queries) instead of the TickScratch
  /// path. Both produce bit-identical simulations; the reference path
  /// exists as the baseline for bench/tick_bench's speedup trajectory and
  /// as an always-available cross-check.
  bool reference_tick = false;
  /// Per-tick invariant audits (audit_tick/audit_now): thread-table
  /// conservation across spawn/kill, snapshot coherence with the live
  /// machine, capacity/share ranges and bit-exact cluster busy-sum
  /// conservation. Defaults on when the build defines HARS_AUDIT (the CI
  /// sanitizer matrix does); a failed audit throws AuditError.
  bool audit = audit::default_enabled();
};

/// Reusable per-tick scratch owned by the engine. Pre-sized once for the
/// machine's core count (which never changes; hotplug only toggles the
/// online mask), so the steady-state tick path performs no allocations.
/// Lifetime of the contents is one tick: everything here is recomputed or
/// reused from scratch each step().
struct TickScratch {
  std::vector<TimeUs> core_capacity;   ///< Tick minus manager overhead.
  std::vector<int> threads_on_core;    ///< Runnable sharers per core.
  std::vector<TimeUs> core_share;      ///< capacity / sharers, per core.
  std::vector<CoreType> core_type;     ///< Immutable per-core type cache.
  std::vector<ClusterId> core_cluster; ///< Immutable core -> cluster map.
  std::vector<double> core_freq_ghz;   ///< Per-core DVFS snapshot.
  std::vector<double> cluster_busy;    ///< Per-cluster busy sum for the sensor.
  std::vector<double> cluster_busy_short;  ///< Same, for a span's short ticks.
  std::vector<double> core_busy_us;    ///< Per core: a span tick's busy time.
  std::vector<double> cluster_freq;    ///< Per-cluster DVFS snapshot.
  std::vector<char> cluster_online;    ///< Any core of the cluster online?
  std::vector<ThreadGrant> grants;     ///< Per thread: quiet-span grants.
  std::vector<double> span_load;       ///< Per thread: a span's load chain.
  std::vector<double> span_load_input; ///< Per thread: its EWMA input term.
  std::unique_ptr<bool[]> short_ticks; ///< Per span tick: short by a charge?
  std::size_t short_ticks_capacity = 0;  ///< Allocated size of `short_ticks`.
  std::unique_ptr<bool[]> runnable;    ///< App::refresh_runnable buffer.
  std::size_t runnable_capacity = 0;   ///< Allocated size of `runnable`.
  std::uint64_t dvfs_epoch = 0;        ///< Machine epoch the snapshot is for.
  std::uint64_t online_bits = ~0ULL;   ///< Online mask the snapshot is for.
};

struct PlatformSpec;  // hmp/platform_spec.hpp

class SimEngine {
 public:
  /// Legacy wiring: the power model falls back to the per-core-type
  /// default parameters for the machine's clusters.
  SimEngine(Machine machine, std::unique_ptr<Scheduler> scheduler,
            SimConfig config = {});

  /// Platform wiring: materializes the machine and applies the platform's
  /// per-cluster power parameters and base draw.
  SimEngine(const PlatformSpec& platform, std::unique_ptr<Scheduler> scheduler,
            SimConfig config = {});

  /// Registers an application (non-owning); returns its AppId. All of the
  /// app's threads start with affinity = all cores. Apps may be added
  /// mid-run (scenario arrivals); their threads join scheduling on the
  /// next tick.
  AppId add_app(App* app);

  /// Deregisters a departed application: its threads are reclaimed from
  /// the scheduler (erased from the thread table, so no share of any core
  /// reaches it again) and its slot is cleared so no stale heartbeat or
  /// affinity state can leak into later manager decisions. The AppId is
  /// retired, never reused; ids of other apps are stable. Detach the app
  /// from any manager *before* removing it. Throws std::out_of_range on
  /// an unknown or already-removed id.
  void remove_app(AppId app_id);

  /// False once `app_id` has been remove_app()ed.
  bool app_alive(AppId app_id) const {
    return app_id >= 0 && app_id < num_apps() &&
           apps_[static_cast<std::size_t>(app_id)] != nullptr;
  }

  /// Installs a manager the caller keeps alive (legacy wiring; the
  /// Experiment pipeline and the attach_hars shim use this).
  void set_manager(ManagerHook* manager) {
    if (owned_manager_.get() != manager) owned_manager_.reset();
    manager_ = manager;
  }

  /// Installs a manager the engine owns; replaces any previous manager.
  void set_manager(std::unique_ptr<ManagerHook> manager) {
    owned_manager_ = std::move(manager);
    manager_ = owned_manager_.get();
  }

  /// Detaches (and, if owned, destroys) the current manager. Accrued
  /// overhead accounting is kept.
  void clear_manager() {
    manager_ = nullptr;
    owned_manager_.reset();
  }

  ManagerHook* manager() const { return manager_; }

  Machine& machine() { return machine_; }
  const Machine& machine() const { return machine_; }
  const PowerModel& power_model() const { return power_model_; }
  PowerSensor& sensor() { return sensor_; }
  const PowerSensor& sensor() const { return sensor_; }
  Scheduler& scheduler() { return *scheduler_; }

  /// Number of app slots ever registered (removed apps keep their slot).
  int num_apps() const { return static_cast<int>(apps_.size()); }
  /// The app in slot `id`; the id must be alive (app_alive).
  App& app(AppId id) { return *apps_[static_cast<std::size_t>(id)]; }
  const App& app(AppId id) const { return *apps_[static_cast<std::size_t>(id)]; }

  TimeUs now() const { return now_; }
  TimeUs tick_us() const { return config_.tick_us; }

  /// sched_setaffinity equivalent for one thread of one app.
  void set_thread_affinity(AppId app_id, int local_tid, CpuMask mask);

  /// Applies `mask` to every thread of the app (cluster-level pinning).
  void set_app_affinity(AppId app_id, CpuMask mask);

  CpuMask thread_affinity(AppId app_id, int local_tid) const;
  CoreId thread_core(AppId app_id, int local_tid) const;

  /// CPU time one thread has consumed so far (us) — the live-hardware
  /// analogue is /proc/<tid>/stat; SimBackend serves elapsed_work_us
  /// from this.
  TimeUs thread_cpu_time_us(AppId app_id, int local_tid) const;

  /// Runs the simulation until `t` (absolute) or for `dt` (relative).
  /// State changed between calls (scenario events) is visible to the
  /// whole next tick.
  void run_until(TimeUs t);
  void run_for(TimeUs dt) { run_until(now_ + dt); }

  // --- Accounting ---
  /// Lifetime busy fraction of a core (busy time / elapsed).
  double core_busy_fraction(CoreId core) const;

  /// Total manager overhead charged so far (us of CPU time).
  TimeUs manager_overhead_us() const { return manager_overhead_total_us_; }

  /// Manager overhead as a percentage of one CPU over the elapsed time.
  double manager_cpu_utilization_pct() const;

  std::int64_t total_migrations() const;

  const std::vector<SimThread>& threads() const { return threads_; }

  // --- HARS_AUDIT invariant audits ---
  /// Whether this engine runs per-tick audits (SimConfig::audit). The
  /// managers consult it before auditing their own search results.
  bool audit_enabled() const { return config_.audit; }
  void set_audit(bool enabled) { config_.audit = enabled; }

  /// Runs the tick-boundary-safe audits immediately (thread-table
  /// conservation across spawn/kill, app-slot coherence) regardless of
  /// SimConfig::audit; throws AuditError on the first violation. The
  /// scenario runtime calls this after dispatching spawn/kill/hotplug
  /// events when audits are on; step() runs it (plus the placement,
  /// snapshot-coherence and busy-sum checks) every tick.
  void audit_now() const;

 private:
  /// Shared delegate of both public constructors: builds the power model
  /// once, from the platform's carried parameters when one is given,
  /// from the per-core-type legacy defaults otherwise — no
  /// construct-then-reassign.
  SimEngine(Machine machine, const PlatformSpec* platform,
            std::unique_ptr<Scheduler> scheduler, SimConfig config);
  static PowerModel make_power_model(const Machine& machine,
                                     const PlatformSpec* platform);

  void step();
  void step_reference();
  /// Quiet-span fast-forward, tried after a step() of run_until(`until`)
  /// off the reference path: when the manager (if any) describes
  /// its polls, the scheduler reports a placement fixed point and every
  /// app a quiet horizon, advances through those ticks with only their
  /// per-accumulator arithmetic — bit-identical to stepping them. No-news
  /// polls are absorbed into the span with the overhead they charge. The
  /// tick reaching `until`, the next sensor-sampling tick, a poll that
  /// may find news and a tick with a different overhead charge stay on
  /// the normal path. A failed attempt (one that got past those caps but
  /// found no span) backs off: the next attempts are skipped for
  /// ff_backoff_ stepped ticks, doubling per further failure up to
  /// kMaxFastForwardBackoff; a span resets it.
  void fast_forward(TimeUs until);
  /// Runnable threads per core after the latest assign(): the
  /// scheduler's counts when it tracks them, else a counting pass.
  const std::vector<int>& runnable_counts();
  /// Clamps the accumulated per-core busy fractions (re-zeroing
  /// tick_busy_), adds them to lifetime busy time `ticks` times and
  /// leaves the per-cluster sums in TickScratch::cluster_busy for the
  /// sensor; under audit, cross-checks the sums bit-exactly. With
  /// `short_ticks`, tick k uses `manager_short_busy` for the manager
  /// core when short_ticks[k] is set, and TickScratch::cluster_busy_short
  /// receives that tick class's sums.
  void integrate_busy(std::int64_t ticks, const bool* short_ticks = nullptr,
                      double manager_short_busy = 0.0);
  /// Post-assign check: every runnable placed thread sits on an online
  /// core inside its affinity set (or the online fallback). Runs
  /// immediately after scheduler assignment — NOT at end of step — since
  /// the manager hook may retune affinity/hotplug mid-tick, leaving
  /// placement legitimately stale until the next assign.
  void audit_placement() const;
  /// End-of-step audits that need the tick's scratch: snapshot coherence
  /// with the live machine and capacity/share ranges; also runs
  /// audit_now().
  void audit_tick() const;
  /// Sizes the scratch for the machine (first tick only) and snapshots
  /// the per-core DVFS frequencies for this tick.
  void prepare_scratch();
  /// Epoch-guarded refresh of the frequency/online snapshots; re-run
  /// after the manager hook, which may change them mid-tick.
  void refresh_machine_snapshot();
  SimThread& thread_of(AppId app_id, int local_tid);
  const SimThread& thread_of(AppId app_id, int local_tid) const;

  Machine machine_;
  PowerModel power_model_;
  PowerSensor sensor_;
  std::unique_ptr<Scheduler> scheduler_;
  SimConfig config_;

  std::vector<App*> apps_;  ///< Slot per AppId; null once removed.
  /// Ascending slots of the live apps: the tick loops walk these, not
  /// the (null-riddled, under churn) slot table.
  std::vector<std::size_t> live_slots_;
  std::vector<SimThread> threads_;
  /// threads_ index of the first thread of each app; -1 once removed.
  std::vector<int> app_thread_base_;
  ThreadId next_thread_id_ = 0;  ///< Ids stay unique across removals.
  std::int64_t retired_migrations_ = 0;  ///< Migrations of removed apps.

  /// Failed fast-forward attempts are retried after a wait that doubles
  /// per further failure, capped here (stepped ticks).
  static constexpr int kMaxFastForwardBackoff = 15;
  int ff_backoff_ = 0;  ///< Wait after the latest failure; 0 after a span.
  int ff_wait_ = 0;     ///< Stepped ticks left before the next attempt.

  ManagerHook* manager_ = nullptr;
  std::unique_ptr<ManagerHook> owned_manager_;  ///< Set iff engine-owned.
  TimeUs pending_manager_us_ = 0;  ///< Overhead not yet charged to a tick.
  TimeUs manager_overhead_total_us_ = 0;

  TimeUs now_ = 0;
  std::vector<double> core_busy_us_;  ///< Lifetime busy time per core.
  std::vector<double> tick_busy_;     ///< Scratch: per-core busy fraction.
  TickScratch scratch_;               ///< Per-tick scratch (optimized path).
  /// The per-tick load EWMA factor, cached at the first tick with threads
  /// (every tracker shares the default half-life; asserted per tick).
  double load_decay_ = -1.0;
  /// True while TickScratch::core_capacity may hold a value other than a
  /// full tick (manager overhead was charged); forces a refill.
  bool capacity_dirty_ = true;
};

}  // namespace hars
