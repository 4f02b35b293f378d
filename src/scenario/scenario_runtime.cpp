#include "scenario/scenario_runtime.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "exp/calibration.hpp"
#include "obs/catalog.hpp"
#include "obs/metrics.hpp"

namespace hars {

std::vector<PerfTarget> resolve_scenario_targets(const ExperimentSpec& spec,
                                                 const Scenario& scenario) {
  std::vector<PerfTarget> targets;
  const auto spawns = scenario.spawns();
  targets.reserve(spawns.size());
  for (std::size_t i = 0; i < spawns.size(); ++i) {
    const ScenarioSpawn& spawn = spawns[i]->spawn;
    if (spawn.target) {
      targets.push_back(*spawn.target);
      continue;
    }
    const int threads = spawn.threads > 0 ? spawn.threads : spec.threads;
    const Calibration cal = calibrate_benchmark(spec.platform, *spawn.bench,
                                                threads, spec.seed + i);
    const double fraction =
        spawn.fraction ? *spawn.fraction : spec.target_fraction;
    targets.push_back(cal.target_for_fraction(fraction));
  }
  return targets;
}

ScenarioRuntime::ScenarioRuntime(const Scenario& scenario, SimEngine& engine,
                                 const ExperimentSpec& spec,
                                 std::vector<PerfTarget> targets)
    : scenario_(scenario),
      engine_(engine),
      backend_(engine),
      spec_(spec),
      start_us_(engine.now()) {
  const auto spawns = scenario_.spawns();
  slots_.reserve(spawns.size());
  std::map<std::string, std::size_t> slot_of;
  for (std::size_t i = 0; i < spawns.size(); ++i) {
    ScenarioAppSlot slot;
    slot.label = spawns[i]->app;
    slot.spawn_event = spawns[i];
    slot.target = targets[i];
    slot.threads = spawns[i]->spawn.threads > 0 ? spawns[i]->spawn.threads
                                                : spec_.threads;
    slot_of.emplace(slot.label, i);
    slots_.push_back(std::move(slot));
  }
  // Slot index = position among spawns (validate() forbids dup ids and
  // events of unknown apps).
  event_slot_.reserve(scenario_.events.size());
  for (const ScenarioEvent& event : scenario_.events) {
    if (event.app.empty()) {
      event_slot_.push_back(0);  // Core event: no app.
      continue;
    }
    const auto it = slot_of.find(event.app);
    if (it == slot_of.end()) {
      throw ScenarioError("runtime: unknown app \"" + event.app + "\"");
    }
    event_slot_.push_back(it->second);
  }
}

void ScenarioRuntime::spawn_slot(std::size_t slot_index, TimeUs now) {
  ScenarioAppSlot& slot = slots_[slot_index];
  slot.app = make_parsec_app(*slot.spawn_event->spawn.bench, slot.threads,
                             spec_.seed + slot_index);
  slot.id = engine_.add_app(slot.app.get());
  slot.app->heartbeats().set_target(slot.target);
  slot.spawn_time = now;
  slot.spawned = true;
  slot.alive = true;
  if (variant_ != nullptr) variant_->on_app_spawn(slot.id, slot.target);
}

void ScenarioRuntime::spawn_initial() {
  // validate() guarantees every t = 0 event is a spawn.
  while (next_event_ < scenario_.events.size() &&
         scenario_.events[next_event_].time <= 0) {
    spawn_slot(event_slot_[next_event_], 0);
    ++next_event_;
  }
}

void ScenarioRuntime::dispatch(std::size_t event_index, TimeUs now) {
  const ScenarioEvent& event = scenario_.events[event_index];
  const std::size_t slot_index = event_slot_[event_index];
  switch (event.kind) {
    case ScenarioEventKind::kSpawn:
      spawn_slot(slot_index, now);
      return;
    case ScenarioEventKind::kKill: {
      ScenarioAppSlot& slot = slots_[slot_index];
      if (!slot.alive) return;
      if (variant_ != nullptr) variant_->on_app_kill(slot.id);
      engine_.remove_app(slot.id);
      slot.alive = false;
      slot.depart_time = now;
      return;
    }
    case ScenarioEventKind::kSetTarget: {
      ScenarioAppSlot& slot = slots_[slot_index];
      if (!slot.alive) return;
      slot.target = event.target;
      slot.app->heartbeats().set_target(event.target);
      if (variant_ != nullptr) variant_->on_app_target(slot.id, event.target);
      return;
    }
    case ScenarioEventKind::kSetPhase: {
      ScenarioAppSlot& slot = slots_[slot_index];
      if (!slot.alive) return;
      slot.app->set_phase_scale(event.phase_scale);
      return;
    }
    case ScenarioEventKind::kOfflineCores: {
      const Machine& m = engine_.machine();
      backend_.set_online_mask(m.online_mask() & ~event.cores);
      return;
    }
    case ScenarioEventKind::kOnlineCores: {
      const Machine& m = engine_.machine();
      backend_.set_online_mask(m.online_mask() | event.cores);
      return;
    }
  }
}

void ScenarioRuntime::at_boundary(TimeUs now) {
  bool dispatched = false;
  while (next_event_ < scenario_.events.size() &&
         scenario_.events[next_event_].time <= now) {
    dispatch(next_event_, now);
    ++next_event_;
    dispatched = true;
    obs::counter_add(obs::catalog().scenario_events);
  }
  // Spawn/kill/hotplug events mutate engine tables mid-run; re-check the
  // tick-boundary-safe conservation invariants right after dispatching.
  if (dispatched && engine_.audit_enabled()) engine_.audit_now();
  if (capture_ != nullptr &&
      (now - start_us_) / engine_.tick_us() %
              capture_->sample_every_ticks() == 0) {
    sample(now);
  }
}

TimeUs ScenarioRuntime::next_stop(TimeUs now, TimeUs until) const {
  const TimeUs tick = engine_.tick_us();
  // The reference path visits every boundary, so the differential tests
  // hold the stops chosen below to a per-tick dispatch.
  if (spec_.reference_impl) return std::min(until, now + tick);
  TimeUs next = until;
  if (next_event_ < scenario_.events.size()) {
    // The first boundary at or after the event (all due ones are done).
    const TimeUs t = scenario_.events[next_event_].time;
    next = std::min(next, now + (t - now + tick - 1) / tick * tick);
  }
  if (capture_ != nullptr) {
    const TimeUs every = capture_->sample_every_ticks() * tick;
    next = std::min(next, start_us_ + ((now - start_us_) / every + 1) * every);
  }
  return next;
}

void ScenarioRuntime::run_until(TimeUs until) {
  while (engine_.now() < until) {
    const TimeUs now = engine_.now();
    at_boundary(now);
    engine_.run_until(next_stop(now, until));
  }
}

void ScenarioRuntime::finish(TimeUs now) {
  if (capture_ != nullptr) sample(now);
}

void ScenarioRuntime::sample(TimeUs now) {
  const Machine& m = engine_.machine();
  const CpuMask online = m.online_mask();
  for (const ScenarioAppSlot& slot : slots_) {
    if (!slot.alive) continue;
    // The app's allocated cores: the union of its threads' affinities,
    // intersected with the online mask, split by the managed pools.
    CpuMask allowed;
    for (int i = 0; i < slot.app->thread_count(); ++i) {
      allowed = allowed | engine_.thread_affinity(slot.id, i);
    }
    allowed = allowed & online;
    const HeartbeatMonitor& hb = slot.app->heartbeats();
    Record r;
    r.set("kind", "sample");
    r.set("t_us", static_cast<std::int64_t>(now));
    r.set("app", slot.label);
    r.set("beats", hb.count());
    r.set("hps", hb.rate());
    r.set("target_min", slot.target.min);
    r.set("target_max", slot.target.max);
    r.set("big_cores", (allowed & m.fastest_mask()).count());
    r.set("little_cores", (allowed & m.slowest_mask()).count());
    r.set("big_freq_ghz", m.freq_ghz(m.fastest_cluster()));
    r.set("little_freq_ghz", m.freq_ghz(m.slowest_cluster()));
    r.set("online", online.count());
    r.set("power_w", engine_.sensor().instantaneous_power_w());
    capture_->write(r);
  }
}

std::vector<AppId> ScenarioRuntime::initial_ids() const {
  std::vector<AppId> ids;
  for (const ScenarioAppSlot& slot : slots_) {
    if (slot.spawned && slot.spawn_event->time <= 0) ids.push_back(slot.id);
  }
  return ids;
}

std::vector<PerfTarget> ScenarioRuntime::initial_targets() const {
  std::vector<PerfTarget> targets;
  for (const ScenarioAppSlot& slot : slots_) {
    if (slot.spawned && slot.spawn_event->time <= 0) {
      targets.push_back(slot.target);
    }
  }
  return targets;
}

}  // namespace hars
