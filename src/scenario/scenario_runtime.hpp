// ScenarioRuntime: binds a Scenario to one live run.
//
// Experiment::run() drives a scenario run through run_until(), which
// runs the engine from one tick boundary with work to do to the next. The
// runtime owns every scenario application (the engine is non-owning),
// dispatches due events at a boundary — spawn (create app, add to engine,
// set target, notify the variant), kill (notify the variant, reclaim the
// app's threads), set_target / set_phase / hotplug — and, when a
// TraceSink is attached, samples the per-app state on the configured
// cadence. Dispatch order is event order; an event at time t is applied
// at the first tick boundary with start >= t, so its effect is visible to
// that whole tick. Between those boundaries the engine is free to
// fast-forward.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "backend/sim_backend.hpp"
#include "exp/experiment.hpp"
#include "scenario/scenario.hpp"
#include "scenario/trace_sink.hpp"

namespace hars {

/// One spawn of the scenario and the application it materialized. Slots
/// exist for every spawn (in scenario order, which defines the seed
/// offset) — apps not yet arrived have id == -1.
struct ScenarioAppSlot {
  std::string label;               ///< Scenario app id.
  const ScenarioEvent* spawn_event = nullptr;
  std::unique_ptr<App> app;        ///< Owned; outlives engine removal.
  AppId id = -1;                   ///< Engine id once spawned.
  PerfTarget target;               ///< Current target.
  int threads = 0;                 ///< Resolved thread count.
  TimeUs spawn_time = 0;
  TimeUs depart_time = -1;         ///< -1: alive at run end.
  bool spawned = false;
  bool alive = false;
};

/// Per-spawn target resolution (spawn order): an explicit window wins;
/// otherwise fraction (spawn's or the spec default) of the standalone
/// calibrated maximum on the spec's platform, seeded like the app itself.
std::vector<PerfTarget> resolve_scenario_targets(const ExperimentSpec& spec,
                                                 const Scenario& scenario);

class ScenarioRuntime {
 public:
  /// `targets` are resolve_scenario_targets() results (spawn order).
  ScenarioRuntime(const Scenario& scenario, SimEngine& engine,
                  const ExperimentSpec& spec, std::vector<PerfTarget> targets);

  /// Spawns every t = 0 app. Call once, before creating the variant (the
  /// factories expect the initial apps registered).
  void spawn_initial();

  void attach_variant(VariantInstance* variant) { variant_ = variant; }
  void attach_capture(TraceSink* sink) { capture_ = sink; }

  /// Runs the engine until `until` (as SimEngine::run_until), applying
  /// the events and capture samples due at each tick boundary on the way.
  void run_until(TimeUs until);

  /// Samples the final state at run end (always, regardless of cadence).
  void finish(TimeUs now);

  /// Engine ids / targets of the t = 0 apps, in spawn order (the
  /// VariantSetup the factories see).
  std::vector<AppId> initial_ids() const;
  std::vector<PerfTarget> initial_targets() const;

  const std::vector<ScenarioAppSlot>& slots() const { return slots_; }

 private:
  /// Dispatches the events due at boundary `now`, then samples if due.
  void at_boundary(TimeUs now);
  /// The next boundary after `now` with an event or sample due (on the
  /// reference path: the next boundary), or `until` if that comes first.
  TimeUs next_stop(TimeUs now, TimeUs until) const;
  void dispatch(std::size_t event_index, TimeUs now);
  void spawn_slot(std::size_t slot_index, TimeUs now);
  void sample(TimeUs now);

  const Scenario& scenario_;
  SimEngine& engine_;
  /// Platform mutations (hotplug events) go through the HAL so the obs
  /// counters see them; SimBackend forwards 1:1 to the engine.
  SimBackend backend_;
  const ExperimentSpec& spec_;
  VariantInstance* variant_ = nullptr;
  TraceSink* capture_ = nullptr;
  std::vector<ScenarioAppSlot> slots_;  ///< One per spawn, scenario order.
  /// Per event: the index of its app's slot (core events: unused).
  std::vector<std::size_t> event_slot_;
  std::size_t next_event_ = 0;          ///< Cursor into scenario_.events.
  TimeUs start_us_;                     ///< Boundary of the first tick.
};

}  // namespace hars
