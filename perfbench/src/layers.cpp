#include "layers.hpp"

#include <cstdio>
#include <unordered_map>
#include <utility>

#include "exp/variant_registry.hpp"
#include "sched/gts.hpp"
#include "sweep/sweep_engine.hpp"

namespace perfbench {
namespace {

/// What the decorators on this thread have timed since the current
/// slice opened, and which run and slice that is. case_id == 0 outside
/// a traced run.
struct ThreadTrace {
  std::int64_t case_id = 0;
  std::int64_t slice_id = 0;
  std::int64_t slice_start = 0;
  std::int64_t assign_first = 0;
  std::int64_t assign_ns = 0;
  std::int64_t assign_calls = 0;
  std::int64_t on_tick_first = 0;
  std::int64_t on_tick_ns = 0;
  std::int64_t on_tick_calls = 0;
};
thread_local ThreadTrace t_trace;

Tracer* g_tracer = nullptr;

std::mutex g_samples_mutex;
std::vector<std::shared_ptr<std::vector<double>>> g_sample_buffers;

/// This thread's sample buffer; shared with the global list so samples
/// outlive pool worker threads.
std::vector<double>& thread_samples() {
  thread_local std::shared_ptr<std::vector<double>> buffer;
  if (!buffer) {
    buffer = std::make_shared<std::vector<double>>();
    std::lock_guard<std::mutex> lock(g_samples_mutex);
    g_sample_buffers.push_back(buffer);
  }
  return *buffer;
}

/// Closes this thread's current slice at `end` — the slice span plus one
/// aggregated span per decorated child layer — and opens the next.
void close_slice(Tracer& tracer, std::int64_t end, std::int64_t ticks) {
  ThreadTrace& t = t_trace;
  tracer.record(Span{t.slice_id, t.case_id, t.case_id, t.slice_start, end,
                     ticks, SpanKind::kSlice});
  if (t.assign_calls > 0) {
    tracer.record(Span{tracer.next_id(), t.slice_id, t.case_id,
                       t.assign_first, t.assign_first + t.assign_ns,
                       t.assign_calls, SpanKind::kAssign});
  }
  if (t.on_tick_calls > 0) {
    tracer.record(Span{tracer.next_id(), t.slice_id, t.case_id,
                       t.on_tick_first, t.on_tick_first + t.on_tick_ns,
                       t.on_tick_calls, SpanKind::kOnTick});
  }
  const std::int64_t case_id = t.case_id;
  t = ThreadTrace{};
  t.case_id = case_id;
  t.slice_id = tracer.next_id();
  t.slice_start = now_ns();
}

/// GTS behind a timer: every assign() call is timed into the current
/// slice.
class TimedScheduler final : public hars::Scheduler {
 public:
  void assign(const hars::Machine& machine,
              std::vector<hars::SimThread>& threads) override {
    const std::int64_t start = now_ns();
    inner_.assign(machine, threads);
    const std::int64_t end = now_ns();
    ThreadTrace& t = t_trace;
    if (t.assign_calls == 0) t.assign_first = start;
    t.assign_ns += end - start;
    ++t.assign_calls;
  }
  const std::vector<int>* runnable_per_core() const override {
    return inner_.runnable_per_core();
  }
  const char* name() const override { return inner_.name(); }

 private:
  hars::GtsScheduler inner_;
};

/// The manager hook the engine calls, timing the wrapped instance inside
/// traced runs (the wrapper is installed process-wide, so outside them it
/// only forwards).
class TimedHook final : public hars::ManagerHook {
 public:
  explicit TimedHook(hars::VariantInstance& target) : target_(target) {}
  hars::TimeUs on_tick(hars::TimeUs now) override {
    if (t_trace.case_id == 0) return target_.on_tick(now);
    const std::int64_t start = now_ns();
    const hars::TimeUs cost = target_.on_tick(now);
    const std::int64_t end = now_ns();
    ThreadTrace& t = t_trace;
    if (t.on_tick_calls == 0) t.on_tick_first = start;
    t.on_tick_ns += end - start;
    ++t.on_tick_calls;
    return cost;
  }

 private:
  hars::VariantInstance& target_;
};

/// A variant instance forwarding everything to the original one, with
/// its on_tick behind TimedHook.
class TimedInstance final : public hars::VariantInstance {
 public:
  explicit TimedInstance(std::unique_ptr<hars::VariantInstance> wrapped)
      : wrapped_(std::move(wrapped)) {
    if (wrapped_->active()) inner_ = std::make_unique<TimedHook>(*wrapped_);
  }
  void on_app_spawn(hars::AppId app, const hars::PerfTarget& target) override {
    wrapped_->on_app_spawn(app, target);
  }
  void on_app_kill(hars::AppId app) override { wrapped_->on_app_kill(app); }
  void on_app_target(hars::AppId app,
                     const hars::PerfTarget& target) override {
    wrapped_->on_app_target(app, target);
  }
  std::vector<hars::TracePoint> trace(hars::AppId app) const override {
    return wrapped_->trace(app);
  }
  std::optional<hars::SystemState> current_state() const override {
    return wrapped_->current_state();
  }
  std::optional<hars::SystemState> static_state() const override {
    return wrapped_->static_state();
  }
  std::int64_t adaptations() const override {
    return wrapped_->adaptations();
  }

 private:
  std::unique_ptr<hars::VariantInstance> wrapped_;
};

}  // namespace

hars::SampleFn tick_sampler() {
  struct State {
    std::int64_t last_cpu_ns = -1;
    hars::TimeUs last_now = 0;
  };
  auto state = std::make_shared<State>();
  return [state](const hars::RunView& view) {
    const std::int64_t cpu = thread_cpu_ns();
    std::int64_t ticks = 0;
    if (state->last_cpu_ns >= 0) {
      ticks = (view.now - state->last_now) / view.engine.tick_us();
      if (ticks > 0) {
        thread_samples().push_back(
            static_cast<double>(cpu - state->last_cpu_ns) /
            static_cast<double>(ticks));
      }
    }
    state->last_cpu_ns = cpu;
    state->last_now = view.now;
    const std::int64_t now = now_ns();
    Tracer* tracer = Tracer::active();
    if (tracer != nullptr && t_trace.case_id != 0) {
      close_slice(*tracer, now, ticks);
    }
  };
}

std::vector<double> take_tick_samples() {
  std::lock_guard<std::mutex> lock(g_samples_mutex);
  std::vector<double> all;
  for (auto& buffer : g_sample_buffers) {
    all.insert(all.end(), buffer->begin(), buffer->end());
    buffer->clear();
  }
  return all;
}

const char* span_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kRun: return "exp.run";
    case SpanKind::kSlice: return "hmp.slice";
    case SpanKind::kAssign: return "sched.assign";
    case SpanKind::kOnTick: return "mgr.on_tick";
  }
  return "?";
}

Tracer* Tracer::active() { return g_tracer; }
void Tracer::install(Tracer* tracer) { g_tracer = tracer; }

std::int64_t Tracer::next_id() {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_id_++;
}

void Tracer::record(const Span& span) {
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

std::size_t Tracer::size() {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

LayerTimes Tracer::derive(std::size_t from) {
  std::lock_guard<std::mutex> lock(mutex_);
  struct SliceSum {
    double ns = 0.0;
    double child_ns = 0.0;
    std::int64_t ticks = 0;
  };
  std::unordered_map<std::int64_t, SliceSum> slices;
  LayerTimes out;
  std::vector<double> run_ms;
  for (std::size_t i = from; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double ns = static_cast<double>(s.end_ns - s.start_ns);
    switch (s.kind) {
      case SpanKind::kRun:
        run_ms.push_back(ns / 1e6);
        out.run_ns += ns;
        break;
      case SpanKind::kSlice:
        slices[s.id].ns = ns;
        slices[s.id].ticks = s.count;
        break;
      case SpanKind::kAssign:
        slices[s.parent].child_ns += ns;
        out.assign_ns += ns;
        out.assign_calls += s.count;
        break;
      case SpanKind::kOnTick:
        slices[s.parent].child_ns += ns;
        out.on_tick_ns += ns;
        out.on_tick_calls += s.count;
        break;
    }
  }
  double slice_ns = 0.0;
  for (const auto& [id, slice] : slices) {
    slice_ns += slice.ns;
    out.tick_self_ns += slice.ns - slice.child_ns;
    if (slice.ticks > 0) {
      const double ticks = static_cast<double>(slice.ticks);
      out.tick_self_ns_per_tick.push_back((slice.ns - slice.child_ns) / ticks);
      out.ns_per_tick.push_back(slice.ns / ticks);
    }
  }
  out.runs = run_ms.size();
  out.run_ms_p50 = median(run_ms);
  out.run_self_ns = out.run_ns - slice_ns;
  return out;
}

bool Tracer::write_jsonl(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%lld,\"parent\":%lld,\"case\":%lld,"
                 "\"start_ns\":%lld,\"end_ns\":%lld,\"count\":%lld}\n",
                 span_name(s.kind), static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.case_id),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.count));
  }
  return std::fclose(f) == 0;
}

void trace_cases(hars::SweepSpec& spec) {
  const hars::BuilderMutator base = spec.base_mutator();
  spec.base([base](hars::ExperimentBuilder& b) {
    if (base) base(b);
    b.os_scheduler([] { return std::make_unique<TimedScheduler>(); });
  });
  // The runner evaluates cases through a copy that has no runner.
  auto plain = std::make_shared<const hars::SweepSpec>(spec);
  spec.case_runner([plain](const hars::SweepCase& sweep_case) {
    Tracer& tracer = *Tracer::active();
    t_trace = ThreadTrace{};
    t_trace.case_id = tracer.next_id();
    t_trace.slice_id = tracer.next_id();
    const std::int64_t start = now_ns();
    t_trace.slice_start = start;
    struct Close {
      Tracer& tracer;
      std::int64_t start;
      ~Close() {
        tracer.record(Span{t_trace.case_id, 0, t_trace.case_id, start,
                           now_ns(), 0, SpanKind::kRun});
        t_trace = ThreadTrace{};
      }
    } close{tracer, start};
    return hars::run_experiment_case(*plain, sweep_case, nullptr);
  });
}

void register_timed_variants() {
  hars::VariantRegistry& registry = hars::VariantRegistry::instance();
  for (const std::string& name : registry.names()) {
    const hars::VariantEntry entry = *registry.find(name);
    registry.register_variant(
        name, entry.traits,
        [factory = entry.factory](const hars::VariantSetup& setup)
            -> std::unique_ptr<hars::VariantInstance> {
          std::unique_ptr<hars::VariantInstance> inner = factory(setup);
          if (inner == nullptr) return nullptr;
          return std::make_unique<TimedInstance>(std::move(inner));
        });
  }
}

void register_probe_variant() {
  hars::VariantTraits traits;
  traits.min_apps = 1;
  traits.max_apps = 8;
  hars::VariantRegistry::instance().register_variant(
      kProbeVariant, traits,
      [](const hars::VariantSetup&) -> std::unique_ptr<hars::VariantInstance> {
        throw ProbeOnly{};
      });
}

std::uint64_t counter_delta(const hars::obs::MetricsSnapshot& before,
                            const hars::obs::MetricsSnapshot& after,
                            const char* name) {
  const hars::obs::MetricValue* a = after.find(name);
  if (a == nullptr) return 0;
  const hars::obs::MetricValue* b = before.find(name);
  return a->counter - (b != nullptr ? b->counter : 0);
}

}  // namespace perfbench
