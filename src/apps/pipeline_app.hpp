// Pipeline application model (PARSEC ferret: a 6-stage pipeline).
//
// Items flow through a chain of stages; each stage has its own threads and
// per-item work. A heartbeat is emitted each time an item leaves the last
// stage. Threads are numbered stage by stage (stage 0's threads first),
// which is what makes the chunk-based scheduler map whole stages onto one
// cluster and bottleneck the pipeline (paper §3.1.3 / Figure 3.2) while
// the interleaving scheduler spreads each stage across both clusters.
#pragma once

#include <array>
#include <deque>
#include <vector>

#include "apps/app.hpp"
#include "apps/workload.hpp"
#include "util/rng.hpp"

namespace hars {

struct PipelineStageSpec {
  int threads = 1;
  WorkUnits work_per_item = 1.0;
};

struct PipelineConfig {
  std::vector<PipelineStageSpec> stages;
  SpeedModel speed;
  int max_in_flight = 32;  ///< Items admitted but not yet retired.
  double work_noise = 0.0; ///< Relative jitter on per-item stage work.
  std::int64_t max_items = -1;  ///< <0: unbounded input.
  std::uint64_t seed = 1;
  std::size_t heartbeat_window = 10;
};

class PipelineApp final : public App {
 public:
  PipelineApp(std::string name, const PipelineConfig& config);

  bool runnable(int local_tid) const override;
  TimeUs execute(int local_tid, TimeUs share_us, CoreType type,
                 double freq_ghz) override;
  /// Emits one heartbeat per item retired this tick, then admits items.
  void end_tick(TimeUs now) override;
  /// Quiet while end_tick has nothing to emit or admit, every executed
  /// worker holds an item that outlasts each tick's share, and every
  /// other worker has nothing to do: no hand-off, acquisition or
  /// retirement happens.
  std::int64_t quiet_ticks(ThreadGrant* grants, const bool* short_ticks,
                           std::int64_t limit) const override;
  void advance_quiet(const ThreadGrant* grants, const bool* short_ticks,
                     std::int64_t ticks) override;
  bool finished() const override;

  int num_stages() const { return static_cast<int>(config_.stages.size()); }
  int stage_of_thread(int local_tid) const;

  /// One thread group per pipeline stage (§3.1.4's thread hierarchy).
  std::vector<int> thread_group_sizes() const override;
  std::int64_t items_retired() const { return items_retired_; }
  /// Work left on the item worker `local_tid` holds (0 when it holds none).
  WorkUnits item_remaining(int local_tid) const {
    const Worker& w = workers_[static_cast<std::size_t>(local_tid)];
    return w.has_item ? w.remaining : 0.0;
  }

  const PipelineConfig& config() const { return config_; }

 private:
  static int total_threads(const PipelineConfig& config);

  struct Worker {
    int stage = 0;
    bool has_item = false;
    WorkUnits remaining = 0.0;  ///< Work left on the held item.
  };

  /// Most chunks one share is retired in while the item outlasts it: the
  /// first chunk's used time truncates to the share or 1 us below it.
  static constexpr int kMaxChunks = 2;

  /// The chunks execute()'s loop retires from one share while the held
  /// item outlasts it (each chunk's `done` is its can_do).
  struct ShareChunks {
    std::array<WorkUnits, kMaxChunks> work{};
    int count = 0;
    /// can_do of the closing chunk that would be charged 0 us (0 when the
    /// share is used up): execute() stops there unless it hands off.
    WorkUnits tail = 0.0;
    TimeUs used_us = 0;
    bool valid = true;  ///< False when the loop needs more than kMaxChunks.

    /// The work one tick takes, counting the tail.
    WorkUnits total() const;
    /// Replays one tick on an item with `work` left: false when a chunk
    /// (or the tail) would hand the item off; otherwise retires the
    /// chunks from `work`.
    bool outlasted_by(WorkUnits& work) const;
  };
  static ShareChunks share_chunks(double speed, TimeUs share_us);

  /// Tries to hand `worker` a new item from its stage's input queue.
  bool try_acquire(Worker& worker);
  /// Admission control: keeps the pipeline primed up to max_in_flight.
  void admit();
  bool admission_open() const {
    return in_flight_ < config_.max_in_flight &&
           (config_.max_items < 0 || items_admitted_ < config_.max_items);
  }

  PipelineConfig config_;
  Rng rng_;
  std::vector<Worker> workers_;
  /// queue_[s]: items waiting to *enter* stage s. queue_[0] is fed by the
  /// admission control (construction and end_tick).
  std::vector<std::deque<int>> queues_;
  std::vector<TimeUs> retired_this_tick_;
  /// advance_quiet() scratch (pre-sized; the span kernel allocates
  /// nothing): per worker executed in the span, its index, its item's
  /// remaining work, and kMaxChunks rows of chunk work per tick class
  /// (full ticks, then short ticks), row j at j * thread_count().
  std::vector<int> span_worker_;
  std::vector<WorkUnits> span_work_;
  std::vector<WorkUnits> span_chunks_;
  std::int64_t items_admitted_ = 0;
  std::int64_t items_retired_ = 0;
  int in_flight_ = 0;
};

}  // namespace hars
