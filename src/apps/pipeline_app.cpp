#include "apps/pipeline_app.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "util/alloc_guard.hpp"

namespace hars {

int PipelineApp::total_threads(const PipelineConfig& config) {
  int n = 0;
  for (const auto& s : config.stages) n += s.threads;
  return n;
}

PipelineApp::PipelineApp(std::string name, const PipelineConfig& config)
    : App(std::move(name), total_threads(config), config.speed,
          config.heartbeat_window),
      config_(config),
      rng_(config.seed) {
  if (config_.stages.empty()) {
    throw std::invalid_argument("PipelineApp requires at least one stage");
  }
  for (int s = 0; s < num_stages(); ++s) {
    for (int t = 0; t < config_.stages[static_cast<std::size_t>(s)].threads; ++t) {
      workers_.push_back(Worker{s, false, 0.0});
    }
  }
  queues_.resize(static_cast<std::size_t>(num_stages()));
  const auto n = static_cast<std::size_t>(thread_count());
  span_worker_.resize(n);
  span_work_.resize(n);
  span_chunks_.resize(2 * kMaxChunks * n);
  admit();
}

int PipelineApp::stage_of_thread(int local_tid) const {
  return workers_[static_cast<std::size_t>(local_tid)].stage;
}

std::vector<int> PipelineApp::thread_group_sizes() const {
  std::vector<int> sizes;
  sizes.reserve(config_.stages.size());
  for (const auto& s : config_.stages) sizes.push_back(s.threads);
  return sizes;
}

bool PipelineApp::try_acquire(Worker& worker) {
  auto& queue = queues_[static_cast<std::size_t>(worker.stage)];
  if (queue.empty()) return false;
  queue.pop_front();
  worker.has_item = true;
  double jitter = 1.0;
  if (config_.work_noise > 0.0) {
    jitter = std::max(0.1, 1.0 + rng_.normal(0.0, config_.work_noise));
  }
  worker.remaining =
      config_.stages[static_cast<std::size_t>(worker.stage)].work_per_item * jitter;
  return true;
}

void PipelineApp::admit() {
  // Queue nodes are workload-model state, not engine mechanics: deque
  // chunk growth is bounded by max_in_flight and declared amortized.
  allocg::AllowScope allow("pipeline admission queue");
  while (admission_open()) {
    queues_.front().push_back(1);
    ++items_admitted_;
    ++in_flight_;
  }
}

bool PipelineApp::runnable(int local_tid) const {
  const Worker& w = workers_[static_cast<std::size_t>(local_tid)];
  if (w.has_item) return true;
  return !queues_[static_cast<std::size_t>(w.stage)].empty();
}

TimeUs PipelineApp::execute(int local_tid, TimeUs share_us, CoreType type,
                            double freq_ghz) {
  Worker& w = workers_[static_cast<std::size_t>(local_tid)];
  const double speed = thread_speed(type, freq_ghz);
  if (speed <= 0.0 || share_us <= 0) return 0;

  TimeUs used = 0;
  while (used < share_us) {
    if (!w.has_item && !try_acquire(w)) break;
    const TimeUs left_us = share_us - used;
    const WorkUnits can_do = speed * us_to_sec(left_us);
    const WorkUnits done = std::min(can_do, w.remaining);
    const TimeUs charged = static_cast<TimeUs>(done / speed * kUsPerSec);
    const WorkUnits rest = w.remaining - done;
    // A chunk charged 0 us that does not hand the item off makes no
    // progress: `used` would stay put while the item is eaten for free.
    if (charged == 0 && rest > 1e-12) break;
    w.remaining = rest;
    used += charged;
    if (w.remaining <= 1e-12) {
      // Item hand-off touches inter-stage queues (workload-model state,
      // amortized by retained deque chunks and vector capacity).
      allocg::AllowScope allow("pipeline item hand-off");
      w.has_item = false;
      const int next_stage = w.stage + 1;
      if (next_stage < num_stages()) {
        queues_[static_cast<std::size_t>(next_stage)].push_back(1);
      } else {
        retired_this_tick_.push_back(0);
        ++items_retired_;
        --in_flight_;
      }
    }
  }
  return used;
}

void PipelineApp::end_tick(TimeUs now) {
  for (std::size_t i = 0; i < retired_this_tick_.size(); ++i) {
    heartbeats().emit(now);
  }
  retired_this_tick_.clear();
  // Items admitted here are first seen by the next tick's runnable() and
  // execute(), the only readers of the queues.
  admit();
}

WorkUnits PipelineApp::ShareChunks::total() const {
  WorkUnits sum = tail;
  for (int j = 0; j < count; ++j) sum += work[static_cast<std::size_t>(j)];
  return sum;
}

bool PipelineApp::ShareChunks::outlasted_by(WorkUnits& work_left) const {
  WorkUnits left = work_left;
  for (int j = 0; j < count; ++j) {
    const WorkUnits rest = left - work[static_cast<std::size_t>(j)];
    if (!(rest > 1e-12)) return false;  // execute() would hand off.
    left = rest;
  }
  if (!(left - tail > 1e-12)) return false;  // The tail would hand off.
  work_left = left;
  return true;
}

PipelineApp::ShareChunks PipelineApp::share_chunks(double speed,
                                                   TimeUs share_us) {
  // execute()'s loop on an item that outlasts the share: done == can_do.
  ShareChunks chunks;
  if (speed <= 0.0 || share_us <= 0) return chunks;  // execute() returns 0.
  while (chunks.used_us < share_us) {
    const WorkUnits can_do = speed * us_to_sec(share_us - chunks.used_us);
    const TimeUs charged = static_cast<TimeUs>(can_do / speed * kUsPerSec);
    if (charged == 0) {
      chunks.tail = can_do;
      break;
    }
    if (chunks.count == kMaxChunks) {
      chunks.valid = false;
      break;
    }
    chunks.work[static_cast<std::size_t>(chunks.count++)] = can_do;
    chunks.used_us += charged;
  }
  return chunks;
}

std::int64_t PipelineApp::quiet_ticks(ThreadGrant* grants,
                                      const bool* short_ticks,
                                      std::int64_t limit) const {
  // end_tick must have nothing to emit or admit.
  if (!retired_this_tick_.empty() || admission_open()) return 0;
  // The engine ran exactly the granted workers last tick. A granted one
  // without an item would acquire (and draw from rng_); an ungranted one
  // must stay unrunnable.
  for (int i = 0; i < thread_count(); ++i) {
    const bool granted = grants[i].share_us > 0;
    if (granted ? !workers_[static_cast<std::size_t>(i)].has_item
                : runnable(i)) {
      return 0;
    }
  }
  for (int i = 0; i < thread_count() && limit > 0; ++i) {
    ThreadGrant& grant = grants[i];
    grant.used_us = 0;
    grant.short_used_us = 0;
    if (grant.share_us <= 0) continue;
    const double speed = thread_speed(grant.type, grant.freq_ghz);
    const ShareChunks full = share_chunks(speed, grant.share_us);
    const ShareChunks part = grant.short_share_us == grant.share_us
                                 ? full
                                 : share_chunks(speed, grant.short_share_us);
    if (!full.valid || !part.valid) return 0;
    grant.used_us = full.used_us;
    grant.short_used_us = part.used_us;
    const WorkUnits per_tick = std::max(full.total(), part.total());
    if (per_tick == 0.0) continue;  // execute() leaves the item alone.
    // Far from the item's end no replay is needed: with at most
    // kMaxChunks subtractions per tick, each rounding by at most 2^-53 of
    // the work, limit < 2^24 and work > (limit + 3) * per_tick, the work
    // left after `limit` ticks exceeds 2.8 * per_tick, so neither a chunk
    // nor the tail (each at most per_tick >= 1e-12) can hand it off.
    // Otherwise replay the chunks in tick order.
    WorkUnits work = workers_[static_cast<std::size_t>(i)].remaining;
    if (limit < (std::int64_t{1} << 24) && per_tick >= 1e-12 &&
        work > static_cast<double>(limit + 3) * per_tick) {
      continue;
    }
    std::int64_t n = 0;
    while (n < limit) {
      const bool short_tick = short_ticks != nullptr && short_ticks[n];
      if (!(short_tick ? part : full).outlasted_by(work)) break;
      ++n;
    }
    limit = n;
  }
  return limit;
}

void PipelineApp::advance_quiet(const ThreadGrant* grants,
                                const bool* short_ticks,
                                std::int64_t ticks) {
  // Each executed worker's item is one subtraction chain, fed each tick
  // its class's chunks in order; rows a worker has no chunk in hold 0.0.
  const auto stride = static_cast<std::size_t>(thread_count());
  WorkUnits* const full_rows = span_chunks_.data();
  WorkUnits* const short_rows = full_rows + kMaxChunks * stride;
  std::size_t n = 0;
  TickOperands full{full_rows, 0};
  TickOperands part{short_rows, 0};
  for (int i = 0; i < thread_count(); ++i) {
    const ThreadGrant& grant = grants[i];
    if (grant.share_us <= 0) continue;
    const double speed = thread_speed(grant.type, grant.freq_ghz);
    const ShareChunks chunks = share_chunks(speed, grant.share_us);
    const ShareChunks short_chunks =
        short_ticks == nullptr || grant.short_share_us == grant.share_us
            ? chunks
            : share_chunks(speed, grant.short_share_us);
    if (chunks.count == 0 && short_chunks.count == 0) continue;
    for (std::size_t j = 0; j < kMaxChunks; ++j) {
      full_rows[j * stride + n] = chunks.work[j];
      short_rows[j * stride + n] = short_chunks.work[j];
    }
    full.rows = std::max(full.rows, chunks.count);
    part.rows = std::max(part.rows, short_chunks.count);
    span_worker_[n] = i;
    span_work_[n] = workers_[static_cast<std::size_t>(i)].remaining;
    ++n;
  }
  subtract_tick_major(span_work_.data(), n, stride, full, part, short_ticks,
                      ticks);
  for (std::size_t m = 0; m < n; ++m) {
    workers_[static_cast<std::size_t>(span_worker_[m])].remaining =
        span_work_[m];
  }
}

bool PipelineApp::finished() const {
  return config_.max_items >= 0 && items_retired_ >= config_.max_items;
}

}  // namespace hars
