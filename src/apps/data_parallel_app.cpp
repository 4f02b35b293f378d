#include "apps/data_parallel_app.hpp"

#include <algorithm>
#include <cassert>

namespace hars {

DataParallelApp::DataParallelApp(std::string name, const DataParallelConfig& config)
    : App(std::move(name), config.threads, config.speed, config.heartbeat_window),
      config_(config),
      workload_(config.workload, Rng(config.seed)),
      rng_(Rng(config.seed).fork(0xDA7A)),
      remaining_(static_cast<std::size_t>(config.threads), 0.0),
      span_thread_(static_cast<std::size_t>(config.threads), 0),
      span_work_(static_cast<std::size_t>(config.threads), 0.0),
      span_full_(static_cast<std::size_t>(config.threads), 0.0),
      span_short_(static_cast<std::size_t>(config.threads), 0.0),
      warmup_remaining_(config.warmup_work) {
  if (warmup_remaining_ <= 0.0) start_iteration();
}

void DataParallelApp::start_iteration() {
  if (config_.max_iterations >= 0 && iteration_ >= config_.max_iterations) {
    iteration_open_ = false;
    return;
  }
  const WorkUnits total = workload_.next(iteration_);
  const WorkUnits equal_share = total / config_.threads;
  open_threads_ = 0;
  for (auto& r : remaining_) {
    double jitter = 1.0;
    if (config_.imbalance > 0.0) {
      jitter = std::max(0.1, 1.0 + rng_.normal(0.0, config_.imbalance));
    }
    r = equal_share * jitter;
    if (r > 0.0) ++open_threads_;
  }
  iteration_open_ = true;
}

bool DataParallelApp::runnable(int local_tid) const {
  if (warmup_remaining_ > 0.0) return local_tid == 0;  // Serial input phase.
  if (!iteration_open_) return false;
  return remaining_[static_cast<std::size_t>(local_tid)] > 0.0;
}

void DataParallelApp::refresh_runnable(bool* out) const {
  // One virtual dispatch answers for all threads (engine hot path);
  // flag i equals runnable(i) exactly.
  if (warmup_remaining_ > 0.0) {
    out[0] = true;  // Serial input phase.
    std::fill(out + 1, out + thread_count(), false);
    return;
  }
  if (!iteration_open_) {
    std::fill(out, out + thread_count(), false);
    return;
  }
  for (std::size_t i = 0; i < remaining_.size(); ++i) out[i] = remaining_[i] > 0.0;
}

TimeUs DataParallelApp::execute(int local_tid, TimeUs share_us, CoreType type,
                                double freq_ghz) {
  const double speed = thread_speed(type, freq_ghz);  // work-units / sec
  if (speed <= 0.0 || share_us <= 0) return 0;

  // us_to_sec is a genuine FP division; the share repeats across the
  // threads of a tick (equal per-core shares), so one cached conversion
  // serves the whole barrier. Bit-identical: the cached value is the
  // division's result.
  if (share_us != cached_share_us_) {
    cached_share_us_ = share_us;
    cached_share_sec_ = us_to_sec(share_us);
    cached_speed_ = -1.0;  // cached_used_ depends on the share too.
  }

  if (warmup_remaining_ > 0.0) {
    assert(local_tid == 0);
    const WorkUnits can_do = speed * cached_share_sec_;
    const WorkUnits done = std::min(can_do, warmup_remaining_);
    warmup_remaining_ -= done;
    return static_cast<TimeUs>(done / speed * kUsPerSec);
  }

  WorkUnits& rem = remaining_[static_cast<std::size_t>(local_tid)];
  if (rem <= 0.0) return 0;
  const WorkUnits can_do = speed * cached_share_sec_;
  if (rem > can_do) {
    // Full-share case (the bulk of a barrier's ticks): done == can_do, so
    // the used-time division has the same operands for every thread at
    // this (speed, share) — cache its result.
    rem -= can_do;
    if (speed != cached_speed_) {
      cached_speed_ = speed;
      cached_used_ = static_cast<TimeUs>(can_do / speed * kUsPerSec);
    }
    return cached_used_;
  }
  const WorkUnits done = rem;  // == std::min(can_do, rem) with rem <= can_do.
  rem = 0.0;
  --open_threads_;  // Thread reached the barrier.
  return static_cast<TimeUs>(done / speed * kUsPerSec);
}

void DataParallelApp::end_tick(TimeUs now) {
  if (warmup_remaining_ > 0.0) return;
  if (warmup_remaining_ <= 0.0 && !iteration_open_ && iteration_ == 0 &&
      config_.warmup_work > 0.0) {
    // Warm-up finished this tick; open the first iteration.
    start_iteration();
    return;
  }
  if (!iteration_open_) return;
  // open_threads_ counts remaining_ entries > 0 (maintained by execute),
  // so the barrier check is O(1) instead of a scan.
  if (open_threads_ > 0) return;  // Barrier not yet reached.
  heartbeats().emit(now);
  ++iteration_;
  start_iteration();
}

WorkUnits* DataParallelApp::pending_work(int i) {
  if (warmup_remaining_ > 0.0) return i == 0 ? &warmup_remaining_ : nullptr;
  WorkUnits& rem = remaining_[static_cast<std::size_t>(i)];
  return iteration_open_ && rem > 0.0 ? &rem : nullptr;
}

WorkUnits DataParallelApp::share_work(const ThreadGrant& grant,
                                      TimeUs share_us) const {
  const double speed = thread_speed(grant.type, grant.freq_ghz);
  if (speed <= 0.0 || share_us <= 0) return 0.0;
  return speed * us_to_sec(share_us);  // execute()'s can_do.
}

std::int64_t DataParallelApp::quiet_ticks(ThreadGrant* grants,
                                          const bool* short_ticks,
                                          std::int64_t limit) const {
  // A reached barrier or a closed iteration gives end_tick work to do.
  if (warmup_remaining_ <= 0.0 && (!iteration_open_ || open_threads_ == 0)) {
    return 0;
  }
  // The engine ran exactly the granted threads last tick; a thread that
  // finished its share (or one that has work but no grant) flips.
  for (int i = 0; i < thread_count(); ++i) {
    if ((grants[i].share_us > 0) != (pending_work(i) != nullptr)) return 0;
  }
  for (int i = 0; i < thread_count() && limit > 0; ++i) {
    ThreadGrant& grant = grants[i];
    grant.used_us = 0;
    grant.short_used_us = 0;
    const WorkUnits can_do = share_work(grant, grant.share_us);
    if (can_do <= 0.0) continue;  // Not run, or execute() returns 0.
    const double speed = thread_speed(grant.type, grant.freq_ghz);
    grant.used_us = static_cast<TimeUs>(can_do / speed * kUsPerSec);
    // Only the manager core's threads see a different share on short ticks.
    WorkUnits short_can_do = can_do;
    grant.short_used_us = grant.used_us;
    if (grant.short_share_us != grant.share_us) {
      short_can_do = share_work(grant, grant.short_share_us);
      grant.short_used_us =
          static_cast<TimeUs>(short_can_do / speed * kUsPerSec);
    }
    // A tick is quiet while the work outlasts that tick's share
    // (execute()'s full-share branch). Far from that point no replay is
    // needed: each subtraction rounds by at most 2^-53 of the work, so
    // with limit < 2^24 and work > (limit + 3) * (the larger can_do) the
    // work provably stays above either can_do for `limit` ticks.
    // Otherwise replay the subtractions in tick order.
    WorkUnits work = *pending_work(i);
    if (limit < (std::int64_t{1} << 24) &&
        work > static_cast<double>(limit + 3) * std::max(can_do, short_can_do)) {
      continue;
    }
    std::int64_t n = 0;
    while (n < limit) {
      const WorkUnits c =
          short_ticks != nullptr && short_ticks[n] ? short_can_do : can_do;
      if (!(work > c)) break;
      work -= c;
      ++n;
    }
    limit = n;
  }
  return limit;
}

void DataParallelApp::advance_quiet(const ThreadGrant* grants,
                                    const bool* short_ticks,
                                    std::int64_t ticks) {
  // Each executed thread's pending work is one subtraction chain. The
  // manager core's threads retire the smaller share on short ticks (0
  // when execute() is not called; subtracting 0.0 is the identity).
  std::size_t n = 0;
  for (int i = 0; i < thread_count(); ++i) {
    const ThreadGrant& grant = grants[i];
    const WorkUnits* pending = pending_work(i);
    const WorkUnits can_do = share_work(grant, grant.share_us);
    if (pending == nullptr || can_do <= 0.0) continue;
    span_thread_[n] = i;
    span_work_[n] = *pending;
    span_full_[n] = can_do;
    span_short_[n] = grant.short_share_us == grant.share_us
                         ? can_do
                         : share_work(grant, grant.short_share_us);
    ++n;
  }
  subtract_tick_major(span_work_.data(), n, n, {span_full_.data(), 1},
                      {span_short_.data(), 1}, short_ticks, ticks);
  for (std::size_t m = 0; m < n; ++m) {
    *pending_work(span_thread_[m]) = span_work_[m];
  }
}

bool DataParallelApp::finished() const {
  return config_.max_iterations >= 0 && iteration_ >= config_.max_iterations &&
         !iteration_open_;
}

}  // namespace hars
