#include "hmp/power_sensor.hpp"

#include <algorithm>
#include <cassert>

#include "util/alloc_guard.hpp"
#include "util/hot_path.hpp"

namespace hars {

PowerSensor::PowerSensor(const Machine& machine, const PowerModel& model,
                         TimeUs sample_period_us, double noise_stddev,
                         std::uint64_t seed)
    : machine_(&machine),
      model_(&model),
      sample_period_us_(sample_period_us),
      noise_stddev_(noise_stddev),
      rng_(seed),
      cluster_energy_j_(static_cast<std::size_t>(machine.num_clusters()), 0.0),
      scratch_watts_(static_cast<std::size_t>(machine.num_clusters()), 0.0),
      span_energy_j_(static_cast<std::size_t>(machine.num_clusters()) + 1, 0.0),
      span_joules_(static_cast<std::size_t>(machine.num_clusters()) + 1, 0.0),
      span_short_joules_(static_cast<std::size_t>(machine.num_clusters()) + 1,
                         0.0),
      next_sample_at_(sample_period_us) {
  assert(sample_period_us > 0);
}

void PowerSensor::tick(TimeUs now, TimeUs tick_us,
                       const std::vector<double>& core_busy) {
  const double dt_sec = us_to_sec(tick_us);
  std::vector<double> cluster_watts(
      static_cast<std::size_t>(machine_->num_clusters()), 0.0);
  double total = 0.0;
  for (int c = 0; c < machine_->num_clusters(); ++c) {
    double busy_sum = 0.0;
    const CpuMask mask = machine_->cluster_mask(c);
    for (CoreId core = mask.first(); core >= 0; core = mask.next(core)) {
      busy_sum += core_busy[static_cast<std::size_t>(core)];
    }
    const double watts = model_->cluster_power(c, busy_sum);
    cluster_watts[static_cast<std::size_t>(c)] = watts;
    cluster_energy_j_[static_cast<std::size_t>(c)] += watts * dt_sec;
    total += watts;
  }
  base_energy_j_ += model_->base_watts() * dt_sec;
  total += model_->base_watts();
  last_instant_power_ = total;

  maybe_sample(now, cluster_watts);
}

HARS_HOT void PowerSensor::tick_presummed(TimeUs now, TimeUs tick_us,
                                 const std::vector<double>& cluster_busy,
                                 const std::vector<double>& cluster_freq,
                                 const std::vector<char>& cluster_online) {
  integrate_span(1, tick_us, cluster_busy, cluster_freq, cluster_online);
  maybe_sample(now, scratch_watts_);
}

HARS_HOT void PowerSensor::integrate_span(
    std::int64_t ticks, TimeUs tick_us, const std::vector<double>& cluster_busy,
    const std::vector<double>& cluster_freq,
    const std::vector<char>& cluster_online, const bool* short_ticks,
    const std::vector<double>* short_busy) {
  const double dt_sec = us_to_sec(tick_us);
  // The last tick's class sets the instantaneous power and sample watts.
  const bool last_short = short_ticks != nullptr && short_ticks[ticks - 1];
  const std::size_t n = cluster_energy_j_.size();
  double total = 0.0;
  double short_total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const auto c = static_cast<ClusterId>(i);
    const double watts = model_->cluster_power_given(
        c, cluster_freq[i], cluster_online[i] != 0, cluster_busy[i]);
    const double joules = watts * dt_sec;
    double short_watts = watts;
    double short_joules = joules;
    if (short_ticks != nullptr && (*short_busy)[i] != cluster_busy[i]) {
      short_watts = model_->cluster_power_given(
          c, cluster_freq[i], cluster_online[i] != 0, (*short_busy)[i]);
      short_joules = short_watts * dt_sec;
    }
    total += watts;
    short_total += short_watts;
    scratch_watts_[i] = last_short ? short_watts : watts;
    if (ticks == 1) {
      cluster_energy_j_[i] += last_short ? short_joules : joules;
      continue;
    }
    span_energy_j_[i] = cluster_energy_j_[i];
    span_joules_[i] = joules;
    span_short_joules_[i] = short_joules;
  }
  const double base_joules = model_->base_watts() * dt_sec;
  total += model_->base_watts();
  short_total += model_->base_watts();
  last_instant_power_ = last_short ? short_total : total;
  if (ticks == 1) {
    base_energy_j_ += base_joules;
    return;
  }
  // Tick-major over the clusters' and the base draw's energy chains: they
  // overlap and the inner loop vectorises, and each chain still adds its
  // tick's joules once per tick, in tick order.
  span_energy_j_[n] = base_energy_j_;
  span_joules_[n] = base_joules;
  span_short_joules_[n] = base_joules;
  double* const acc = span_energy_j_.data();
  for (std::int64_t k = 0; k < ticks; ++k) {
    const double* const joules = short_ticks != nullptr && short_ticks[k]
                                     ? span_short_joules_.data()
                                     : span_joules_.data();
    for (std::size_t i = 0; i <= n; ++i) acc[i] += joules[i];
  }
  std::copy(acc, acc + n, cluster_energy_j_.begin());
  base_energy_j_ = acc[n];
}

void PowerSensor::maybe_sample(TimeUs now,
                               const std::vector<double>& cluster_watts) {
  if (now < next_sample_at_) return;
  // Sample capture happens once per sampling period (~every 264 default
  // ticks) and retains history by design: a declared amortized allocator.
  allocg::AllowScope allow("power-sensor sample capture");
  PowerSample sample;
  sample.time = now;
  sample.cluster_watts.reserve(cluster_watts.size());
  double noisy_total = 0.0;
  for (double w : cluster_watts) {
    const double noisy = w * (1.0 + rng_.normal(0.0, noise_stddev_));
    sample.cluster_watts.push_back(noisy);
    noisy_total += noisy;
  }
  sample.total_watts = noisy_total;
  samples_.push_back(std::move(sample));
  next_sample_at_ += sample_period_us_;
}

double PowerSensor::cluster_energy_j(ClusterId cluster) const {
  return cluster_energy_j_[static_cast<std::size_t>(cluster)];
}

double PowerSensor::total_energy_j() const {
  double total = base_energy_j_;
  for (double e : cluster_energy_j_) total += e;
  return total;
}

double PowerSensor::average_power_w(TimeUs elapsed_us) const {
  if (elapsed_us <= 0) return 0.0;
  return total_energy_j() / us_to_sec(elapsed_us);
}

void PowerSensor::reset() {
  for (double& e : cluster_energy_j_) e = 0.0;
  base_energy_j_ = 0.0;
  samples_.clear();
  next_sample_at_ = sample_period_us_;
  last_instant_power_ = 0.0;
}

}  // namespace hars
