#include "meter.hpp"

#include <array>
#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include "layers.hpp"

namespace perfbench {
namespace {

constexpr std::uint64_t kRefIterations = 4000000;

/// The reference loop. Its result feeds an atomic so the work cannot be
/// optimised away.
double reference_loop(std::uint64_t iterations) {
  std::array<std::uint32_t, 4096> table{};
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  double a = 1.0;
  double b = 0.5;
  for (std::uint64_t i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::uint32_t& slot = table[x & 4095];
    if ((x & 0x100) != 0) {
      slot += static_cast<std::uint32_t>(x >> 32);
      a = a * 0.999 + 1e-3;
    } else if ((x & 0x200) != 0) {
      b += std::sqrt(static_cast<double>(slot & 0xffff) + a);
    } else {
      a += b * 1e-9;
    }
  }
  return a + b + table[x & 4095];
}

}  // namespace

double reference_ns_per_iter(int threads) {
  std::atomic<std::int64_t> cpu_ns{0};
  std::atomic<std::uint64_t> sink{0};
  const auto run = [&] {
    const std::int64_t start = thread_cpu_ns();
    const double r = reference_loop(kRefIterations);
    cpu_ns += thread_cpu_ns() - start;
    sink += static_cast<std::uint64_t>(r);
  };
  std::vector<std::thread> pool;
  for (int t = 1; t < threads; ++t) pool.emplace_back(run);
  run();
  for (std::thread& t : pool) t.join();
  return static_cast<double>(cpu_ns.load()) /
         (static_cast<double>(kRefIterations) * std::max(1, threads));
}

void RefMeter::measure(const std::function<std::size_t()>& unit) {
  const std::int64_t start = process_cpu_ns();
  const std::size_t cases = unit();
  const double cpu_ns = static_cast<double>(process_cpu_ns() - start);
  const std::vector<double> ticks = take_tick_samples();
  const double ref = reference_ns_per_iter(threads_);
  ++units_;
  cases_ += cases;
  cpu_ns_ += cpu_ns;
  refs_ += cpu_ns / ref;
  ref_ns_.push_back(ref);
  unit_refs_.push_back(cpu_ns / ref);
  unit_cpu_s_.push_back(cpu_ns / 1e9);
  std::vector<double> scaled = ticks;
  for (double& t : scaled) t /= ref;
  tick_cost_.add(scaled);
  cpu_ns_per_tick_.add(ticks);
}

void RefMeter::measure_setup(const std::function<void()>& step) {
  measure([&] {
    step();
    return std::size_t{0};
  });
}

double RefMeter::case_cost_mrefs() const {
  return refs_ / static_cast<double>(cases_) / 1e6;
}

double RefMeter::cpu_s_per_case() const {
  return cpu_ns_ / static_cast<double>(cases_) / 1e9;
}

void add_setup_time(const RefMeter& meter, Result& result) {
  result.add("setup_s", meter.unit_refs_p50() * kNominalRefSeconds, "s",
             meter.units());
  result.note("setup_cpu_s", meter.unit_cpu_s_p50(), "s", meter.units());
}

void add_case_cost(const RefMeter& meter, Result& result) {
  result.add("case_cost", meter.case_cost_mrefs(), "Mref", meter.cases());
  result.note("cpu_ms_per_case", meter.cpu_s_per_case() * 1e3, "ms",
              meter.cases());
  result.note("ref_ns_per_iter", meter.ref_ns_per_iter(), "ns",
              meter.units());
}

void add_tick_cost(const RefMeter& meter, Result& result) {
  result.add("tick_cost_p50", meter.tick_cost().quantile(0.5), "ref",
             meter.tick_cost().seen());
  result.add("tick_cost_p99", meter.tick_cost().quantile(0.99), "ref",
             meter.tick_cost().seen());
  result.note("cpu_ns_per_tick_p50", meter.cpu_ns_per_tick().quantile(0.5),
              "ns", meter.cpu_ns_per_tick().seen());
  result.note("cpu_ns_per_tick_p99", meter.cpu_ns_per_tick().quantile(0.99),
              "ns", meter.cpu_ns_per_tick().seen());
}

}  // namespace perfbench
