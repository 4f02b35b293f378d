// The core.search micro-row: the public Algorithm-2 search
// (get_next_sys_state, and the tabu variant) over a fixed, seeded input
// set with a warm SearchScratch, timed in batches — single calls sit at
// the clock's floor — and checked bit for bit against the retained
// reference implementations.
#include "workloads.hpp"

#include <bit>

#include "core/power_profiler.hpp"
#include "core/search.hpp"
#include "core/tabu_search.hpp"
#include "hmp/platform_registry.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

constexpr int kInputs = 200;
const char* const kPolicies[] = {"incremental", "exhaustive", "tabu"};

struct Input {
  hars::SystemState current;
  hars::PerfTarget target;
  double rate = 0.0;
  int threads = 0;
};

bool same_bits(const hars::SearchResult& a, const hars::SearchResult& b) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  return a.state == b.state && a.candidates == b.candidates &&
         a.moved == b.moved && bits(a.est_perf) == bits(b.est_perf) &&
         bits(a.est_power) == bits(b.est_power) &&
         bits(a.est_pp) == bits(b.est_pp);
}

struct Platform {
  std::string name;
  hars::Machine machine;
  hars::StateSpace space;
  hars::PerfEstimator perf;
  hars::PowerEstimator power;
  std::vector<Input> inputs;
  hars::SearchScratch scratch;

  Platform(const std::string& platform_name, std::uint64_t seed)
      : name(platform_name),
        machine(hars::PlatformRegistry::instance()
                    .get(platform_name)
                    .make_machine()),
        space(hars::StateSpace::from_machine(machine)),
        perf(machine, 1.5),
        power(hars::profile_power(machine, hars::PowerModel{machine})) {
    hars::Rng rng(seed);
    while (inputs.size() < kInputs) {
      const hars::SystemState s{
          rng.uniform_int(0, space.max_big_cores),
          rng.uniform_int(0, space.max_little_cores),
          rng.uniform_int(0, space.num_big_freqs - 1),
          rng.uniform_int(0, space.num_little_freqs - 1)};
      if (!space.valid(s)) continue;
      Input in;
      in.current = s;
      in.target = hars::PerfTarget::around(rng.uniform(0.5, 6.0));
      in.rate = rng.uniform(0.2, 8.0);
      in.threads = rng.uniform_int(2, 16);
      inputs.push_back(in);
    }
  }

  /// One decision with the warm scratch (a fresh memo epoch, as a
  /// manager tick opens).
  hars::SearchResult search(int policy, const Input& in) {
    scratch.begin_tick(space);
    if (policy == 2) {
      return hars::tabu_get_next_sys_state(in.rate, in.current, in.target,
                                           hars::TabuParams{}, space, perf,
                                           power, in.threads, {}, &scratch);
    }
    return hars::get_next_sys_state(in.rate, in.current, in.target,
                                    params(policy, in), space, perf, power,
                                    in.threads, {}, &scratch);
  }

  hars::SearchResult reference(int policy, const Input& in) const {
    if (policy == 2) {
      return hars::tabu_get_next_sys_state_reference(
          in.rate, in.current, in.target, hars::TabuParams{}, space, perf,
          power, in.threads);
    }
    return hars::get_next_sys_state_reference(in.rate, in.current, in.target,
                                              params(policy, in), space, perf,
                                              power, in.threads);
  }

  static hars::SearchParams params(int policy, const Input& in) {
    return hars::params_for_policy(policy == 0
                                       ? hars::SearchPolicy::kIncremental
                                       : hars::SearchPolicy::kExhaustive,
                                   in.rate > in.target.max);
  }
};

}  // namespace

void run_search_row(const Options& options, double budget_s, Result& result) {
  // The estimators hold references into their Platform: no relocation.
  Platform exynos("exynos5422", options.seed * 2 + 1);
  Platform manycore("manycore4x4", options.seed * 2 + 2);
  Platform* const platforms[] = {&exynos, &manycore};

  // Identity: every optimized result against the reference. This pass
  // also warms the scratch tables.
  std::int64_t candidates[2][3] = {};
  for (std::size_t p = 0; p < 2; ++p) {
    for (int policy = 0; policy < 3; ++policy) {
      for (const Input& in : platforms[p]->inputs) {
        result.attempt();
        const hars::SearchResult got = platforms[p]->search(policy, in);
        candidates[p][policy] += got.candidates;
        if (!same_bits(got, platforms[p]->reference(policy, in))) {
          result.fail("search " + platforms[p]->name + " " +
                      kPolicies[policy] + " differs from the reference");
        }
      }
    }
  }

  // Timed rounds: one batch of every (platform, policy) per round.
  std::vector<double> round_ns[2][3];
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(budget_s * 1e9);
  int drift = 0;
  while (now_ns() < deadline || round_ns[0][0].size() < 11) {
    for (std::size_t p = 0; p < 2; ++p) {
      for (int policy = 0; policy < 3; ++policy) {
        std::int64_t sum = 0;
        const std::int64_t start = now_ns();
        for (const Input& in : platforms[p]->inputs) {
          sum += platforms[p]->search(policy, in).candidates;
        }
        round_ns[p][policy].push_back(static_cast<double>(now_ns() - start));
        drift += static_cast<int>(sum != candidates[p][policy]);
      }
    }
  }
  if (drift != 0) result.fail("search candidate counts changed between rounds");

  const std::size_t rounds = round_ns[0][0].size();
  for (int policy = 0; policy < 3; ++policy) {
    std::vector<double> per_candidate;
    std::vector<double> per_decision;
    for (std::size_t r = 0; r < rounds; ++r) {
      const double ns = round_ns[0][policy][r] + round_ns[1][policy][r];
      per_candidate.push_back(
          ns / static_cast<double>(candidates[0][policy] +
                                   candidates[1][policy]));
      per_decision.push_back(ns / (2.0 * kInputs));
    }
    const std::string suffix = kPolicies[policy];
    result.add("core.search.ns_per_candidate." + suffix,
               median(per_candidate), "ns", rounds);
    result.add("core.search.ns_per_decision." + suffix, median(per_decision),
               "ns", rounds);
    for (std::size_t p = 0; p < 2; ++p) {
      std::vector<double> decision;
      for (double ns : round_ns[p][policy]) decision.push_back(ns / kInputs);
      result.add("core.search." + platforms[p]->name + ".ns_per_decision." +
                     suffix,
                 median(decision), "ns", rounds);
      result.add("core.search." + platforms[p]->name +
                     ".candidates_per_decision." + suffix,
                 static_cast<double>(candidates[p][policy]) / kInputs,
                 "count", kInputs);
    }
  }
}

}  // namespace perfbench
