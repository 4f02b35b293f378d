// perfbench: the repository benchmark.
//
//   perfbench --workload figures|churn|daemon --seed N --seconds S
//             --trace 0|1 [--out DIR]
//
// Untraced (--trace 0) runs print the end-to-end metrics; traced runs
// time every layer from outside through decorators and samplers, write
// their spans to DIR/spans-WORKLOAD.jsonl and print the per-layer
// metrics. Either way the last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}. The exit code
// is 0 only when every output check passed.
#include <sched.h>
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "layers.hpp"
#include "workloads.hpp"

namespace {

int cpu_count() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return 1;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "figures|churn|daemon --seed N --seconds S --trace 0|1 "
               "[--out DIR]\n",
               why);
  std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--out") {
      options.out_dir = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!(options.seconds > 0.0)) usage("--seconds must be positive");
  options.jobs = cpu_count();
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options options = parse(argc, argv);
  perfbench::Result result;
  perfbench::Tracer tracer;
  try {
    perfbench::register_probe_variant();
    if (options.trace) {
      ::mkdir(options.out_dir.c_str(), 0755);
      perfbench::Tracer::install(&tracer);
      perfbench::register_timed_variants();
    }
    if (options.workload == "figures") {
      perfbench::run_figures(options, result);
    } else if (options.workload == "churn") {
      perfbench::run_churn(options, result);
    } else if (options.workload == "daemon") {
      perfbench::run_daemon(options, result);
    } else {
      usage(("unknown workload \"" + options.workload + "\"").c_str());
    }
    if (!options.trace) {
      result.add("peak_rss_mb", perfbench::peak_rss_mb(), "MiB");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  result.print();
  return result.failed() == 0 ? 0 : 1;
}
