// Shared pieces of the benchmark: the command line, wall-clock helpers,
// order statistics, and the result every workload prints.
#pragma once

#include <time.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "sweep/result_sink.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its span file (inside the checkout).
  std::string out_dir = ".bench_out";
  /// Worker threads for parallel phases: the host's CPU count.
  int jobs = 1;
};

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double ms_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e6;
}

inline std::int64_t clock_ns(clockid_t clock) {
  timespec t{};
  clock_gettime(clock, &t);
  return static_cast<std::int64_t>(t.tv_sec) * 1000000000 + t.tv_nsec;
}

/// CPU time used by the calling thread, and by the whole process (every
/// thread, live or ended). Unlike wall time, CPU time does not grow
/// while a thread waits for a CPU (preempted, or its vCPU's time stolen
/// by the hypervisor), so on a shared host it measures the work rather
/// than the host's load. The benchmark's host-cost metrics use it.
inline std::int64_t thread_cpu_ns() {
  return clock_ns(CLOCK_THREAD_CPUTIME_ID);
}
inline std::int64_t process_cpu_ns() {
  return clock_ns(CLOCK_PROCESS_CPUTIME_ID);
}

/// Linear-interpolation quantile (the numpy default); NaN when empty.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
double mean(const std::vector<double>& values);
/// Geometric mean of the positive values; NaN when there are none.
double geomean(const std::vector<double>& values);

/// A uniform sample of at most `capacity` values from a stream (Algorithm
/// R, fixed seed), so the memory a run keeps for its quantiles does not
/// grow with the run's length.
class Reservoir {
 public:
  explicit Reservoir(std::size_t capacity = std::size_t{1} << 18)
      : capacity_(capacity) {}
  void add(const std::vector<double>& values);
  double quantile(double q) const { return perfbench::quantile(kept_, q); }
  /// Values offered so far.
  std::size_t seen() const { return seen_; }

 private:
  std::size_t capacity_;
  std::size_t seen_ = 0;
  std::vector<double> kept_;
  std::mt19937_64 rng_{1};
};

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// One record as one line of text (its cells in order), for
/// byte-identity checks between runs of the same case.
std::string record_text(const hars::Record& record);

/// Number of positions at which two record-text lists differ (a missing
/// line counts as differing).
std::size_t differing_lines(const std::vector<std::string>& a,
                            const std::vector<std::string>& b);

/// Collects the records a sweep emits, and each one as text.
class CaptureSink final : public hars::ResultSink {
 public:
  void write(const hars::Record& record) override;
  std::vector<std::string> lines;
  std::vector<hars::Record> records;
};

/// The benchmark's outcome: the attempted/failed tally, the named
/// metrics with units and sample counts, and the final JSON line.
class Result {
 public:
  void add(std::string name, double value, std::string unit,
           std::size_t samples = 1);
  /// A number for the readable table only, not the JSON result.
  void note(std::string name, double value, std::string unit,
            std::size_t samples = 1);
  void attempt(std::size_t n = 1) { attempted_ += n; }
  /// Counts one failure and keeps its reason for the report.
  void fail(const std::string& why);
  bool has(const std::string& name) const;

  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }

  /// A human-readable table (with sample counts), then the one-line
  /// JSON object that closes the benchmark's standard output.
  void print() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    std::size_t samples;
  };
  std::vector<Metric> metrics_;
  std::vector<Metric> notes_;
  std::vector<std::string> failures_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

}  // namespace perfbench
