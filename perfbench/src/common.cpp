#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <iostream>

#include "util/json.hpp"

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return std::nan("");
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double geomean(const std::vector<double>& values) {
  double log_sum = 0.0;
  std::size_t n = 0;
  for (double v : values) {
    if (!(v > 0.0) || !std::isfinite(v)) continue;
    log_sum += std::log(v);
    ++n;
  }
  return n == 0 ? std::nan("") : std::exp(log_sum / static_cast<double>(n));
}

void Reservoir::add(const std::vector<double>& values) {
  for (double v : values) {
    ++seen_;
    if (kept_.size() < capacity_) {
      kept_.push_back(v);
      continue;
    }
    const std::size_t slot = std::uniform_int_distribution<std::size_t>(
        0, seen_ - 1)(rng_);
    if (slot < capacity_) kept_[slot] = v;
  }
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

std::string record_text(const hars::Record& record) {
  std::string line;
  char bits[24];
  for (const hars::RecordCell& cell : record.cells()) {
    line += cell.key;
    line += '=';
    line += cell.text;
    if (cell.numeric) {
      // The exact bit pattern too: a formatted cell can hide a last-ulp
      // difference.
      std::snprintf(bits, sizeof(bits), "#%016llx",
                    static_cast<unsigned long long>(
                        std::bit_cast<std::uint64_t>(cell.number)));
      line += bits;
    }
    line += '\t';
  }
  return line;
}

std::size_t differing_lines(const std::vector<std::string>& a,
                            const std::vector<std::string>& b) {
  std::size_t differing = 0;
  for (std::size_t i = 0; i < std::max(a.size(), b.size()); ++i) {
    if (i >= a.size() || i >= b.size() || a[i] != b[i]) ++differing;
  }
  return differing;
}

void CaptureSink::write(const hars::Record& record) {
  lines.push_back(record_text(record));
  records.push_back(record);
}

void Result::add(std::string name, double value, std::string unit,
                 std::size_t samples) {
  if (!std::isfinite(value)) fail(name + " is not a finite number");
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m = Metric{std::move(name), value, std::move(unit), samples};
      return;
    }
  }
  metrics_.push_back(Metric{std::move(name), value, std::move(unit), samples});
}

void Result::note(std::string name, double value, std::string unit,
                  std::size_t samples) {
  notes_.push_back(Metric{std::move(name), value, std::move(unit), samples});
}

void Result::fail(const std::string& why) {
  ++failed_;
  if (failures_.size() < 20) failures_.push_back(why);
}

bool Result::has(const std::string& name) const {
  return std::any_of(metrics_.begin(), metrics_.end(),
                     [&](const Metric& m) { return m.name == name; });
}

void Result::print() const {
  for (const std::string& why : failures_) {
    std::cout << "FAILED: " << why << "\n";
  }
  for (const Metric& m : metrics_) {
    std::printf("%-44s %16.6f %-10s n=%zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  for (const Metric& m : notes_) {
    std::printf("(%s %16.6f %s n=%zu)\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
  hars::json::Writer w;
  w.begin_object();
  w.key("correct").value(failed_ == 0);
  w.key("attempted").value(static_cast<std::uint64_t>(attempted_));
  w.key("failed").value(static_cast<std::uint64_t>(failed_));
  w.key("metrics").begin_object();
  for (const Metric& m : metrics_) {
    w.key(m.name).begin_object();
    w.key("value").value(std::isfinite(m.value) ? m.value : 0.0);
    w.key("unit").value(m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::cout.flush();
  std::printf("%s\n", w.str().c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
