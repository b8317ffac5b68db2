// Shared plumbing of the bds_perf benchmark: clocks, order statistics,
// process accounting, the metric sink and the run configuration.
#pragma once

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perf {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline double seconds_since(Clock::time_point a) {
  return seconds_between(a, Clock::now());
}

// Linear-interpolated quantile q ∈ [0, 1] of `values` (copied, sorted).
// 0 for an empty sample.
inline double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

inline double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

// User + system CPU seconds of this process plus its reaped children.
inline double cpu_seconds() {
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return tv(self.ru_utime) + tv(self.ru_stime) + tv(children.ru_utime) +
         tv(children.ru_stime);
}

// Peak resident set in MiB of this process (who = RUSAGE_SELF) or of the
// largest reaped child (who = RUSAGE_CHILDREN).
inline double peak_rss_mb(int who) {
  rusage usage{};
  getrusage(who, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Metrics in emission order, each with its unit.
class Metrics {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    if (index_.emplace(name, entries_.size()).second) {
      entries_.push_back({name, value, unit});
    } else {
      entries_[index_[name]].value = value;
    }
  }

  bool has(const std::string& name) const { return index_.count(name) != 0; }
  double get(const std::string& name) const {
    return entries_.at(index_.at(name)).value;
  }

  // Human-readable table, one metric per line.
  void print_table() const {
    for (const auto& e : entries_) {
      std::printf("  %-34s %18.9g %s\n", e.name.c_str(), e.value,
                  e.unit.c_str());
    }
  }

  // {"name": {"value": v, "unit": "u"}, ...} with round-trip digits.
  std::string to_json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      char value[64];
      const double v = std::isfinite(entries_[i].value) ? entries_[i].value : 0.0;
      std::snprintf(value, sizeof value, "%.17g", v);
      if (i != 0) out += ", ";
      out += "\"" + entries_[i].name + "\": {\"value\": " + value +
             ", \"unit\": \"" + entries_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
  std::map<std::string, std::size_t> index_;
};

// What one workload run hands back to main: its metrics plus the op and
// correctness ledger behind the result line.
struct Outcome {
  Metrics metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  // exceptions, rejections, correctness mismatches
  bool correct = true;
};

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string worker_binary;  // bds_worker next to bds_perf
  std::string work_dir;       // scratch files (inside the checkout)
};

// Median of `reps` timings of fn(), which returns its own measured seconds.
template <class Fn>
double median_of(std::size_t reps, Fn&& fn) {
  std::vector<double> samples;
  samples.reserve(reps);
  for (std::size_t i = 0; i < reps; ++i) samples.push_back(fn());
  return median(samples);
}

// A file path that is unlinked when the owner goes out of scope.
class TempPath {
 public:
  explicit TempPath(std::string path) : path_(std::move(path)) {}
  ~TempPath() { ::unlink(path_.c_str()); }
  TempPath(const TempPath&) = delete;
  TempPath& operator=(const TempPath&) = delete;
  const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

Outcome run_batch(const RunConfig& config);
Outcome run_churn(const RunConfig& config);

}  // namespace perf
