// Shared helpers of the prany_bench binary: clocks, sample statistics,
// the named-metric list and its JSON rendering, process resource usage,
// host metadata and the private tmpfs the shm workloads write their WALs
// to.

#ifndef PRANY_BENCH_BENCH_UTIL_H_
#define PRANY_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace prany {
namespace bench {

using Clock = std::chrono::steady_clock;

inline double MicrosBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

inline double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Quantile `q` in [0, 1] by linear interpolation between closest ranks
/// (numpy's default). Sorts `values` in place; 0 for an empty sample.
double Quantile(std::vector<double>* values, double q);

/// Arithmetic mean; 0 for an empty sample.
double Mean(const std::vector<double>& values);

/// Median of a copy of `values`.
double Median(std::vector<double> values);

/// One measured value with its name and unit.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// An ordered list of metrics; names are unique.
class MetricList {
 public:
  void Add(const std::string& name, const std::string& unit, double value);
  const std::vector<Metric>& items() const { return items_; }
  /// The metric called `name`, or null.
  const Metric* Find(const std::string& name) const;
  /// `{"name": {"value": v, "unit": "u"}, ...}`.
  std::string ToJson() const;

 private:
  std::vector<Metric> items_;
};

/// A JSON number with every digit of the double (shortest round-trip
/// form); non-finite values become null.
std::string JsonNumber(double value);
/// A quoted, escaped JSON string.
std::string JsonString(const std::string& text);

/// User and system CPU time, microseconds.
struct CpuTimes {
  double user_us = 0.0;
  double sys_us = 0.0;
  double total_us() const { return user_us + sys_us; }
};
/// getrusage(RUSAGE_SELF).
CpuTimes ProcessCpu();
/// getrusage(RUSAGE_THREAD) of the calling thread.
CpuTimes ThreadCpu();

/// Resident set size of this process, bytes (from /proc/self/statm).
int64_t ResidentBytes();

/// statfs type of `dir` as a name ("tmpfs", "ext4", ...; hex if unknown).
std::string FilesystemType(const std::string& dir);
bool IsTmpfs(const std::string& dir);

/// Mounts a fresh tmpfs on `dir` in a private mount namespace, so the
/// mount is visible only to this process and vanishes when it exits.
/// Must be called while the process is still single-threaded. Tries a
/// plain mount namespace first and an unprivileged user namespace next.
Status MountPrivateTmpfs(const std::string& dir);

/// Host facts recorded with every result.
struct HostInfo {
  long nproc = 0;
  std::string cpu_model;
  std::string kernel;
  /// fdatasync latency of the disk WAL directory: 1000 appends of 64
  /// bytes, each followed by fdatasync.
  double disk_fdatasync_us_p50 = 0.0;
  double disk_fdatasync_us_p99 = 0.0;
};
HostInfo CollectHostInfo(const std::string& disk_dir);

}  // namespace bench
}  // namespace prany

#endif  // PRANY_BENCH_BENCH_UTIL_H_
