// The benchmark's workloads and the loop that measures them.  See
// perfbench/README.md for why each workload exists and what every metric
// means.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Threads of MAA's best-of-N rounding pool.  Fixed (not "all cores") so a
/// run measures the same work on any host; every workload runs in its own
/// process.  One, not two: on two the timings spread about twice as wide
/// between runs (see perfbench/README.md).
inline constexpr int kRoundingThreads = 1;

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  /// Private scratch directory for checkpoint files (created by the caller).
  std::string work_dir;
  /// Traced run only: file that receives the benchmark spans and the
  /// program's counter/span tree (empty: not written).
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunReport {
  int attempted = 0;
  int failed = 0;
  /// One line each: sample counts, tracing overhead, first failures.
  std::vector<std::string> notes;
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run),
  /// in a fixed order.
  std::vector<Metric> metrics;
};

/// Runs one workload.  Throws std::invalid_argument on an unknown name.
RunReport run_workload(const RunOptions& options);

}  // namespace perfbench
