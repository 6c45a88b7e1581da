// perfbench: runs one benchmark workload and prints its metrics.
//
//   perfbench --workload offline-b4|online-b4|faults-b4 --seed N
//             --seconds S --trace 0|1 --work-dir DIR [--trace-out FILE]
//
// Stdout: '#' header lines describing the build and host, then, as the last
// line, one JSON object {"correct","attempted","failed","metrics"}.  Exits
// non-zero without that line on bad arguments, or when the build is not a
// Release build with telemetry compiled in: such a build is never a result.
// perfbench/run.py builds this binary and calls it; see perfbench/README.md.
#include <charconv>
#include <cstdint>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>

#include "util/args.h"
#include "util/json.h"
#include "util/log.h"
#include "util/telemetry.h"
#include "workloads.h"

namespace {

std::uint64_t parse_seed(const std::string& text) {
  std::uint64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end) {
    throw std::invalid_argument("--seed must be a non-negative integer, got '" +
                                text + "'");
  }
  return value;
}

void print_result(const perfbench::RunReport& report) {
  std::ostream& os = std::cout;
  os << "{\"correct\":" << (report.failed == 0 ? "true" : "false")
     << ",\"attempted\":" << report.attempted << ",\"failed\":" << report.failed
     << ",\"metrics\":{";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const perfbench::Metric& m = report.metrics[i];
    os << (i ? "," : "");
    metis::json::write_escaped(os, m.name);
    os << ":{\"value\":";
    metis::json::write_number(os, m.value);
    os << ",\"unit\":";
    metis::json::write_escaped(os, m.unit);
    os << "}";
  }
  os << "}}" << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  try {
    metis::ArgParser args(argc, argv);
    options.workload = args.get("workload", "");
    options.seed = parse_seed(args.get("seed", "1"));
    options.seconds = args.get_double("seconds", 20);
    const int trace = args.get_int("trace", 0);
    options.work_dir = args.get("work-dir", "");
    options.trace_out = args.get("trace-out", "");
    if (args.help_requested()) {
      std::cout << args.usage("Runs one benchmark workload.");
      return 0;
    }
    args.finish();
    if (trace != 0 && trace != 1) {
      throw std::invalid_argument("--trace must be 0 or 1");
    }
    options.trace = trace == 1;
    if (!(options.seconds > 0)) {
      throw std::invalid_argument("--seconds must be positive");
    }
    if (options.work_dir.empty()) {
      throw std::invalid_argument("--work-dir is required");
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }

  const std::string build = PERFBENCH_BUILD_TYPE;
  const bool telemetry = metis::telemetry::enabled();
  std::cout << "# perfbench workload=" << options.workload
            << " seed=" << options.seed << " seconds=" << options.seconds
            << " trace=" << (options.trace ? 1 : 0) << "\n"
            << "# build=" << build << " compiler=" << PERFBENCH_COMPILER
            << " nproc=" << std::thread::hardware_concurrency()
            << " rounding_threads=" << perfbench::kRoundingThreads
            << " telemetry=" << (telemetry ? "on" : "off") << "\n";
  if (build != "Release" || !telemetry) {
    std::cout << "# NOT A RESULT: the benchmark measures only a Release build "
                 "with telemetry compiled in\n";
    return 3;
  }

  // Repairs under capacity caps log expected infeasible MAA attempts.
  metis::set_log_level(metis::LogLevel::Error);
  try {
    const perfbench::RunReport report = perfbench::run_workload(options);
    for (const std::string& note : report.notes) {
      std::cout << "# " << note << "\n";
    }
    print_result(report);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
