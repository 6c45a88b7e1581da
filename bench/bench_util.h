// Shared helpers for the figure-reproduction bench binaries.
//
// Every table bench accepts an optional `--csv` flag that switches output
// from aligned ASCII tables to RFC-4180 CSV (for plotting scripts), and the
// parallelized benches accept `--threads N` (0 = all hardware threads,
// 1 = serial; output is byte-identical for every value).  All benches
// accept `--telemetry-json <path>` to dump the global telemetry registry
// (counters, gauges, histograms, span tree) as JSON on exit.
#pragma once

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <string_view>

#include "util/json.h"
#include "util/table.h"
#include "util/telemetry.h"

namespace metis::bench {

/// Quoted, escaped JSON string — the same escaper the telemetry export
/// uses (util/json.h), so baseline writers never emit malformed JSON when
/// a policy or network name grows a quote or backslash.
inline std::string json_str(std::string_view s) { return json::escaped(s); }

inline bool csv_mode(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--csv") == 0) return true;
  }
  return false;
}

/// Parses `--threads N` / `--threads=N`; returns 0 (all hardware threads)
/// when absent.  Thread count is a wall-clock knob only — the determinism
/// contract (util/parallel.h) guarantees identical output for every value.
inline int threads_arg(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      return std::atoi(argv[i + 1]);
    }
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      return std::atoi(argv[i] + 10);
    }
  }
  return 0;
}

/// Parses and REMOVES `<flag> <path>` / `<flag>=<path>` from argv; returns
/// the path, or "" when absent.  Removal matters for the google-benchmark
/// drivers, whose Initialize() rejects unknown flags.
inline std::string take_path_arg(int& argc, char** argv, std::string_view flag) {
  std::string path;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == flag && i + 1 < argc) {
      path = argv[++i];
    } else if (arg.size() > flag.size() && arg.starts_with(flag) &&
               arg[flag.size()] == '=') {
      path = arg.substr(flag.size() + 1);
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  argv[argc] = nullptr;
  return path;
}

/// take_path_arg for `--telemetry-json <path>`.
inline std::string take_telemetry_json_arg(int& argc, char** argv) {
  return take_path_arg(argc, argv, "--telemetry-json");
}

/// Writes the global telemetry registry to `path` as JSON.  No-op when
/// `path` is empty.  With METIS_TELEMETRY=OFF this still writes valid JSON
/// ({"telemetry": false}), so plotting scripts never see a missing file.
inline void write_telemetry(const std::string& path) {
  if (path.empty()) return;
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open telemetry output: " + path);
  telemetry::Registry::global().write_json(out);
  out << '\n';
}

/// Prints the table in the selected format.  In CSV mode `title` becomes a
/// comment line so multiple tables in one output stay distinguishable.
inline void emit(const TablePrinter& table, bool csv, const std::string& title) {
  if (csv) {
    if (!title.empty()) std::cout << "# " << title << '\n';
    std::cout << table.to_csv() << '\n';
  } else {
    if (!title.empty()) std::cout << "--- " << title << " ---\n";
    table.print(std::cout);
  }
}

}  // namespace metis::bench
