// Tracing for the benchmark's traced run (--trace 1).
//
// Two sources, kept apart:
//   * Tracer — the benchmark's own spans, opened around each public call it
//     makes into a layer (run_metis, OnlineAdmissionSimulator::run,
//     persist::save, the per-layer probe calls).  Kept in memory, written
//     out once when the run ends.
//   * LayerTotals — the counters and span aggregates the program itself
//     records in telemetry::Registry::global(), summed over the workload
//     units of one pass.  Self time (a span path's total minus its direct
//     children's totals) is computed here from the exported tree; the
//     registry stores only totals.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/telemetry.h"

namespace perfbench {

class Tracer {
 public:
  /// A disabled tracer records nothing; its spans cost one branch.
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// RAII span: nests under the innermost open span of this tracer.
  class Span {
   public:
    Span(Tracer* tracer, std::string_view name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    int index_ = -1;
  };

  Span span(std::string_view name) {
    return Span(enabled_ ? this : nullptr, name);
  }
  bool enabled() const { return enabled_; }

  /// {"spans":[{"id","parent","name","start_ms","dur_ms","self_ms"}...]}
  /// in open order; self_ms is the duration minus the direct children's.
  void write_json(std::ostream& os) const;

 private:
  struct Record {
    std::string name;
    int parent = -1;
    double start_s = 0;
    double end_s = 0;
  };
  bool enabled_;
  metis::telemetry::Stopwatch clock_;
  std::vector<Record> records_;
  int open_ = -1;  ///< innermost open span, -1 at the root
};

/// Registry counters and span aggregates summed over several snapshots.
class LayerTotals {
 public:
  void add(const metis::telemetry::MetricsSnapshot& snap);

  std::int64_t counter(std::string_view name) const;
  /// Sum of the totals (seconds) of every span path whose last component
  /// is `leaf` ("lp_solve" matches "metis/maa/lp_solve" and
  /// "online.run/online.batch/metis/taa/lp_solve").
  double total_of(std::string_view leaf) const;
  /// As total_of, but each path's self time: its total minus the totals of
  /// its direct children.
  double self_of(std::string_view leaf) const;

  /// {"counters":{...},"spans":[{"path","count","total_ms","self_ms"}...]}
  void write_json(std::ostream& os) const;

 private:
  struct SpanSum {
    std::uint64_t count = 0;
    double total_s = 0;
  };
  double self_seconds(const std::string& path, const SpanSum& sum) const;

  std::map<std::string, std::int64_t, std::less<>> counters_;
  std::map<std::string, SpanSum, std::less<>> spans_;
};

}  // namespace perfbench
