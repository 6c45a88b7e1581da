// Extension — streaming admission (sim/online.h): profit and decide latency
// as a function of batch size, from pure online admission (batch size 1) to
// the paper's offline regime (one batch covering the whole stream), plus
// the simplex work of each replay: iterations and warm/cold starts.  Warm
// starts happen only within a decide (one run_metis_incremental call,
// BL-SPM re-solves of an unchanged accepted set); every decide's first
// solves start cold, as offline.
//
// The binary doubles as the checkpoint/restore driver (src/persist/):
// `--checkpoint-every N --checkpoint-path P` makes a single replay write
// periodic snapshots, `--resume P` restarts one from a snapshot, and
// `--check-resume` runs the kill-at-every-slot-boundary parity harness —
// resume from each boundary must reproduce the uninterrupted run's profit,
// schedule and decision counters byte for byte (exit 1 on any divergence).
//
//   $ ./bench_online_admission --requests 48 --seed 1 --csv
//   $ ./bench_online_admission --baseline-json ../bench/online_admission_baseline.json
//   $ ./bench_online_admission --check-resume --fault-rate 0.5
#include <exception>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.h"
#include "sim/online.h"
#include "util/args.h"
#include "util/table.h"
#include "util/telemetry.h"

namespace {

struct SweepRow {
  int batch_size = 0;
  metis::sim::OnlineResult result;
};

bool same_lp_stats(const metis::lp::SolveStats& a,
                   const metis::lp::SolveStats& b) {
  // Every field but the wall clock.
  return a.iterations == b.iterations && a.factorizations == b.factorizations &&
         a.presolve_removed_rows == b.presolve_removed_rows &&
         a.presolve_removed_cols == b.presolve_removed_cols &&
         a.warm_starts == b.warm_starts && a.cold_starts == b.cold_starts &&
         a.pricing_passes == b.pricing_passes &&
         a.partial_hits == b.partial_hits &&
         a.full_fallbacks == b.full_fallbacks &&
         a.basis_repairs == b.basis_repairs;
}

/// Every deterministic field of two replays' results; returns the first
/// few mismatch descriptions (empty = byte-identical).
std::vector<std::string> diff_results(const metis::sim::OnlineResult& a,
                                      const metis::sim::OnlineResult& b) {
  std::vector<std::string> diffs;
  const auto check = [&](bool ok, const std::string& what) {
    if (!ok) diffs.push_back(what);
  };
  check(a.total_arrivals == b.total_arrivals, "total_arrivals");
  check(a.total_accepted == b.total_accepted, "total_accepted");
  check(a.profit.revenue == b.profit.revenue, "profit.revenue");
  check(a.profit.cost == b.profit.cost, "profit.cost");
  check(a.profit.profit == b.profit.profit, "profit.profit");
  check(a.refunds == b.refunds, "refunds");
  check(a.net_profit == b.net_profit, "net_profit");
  check(a.schedule.path_choice == b.schedule.path_choice, "schedule");
  check(a.plan.units == b.plan.units, "plan");
  check(same_lp_stats(a.lp_stats, b.lp_stats), "lp_stats");
  check(a.batches.size() == b.batches.size(), "batch count");
  for (std::size_t i = 0;
       i < a.batches.size() && i < b.batches.size() && diffs.size() < 8; ++i) {
    const auto& ba = a.batches[i];
    const auto& bb = b.batches[i];
    check(ba.batch == bb.batch && ba.arrivals == bb.arrivals &&
              ba.flush_time == bb.flush_time && ba.accepted == bb.accepted &&
              ba.profit == bb.profit && same_lp_stats(ba.lp_stats, bb.lp_stats),
          "batch " + std::to_string(i));
  }
  check(a.fault_paths == b.fault_paths, "fault_paths");
  check(a.fault_stats.injected == b.fault_stats.injected &&
            a.fault_stats.repairs == b.fault_stats.repairs &&
            a.fault_stats.dropped == b.fault_stats.dropped &&
            a.fault_stats.rerouted == b.fault_stats.rerouted &&
            a.fault_stats.surge_arrivals == b.fault_stats.surge_arrivals,
        "fault_stats");
  return diffs;
}

/// The registry's decision counters: everything except persist.* (the
/// checkpointing run records extra save/load events by design).
std::vector<std::pair<std::string, std::int64_t>> decision_counters() {
  std::vector<std::pair<std::string, std::int64_t>> out;
  for (const auto& [name, value] :
       metis::telemetry::Registry::global().snapshot().counters) {
    if (name.rfind("persist.", 0) != 0) out.emplace_back(name, value);
  }
  return out;
}

void reset_registry() {
  metis::telemetry::Registry::global().restore(
      metis::telemetry::MetricsSnapshot{});
}

/// Kill/restore parity harness: replays the stream once uninterrupted, once
/// writing a snapshot at every slot boundary, then resumes from each
/// boundary and diffs every deterministic output field plus the decision
/// counters.  Returns the number of diverging boundaries.
int run_resume_parity(metis::sim::OnlineConfig config,
                      const std::string& ckpt_path) {
  using metis::sim::OnlineAdmissionSimulator;
  using metis::sim::OnlineResult;
  config.checkpoint_every = 0;
  config.checkpoint_path.clear();
  config.checkpoint_keep_all = false;
  config.resume_path.clear();

  reset_registry();
  const OnlineResult reference = OnlineAdmissionSimulator(config).run();
  const auto ref_counters = decision_counters();

  metis::sim::OnlineConfig writer = config;
  writer.checkpoint_every = 1;
  writer.checkpoint_path = ckpt_path;
  writer.checkpoint_keep_all = true;
  reset_registry();
  const OnlineResult uninterrupted = OnlineAdmissionSimulator(writer).run();
  int failures = 0;
  {
    const auto diffs = diff_results(reference, uninterrupted);
    const bool counters_ok = decision_counters() == ref_counters;
    if (!diffs.empty() || !counters_ok) {
      ++failures;
      std::cout << "FAIL checkpointing run diverged from plain run:";
      for (const auto& d : diffs) std::cout << ' ' << d;
      if (!counters_ok) std::cout << " decision_counters";
      std::cout << '\n';
    }
  }

  const int num_slots = config.base.instance.num_slots;
  for (int boundary = 1; boundary < num_slots; ++boundary) {
    metis::sim::OnlineConfig resumed = config;
    resumed.resume_path = ckpt_path + ".slot" + std::to_string(boundary);
    reset_registry();
    const OnlineResult result = OnlineAdmissionSimulator(resumed).run();
    const auto diffs = diff_results(reference, result);
    const bool counters_ok = decision_counters() == ref_counters;
    if (diffs.empty() && counters_ok) {
      std::cout << "ok   kill at slot " << boundary << ", resume: identical\n";
    } else {
      ++failures;
      std::cout << "FAIL kill at slot " << boundary << ", resume diverged:";
      for (const auto& d : diffs) std::cout << ' ' << d;
      if (!counters_ok) std::cout << " decision_counters";
      std::cout << '\n';
    }
  }
  return failures;
}

void write_baseline_json(const std::string& path,
                         const metis::sim::OnlineConfig& config,
                         const metis::core::MetisResult& offline,
                         int stream_len, const std::vector<SweepRow>& rows) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot open baseline output: " + path);
  os << std::setprecision(15);
  os << "{\n";
  os << "  \"scenario\": {\"network\": "
     << metis::bench::json_str(to_string(config.base.network))
     << ", \"expected_requests\": " << config.base.num_requests
     << ", \"arrivals\": " << stream_len
     << ", \"seed\": " << config.base.seed << "},\n";
  os << "  \"offline\": {\"profit\": " << offline.best.profit
     << ", \"accepted\": " << offline.best.accepted
     << ", \"simplex_iterations\": " << offline.lp_stats.iterations << "},\n";
  os << "  \"sweep\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const metis::sim::OnlineResult& r = rows[i].result;
    const double ratio =
        offline.best.profit != 0 ? r.profit.profit / offline.best.profit : 0.0;
    os << "    {\"batch_size\": " << rows[i].batch_size
       << ", \"batches\": " << r.batches.size()
       << ", \"profit\": " << r.profit.profit
       << ", \"profit_ratio_vs_offline\": " << ratio
       << ", \"accepted\": " << r.total_accepted << ",\n";
    os << "     \"lp\": {\"simplex_iterations\": " << r.lp_stats.iterations
       << ", \"warm_starts\": " << r.lp_stats.warm_starts
       << ", \"cold_starts\": " << r.lp_stats.cold_starts << "},\n";
    os << "     \"per_batch\": [";
    for (std::size_t b = 0; b < r.batches.size(); ++b) {
      if (b > 0) os << ", ";
      os << "{\"arrivals\": " << r.batches[b].arrivals
         << ", \"iterations\": " << r.batches[b].lp_stats.iterations << "}";
    }
    os << "]}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace metis;
  ArgParser args(argc, argv);
  const bool csv = args.get_bool("csv", false);
  const std::string telemetry_path = args.get("telemetry-json", "");
  const std::string baseline_path = args.get("baseline-json", "");
  sim::OnlineConfig config;
  config.base.network = sim::Network::B4;
  config.base.num_requests = args.get_int("requests", 48);
  config.base.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  config.metis.maa.threads = args.get_int("threads", 0);
  config.faults.rate = args.get_double("fault-rate", 0);
  const int flag_batch_size = args.get_int("batch-size", 8);
  config.checkpoint_every = args.get_int("checkpoint-every", 0);
  config.checkpoint_path = args.get("checkpoint-path", "");
  config.resume_path = args.get("resume", "");
  const bool check_resume = args.get_bool("check-resume", false);
  const std::string parity_path =
      args.get("check-resume-path", "online_parity.ckpt");
  if (args.help_requested()) {
    std::cout << args.usage(
        "bench_online_admission: batch-size sweep of the streaming "
        "admission pipeline vs the offline oracle; also the "
        "checkpoint/restore driver (--checkpoint-every/--checkpoint-path/"
        "--resume run a single replay; --check-resume runs the "
        "kill-at-every-boundary parity harness)");
    return 0;
  }
  args.finish();

  if (check_resume) {
    config.batch_size = flag_batch_size;
    std::cout << "=== checkpoint/restore parity: "
              << to_string(config.base.network) << ", seed "
              << config.base.seed << ", batch size " << config.batch_size
              << ", fault rate " << config.faults.rate << " ===\n";
    int failures = 0;
    try {
      failures = run_resume_parity(config, parity_path);
    } catch (const std::exception& e) {
      // The parity checkpoints could not be written or read back.
      std::cerr << "error: " << e.what() << '\n';
      return 1;
    }
    if (failures > 0) {
      std::cout << failures << " diverging boundaries\n";
      return 1;
    }
    std::cout << "all boundaries resume byte-identically\n";
    bench::write_telemetry(telemetry_path);
    return 0;
  }

  if (config.checkpoint_every > 0 || !config.resume_path.empty()) {
    // Operational single-replay mode: one configured replay, with periodic
    // snapshots and/or resumed from one.  The sweep is skipped — its rows
    // would each overwrite the other's checkpoint file.
    config.batch_size = flag_batch_size;
    const sim::OnlineAdmissionSimulator simulator(config);
    sim::OnlineResult result;
    try {
      result = simulator.run();
    } catch (const std::exception& e) {
      // A --resume file that cannot be read, was taken under another
      // configuration or does not restore, or a snapshot that cannot be
      // written, ends the run with a message instead of an abort.
      std::cerr << "error: " << e.what() << '\n';
      return 1;
    }
    std::cout << "=== online replay ("
              << (config.resume_path.empty()
                      ? "from the start"
                      : "resumed from " + config.resume_path)
              << ") ===\n"
              << "batches " << result.batches.size() << ", accepted "
              << result.total_accepted << "/" << result.total_arrivals
              << ", net profit " << result.net_profit << ", refunds "
              << result.refunds << "\n";
    bench::write_telemetry(telemetry_path);
    return 0;
  }

  const sim::OnlineAdmissionSimulator probe(config);
  const int stream_len = static_cast<int>(probe.arrivals().size());
  const core::MetisResult offline = probe.offline_oracle();
  std::cout << "=== Extension: online admission on "
            << to_string(config.base.network) << ", " << stream_len
            << " arrivals (seed " << config.base.seed << ") ===\n"
            << "offline oracle: profit " << offline.best.profit << ", "
            << offline.best.accepted << " accepted, "
            << offline.lp_stats.iterations << " simplex iterations\n\n";

  std::vector<int> batch_sizes;
  for (int b : {1, 2, 4, 8, 16, 32}) {
    if (b < stream_len) batch_sizes.push_back(b);
  }
  batch_sizes.push_back(std::max(1, stream_len));  // the offline regime

  std::vector<SweepRow> rows;
  for (int batch_size : batch_sizes) {
    config.batch_size = batch_size;
    rows.push_back({batch_size, sim::OnlineAdmissionSimulator(config).run()});
  }

  TablePrinter table({"batch", "batches", "profit", "vs offline", "accepted",
                      "iterations", "warm starts", "cold starts",
                      "avg decide ms"});
  for (const SweepRow& row : rows) {
    const sim::OnlineResult& r = row.result;
    double decide_ms = 0;
    for (const auto& b : r.batches) decide_ms += b.decide_ms;
    if (!r.batches.empty()) decide_ms /= r.batches.size();
    table.add_row(
        {static_cast<long long>(row.batch_size),
         static_cast<long long>(r.batches.size()), r.profit.profit,
         offline.best.profit != 0 ? r.profit.profit / offline.best.profit
                                  : 0.0,
         static_cast<long long>(r.total_accepted),
         static_cast<long long>(r.lp_stats.iterations),
         static_cast<long long>(r.lp_stats.warm_starts),
         static_cast<long long>(r.lp_stats.cold_starts), decide_ms});
  }
  bench::emit(table, csv, "profit and LP work vs batch size");

  if (!baseline_path.empty()) {
    write_baseline_json(baseline_path, config, offline, stream_len, rows);
    std::cout << "baseline written to " << baseline_path << '\n';
  }
  bench::write_telemetry(telemetry_path);
  return 0;
}
