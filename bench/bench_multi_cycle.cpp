// Extension — long-run operation: cumulative profit over consecutive
// billing cycles with compounding demand growth (BillingCycleSimulator).
// The paper decides one cycle in isolation; this table shows how its
// per-cycle gaps (Fig. 3/5) compound over a year of operation.
//
// Checkpointing (src/persist/): `--checkpoint-every N --checkpoint-path P`
// snapshots the finished cycle grid after every N cycles; `--resume P`
// restarts from a snapshot and replays only the remaining cycles, with
// totals byte-identical to the uninterrupted run.
#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "sim/simulator.h"
#include "bench_util.h"
#include "util/args.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace metis;
  ArgParser args(argc, argv);
  const bool csv = args.get_bool("csv", false);
  const std::string telemetry_path = args.get("telemetry-json", "");
  sim::SimulationConfig config;
  config.base.network = sim::Network::B4;
  config.base.num_requests = args.get_int("requests", 150);
  config.base.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  config.cycles = args.get_int("cycles", 6);
  config.demand_growth = 0.15;
  config.threads = args.get_int("threads", 0);
  config.checkpoint_every = args.get_int("checkpoint-every", 0);
  config.checkpoint_path = args.get("checkpoint-path", "");
  config.resume_path = args.get("resume", "");
  if (args.help_requested()) {
    std::cout << args.usage(
        "bench_multi_cycle: cumulative profit over consecutive billing "
        "cycles; --checkpoint-every/--checkpoint-path snapshot the cycle "
        "grid, --resume restarts from a snapshot");
    return 0;
  }
  args.finish();

  std::cout << "=== Extension: cumulative profit over " << config.cycles
            << " billing cycles (B4, demand +15%/cycle"
            << (config.resume_path.empty()
                    ? ""
                    : ", resumed from " + config.resume_path)
            << ") ===\n\n";
  const sim::BillingCycleSimulator simulator(config);
  std::vector<sim::PolicyOutcome> outcomes;
  try {
    outcomes = simulator.run(sim::standard_policies());
  } catch (const std::exception& e) {
    // A --resume file that cannot be read, was taken under another
    // configuration or does not restore, or a snapshot that cannot be
    // written, ends the run with a message instead of an abort.
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }

  TablePrinter cycles({"cycle", "offered", "accept-all", "EcoFlow", "Metis"});
  for (int cycle = 0; cycle < config.cycles; ++cycle) {
    std::vector<Cell> row;
    row.emplace_back(static_cast<long long>(cycle));
    row.emplace_back(
        static_cast<long long>(outcomes[0].cycles[cycle].offered_requests));
    for (const auto& outcome : outcomes) {
      row.emplace_back(outcome.cycles[cycle].result.profit);
    }
    cycles.add_row(std::move(row));
  }
    bench::emit(cycles, csv, "per-cycle profit");

  TablePrinter totals({"policy", "total profit", "total revenue", "total cost",
                       "accepted/offered", "vs accept-all"});
  const double base = outcomes[0].total_profit;
  for (const auto& outcome : outcomes) {
    totals.add_row({outcome.policy, outcome.total_profit, outcome.total_revenue,
                    outcome.total_cost,
                    std::to_string(outcome.total_accepted) + "/" +
                        std::to_string(outcome.total_offered),
                    base != 0 ? outcome.total_profit / base : 0.0});
  }
    bench::emit(totals, csv, "cumulative");
  bench::write_telemetry(telemetry_path);
  return 0;
}
