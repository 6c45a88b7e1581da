// multi_cycle: a year in the life of a geo-distributed cloud.
//
// ISPs bill per cycle; the figures in the paper decide one cycle in
// isolation.  Here the BillingCycleSimulator plays several consecutive
// cycles with compounding demand growth and accounts the cumulative profit
// of three provider policies on identical bid books — showing how the
// per-cycle gaps of Fig. 3/5 compound into the yearly bottom line.
//
//   $ ./multi_cycle --cycles 6 --requests 120 --growth 0.15
//
// Pass --telemetry-json <path> to dump the run's telemetry registry
// (per-phase spans, decide-latency histogram) as JSON.
#include <exception>
#include <fstream>
#include <iostream>
#include <vector>

#include "sim/simulator.h"
#include "util/args.h"
#include "util/table.h"
#include "util/telemetry.h"

int main(int argc, char** argv) {
  using namespace metis;
  ArgParser args(argc, argv);
  sim::SimulationConfig config;
  config.base.network = sim::Network::B4;
  config.base.num_requests = args.get_int("requests", 120);
  config.base.seed = static_cast<std::uint64_t>(args.get_int("seed", 3));
  config.cycles = args.get_int("cycles", 6);
  config.demand_growth = args.get_double("growth", 0.15);
  config.checkpoint_every = args.get_int("checkpoint-every", 0);
  config.checkpoint_path = args.get("checkpoint-path", "");
  config.resume_path = args.get("resume", "");
  const std::string telemetry_path = args.get("telemetry-json", "");
  if (args.help_requested()) {
    std::cout << args.usage(
        "multi_cycle: cumulative profit over billing cycles; "
        "--checkpoint-every/--checkpoint-path snapshot the cycle grid, "
        "--resume restarts from a snapshot");
    return 0;
  }
  args.finish();

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

  std::cout << "Billing cycles: " << config.cycles << ", demand growth "
            << config.demand_growth * 100 << "% per cycle, starting at "
            << config.base.num_requests << " requests\n\n";

  TablePrinter per_cycle({"cycle", "offered", "policy", "accepted", "revenue",
                          "cost", "profit", "ms"});
  for (int cycle = 0; cycle < config.cycles; ++cycle) {
    for (const auto& outcome : outcomes) {
      const auto& co = outcome.cycles.at(cycle);
      per_cycle.add_row({static_cast<long long>(cycle),
                         static_cast<long long>(co.offered_requests),
                         outcome.policy,
                         static_cast<long long>(co.result.accepted),
                         co.result.revenue, co.result.cost, co.result.profit,
                         co.decide_ms});
    }
  }
  per_cycle.print(std::cout);

  TablePrinter totals({"policy", "total profit", "total revenue", "total cost",
                       "accepted/offered"});
  for (const auto& outcome : outcomes) {
    totals.add_row({outcome.policy, outcome.total_profit, outcome.total_revenue,
                    outcome.total_cost,
                    std::to_string(outcome.total_accepted) + "/" +
                        std::to_string(outcome.total_offered)});
  }
  std::cout << "--- cumulative over the year ---\n";
  totals.print(std::cout);

  if (!telemetry_path.empty()) {
    std::ofstream out(telemetry_path);
    telemetry::Registry::global().write_json(out);
    out << '\n';
  }
  return 0;
}
