// Online admission: the streaming counterpart of quickstart.
//
//   1. Draw a within-cycle arrival stream (timestamped requests).
//   2. Queue arrivals into batches (count and/or deadline triggered).
//   3. Re-decide each batch with incremental Metis: accepted requests stay
//      accepted, and once an earlier batch solved its BL-SPM to optimality
//      the batch's first BL-SPM solve starts from the slack basis.
//   4. Compare the committed decision against the offline oracle that saw
//      the whole bid book at once.
//
//   $ ./online_admission --requests 60 --batch 8 --delay 0.5 --seed 1
#include <iostream>

#include "sim/online.h"
#include "sim/validate.h"
#include "util/args.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace metis;
  ArgParser args(argc, argv);
  sim::OnlineConfig config;
  config.base.network = sim::Network::B4;
  config.base.num_requests = args.get_int("requests", 60);
  config.base.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  config.batch_size = args.get_int("batch", 8);
  config.max_batch_delay = args.get_double("delay", 0.5);
  config.checkpoint_every = args.get_int("checkpoint-every", 0);
  config.checkpoint_path = args.get("checkpoint-path", "");
  config.resume_path = args.get("resume", "");
  if (args.help_requested()) {
    std::cout << args.usage(
        "online_admission: stream one cycle's requests through batched "
        "incremental Metis re-decides; --checkpoint-every/--checkpoint-path "
        "write periodic snapshots, --resume restarts from one");
    return 0;
  }
  args.finish();

  const sim::OnlineAdmissionSimulator simulator(config);
  const auto stream = simulator.arrivals();
  std::cout << "Stream: " << stream.size() << " arrivals over "
            << config.base.instance.num_slots << " slots; batches of "
            << config.batch_size << " or " << config.max_batch_delay
            << " slots of queueing, whichever first\n\n";

  const sim::OnlineResult online = simulator.run();

  TablePrinter batches({"batch", "flush t", "arrivals", "accepted",
                        "running profit", "LP iters", "decide ms"});
  for (const sim::BatchRecord& rec : online.batches) {
    batches.add_row({static_cast<long long>(rec.batch), rec.flush_time,
                     static_cast<long long>(rec.arrivals),
                     static_cast<long long>(rec.accepted), rec.profit,
                     static_cast<long long>(rec.lp_stats.iterations),
                     rec.decide_ms});
  }
  batches.print(std::cout);

  // The committed decision must be feasible like any offline one.
  if (online.total_arrivals > 0) {
    std::vector<workload::Request> book;
    for (const auto& a : stream) book.push_back(a.request);
    const core::SpmInstance instance(sim::make_network(config.base),
                                     std::move(book), config.base.instance);
    const auto violations =
        sim::check_schedule(instance, online.schedule, online.plan);
    if (!violations.empty()) {
      std::cerr << "BUG: infeasible committed decision: " << violations.front()
                << '\n';
      return 1;
    }
  }

  const core::MetisResult offline = simulator.offline_oracle();
  std::cout << "\nOnline:  profit " << online.profit.profit << " ("
            << online.total_accepted << "/" << online.total_arrivals
            << " accepted, " << online.lp_stats.iterations
            << " simplex iterations, " << online.path_cache_hits
            << " path-cache hits)\n";
  std::cout << "Offline: profit " << offline.best.profit << " ("
            << offline.best.accepted << "/" << online.total_arrivals
            << " accepted, " << offline.lp_stats.iterations
            << " simplex iterations)\n";
  if (offline.best.profit > 0) {
    std::cout << "Price of commitment: online keeps "
              << 100.0 * online.profit.profit / offline.best.profit
              << "% of the offline profit\n";
  }
  return 0;
}
