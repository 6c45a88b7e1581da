#include "sim/simulator.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "persist/checkpoint.h"
#include "sim/validate.h"
#include "util/parallel.h"
#include "util/serialize.h"
#include "util/telemetry.h"

namespace metis::sim {
namespace {

persist::FaultStatsImage to_image(const FaultStats& s) {
  return persist::FaultStatsImage{s.injected,  s.network_changes, s.repairs,
                                  s.victims,   s.dropped,         s.rerouted,
                                  s.shed_rounds, s.surge_arrivals};
}

FaultStats from_image(const persist::FaultStatsImage& s) {
  return FaultStats{s.injected,  s.network_changes, s.repairs,
                    s.victims,   s.dropped,         s.rerouted,
                    s.shed_rounds, s.surge_arrivals};
}

}  // namespace

BillingCycleSimulator::BillingCycleSimulator(SimulationConfig config)
    : config_(std::move(config)) {
  if (config_.cycles <= 0) {
    throw std::invalid_argument("SimulationConfig: cycles must be positive");
  }
  if (config_.demand_growth < -1) {
    throw std::invalid_argument("SimulationConfig: growth below -100%");
  }
}

int BillingCycleSimulator::cycle_requests(int cycle) const {
  const double grown = config_.base.num_requests *
                       std::pow(1.0 + config_.demand_growth, cycle);
  return std::max(1, static_cast<int>(std::llround(grown)));
}

core::SpmInstance BillingCycleSimulator::cycle_instance(int cycle) const {
  if (cycle < 0 || cycle >= config_.cycles) {
    throw std::invalid_argument("cycle_instance: cycle out of range");
  }
  Scenario scenario = config_.base;
  scenario.seed = config_.base.seed + static_cast<std::uint64_t>(cycle) * 7919;
  scenario.num_requests = cycle_requests(cycle);
  return make_instance(scenario);
}

void BillingCycleSimulator::replay_faults(const core::SpmInstance& instance,
                                          const Decision& decision, int cycle,
                                          Rng& rng, CycleOutcome& co) const {
  METIS_SPAN("cycle_faults");
  const int num_slots = instance.num_slots();
  // The stream is seeded by the cycle alone (same expression as the cycle's
  // scenario seed), never by the policy index: every policy of a cycle
  // faces the identical fault sequence.
  const std::vector<FaultEvent> events = generate_fault_events(
      config_.faults, instance.topology(), num_slots,
      Rng(config_.base.seed + static_cast<std::uint64_t>(cycle) * 7919));
  if (events.empty()) return;

  RepairConfig repair;
  repair.policy = config_.repair_policy;
  repair.refund_factor = config_.refund_factor;
  repair.max_shed_rounds = config_.max_shed_rounds;
  CommittedBook book(instance.topology(), instance.config(), repair);
  book.adopt(instance, decision.schedule);

  // Surge arrivals come from the healthy topology's generator (same
  // endpoint universe as the cycle's book); the book auto-declines any
  // the mutated WAN cannot connect.
  workload::GeneratorConfig wconfig = config_.base.workload;
  wconfig.num_slots = num_slots;
  const workload::RequestGenerator generator(instance.topology(), wconfig);

  for (const FaultEvent& event : events) {
    if (event.kind == FaultKind::DemandSurge) {
      book.inject(event, rng);  // stats only; no topology change
      if (event.surge_arrivals <= 0) continue;
      const int slot =
          std::min(static_cast<int>(std::floor(event.time)), num_slots - 1);
      for (const workload::Request& r :
           generator.generate_at(slot, event.surge_arrivals, rng)) {
        book.add_pending(r);
      }
      co.offered_requests += event.surge_arrivals;
      // The offline regime has no batching: a surge is decided on arrival.
      book.decide_pending(rng);
      continue;
    }
    book.inject(event, rng);
  }

  const auto violations = book.validate();
  if (!violations.empty()) {
    throw std::runtime_error("simulator: fault replay left an invalid book: " +
                             violations.front());
  }

  co.result = book.evaluate();
  co.refunds = book.refunds();
  co.net_profit = book.net_profit();
  co.fault_stats = book.stats();
}

std::uint64_t BillingCycleSimulator::config_fingerprint(
    const std::vector<std::unique_ptr<Policy>>& policies) const {
  serialize::Fingerprint fp;
  mix_scenario(fp, config_.base);
  fp.mix(config_.cycles);
  fp.mix(config_.demand_growth);
  mix_fault_config(fp, config_.faults, config_.repair_policy,
                   config_.refund_factor, config_.max_shed_rounds);
  fp.mix(static_cast<int>(policies.size()));
  for (const auto& policy : policies) fp.mix(policy->name());
  return fp.value();
}

std::vector<PolicyOutcome> BillingCycleSimulator::run(
    const std::vector<std::unique_ptr<Policy>>& policies) const {
  std::vector<PolicyOutcome> outcomes;
  outcomes.reserve(policies.size());
  for (const auto& policy : policies) {
    PolicyOutcome outcome;
    outcome.policy = policy->name();
    outcomes.push_back(std::move(outcome));
  }
  const int num_policies = static_cast<int>(policies.size());

  // --- checkpoint/resume ------------------------------------------------
  const std::uint64_t fingerprint = config_fingerprint(policies);
  std::vector<CycleOutcome> cells(
      static_cast<std::size_t>(config_.cycles) * num_policies);
  int cycles_done = 0;
  if (!config_.resume_path.empty()) {
    const persist::MultiCycleCheckpoint ckpt =
        persist::load_multi_cycle(config_.resume_path);
    if (ckpt.config_fingerprint != fingerprint) {
      throw std::runtime_error(
          "simulator resume: config fingerprint mismatch (snapshot " +
          serialize::hex_fingerprint(ckpt.config_fingerprint) +
          ", current run " + serialize::hex_fingerprint(fingerprint) +
          "): '" + config_.resume_path +
          "' was taken under a different configuration or policy roster");
    }
    if (ckpt.num_policies != num_policies || ckpt.cycles_done < 0 ||
        ckpt.cycles_done > config_.cycles ||
        ckpt.cells.size() !=
            static_cast<std::size_t>(ckpt.cycles_done) * num_policies) {
      throw std::runtime_error(
          "simulator resume: snapshot cell grid is inconsistent with the "
          "current run ('" +
          config_.resume_path + "')");
    }
    for (const persist::CycleCellState& cell : ckpt.cells) {
      if (cell.cycle < 0 || cell.cycle >= ckpt.cycles_done ||
          cell.policy < 0 || cell.policy >= num_policies) {
        throw std::runtime_error(
            "simulator resume: snapshot cell index out of range ('" +
            config_.resume_path + "')");
      }
      CycleOutcome co;
      co.cycle = cell.cycle;
      co.offered_requests = cell.offered_requests;
      co.result = cell.result;
      co.decide_ms = cell.decide_ms;
      co.refunds = cell.refunds;
      co.net_profit = cell.net_profit;
      co.fault_stats = from_image(cell.fault_stats);
      cells[static_cast<std::size_t>(cell.cycle) * num_policies +
            cell.policy] = std::move(co);
    }
    cycles_done = ckpt.cycles_done;
    telemetry::Registry::global().restore(ckpt.metrics);
  }
  const bool checkpointing =
      config_.checkpoint_every > 0 && !config_.checkpoint_path.empty();

  // One cell per (cycle, policy): the cell's Rng seed depends only on the
  // absolute (cycle, p) and the instance only on the cycle, so the grid
  // parallelizes with no cross-cell state — and running it block-by-block
  // (the checkpoint cadence) is byte-identical to the one-shot grid.  Each
  // cell rebuilds its cycle's instance — cheap relative to a decide() — to
  // stay share-nothing.
  while (cycles_done < config_.cycles) {
    const int block_cycles =
        checkpointing
            ? std::min(config_.checkpoint_every, config_.cycles - cycles_done)
            : config_.cycles - cycles_done;
    const int first_cell = cycles_done * num_policies;
    const std::vector<CycleOutcome> block = parallel_map(
        block_cycles * num_policies,
        [&](int local) {
          const int index = first_cell + local;
          const int cycle = index / num_policies;
          const std::size_t p = static_cast<std::size_t>(index % num_policies);
          const core::SpmInstance instance = cycle_instance(cycle);
          Rng rng(config_.base.seed * 104729 + cycle * 31 + p * 7 + 1);
          const telemetry::Stopwatch decide_timer;
          const Decision decision = [&] {
            METIS_SPAN("cycle_decide");
            return policies[p]->decide(instance, rng);
          }();
          const double decide_ms = decide_timer.ms();

          const auto violations =
              check_schedule(instance, decision.schedule, decision.plan);
          if (!violations.empty()) {
            throw std::runtime_error("simulator: policy '" +
                                     policies[p]->name() +
                                     "' produced an infeasible decision: " +
                                     violations.front());
          }
          const auto coverage = check_plan_covers_schedule(
              instance, decision.schedule, decision.plan);
          if (!coverage.empty()) {
            throw std::runtime_error("simulator: policy '" +
                                     policies[p]->name() +
                                     "' under-purchased: " + coverage.front());
          }

          CycleOutcome co;
          co.cycle = cycle;
          co.offered_requests = instance.num_requests();
          co.result = core::evaluate_with_plan(instance, decision.schedule,
                                               decision.plan);
          co.decide_ms = decide_ms;
          co.net_profit = co.result.profit;
          if (config_.faults.rate > 0) {
            replay_faults(instance, decision, cycle, rng, co);
          }
          telemetry::observe("sim.decide_ms", co.decide_ms);
          telemetry::count("sim.cycle_cells");
          return co;
        },
        config_.threads);
    std::copy(block.begin(), block.end(),
              cells.begin() + first_cell);
    cycles_done += block_cycles;

    if (checkpointing && cycles_done < config_.cycles) {
      persist::MultiCycleCheckpoint ckpt;
      ckpt.config_fingerprint = fingerprint;
      ckpt.cycles_done = cycles_done;
      ckpt.num_policies = num_policies;
      ckpt.cells.reserve(static_cast<std::size_t>(cycles_done) *
                         num_policies);
      for (int cycle = 0; cycle < cycles_done; ++cycle) {
        for (int p = 0; p < num_policies; ++p) {
          const CycleOutcome& co =
              cells[static_cast<std::size_t>(cycle) * num_policies + p];
          persist::CycleCellState cell;
          cell.cycle = cycle;
          cell.policy = p;
          cell.offered_requests = co.offered_requests;
          cell.result = co.result;
          cell.decide_ms = co.decide_ms;
          cell.refunds = co.refunds;
          cell.net_profit = co.net_profit;
          cell.fault_stats = to_image(co.fault_stats);
          ckpt.cells.push_back(std::move(cell));
        }
      }
      ckpt.metrics = telemetry::Registry::global().snapshot();
      persist::save(ckpt, config_.checkpoint_path);
      if (config_.checkpoint_keep_all) {
        persist::save(ckpt, config_.checkpoint_path + ".cycle" +
                                std::to_string(cycles_done));
      }
    }
  }

  // Serial reduction in (cycle, policy) order: per-policy totals accumulate
  // cycle-by-cycle exactly as the historical nested loop did.
  for (int cycle = 0; cycle < config_.cycles; ++cycle) {
    for (int p = 0; p < num_policies; ++p) {
      CycleOutcome co = cells[cycle * num_policies + p];
      PolicyOutcome& outcome = outcomes[p];
      outcome.total_profit += co.result.profit;
      outcome.total_revenue += co.result.revenue;
      outcome.total_cost += co.result.cost;
      outcome.total_accepted += co.result.accepted;
      outcome.total_offered += co.offered_requests;
      outcome.total_refunds += co.refunds;
      outcome.total_net_profit += co.net_profit;
      outcome.cycles.push_back(std::move(co));
    }
  }
  return outcomes;
}

}  // namespace metis::sim
