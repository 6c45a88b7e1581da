// Tests for the Metis alternation framework: SP-updater semantics, the BW
// limiter rule, convergence/termination, and monotonicity of the recorded
// best profit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/accounting.h"
#include "core/maa.h"
#include "core/metis.h"
#include "sim/online.h"
#include "sim/scenario.h"
#include "sim/validate.h"
#include "util/rng.h"
#include "util/serialize.h"

namespace metis::core {
namespace {

SpmInstance instance_for(std::uint64_t seed, int k,
                         sim::Network net = sim::Network::SubB4) {
  sim::Scenario s;
  s.network = net;
  s.num_requests = k;
  s.seed = seed;
  return sim::make_instance(s);
}

TEST(BwLimiter, TrimsMinUtilizationLink) {
  const SpmInstance instance = instance_for(1, 30);
  Rng rng(5);
  const MaaResult maa = run_maa(instance, rng);
  ASSERT_TRUE(maa.ok());
  ChargingPlan plan = maa.plan;
  const LoadMatrix loads = compute_loads(instance, maa.schedule);
  // Determine the expected argmin by hand.
  int expected = -1;
  double lowest = 0;
  for (net::EdgeId e = 0; e < instance.num_edges(); ++e) {
    if (plan.units[e] <= 0) continue;
    const double util = loads.mean(e) / plan.units[e];
    if (expected == -1 || util < lowest) {
      lowest = util;
      expected = e;
    }
  }
  const int before = plan.units[expected];
  const int trimmed = trim_min_utilization_link(instance, maa.schedule, plan);
  EXPECT_EQ(trimmed, expected);
  EXPECT_EQ(plan.units[expected], before - 1);
}

TEST(BwLimiter, NoPurchasableLinkReturnsMinusOne) {
  const SpmInstance instance = instance_for(2, 10);
  ChargingPlan plan = ChargingPlan::none(instance.num_edges());
  const Schedule schedule = Schedule::all_declined(instance.num_requests());
  EXPECT_EQ(trim_min_utilization_link(instance, schedule, plan), -1);
}

TEST(BwLimiter, TrimFloorsAtZero) {
  const SpmInstance instance = instance_for(3, 10);
  Rng rng(5);
  const MaaResult maa = run_maa(instance, rng);
  ChargingPlan plan = maa.plan;
  const int e = trim_min_utilization_link(instance, maa.schedule, plan, 1000);
  ASSERT_GE(e, 0);
  EXPECT_EQ(plan.units[e], 0);
}

TEST(BwLimiter, RejectsNonPositiveUnits) {
  const SpmInstance instance = instance_for(4, 10);
  ChargingPlan plan = ChargingPlan::none(instance.num_edges());
  const Schedule schedule = Schedule::all_declined(instance.num_requests());
  EXPECT_THROW(trim_min_utilization_link(instance, schedule, plan, 0),
               std::invalid_argument);
}

TEST(Pruning, RemovesOnlyValueNegativeRequests) {
  // Hand-built: two requests on one link; the cheap bid cannot pay for the
  // second charged unit it forces.
  net::Topology topo(2);
  topo.add_edge(0, 1, 2.0);
  topo.add_edge(1, 0, 2.0);
  std::vector<workload::Request> requests = {
      {0, 1, 0, 1, 0.9, 5.0},   // worth its unit
      {0, 1, 0, 1, 0.9, 0.5},   // forces a 2nd unit (cost 2) for value 0.5
  };
  InstanceConfig config;
  config.num_slots = 2;
  const SpmInstance instance(std::move(topo), std::move(requests), config);
  Schedule schedule = Schedule::all_declined(2);
  schedule.path_choice[0] = 0;
  schedule.path_choice[1] = 0;
  const double before = evaluate(instance, schedule).profit;
  const int pruned = prune_unprofitable(instance, schedule);
  EXPECT_EQ(pruned, 1);
  EXPECT_TRUE(schedule.accepted(0));
  EXPECT_FALSE(schedule.accepted(1));
  EXPECT_GT(evaluate(instance, schedule).profit, before);
}

TEST(Pruning, NeverDecreasesProfit) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const SpmInstance instance = instance_for(seed, 50, sim::Network::B4);
    Rng rng(seed);
    const MaaResult maa = run_maa(instance, rng);
    ASSERT_TRUE(maa.ok());
    Schedule schedule = maa.schedule;
    const double before = evaluate(instance, schedule).profit;
    prune_unprofitable(instance, schedule);
    const double after = evaluate(instance, schedule).profit;
    EXPECT_GE(after, before - 1e-9) << "seed " << seed;
  }
}

TEST(Pruning, FixpointIsStable) {
  const SpmInstance instance = instance_for(3, 40, sim::Network::B4);
  Rng rng(3);
  const MaaResult maa = run_maa(instance, rng);
  Schedule schedule = maa.schedule;
  prune_unprofitable(instance, schedule);
  // A second pass finds nothing more to remove.
  EXPECT_EQ(prune_unprofitable(instance, schedule), 0);
}

// Reference prune predating the per-edge range-max trees: full O(T) rescan
// per (candidate, edge) inside the fixed-point loop.  The tree-based
// prune_unprofitable must reproduce its decisions exactly — same requests
// declined, in the same order.
double reference_removal_saving(const SpmInstance& instance,
                                const LoadMatrix& loads, net::EdgeId e,
                                int start, int end, double rate) {
  double peak_with = 0, peak_without = 0;
  for (int t = 0; t < instance.num_slots(); ++t) {
    const double load = loads.at(e, t);
    peak_with = std::max(peak_with, load);
    const bool in_window = t >= start && t <= end;
    peak_without = std::max(peak_without, in_window ? load - rate : load);
  }
  return instance.topology().edge(e).price *
         (charged_units(peak_with) - charged_units(peak_without));
}

int reference_prune(const SpmInstance& instance, Schedule& schedule) {
  LoadMatrix loads = compute_loads(instance, schedule);
  int pruned = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    int worst = -1;
    double worst_margin = -1e-9;
    for (int i = 0; i < instance.num_requests(); ++i) {
      const int j = schedule.path_choice[i];
      if (j == kDeclined) continue;
      const workload::Request& r = instance.request(i);
      double saving = 0;
      for (net::EdgeId e : instance.paths(i)[j].edges) {
        saving += reference_removal_saving(instance, loads, e, r.start_slot,
                                           r.end_slot, r.rate);
      }
      if (r.value - saving < worst_margin) {
        worst_margin = r.value - saving;
        worst = i;
      }
    }
    if (worst >= 0) {
      const workload::Request& r = instance.request(worst);
      for (net::EdgeId e : instance.paths(worst)[schedule.path_choice[worst]].edges) {
        for (int t = r.start_slot; t <= r.end_slot; ++t) {
          loads.add(e, t, -r.rate);
        }
      }
      schedule.path_choice[worst] = kDeclined;
      ++pruned;
      changed = true;
    }
  }
  return pruned;
}

TEST(Pruning, TreeMatchesReferenceDecisions) {
  // All-accepted-on-first-path schedules force many removals; MAA schedules
  // exercise the near-fixpoint regime.  Both must prune identically.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const SpmInstance instance = instance_for(seed, 60, sim::Network::B4);
    Schedule greedy = Schedule::all_declined(instance.num_requests());
    for (int i = 0; i < instance.num_requests(); ++i) greedy.path_choice[i] = 0;
    Schedule expected = greedy;
    const int ref = reference_prune(instance, expected);
    const int got = prune_unprofitable(instance, greedy);
    EXPECT_EQ(got, ref) << "seed " << seed;
    EXPECT_EQ(greedy.path_choice, expected.path_choice) << "seed " << seed;

    Rng rng(seed);
    const MaaResult maa = run_maa(instance, rng);
    ASSERT_TRUE(maa.ok());
    Schedule tree_schedule = maa.schedule;
    Schedule ref_schedule = maa.schedule;
    EXPECT_EQ(prune_unprofitable(instance, tree_schedule),
              reference_prune(instance, ref_schedule))
        << "seed " << seed;
    EXPECT_EQ(tree_schedule.path_choice, ref_schedule.path_choice)
        << "seed " << seed;
  }
}

TEST(Pruning, EmptyScheduleUntouched) {
  const SpmInstance instance = instance_for(4, 10);
  Schedule schedule = Schedule::all_declined(instance.num_requests());
  EXPECT_EQ(prune_unprofitable(instance, schedule), 0);
}

TEST(Reroute, NeverIncreasesCostAndKeepsAcceptance) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const SpmInstance instance = instance_for(seed, 60, sim::Network::B4);
    Rng rng(seed);
    MaaOptions single;
    single.rounding_trials = 1;
    const MaaResult maa = run_maa(instance, {}, rng, single);
    ASSERT_TRUE(maa.ok());
    Schedule schedule = maa.schedule;
    const ProfitBreakdown before = evaluate(instance, schedule);
    reroute_cheaper(instance, schedule);
    const ProfitBreakdown after = evaluate(instance, schedule);
    EXPECT_LE(after.cost, before.cost + 1e-9) << "seed " << seed;
    EXPECT_EQ(after.accepted, before.accepted);
    EXPECT_DOUBLE_EQ(after.revenue, before.revenue);
  }
}

TEST(Reroute, FindsTheObviousMove) {
  // Two parallel routes; one already charged, the other empty: a request
  // sitting alone on the empty route should be folded onto the shared one.
  net::Topology topo(4);
  topo.add_edge(0, 1, 1.0);
  topo.add_edge(1, 3, 1.0);
  topo.add_edge(0, 2, 1.0);
  topo.add_edge(2, 3, 1.0);
  std::vector<workload::Request> requests = {
      {0, 3, 0, 1, 0.4, 3.0},
      {0, 3, 0, 1, 0.4, 3.0},
  };
  InstanceConfig config;
  config.num_slots = 2;
  const SpmInstance instance(std::move(topo), std::move(requests), config);
  ASSERT_EQ(instance.num_paths(0), 2);
  Schedule schedule = Schedule::all_declined(2);
  schedule.path_choice[0] = 0;
  schedule.path_choice[1] = 1;  // needlessly on the second route
  const double cost_before = evaluate(instance, schedule).cost;
  const int moves = reroute_cheaper(instance, schedule);
  EXPECT_GE(moves, 1);
  EXPECT_EQ(schedule.path_choice[0], schedule.path_choice[1]);
  EXPECT_LT(evaluate(instance, schedule).cost, cost_before);
}

TEST(Reroute, FixpointIsStable) {
  const SpmInstance instance = instance_for(5, 40, sim::Network::B4);
  Rng rng(5);
  const MaaResult maa = run_maa(instance, rng);
  Schedule schedule = maa.schedule;
  reroute_cheaper(instance, schedule);
  EXPECT_EQ(reroute_cheaper(instance, schedule), 0);
}

TEST(AdmitProfitable, AcceptsFreeRiderAndStopsAtCost) {
  // One link, one unit purchased by request 0; request 1 fits inside the
  // same unit (free to admit), request 2 would force a second unit its bid
  // cannot pay for.
  net::Topology topo(2);
  topo.add_edge(0, 1, 2.0);
  std::vector<workload::Request> requests = {
      {0, 1, 0, 1, 0.6, 5.0},
      {0, 1, 0, 1, 0.3, 0.5},  // 0.6 + 0.3 < 1 unit: rides free
      {0, 1, 0, 1, 0.9, 1.0},  // forces charged 2 units (+2.0) for value 1.0
  };
  InstanceConfig config;
  config.num_slots = 2;
  const SpmInstance instance(std::move(topo), std::move(requests), config);
  Schedule schedule = Schedule::all_declined(3);
  schedule.path_choice[0] = 0;
  const double before = evaluate(instance, schedule).profit;
  EXPECT_EQ(admit_profitable(instance, schedule), 1);
  EXPECT_TRUE(schedule.accepted(1));
  EXPECT_FALSE(schedule.accepted(2));
  EXPECT_GT(evaluate(instance, schedule).profit, before);
  // Fixpoint: nothing more to admit.
  EXPECT_EQ(admit_profitable(instance, schedule), 0);
}

TEST(AdmitProfitable, RespectsEdgeCapacity) {
  net::Topology topo(2);
  topo.add_edge(0, 1, 1.0);
  std::vector<workload::Request> requests = {
      {0, 1, 0, 1, 0.9, 5.0},
      {0, 1, 0, 1, 0.9, 5.0},  // profitable, but needs a 2nd unit
  };
  InstanceConfig config;
  config.num_slots = 2;
  const SpmInstance instance(std::move(topo), std::move(requests), config);
  Schedule schedule = Schedule::all_declined(2);
  schedule.path_choice[0] = 0;
  const std::vector<int> cap = {1};
  EXPECT_EQ(admit_profitable(instance, schedule, nullptr, &cap), 0);
  EXPECT_FALSE(schedule.accepted(1));
  // Uncapacitated, the same admission goes through.
  EXPECT_EQ(admit_profitable(instance, schedule), 1);
}

/// One link at price 2 and one request whose bid (0.5) cannot pay for a
/// unit of its own; the committed load of a commitment outside the
/// instance (0.6 in both slots) already bought the first unit, and the
/// request (0.3) fits in the rest of it.
struct RiderOnCommittedUnit {
  SpmInstance instance = [] {
    net::Topology topo(2);
    topo.add_edge(0, 1, 2.0);
    InstanceConfig config;
    config.num_slots = 2;
    return SpmInstance(std::move(topo), {{0, 1, 0, 1, 0.3, 0.5}}, config);
  }();
  LoadMatrix committed = [this] {
    LoadMatrix load(instance.num_edges(), instance.num_slots());
    load.add(0, 0, 0.6);
    load.add(0, 1, 0.6);
    return load;
  }();
};

TEST(AdmitProfitable, RidesFreeOnACommittedUnit) {
  const RiderOnCommittedUnit book;
  Schedule alone = Schedule::all_declined(1);
  EXPECT_EQ(admit_profitable(book.instance, alone), 0);
  EXPECT_FALSE(alone.accepted(0));
  Schedule riding = Schedule::all_declined(1);
  EXPECT_EQ(admit_profitable(book.instance, riding, &book.committed), 1);
  EXPECT_TRUE(riding.accepted(0));
  // Still the one unit the commitment bought.
  EXPECT_EQ(charging_from_loads(
                compute_loads(book.instance, riding, &book.committed))
                .units[0],
            1);
}

TEST(Pruning, KeepsARequestRidingOnCommittedLoad) {
  const RiderOnCommittedUnit book;
  Schedule riding = Schedule::all_declined(1);
  riding.path_choice[0] = 0;
  EXPECT_EQ(prune_unprofitable(book.instance, riding, &book.committed), 0);
  EXPECT_TRUE(riding.accepted(0));
  // Without the committed load the request pays for its unit alone.
  EXPECT_EQ(prune_unprofitable(book.instance, riding), 1);
  EXPECT_FALSE(riding.accepted(0));
}

TEST(Metis, PruneOptionNeverHurts) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const SpmInstance instance = instance_for(seed, 40);
    MetisOptions with, without;
    with.prune = true;
    without.prune = false;
    Rng a(seed), b(seed);
    const MetisResult r_with = run_metis(instance, a, with);
    const MetisResult r_without = run_metis(instance, b, without);
    EXPECT_GE(r_with.best.profit, r_without.best.profit - 1e-9)
        << "seed " << seed;
  }
}

TEST(Metis, ProfitNeverNegative) {
  // SP Updater starts from the zero decision, so the best profit can never
  // fall below 0 regardless of how unprofitable the workload is.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const SpmInstance instance = instance_for(seed, 40);
    Rng rng(seed);
    const MetisResult result = run_metis(instance, rng);
    EXPECT_GE(result.best.profit, 0.0) << "seed " << seed;
  }
}

TEST(Metis, OutputsFeasibleDecision) {
  const SpmInstance instance = instance_for(7, 50);
  Rng rng(7);
  const MetisResult result = run_metis(instance, rng);
  EXPECT_TRUE(sim::check_schedule(instance, result.schedule, result.plan).empty());
  EXPECT_TRUE(
      sim::check_plan_covers_schedule(instance, result.schedule, result.plan)
          .empty());
}

TEST(Metis, BestMatchesRecordedScheduleAndPlan) {
  const SpmInstance instance = instance_for(8, 40);
  Rng rng(8);
  const MetisResult result = run_metis(instance, rng);
  const ProfitBreakdown pb =
      evaluate_with_plan(instance, result.schedule, result.plan);
  EXPECT_NEAR(pb.profit, result.best.profit, 1e-9);
  EXPECT_NEAR(pb.revenue, result.best.revenue, 1e-9);
  EXPECT_NEAR(pb.cost, result.best.cost, 1e-9);
  EXPECT_EQ(pb.accepted, result.best.accepted);
}

TEST(Metis, RunsAtMostThetaIterations) {
  const SpmInstance instance = instance_for(9, 30);
  for (int theta : {1, 3, 6}) {
    Rng rng(9);
    MetisOptions options;
    options.theta = theta;
    const MetisResult result = run_metis(instance, rng, options);
    EXPECT_LE(result.iterations_run, theta);
    EXPECT_EQ(static_cast<int>(result.history.size()), result.iterations_run);
  }
}

TEST(Metis, BestProfitAtLeastFirstMaaPass) {
  // The first loop records the all-accepted MAA schedule, so the final best
  // can only improve on it.
  const SpmInstance instance = instance_for(10, 40);
  Rng rng_metis(10), rng_maa(10);
  const MetisResult metis = run_metis(instance, rng_metis);
  const MaaResult maa = run_maa(instance, rng_maa);
  ASSERT_TRUE(maa.ok());
  const double maa_profit =
      evaluate_with_plan(instance, maa.schedule, maa.plan).profit;
  EXPECT_GE(metis.best.profit, maa_profit - 1e-9);
}

TEST(Metis, HistoryRecordsTrimmedEdges) {
  const SpmInstance instance = instance_for(11, 40);
  Rng rng(11);
  MetisOptions options;
  options.theta = 4;
  const MetisResult result = run_metis(instance, rng, options);
  ASSERT_GE(result.iterations_run, 1);
  for (const MetisIteration& iter : result.history) {
    // Every completed iteration trimmed a real edge (or stopped the loop).
    EXPECT_GE(iter.trimmed_edge, -1);
    EXPECT_LT(iter.trimmed_edge, instance.num_edges());
  }
}

TEST(Metis, DeterministicGivenSeed) {
  const SpmInstance instance = instance_for(12, 35);
  Rng a(99), b(99);
  const MetisResult ra = run_metis(instance, a);
  const MetisResult rb = run_metis(instance, b);
  EXPECT_EQ(ra.schedule.path_choice, rb.schedule.path_choice);
  EXPECT_EQ(ra.plan.units, rb.plan.units);
  EXPECT_DOUBLE_EQ(ra.best.profit, rb.best.profit);
}

TEST(Metis, SurfacesInnerSolveStatusAndStats) {
  const SpmInstance instance = instance_for(16, 30);
  Rng rng(16);
  const MetisResult result = run_metis(instance, rng);
  ASSERT_GE(result.iterations_run, 1);
  // A completed run leaves both stages' last statuses at Optimal and
  // accounts for every relaxation solved across the loop.
  EXPECT_EQ(result.maa_status, lp::SolveStatus::Optimal);
  EXPECT_EQ(result.taa_status, lp::SolveStatus::Optimal);
  EXPECT_GT(result.lp_stats.iterations, 0);
  EXPECT_GE(result.lp_stats.cold_starts, 1);
  // Every loop but one that stopped at the trim step solves one TAA
  // relaxation, and MAA solves one per distinct accepted set (at least
  // one, at most one a loop; SameSetRounds.SolvesOncePerDistinctSet pins
  // the exact count).  Every solve is either warm or cold.
  const int solves =
      result.lp_stats.cold_starts + result.lp_stats.warm_starts;
  EXPECT_GE(solves, result.iterations_run);
  EXPECT_LE(solves, 2 * result.iterations_run);
}

TEST(Metis, IterationLimitedMaaStopsLoopWithStatus) {
  // A crippled MAA iteration cap must be reported as IterationLimit — not
  // conflated with infeasibility — and the loop still returns the safe
  // zero decision.
  const SpmInstance instance = instance_for(17, 25);
  Rng rng(17);
  MetisOptions options;
  options.maa.lp.max_iterations = 1;
  const MetisResult result = run_metis(instance, rng, options);
  EXPECT_EQ(result.maa_status, lp::SolveStatus::IterationLimit);
  EXPECT_EQ(result.taa_status, lp::SolveStatus::NotSolved);
  EXPECT_EQ(result.iterations_run, 0);
  EXPECT_GE(result.best.profit, 0.0);
  EXPECT_EQ(result.schedule.num_accepted(), 0);
}

TEST(Metis, WarmStartMatchesColdProfitWithLessWork) {
  // The basis carried across alternation iterations changes how the optimum
  // is reached, never which optimum: profits agree to LP tolerance and the
  // warm run does at most the cold run's simplex work.
  for (std::uint64_t seed = 18; seed <= 20; ++seed) {
    const SpmInstance instance = instance_for(seed, 40);
    MetisOptions warm, cold;
    warm.warm_start = true;
    cold.warm_start = false;
    Rng a(seed), b(seed);
    const MetisResult r_warm = run_metis(instance, a, warm);
    const MetisResult r_cold = run_metis(instance, b, cold);
    const double scale = std::max(1.0, std::abs(r_cold.best.profit));
    EXPECT_NEAR(r_warm.best.profit, r_cold.best.profit, 1e-6 * scale)
        << "seed " << seed;
    EXPECT_LE(r_warm.lp_stats.iterations, r_cold.lp_stats.iterations)
        << "seed " << seed;
    EXPECT_EQ(r_cold.lp_stats.warm_starts, 0) << "seed " << seed;
  }
}

TEST(Metis, RejectsNegativeTheta) {
  const SpmInstance instance = instance_for(13, 10);
  Rng rng(1);
  MetisOptions bad;
  bad.theta = -1;
  EXPECT_THROW(run_metis(instance, rng, bad), std::invalid_argument);
}

TEST(Metis, IncrementalRejectsACommittedLoadOfAnotherShape) {
  // The LP builders index the committed load by (edge, slot) unchecked.
  const SpmInstance instance = instance_for(13, 10);
  IncrementalState state;
  state.load = LoadMatrix(instance.num_edges(), instance.num_slots() + 1);
  Rng rng(1);
  EXPECT_THROW(run_metis_incremental(instance, state, rng),
               std::invalid_argument);
}

TEST(Metis, ConvergenceModeBoundedByK) {
  const SpmInstance instance = instance_for(13, 20);
  Rng rng(1);
  MetisOptions options;
  options.theta = 0;  // convergence mode
  const MetisResult result = run_metis(instance, rng, options);
  EXPECT_LE(result.iterations_run, instance.num_requests());
  EXPECT_GE(result.iterations_run, 1);
  EXPECT_GE(result.best.profit, 0);
  EXPECT_TRUE(sim::check_schedule(instance, result.schedule, result.plan).empty());
}

TEST(Metis, ConvergenceModeAtLeastAsGoodAsOneLoop) {
  const SpmInstance instance = instance_for(15, 30);
  MetisOptions conv, single;
  conv.theta = 0;
  single.theta = 1;
  Rng a(9), b(9);
  const MetisResult r_conv = run_metis(instance, a, conv);
  const MetisResult r_single = run_metis(instance, b, single);
  EXPECT_GE(r_conv.best.profit, r_single.best.profit - 1e-9);
}

TEST(Metis, MoreThetaNeverHurtsMuch) {
  // The SP updater keeps the best decision, so larger theta with the same
  // RNG prefix yields profit >= the shorter run's (same first iterations).
  const SpmInstance instance = instance_for(14, 40);
  MetisOptions short_opts, long_opts;
  short_opts.theta = 2;
  long_opts.theta = 6;
  Rng rng_short(7), rng_long(7);
  const MetisResult r_short = run_metis(instance, rng_short, short_opts);
  const MetisResult r_long = run_metis(instance, rng_long, long_opts);
  EXPECT_GE(r_long.best.profit, r_short.best.profit - 1e-9);
}

// ------------------------------------------------ same-set round pins ----
//
// An instance on which the θ loop stalls: the first 32 arrivals of the
// seed-1 B4 stream (48 expected arrivals).  TAA keeps all 32 requests
// accepted in every one of the 16 rounds, so every round's MAA pass
// relaxes the same accepted set.  The pins are CRC-32s of the schedule, plan and profit;
// a change to how those rounds reach their relaxation must not move them.

SpmInstance stalling_prefix(int arrivals) {
  sim::OnlineConfig config;
  config.base.network = sim::Network::B4;
  config.base.num_requests = 48;
  config.base.seed = 1;
  std::vector<workload::Request> book;
  for (const workload::Arrival& a :
       sim::OnlineAdmissionSimulator(config).arrivals()) {
    if (static_cast<int>(book.size()) == arrivals) break;
    book.push_back(a.request);
  }
  return SpmInstance(sim::make_network(config.base), std::move(book),
                     config.base.instance);
}

/// The commitments a book holds once it has committed what `schedule`
/// accepts: their load, bids and count, each summed in index order.
IncrementalState commitments(const SpmInstance& instance,
                             const Schedule& schedule) {
  IncrementalState state;
  state.load = compute_loads(instance, schedule);
  state.revenue = revenue(instance, schedule);
  state.accepted = schedule.num_accepted();
  return state;
}

/// The requests of `instance` from index `first` on, as an instance of
/// their own.
SpmInstance requests_from(const SpmInstance& instance, int first) {
  return SpmInstance(instance.topology(),
                     {instance.requests().begin() + first,
                      instance.requests().end()},
                     instance.config());
}

/// CRC-32 of a decision.  `committed` lists the path choices of requests
/// decided before the call, written ahead of the call's own.
std::uint32_t decision_crc(const MetisResult& result,
                           const std::vector<int>& committed = {}) {
  serialize::ByteWriter out;
  for (int j : committed) out.i32(j);
  for (int j : result.schedule.path_choice) out.i32(j);
  for (int u : result.plan.units) out.i32(u);
  out.f64(result.best.profit);
  return serialize::crc32(out.bytes());
}

TEST(SameSetRounds, StallingInstanceDecisionIsPinned) {
  const SpmInstance instance = stalling_prefix(32);
  ASSERT_EQ(instance.num_requests(), 32);
  Rng rng = Rng(1).split(0);
  const MetisResult result = run_metis(instance, rng);
  ASSERT_EQ(result.iterations_run, 16);
  for (const MetisIteration& iter : result.history) {
    EXPECT_EQ(iter.accepted_after_taa, 32);
  }
  EXPECT_EQ(decision_crc(result), 0xaef0fee5u);
}

TEST(SameSetRounds, IncrementalDecideOnStallingInstanceIsPinned) {
  // A batch-16 replay's second decide: the first 16 arrivals committed as
  // Metis decided them alone, the next 16 decided around their load.
  const SpmInstance first = stalling_prefix(16);
  Rng first_rng = Rng(1).split(0);
  const MetisResult committed = run_metis(first, first_rng);
  const IncrementalState state = commitments(first, committed.schedule);
  const SpmInstance instance = requests_from(stalling_prefix(32), 16);
  Rng rng = Rng(1).split(1);
  const MetisResult result = run_metis_incremental(instance, state, rng);
  ASSERT_EQ(result.schedule.path_choice.size(), 16u);
  // All 16 rounds keep the same 27 accepted (commitments included).
  ASSERT_EQ(result.iterations_run, 16);
  for (const MetisIteration& iter : result.history) {
    EXPECT_EQ(iter.accepted_after_taa, 27);
  }
  EXPECT_EQ(decision_crc(result, committed.schedule.path_choice), 0x2a730f62u);
}

/// LP solves a call makes when MAA relaxes each distinct accepted set once:
/// one TAA solve per loop that passed the trim step, plus one MAA solve per
/// set.  Within a call the set only shrinks, so loop k's set differs from
/// loop k-1's exactly when the accepted counts differ.  `first` is the
/// count loop 0's set stands for (every request of the instance plus the
/// commitments, as in `accepted_after_taa`).  History-only, so it holds
/// with telemetry compiled out.
int solves_for(const MetisResult& result, int first) {
  int solves = 0;
  int previous = -1;
  for (std::size_t k = 0; k < result.history.size(); ++k) {
    const int size = k == 0 ? first : result.history[k - 1].accepted_after_taa;
    if (size != previous) ++solves;
    previous = size;
    if (result.history[k].trimmed_edge >= 0) ++solves;
  }
  return solves;
}

int starts(const MetisResult& result) {
  return result.lp_stats.warm_starts + result.lp_stats.cold_starts;
}

TEST(SameSetRounds, SolvesOncePerDistinctSet) {
  for (const bool warm : {true, false}) {
    for (const int theta : {16, 0}) {
      for (std::uint64_t seed = 16; seed <= 18; ++seed) {
        const SpmInstance instance = instance_for(seed, 30);
        MetisOptions options;
        options.theta = theta;
        options.warm_start = warm;
        Rng rng(seed);
        const MetisResult result = run_metis(instance, rng, options);
        ASSERT_EQ(result.maa_status, lp::SolveStatus::Optimal);
        EXPECT_EQ(starts(result), solves_for(result, instance.num_requests()))
            << "seed " << seed << " theta " << theta << " warm " << warm;
      }
    }
    // All 16 loops keep the same 32 requests: one RL-SPM and 16 BL-SPM
    // solves.
    MetisOptions options;
    options.warm_start = warm;
    Rng rng = Rng(1).split(0);
    const MetisResult stalled = run_metis(stalling_prefix(32), rng, options);
    EXPECT_EQ(starts(stalled), 17) << "warm " << warm;
    EXPECT_EQ(starts(stalled), solves_for(stalled, 32));
  }
}

TEST(SameSetRounds, IncrementalSolvesOncePerDistinctSet) {
  // The stalling instance's second 16 arrivals around the first 16's
  // commitments, and a SUB-B4 book's second half around its first half's,
  // capped as a fault repair caps them.
  const SpmInstance first = stalling_prefix(16);
  Rng first_rng = Rng(1).split(0);
  const IncrementalState stalled_commitments =
      commitments(first, run_metis(first, first_rng).schedule);
  const SpmInstance sub = instance_for(21, 40);
  Rng sub_rng(21);
  Schedule sub_first_half = run_metis(sub, sub_rng).schedule;
  std::fill(sub_first_half.path_choice.begin() + 20,
            sub_first_half.path_choice.end(), kDeclined);
  const IncrementalState sub_commitments = commitments(sub, sub_first_half);
  const std::vector<int> caps(sub.num_edges(), 3);
  for (const bool warm : {true, false}) {
    for (const bool stalled : {true, false}) {
      const SpmInstance instance =
          stalled ? requests_from(stalling_prefix(32), 16)
                  : requests_from(sub, 20);
      const IncrementalState& state =
          stalled ? stalled_commitments : sub_commitments;
      MetisOptions options;
      options.warm_start = warm;
      if (!stalled) options.edge_capacity = &caps;
      Rng rng = Rng(7).split(1);
      const MetisResult result =
          run_metis_incremental(instance, state, rng, options);
      ASSERT_EQ(result.maa_status, lp::SolveStatus::Optimal);
      EXPECT_EQ(starts(result),
                solves_for(result, instance.num_requests() + state.accepted))
          << "stalled " << stalled << " warm " << warm;
    }
  }
}

}  // namespace
}  // namespace metis::core
