// Fault injection & graceful degradation (sim/faults.h): the survivability
// layer's acceptance bar.
//
//   * the seeded fault stream is bit-identical for the same seed and
//     invariant to everything but (seed, config, topology shape),
//   * replaying faults repairs the committed book into a state that passes
//     sim::check_schedule / plan coverage on the *mutated* topology,
//   * decisions are invariant to the rounding thread count,
//   * at a zero fault rate no other fault knob changes a replay.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <memory>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "core/lp_builder.h"
#include "core/metis.h"
#include "lp/simplex.h"
#include "net/topologies.h"
#include "sim/faults.h"
#include "sim/online.h"
#include "sim/policy.h"
#include "sim/scenario.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "util/serialize.h"
#include "workload/generator.h"

namespace metis::sim {
namespace {

FaultConfig faulty(double rate) {
  FaultConfig config;
  config.rate = rate;
  return config;
}

TEST(FaultStream, SameSeedBitIdentical) {
  const net::Topology topo = net::make_b4();
  const auto a = generate_fault_events(faulty(0.8), topo, 12, Rng(42));
  const auto b = generate_fault_events(faulty(0.8), topo, 12, Rng(42));
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
  const auto c = generate_fault_events(faulty(0.8), topo, 12, Rng(43));
  const bool same_as_other_seed =
      a.size() == c.size() && std::equal(a.begin(), a.end(), c.begin());
  EXPECT_FALSE(same_as_other_seed);
}

TEST(FaultStream, SortedInRangeAndWellFormed) {
  const net::Topology topo = net::make_b4();
  const auto events = generate_fault_events(faulty(1.5), topo, 12, Rng(7));
  ASSERT_FALSE(events.empty());
  double prev = 0;
  for (const FaultEvent& e : events) {
    EXPECT_GE(e.time, prev);
    prev = e.time;
    EXPECT_GE(e.time, 0.0);
    EXPECT_LT(e.time, 12.0);
    switch (e.kind) {
      case FaultKind::LinkFailure:
        EXPECT_GE(e.target, 0);
        EXPECT_LT(e.target, topo.num_edges());
        break;
      case FaultKind::LinkDegrade:
        EXPECT_GE(e.target, 0);
        EXPECT_LT(e.target, topo.num_edges());
        EXPECT_GT(e.magnitude, 0.0);
        EXPECT_LT(e.magnitude, 1.0);
        break;
      case FaultKind::NodeOutage:
        EXPECT_GE(e.target, 0);
        EXPECT_LT(e.target, topo.num_nodes());
        break;
      case FaultKind::PriceShock:
        EXPECT_GE(e.target, 0);
        EXPECT_LT(e.target, topo.num_edges());
        EXPECT_GE(e.magnitude, 1.0);
        break;
      case FaultKind::DemandSurge:
        EXPECT_GE(e.surge_arrivals, 0);
        break;
    }
  }
}

TEST(FaultStream, RateZeroIsEmptyAndValidationThrows) {
  const net::Topology topo = net::make_b4();
  EXPECT_TRUE(generate_fault_events(faulty(0), topo, 12, Rng(1)).empty());
  EXPECT_THROW(generate_fault_events(faulty(-0.1), topo, 12, Rng(1)),
               std::invalid_argument);
  FaultConfig bad_keep = faulty(1);
  bad_keep.degrade_keep_min = 0.9;
  bad_keep.degrade_keep_max = 0.1;
  EXPECT_THROW(generate_fault_events(bad_keep, topo, 12, Rng(1)),
               std::invalid_argument);
  FaultConfig bad_shock = faulty(1);
  bad_shock.price_shock_min = 0.5;
  EXPECT_THROW(generate_fault_events(bad_shock, topo, 12, Rng(1)),
               std::invalid_argument);
  FaultConfig bad_weights = faulty(1);
  bad_weights.weight_link_failure = -1;
  EXPECT_THROW(generate_fault_events(bad_weights, topo, 12, Rng(1)),
               std::invalid_argument);
  FaultConfig zero_weights = faulty(1);
  zero_weights.weight_link_failure = 0;
  zero_weights.weight_link_degrade = 0;
  zero_weights.weight_node_outage = 0;
  zero_weights.weight_price_shock = 0;
  zero_weights.weight_demand_surge = 0;
  EXPECT_THROW(generate_fault_events(zero_weights, topo, 12, Rng(1)),
               std::invalid_argument);
  EXPECT_THROW(generate_fault_events(faulty(1), topo, 0, Rng(1)),
               std::invalid_argument);
}

TEST(FaultPolicy, ParseRoundTrips) {
  EXPECT_EQ(parse_repair_policy("drop"), RepairPolicy::DropAffected);
  EXPECT_EQ(parse_repair_policy("reroute"), RepairPolicy::Reroute);
  EXPECT_EQ(to_string(RepairPolicy::DropAffected), "drop");
  EXPECT_EQ(to_string(RepairPolicy::Reroute), "reroute");
  EXPECT_THROW(parse_repair_policy("shrug"), std::invalid_argument);
  EXPECT_FALSE(to_string(FaultKind::NodeOutage).empty());
}

Scenario small_scenario(std::uint64_t seed) {
  Scenario scenario;
  scenario.network = Network::B4;
  scenario.num_requests = 40;
  scenario.seed = seed;
  return scenario;
}

RepairConfig repair_with(RepairPolicy policy) {
  RepairConfig repair;
  repair.policy = policy;
  return repair;
}

// A book that adopted a Metis decision, with the decision's profit and
// acceptance count.  Built in place: a book can be neither copied nor
// moved.
struct AdoptedBook {
  AdoptedBook(std::uint64_t seed, RepairPolicy policy)
      : AdoptedBook(make_instance(small_scenario(seed)), seed, policy) {}
  AdoptedBook(const core::SpmInstance& instance, std::uint64_t seed,
              RepairPolicy policy)
      : book(instance.topology(), instance.config(), repair_with(policy)) {
    Rng rng(seed * 31 + 1);
    const core::MetisResult decision = core::run_metis(instance, rng);
    profit = decision.best.profit;
    accepted = decision.best.accepted;
    book.adopt(instance, decision.schedule);
  }

  CommittedBook book;
  double profit = 0;
  int accepted = 0;
};
static_assert(!std::is_copy_constructible_v<CommittedBook>);
static_assert(!std::is_copy_assignable_v<CommittedBook>);
static_assert(!std::is_move_constructible_v<CommittedBook>);
static_assert(!std::is_move_assignable_v<CommittedBook>);

// Finds an edge some accepted request's reserved path uses.
int used_edge(const CommittedBook& book) {
  const auto paths = book.reserved_paths();
  for (const net::Path& p : paths) {
    if (!p.empty()) return p.edges.front();
  }
  return -1;
}

TEST(CommittedBook, AdoptMatchesDecision) {
  AdoptedBook adopted(16, RepairPolicy::Reroute);
  EXPECT_EQ(adopted.book.accepted_count(), adopted.accepted);
  EXPECT_DOUBLE_EQ(adopted.book.evaluate().profit, adopted.profit);
  EXPECT_DOUBLE_EQ(adopted.book.net_profit(), adopted.profit);
  EXPECT_TRUE(adopted.book.validate().empty());
  // Adopting twice is a bug.
  const core::SpmInstance instance = make_instance(small_scenario(16));
  EXPECT_THROW(adopted.book.adopt(instance, core::Schedule::all_declined(
                                                instance.num_requests())),
               std::logic_error);
}

TEST(CommittedBook, LinkFailureDropPolicyRefundsVictims) {
  AdoptedBook adopted(13, RepairPolicy::DropAffected);
  const int edge = used_edge(adopted.book);
  ASSERT_GE(edge, 0);
  FaultEvent event;
  event.kind = FaultKind::LinkFailure;
  event.target = edge;
  Rng rng(99);
  EXPECT_TRUE(adopted.book.inject(event, rng));
  EXPECT_FALSE(adopted.book.topology().edge_enabled(edge));
  EXPECT_GT(adopted.book.stats().victims, 0);
  EXPECT_EQ(adopted.book.stats().dropped, adopted.book.stats().victims);
  EXPECT_EQ(adopted.book.stats().rerouted, 0);
  EXPECT_GT(adopted.book.refunds(), 0.0);
  EXPECT_LT(adopted.book.net_profit(), adopted.profit);
  // No reservation may survive on the dead link; the book stays feasible.
  EXPECT_TRUE(adopted.book.validate().empty());
  // Injecting the same failure again is a no-op.
  EXPECT_FALSE(adopted.book.inject(event, rng));
}

TEST(CommittedBook, LinkFailureRerouteSavesOrRefunds) {
  AdoptedBook adopted(13, RepairPolicy::Reroute);
  const int edge = used_edge(adopted.book);
  ASSERT_GE(edge, 0);
  FaultEvent event;
  event.kind = FaultKind::LinkFailure;
  event.target = edge;
  Rng rng(99);
  EXPECT_TRUE(adopted.book.inject(event, rng));
  const FaultStats& stats = adopted.book.stats();
  EXPECT_GT(stats.victims, 0);
  EXPECT_EQ(stats.rerouted + stats.dropped, stats.victims);
  EXPECT_TRUE(adopted.book.validate().empty());
  // Every reserved path avoids the dead link.
  for (const net::Path& p : adopted.book.reserved_paths()) {
    for (net::EdgeId e : p.edges) EXPECT_NE(e, edge);
  }
}

TEST(CommittedBook, RerouteNeverBanksLessThanDrop) {
  // On B4's well-connected mesh, repairing with reroute must keep at least
  // the profit of dropping every victim — across several seeds and the
  // whole fault stream, not just a single failure.
  for (std::uint64_t seed : {21, 22, 25}) {
    double net[2] = {0, 0};
    for (const RepairPolicy policy :
         {RepairPolicy::DropAffected, RepairPolicy::Reroute}) {
      AdoptedBook adopted(seed, policy);
      const auto events = generate_fault_events(
          faulty(0.5), adopted.book.topology(), 12, Rng(seed));
      Rng rng(seed * 7 + 5);
      for (const FaultEvent& e : events) {
        if (e.kind == FaultKind::DemandSurge) continue;
        adopted.book.inject(e, rng);
      }
      EXPECT_TRUE(adopted.book.validate().empty());
      net[policy == RepairPolicy::Reroute] = adopted.book.net_profit();
    }
    EXPECT_GE(net[1], net[0]) << "seed " << seed;
  }
}

TEST(CommittedBook, NodeOutageKillsIncidentReservations) {
  AdoptedBook adopted(13, RepairPolicy::Reroute);
  const auto paths = adopted.book.reserved_paths();
  const auto requests = adopted.book.requests();
  int node = -1;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    if (!paths[i].empty()) {
      node = requests[i].src;
      break;
    }
  }
  ASSERT_GE(node, 0);
  FaultEvent event;
  event.kind = FaultKind::NodeOutage;
  event.target = node;
  Rng rng(5);
  EXPECT_TRUE(adopted.book.inject(event, rng));
  EXPECT_FALSE(adopted.book.topology().node_enabled(node));
  // A victim whose endpoint died cannot be rerouted: it must be refunded.
  EXPECT_GT(adopted.book.stats().dropped, 0);
  EXPECT_TRUE(adopted.book.validate().empty());
  for (std::size_t i = 0; i < paths.size(); ++i) {
    const auto now = adopted.book.reserved_paths();
    if (requests[i].src == node || requests[i].dst == node) {
      EXPECT_TRUE(now[i].empty());
    }
  }
}

TEST(CommittedBook, LinkDegradeShrinksPurchase) {
  AdoptedBook adopted(17, RepairPolicy::Reroute);
  const int edge = used_edge(adopted.book);
  ASSERT_GE(edge, 0);
  FaultEvent event;
  event.kind = FaultKind::LinkDegrade;
  event.target = edge;
  event.magnitude = 0.4;
  Rng rng(6);
  EXPECT_TRUE(adopted.book.inject(event, rng));
  const int cap = adopted.book.topology().edge(edge).capacity_units;
  EXPECT_GT(cap, 0);
  EXPECT_LE(adopted.book.plan().units[edge], cap);
  EXPECT_TRUE(adopted.book.validate().empty());
}

TEST(CommittedBook, PriceShockRaisesCost) {
  AdoptedBook adopted(15, RepairPolicy::Reroute);
  const int edge = used_edge(adopted.book);
  ASSERT_GE(edge, 0);
  const double cost_before = adopted.book.evaluate().cost;
  FaultEvent event;
  event.kind = FaultKind::PriceShock;
  event.target = edge;
  event.magnitude = 2.0;
  Rng rng(8);
  EXPECT_TRUE(adopted.book.inject(event, rng));
  EXPECT_GT(adopted.book.evaluate().cost, cost_before);
  EXPECT_EQ(adopted.book.stats().victims, 0);  // nothing displaced
  EXPECT_TRUE(adopted.book.validate().empty());
}

TEST(CommittedBook, PendingFlowAndSurgeDecide) {
  const core::SpmInstance instance = make_instance(small_scenario(16));
  RepairConfig repair;
  CommittedBook book(instance.topology(), instance.config(), repair);
  workload::GeneratorConfig wconfig;
  const workload::RequestGenerator generator(book.topology(), wconfig);
  Rng rng(77);
  for (const workload::Request& r : generator.generate_at(2, 6, rng)) {
    book.add_pending(r);
  }
  EXPECT_EQ(book.pending_count(), 6);
  book.decide_pending(rng);
  EXPECT_EQ(book.pending_count(), 0);
  EXPECT_GT(book.accepted_count(), 0);
  EXPECT_TRUE(book.validate().empty());
}

OnlineConfig online_config(std::uint64_t seed, double rate,
                           RepairPolicy policy) {
  OnlineConfig config;
  config.base.network = Network::B4;
  config.base.num_requests = 36;
  config.base.seed = seed;
  config.batch_size = 6;
  config.faults = faulty(rate);
  config.repair_policy = policy;
  return config;
}

TEST(OnlineFaults, RateZeroIgnoresTheOtherFaultKnobs) {
  OnlineConfig plain = online_config(31, 0, RepairPolicy::Reroute);
  const OnlineResult a = OnlineAdmissionSimulator(plain).run();
  // Mutating every other fault knob must not perturb a rate-0 run.
  OnlineConfig knobs = plain;
  knobs.repair_policy = RepairPolicy::DropAffected;
  knobs.refund_factor = 0.25;
  knobs.max_shed_rounds = 1;
  knobs.faults.weight_node_outage = 3.0;
  const OnlineResult b = OnlineAdmissionSimulator(knobs).run();
  EXPECT_EQ(a.schedule.path_choice, b.schedule.path_choice);
  EXPECT_EQ(a.plan.units, b.plan.units);
  EXPECT_EQ(a.profit.profit, b.profit.profit);
  EXPECT_EQ(a.net_profit, a.profit.profit);
  EXPECT_TRUE(a.fault_events.empty());
  EXPECT_EQ(a.refunds, 0.0);
}

TEST(OnlineFaults, ReplayIsDeterministicAndValid) {
  const OnlineConfig config = online_config(32, 0.6, RepairPolicy::Reroute);
  const OnlineResult a = OnlineAdmissionSimulator(config).run();
  const OnlineResult b = OnlineAdmissionSimulator(config).run();
  ASSERT_FALSE(a.fault_events.empty());
  EXPECT_GT(a.fault_stats.injected, 0);
  EXPECT_EQ(a.fault_events.size(), b.fault_events.size());
  EXPECT_EQ(a.net_profit, b.net_profit);
  EXPECT_EQ(a.refunds, b.refunds);
  EXPECT_EQ(a.total_arrivals, b.total_arrivals);
  EXPECT_EQ(a.total_accepted, b.total_accepted);
  ASSERT_EQ(a.fault_paths.size(), b.fault_paths.size());
  for (std::size_t i = 0; i < a.fault_paths.size(); ++i) {
    EXPECT_EQ(a.fault_paths[i].edges, b.fault_paths[i].edges);
  }
  // run() validated the book internally (it throws otherwise); sanity-check
  // the exposed shape here.
  EXPECT_EQ(a.fault_book.size(), a.fault_paths.size());
  EXPECT_EQ(a.schedule.num_accepted(), a.total_accepted);
  EXPECT_GE(a.net_profit, a.profit.profit - a.refunds - 1e-9);
}

TEST(OnlineFaults, DecisionsInvariantAcrossRoundingThreads) {
  OnlineConfig config = online_config(33, 0.6, RepairPolicy::Reroute);
  config.metis.maa.rounding_trials = 4;
  config.metis.maa.threads = 1;
  const OnlineResult serial = OnlineAdmissionSimulator(config).run();
  config.metis.maa.threads = 2;
  const OnlineResult threaded = OnlineAdmissionSimulator(config).run();
  EXPECT_EQ(serial.net_profit, threaded.net_profit);
  EXPECT_EQ(serial.total_accepted, threaded.total_accepted);
  ASSERT_EQ(serial.fault_paths.size(), threaded.fault_paths.size());
  for (std::size_t i = 0; i < serial.fault_paths.size(); ++i) {
    EXPECT_EQ(serial.fault_paths[i].edges, threaded.fault_paths[i].edges);
  }
}

// ------------------------------------------- incremental LP work pins ----
//
// CRC-32 pins of the simplex work that run_metis_incremental does in fault
// mode, where every decide and repair re-solves with commitments pinned:
// each decide's and each repair's iterations, factorizations and warm/cold
// starts, the book's total, and the final schedule, plan and net profit.
// A change to what a decide starts its solves from that moves one pivot,
// or turns one warm start cold, fails here.

void put_work(serialize::ByteWriter& out, const lp::SolveStats& s) {
  out.i64(s.iterations);
  out.i32(s.factorizations);
  out.i32(s.warm_starts);
  out.i32(s.cold_starts);
}

lp::SolveStats work_since(const lp::SolveStats& before,
                          const lp::SolveStats& after) {
  lp::SolveStats d;
  d.iterations = after.iterations - before.iterations;
  d.factorizations = after.factorizations - before.factorizations;
  d.warm_starts = after.warm_starts - before.warm_starts;
  d.cold_starts = after.cold_starts - before.cold_starts;
  return d;
}

struct WorkPin {
  int solves;              ///< decides (online) or repairs (adopted book)
  long total_iterations;   ///< the book's lp_stats
  std::uint32_t work;      ///< each solve's work, then the book's total
  std::uint32_t decision;  ///< final schedule, plan and net profit
};

void expect_work_pin(const WorkPin& got, const WorkPin& want) {
  EXPECT_EQ(got.solves, want.solves);
  EXPECT_EQ(got.total_iterations, want.total_iterations);
  EXPECT_EQ(got.work, want.work);
  EXPECT_EQ(got.decision, want.decision);
}

/// B4, 48 expected arrivals, fault rate 0.5, batches of 6.  The repairs the
/// replay runs between batches enter through the book's total.
OnlineConfig online_pin_config(std::uint64_t seed) {
  OnlineConfig config = online_config(seed, 0.5, RepairPolicy::Reroute);
  config.base.num_requests = 48;
  return config;
}

/// CRC-32 of a replay's final schedule, plan and net profit.
std::uint32_t online_decision_crc(const OnlineResult& r) {
  serialize::ByteWriter decision;
  for (int j : r.schedule.path_choice) decision.i32(j);
  for (int u : r.plan.units) decision.i32(u);
  decision.f64(r.net_profit);
  return serialize::crc32(decision.bytes());
}

TEST(IncrementalLpPins, OnlineFaultReplay) {
  const OnlineResult r = OnlineAdmissionSimulator(online_pin_config(34)).run();
  EXPECT_GT(r.fault_stats.repairs, 0);
  serialize::ByteWriter work;
  for (const BatchRecord& b : r.batches) put_work(work, b.lp_stats);
  put_work(work, r.lp_stats);
  expect_work_pin({static_cast<int>(r.batches.size()), r.lp_stats.iterations,
                   serialize::crc32(work.bytes()), online_decision_crc(r)},
                  {7, 1533, 0xa218468e, 0x04e465c6});
}

TEST(IncrementalLpPins, OnlineFaultReplayDecisionAtSeed35) {
  // The same stream at seed 35: a replay whose fault repairs run between
  // decides that solved BL-SPM to optimality.  Only the decision is pinned.
  const OnlineResult r = OnlineAdmissionSimulator(online_pin_config(35)).run();
  EXPECT_GT(r.fault_stats.repairs, 0);
  EXPECT_EQ(online_decision_crc(r), 0x7f41339fu);
}

TEST(IncrementalLpPins, AdoptedDecisionRepairedThroughThreeFaults) {
  // An offline run_metis decision, then three network faults on links the
  // book uses; every repair re-decides the victims with the survivors
  // pinned.
  AdoptedBook adopted(19, RepairPolicy::Reroute);
  CommittedBook& book = adopted.book;
  serialize::ByteWriter work;
  const auto repair = [&](FaultKind kind, double magnitude,
                          std::uint64_t seed) {
    FaultEvent event;
    event.kind = kind;
    event.target = used_edge(book);
    event.magnitude = magnitude;
    ASSERT_GE(event.target, 0);
    const lp::SolveStats before = book.lp_stats();
    Rng rng(seed);
    ASSERT_TRUE(book.inject(event, rng));
    put_work(work, work_since(before, book.lp_stats()));
  };
  repair(FaultKind::LinkFailure, 1.0, 3);
  repair(FaultKind::LinkDegrade, 0.2, 4);
  repair(FaultKind::LinkFailure, 1.0, 5);
  EXPECT_EQ(book.stats().repairs, 3);
  EXPECT_TRUE(book.validate().empty());
  put_work(work, book.lp_stats());
  serialize::ByteWriter decision;
  for (const net::Path& p : book.reserved_paths()) {
    decision.u64(p.edges.size());
    for (net::EdgeId e : p.edges) decision.i32(e);
  }
  for (int u : book.plan().units) decision.i32(u);
  decision.f64(book.net_profit());
  expect_work_pin({book.stats().repairs, book.lp_stats().iterations,
                   serialize::crc32(work.bytes()),
                   serialize::crc32(decision.bytes())},
                  {3, 338, 0x84c8a52d, 0x12afc865});
}

TEST(FaultDegenerateLp, ZeroCapacityEdgesSolveCleanlyOnBothRatioTests) {
  // A post-fault topology zeroes out capacity on failed edges, so the
  // BL-SPM re-decide LP carries rows of the maximally degenerate form
  // "load <= 0".  Those rows are tied-at-zero ratio candidates for every
  // entering column they touch — exactly the shape that cycles a naive
  // ratio test.  The default path (Harris) and bland_threshold = 0 (the
  // textbook ratio test from the first pivot) must both terminate, agree
  // on the objective and keep the zeroed edges strictly unloaded.
  const core::SpmInstance instance = make_instance(small_scenario(77));
  core::ChargingPlan caps;
  caps.units.assign(instance.num_edges(), 2);
  caps.units[0] = 0;
  caps.units[instance.num_edges() / 2] = 0;
  const core::SpmModel model = core::build_bl_spm(instance, caps);

  lp::SimplexOptions textbook_opt;
  textbook_opt.bland_threshold = 0;
  const lp::LpSolution harris = lp::SimplexSolver().solve(model.problem);
  const lp::LpSolution textbook =
      lp::SimplexSolver(textbook_opt).solve(model.problem);
  ASSERT_TRUE(harris.ok());
  ASSERT_TRUE(textbook.ok());
  EXPECT_NEAR(harris.objective, textbook.objective,
              1e-6 * (1 + std::abs(harris.objective)));
  EXPECT_TRUE(model.problem.is_feasible(harris.x));
}

TEST(SimulatorFaults, CyclesValidDeterministicAndPolicyFair) {
  SimulationConfig config;
  config.base = small_scenario(41);
  config.cycles = 2;
  config.faults = faulty(0.5);
  config.threads = 1;
  const auto policies = [] {
    std::vector<std::unique_ptr<Policy>> out;
    out.push_back(std::make_unique<MetisPolicy>());
    return out;
  };
  const BillingCycleSimulator simulator(config);
  const auto serial = simulator.run(policies());
  config.threads = 2;
  const auto threaded = BillingCycleSimulator(config).run(policies());
  ASSERT_EQ(serial.size(), 1u);
  ASSERT_EQ(serial[0].cycles.size(), 2u);
  EXPECT_EQ(serial[0].total_net_profit, threaded[0].total_net_profit);
  EXPECT_EQ(serial[0].total_refunds, threaded[0].total_refunds);
  for (const CycleOutcome& co : serial[0].cycles) {
    EXPECT_GT(co.fault_stats.injected, 0);
    EXPECT_DOUBLE_EQ(co.net_profit, co.result.profit - co.refunds);
  }
}

}  // namespace
}  // namespace metis::sim
