// Tests for SpmInstance construction and the accounting primitives (loads,
// ceiling, revenue/cost/profit, utilization).
#include <gtest/gtest.h>

#include "core/accounting.h"
#include "core/instance.h"
#include "core/schedule.h"
#include "net/topologies.h"

namespace metis::core {
namespace {

/// 4-node diamond: 0->1->3 (price 1+1) and 0->2->3 (price 2+2).
net::Topology diamond() {
  net::Topology topo(4);
  topo.add_edge(0, 1, 1.0);
  topo.add_edge(1, 3, 1.0);
  topo.add_edge(0, 2, 2.0);
  topo.add_edge(2, 3, 2.0);
  return topo;
}

SpmInstance tiny_instance() {
  std::vector<workload::Request> requests = {
      {0, 3, 0, 3, 0.6, 5.0},   // slots 0..3
      {0, 3, 2, 5, 0.7, 4.0},   // overlaps at slots 2..3
      {1, 3, 1, 1, 0.3, 2.0},
  };
  InstanceConfig config;
  config.num_slots = 6;
  config.max_paths = 3;
  return SpmInstance(diamond(), std::move(requests), config);
}

// ----------------------------------------------------------- instance ----

TEST(Instance, PrecomputesCandidatePaths) {
  const SpmInstance instance = tiny_instance();
  EXPECT_EQ(instance.num_requests(), 3);
  EXPECT_EQ(instance.num_paths(0), 2);  // two disjoint 0->3 routes
  EXPECT_EQ(instance.num_paths(2), 1);  // only 1->3
  // Paths are sorted by price: the cheap route first.
  const net::Path& cheapest = instance.paths(0)[0];
  EXPECT_DOUBLE_EQ(
      net::path_weight(instance.topology(), cheapest, net::PathMetric::Price),
      2.0);
}

TEST(Instance, PathUsesEdgeMatchesPathEdges) {
  const SpmInstance instance = tiny_instance();
  for (int i = 0; i < instance.num_requests(); ++i) {
    for (int j = 0; j < instance.num_paths(i); ++j) {
      std::vector<bool> expect(instance.num_edges(), false);
      for (net::EdgeId e : instance.paths(i)[j].edges) expect[e] = true;
      for (net::EdgeId e = 0; e < instance.num_edges(); ++e) {
        EXPECT_EQ(instance.path_uses_edge(i, j, e), expect[e]);
      }
    }
  }
}

TEST(Instance, RejectsDisconnectedRequests) {
  net::Topology topo(3);
  topo.add_edge(0, 1, 1);
  std::vector<workload::Request> requests = {{0, 2, 0, 1, 0.1, 1.0}};
  EXPECT_THROW(SpmInstance(std::move(topo), std::move(requests)),
               std::invalid_argument);
}

TEST(Instance, RejectsInvalidRequests) {
  std::vector<workload::Request> requests = {{0, 3, 0, 20, 0.1, 1.0}};
  InstanceConfig config;
  config.num_slots = 6;
  EXPECT_THROW(SpmInstance(diamond(), std::move(requests), config),
               std::invalid_argument);
}

TEST(Instance, RejectsBadConfig) {
  InstanceConfig config;
  config.num_slots = 0;
  EXPECT_THROW(SpmInstance(diamond(), {}, config), std::invalid_argument);
  config = {};
  config.max_paths = 0;
  EXPECT_THROW(SpmInstance(diamond(), {}, config), std::invalid_argument);
}

// ----------------------------------------------------------- schedule ----

TEST(Schedule, AcceptanceCounting) {
  Schedule s = Schedule::all_declined(3);
  EXPECT_EQ(s.num_accepted(), 0);
  s.path_choice[1] = 0;
  EXPECT_EQ(s.num_accepted(), 1);
  EXPECT_FALSE(s.accepted(0));
  EXPECT_TRUE(s.accepted(1));
}

TEST(Schedule, ShapeValidation) {
  const SpmInstance instance = tiny_instance();
  Schedule s = Schedule::all_declined(2);  // wrong size
  EXPECT_THROW(validate_shape(instance, s), std::invalid_argument);
  s = Schedule::all_declined(3);
  s.path_choice[2] = 5;  // request 2 has one path
  EXPECT_THROW(validate_shape(instance, s), std::invalid_argument);
  s.path_choice[2] = 0;
  validate_shape(instance, s);  // no throw
}

// -------------------------------------------------------------- loads ----

TEST(Loads, AccumulateOverWindowAndPath) {
  const SpmInstance instance = tiny_instance();
  Schedule s = Schedule::all_declined(3);
  s.path_choice[0] = 0;  // request 0 on cheap route 0->1->3
  s.path_choice[1] = 0;  // request 1 too
  const LoadMatrix loads = compute_loads(instance, s);

  const net::EdgeId e01 = instance.topology().find_edge(0, 1);
  const net::EdgeId e13 = instance.topology().find_edge(1, 3);
  const net::EdgeId e02 = instance.topology().find_edge(0, 2);
  // Slot 1: only request 0 active.
  EXPECT_NEAR(loads.at(e01, 1), 0.6, 1e-12);
  // Slots 2-3: both active.
  EXPECT_NEAR(loads.at(e01, 2), 1.3, 1e-12);
  EXPECT_NEAR(loads.at(e13, 3), 1.3, 1e-12);
  // Slot 4-5: only request 1.
  EXPECT_NEAR(loads.at(e01, 5), 0.7, 1e-12);
  // Unused route carries nothing.
  EXPECT_DOUBLE_EQ(loads.at(e02, 2), 0.0);
  // Peak and mean.
  EXPECT_NEAR(loads.peak(e01), 1.3, 1e-12);
  EXPECT_NEAR(loads.mean(e01), (0.6 * 2 + 1.3 * 2 + 0.7 * 2) / 6, 1e-12);
}

TEST(Loads, DeclinedRequestsContributeNothing) {
  const SpmInstance instance = tiny_instance();
  const Schedule s = Schedule::all_declined(3);
  const LoadMatrix loads = compute_loads(instance, s);
  for (net::EdgeId e = 0; e < instance.num_edges(); ++e) {
    EXPECT_DOUBLE_EQ(loads.peak(e), 0.0);
  }
}

TEST(Loads, BaseLoadIsAddedOntoAndShapeChecked) {
  const SpmInstance instance = tiny_instance();
  Schedule s = Schedule::all_declined(3);
  s.path_choice[0] = 0;  // request 0 on cheap route 0->1->3, slots 0-3
  const net::EdgeId e01 = instance.topology().find_edge(0, 1);
  LoadMatrix base(instance.num_edges(), instance.num_slots());
  base.add(e01, 1, 0.25);
  base.add(e01, 4, 0.25);
  const LoadMatrix loads = compute_loads(instance, s, &base);
  EXPECT_DOUBLE_EQ(loads.at(e01, 1), 0.25 + 0.6);  // base, then request 0
  EXPECT_DOUBLE_EQ(loads.at(e01, 4), 0.25);        // base alone
  EXPECT_DOUBLE_EQ(loads.at(e01, 2), compute_loads(instance, s).at(e01, 2));
  // A base of another shape would be indexed out of bounds.
  const LoadMatrix too_few_slots(instance.num_edges(), instance.num_slots() - 1);
  EXPECT_THROW(compute_loads(instance, s, &too_few_slots), std::invalid_argument);
  const LoadMatrix too_few_edges(instance.num_edges() - 1, instance.num_slots());
  EXPECT_THROW(compute_loads(instance, s, &too_few_edges), std::invalid_argument);
}

// ------------------------------------------------------------ ceiling ----

TEST(Charging, CeilsPeakLoads) {
  const SpmInstance instance = tiny_instance();
  Schedule s = Schedule::all_declined(3);
  s.path_choice[0] = 0;
  s.path_choice[1] = 0;
  const ChargingPlan plan = charging_from_loads(compute_loads(instance, s));
  const net::EdgeId e01 = instance.topology().find_edge(0, 1);
  EXPECT_EQ(plan.units[e01], 2);  // peak 1.3 -> 2 units
  const net::EdgeId e02 = instance.topology().find_edge(0, 2);
  EXPECT_EQ(plan.units[e02], 0);
  EXPECT_EQ(plan.total_units(), 4);  // 2 units on each of the two used edges
}

TEST(Charging, ChargedUnitsHelperMatchesCeilingRule) {
  // The single shared guard: ceil with a 1e-9 backoff.
  EXPECT_EQ(charged_units(0.0), 0);
  EXPECT_EQ(charged_units(1e-12), 0);    // below the backoff: nothing owed
  EXPECT_EQ(charged_units(0.3), 1);
  EXPECT_EQ(charged_units(1.0), 1);
  EXPECT_EQ(charged_units(1.0000000001), 1);  // float-accumulation slack
  EXPECT_EQ(charged_units(1.1), 2);
  EXPECT_EQ(charged_units(2.0), 2);
  EXPECT_EQ(charged_units(7.5), 8);
}

TEST(Charging, PlanUsesChargedUnitsPerEdge) {
  // charging_from_loads and the helper must agree bit-for-bit: the Metis SP
  // updater estimates savings with charged_units and must never drift from
  // the billed plan.
  const SpmInstance instance = tiny_instance();
  Schedule s = Schedule::all_declined(3);
  s.path_choice[0] = 0;
  s.path_choice[1] = 1;
  s.path_choice[2] = 0;
  const LoadMatrix loads = compute_loads(instance, s);
  const ChargingPlan plan = charging_from_loads(loads);
  for (net::EdgeId e = 0; e < instance.num_edges(); ++e) {
    EXPECT_EQ(plan.units[e], charged_units(loads.peak(e))) << "edge " << e;
  }
}

TEST(Charging, ExactIntegerPeakNotOvercharged) {
  // A rate summing to exactly 1.0 must charge 1 unit, not 2.
  net::Topology topo(2);
  topo.add_edge(0, 1, 1.0);
  std::vector<workload::Request> requests = {
      {0, 1, 0, 0, 0.5, 1.0}, {0, 1, 0, 0, 0.5, 1.0}};
  InstanceConfig config;
  config.num_slots = 2;
  const SpmInstance instance(std::move(topo), std::move(requests), config);
  Schedule s = Schedule::all_declined(2);
  s.path_choice[0] = 0;
  s.path_choice[1] = 0;
  const ChargingPlan plan = charging_from_loads(compute_loads(instance, s));
  EXPECT_EQ(plan.units[0], 1);
}

// ------------------------------------------------ revenue/cost/profit ----

TEST(Accounting, RevenueSumsAcceptedValues) {
  const SpmInstance instance = tiny_instance();
  Schedule s = Schedule::all_declined(3);
  EXPECT_DOUBLE_EQ(revenue(instance, s), 0.0);
  s.path_choice[0] = 0;
  s.path_choice[2] = 0;
  EXPECT_DOUBLE_EQ(revenue(instance, s), 7.0);
}

TEST(Accounting, CostWeightsUnitsByPrice) {
  const SpmInstance instance = tiny_instance();
  ChargingPlan plan = ChargingPlan::none(instance.num_edges());
  plan.units[instance.topology().find_edge(0, 2)] = 3;  // price 2
  plan.units[instance.topology().find_edge(0, 1)] = 1;  // price 1
  EXPECT_DOUBLE_EQ(cost(instance.topology(), plan), 7.0);
}

TEST(Accounting, CostValidatesPlanSize) {
  const SpmInstance instance = tiny_instance();
  EXPECT_THROW(cost(instance.topology(), ChargingPlan{{1, 2}}),
               std::invalid_argument);
}

TEST(Accounting, EvaluateDerivesProfit) {
  const SpmInstance instance = tiny_instance();
  Schedule s = Schedule::all_declined(3);
  s.path_choice[0] = 0;
  const ProfitBreakdown pb = evaluate(instance, s);
  EXPECT_DOUBLE_EQ(pb.revenue, 5.0);
  // One unit on each of 0->1 (price 1) and 1->3 (price 1).
  EXPECT_DOUBLE_EQ(pb.cost, 2.0);
  EXPECT_DOUBLE_EQ(pb.profit, 3.0);
  EXPECT_EQ(pb.accepted, 1);
}

TEST(Accounting, UtilizationSummary) {
  const SpmInstance instance = tiny_instance();
  Schedule s = Schedule::all_declined(3);
  s.path_choice[0] = 0;  // 0.6 units over slots 0..3 on two edges
  const ChargingPlan plan = charging_from_loads(compute_loads(instance, s));
  const Summary util = utilization_summary(instance, s, plan);
  EXPECT_EQ(util.count, 2u);  // two purchased edges
  // mean load = 0.6*4/6 = 0.4 over 1 unit on both edges.
  EXPECT_NEAR(util.mean, 0.4, 1e-12);
  EXPECT_NEAR(util.min, 0.4, 1e-12);
  EXPECT_NEAR(util.max, 0.4, 1e-12);
}

TEST(Loads, FullCycleRequestLoadsEverySlot) {
  net::Topology topo(2);
  topo.add_edge(0, 1, 1.0);
  std::vector<workload::Request> requests = {{0, 1, 0, 11, 0.3, 1.0}};
  InstanceConfig config;
  config.num_slots = 12;
  const SpmInstance instance(std::move(topo), std::move(requests), config);
  Schedule s = Schedule::all_declined(1);
  s.path_choice[0] = 0;
  const LoadMatrix loads = compute_loads(instance, s);
  for (int t = 0; t < 12; ++t) {
    EXPECT_NEAR(loads.at(0, t), 0.3, 1e-12);
  }
  EXPECT_NEAR(loads.mean(0), 0.3, 1e-12);
  EXPECT_NEAR(loads.peak(0), 0.3, 1e-12);
}

TEST(Loads, SingleSlotBoundaries) {
  // Requests pinned to the first and last slot of the cycle.
  net::Topology topo(2);
  topo.add_edge(0, 1, 1.0);
  std::vector<workload::Request> requests = {
      {0, 1, 0, 0, 0.4, 1.0},    // first slot only
      {0, 1, 11, 11, 0.7, 1.0},  // last slot only
  };
  InstanceConfig config;
  config.num_slots = 12;
  const SpmInstance instance(std::move(topo), std::move(requests), config);
  Schedule s = Schedule::all_declined(2);
  s.path_choice[0] = 0;
  s.path_choice[1] = 0;
  const LoadMatrix loads = compute_loads(instance, s);
  EXPECT_NEAR(loads.at(0, 0), 0.4, 1e-12);
  EXPECT_NEAR(loads.at(0, 11), 0.7, 1e-12);
  for (int t = 1; t < 11; ++t) {
    EXPECT_DOUBLE_EQ(loads.at(0, t), 0.0);
  }
  // The peak across disjoint windows is their max, not their sum.
  const ChargingPlan plan = charging_from_loads(loads);
  EXPECT_EQ(plan.units[0], 1);
}

TEST(Charging, LargeRateChargesMultipleUnits) {
  net::Topology topo(2);
  topo.add_edge(0, 1, 1.0);
  std::vector<workload::Request> requests = {{0, 1, 0, 0, 3.2, 1.0}};
  InstanceConfig config;
  config.num_slots = 1;
  const SpmInstance instance(std::move(topo), std::move(requests), config);
  Schedule s = Schedule::all_declined(1);
  s.path_choice[0] = 0;
  EXPECT_EQ(charging_from_loads(compute_loads(instance, s)).units[0], 4);
}

TEST(Accounting, UtilizationEmptyWhenNothingPurchased) {
  const SpmInstance instance = tiny_instance();
  const Schedule s = Schedule::all_declined(3);
  const Summary util = utilization_summary(
      instance, s, ChargingPlan::none(instance.num_edges()));
  EXPECT_EQ(util.count, 0u);
}

}  // namespace
}  // namespace metis::core
