// Tests for the SPM / RL-SPM / BL-SPM model builders: shapes, solution
// extraction, and end-to-end sanity of the exact formulations on tiny
// instances.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/accounting.h"
#include "core/instance.h"
#include "core/lp_builder.h"
#include "lp/mip.h"
#include "lp/simplex.h"
#include "net/paths.h"
#include "net/topologies.h"
#include "util/rng.h"

namespace metis::core {
namespace {

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
      {0, 3, 0, 3, 0.6, 5.0},
      {0, 3, 2, 5, 0.7, 4.0},
      {1, 3, 1, 1, 0.3, 2.0},
  };
  InstanceConfig config;
  config.num_slots = 6;
  config.max_paths = 3;
  return SpmInstance(diamond(), std::move(requests), config);
}

// --------------------------------------------------------------- shapes ---

TEST(Builder, RlSpmShape) {
  const SpmInstance instance = tiny_instance();
  const SpmModel model = build_rl_spm(instance);
  // x vars: 2 + 2 + 1 paths; c vars: 4 edges.
  EXPECT_EQ(model.problem.num_variables(), 5 + 4);
  EXPECT_EQ(static_cast<int>(model.x_columns().size()), 5);
  EXPECT_EQ(static_cast<int>(model.integer_columns().size()), 9);
  EXPECT_EQ(model.problem.sense(), lp::Sense::Minimize);
  // The objective touches only c columns.
  for (int col : model.x_columns()) {
    EXPECT_DOUBLE_EQ(model.problem.objective_coef(col), 0.0);
  }
  for (net::EdgeId e = 0; e < instance.num_edges(); ++e) {
    EXPECT_DOUBLE_EQ(model.problem.objective_coef(model.c_var[e]),
                     instance.topology().edge(e).price);
  }
}

TEST(Builder, BlSpmShape) {
  const SpmInstance instance = tiny_instance();
  ChargingPlan caps = ChargingPlan::none(instance.num_edges());
  caps.units.assign(instance.num_edges(), 2);
  const SpmModel model = build_bl_spm(instance, caps);
  EXPECT_EQ(model.problem.num_variables(), 5);  // x only
  EXPECT_TRUE(model.c_var.empty());
  EXPECT_EQ(model.problem.sense(), lp::Sense::Maximize);
  // Objective carries the request values.
  EXPECT_DOUBLE_EQ(model.problem.objective_coef(model.x_var[0][0]), 5.0);
  EXPECT_DOUBLE_EQ(model.problem.objective_coef(model.x_var[2][0]), 2.0);
}

TEST(Builder, BlSpmValidatesCapacitySize) {
  const SpmInstance instance = tiny_instance();
  EXPECT_THROW(build_bl_spm(instance, ChargingPlan{{1}}), std::invalid_argument);
}

TEST(Builder, AcceptedMaskExcludesRequests) {
  const SpmInstance instance = tiny_instance();
  const std::vector<bool> accepted = {true, false, true};
  const SpmModel model = build_rl_spm(instance, accepted);
  EXPECT_EQ(static_cast<int>(model.x_columns().size()), 3);  // 2 + 1 paths
  EXPECT_EQ(model.x_var[1][0], -1);
}

TEST(Builder, BadMaskSizeThrows) {
  const SpmInstance instance = tiny_instance();
  EXPECT_THROW(build_rl_spm(instance, std::vector<bool>{true}),
               std::invalid_argument);
}

// ----------------------------------------------------- LP relaxations -----

TEST(Builder, RlSpmRelaxationLowerBoundsCost) {
  const SpmInstance instance = tiny_instance();
  const SpmModel model = build_rl_spm(instance);
  const lp::LpSolution sol = lp::SimplexSolver().solve(model.problem);
  ASSERT_TRUE(sol.ok());
  // Cheapest conceivable: all three on price-2 route 0->1->3 needs at least
  // 1 unit on two edges = 2; LP can be fractional but >= some positive cost.
  EXPECT_GT(sol.objective, 0.0);
  EXPECT_LE(sol.objective, 8.0);  // sanity ceiling (expensive route cost)
  // Assignment rows hold: each accepted request fully routed.
  for (int i = 0; i < instance.num_requests(); ++i) {
    double total = 0;
    for (int j = 0; j < instance.num_paths(i); ++j) {
      total += sol.x[model.x_var[i][j]];
    }
    EXPECT_NEAR(total, 1.0, 1e-6);
  }
}

TEST(Builder, BlSpmRelaxationBoundedByTotalValue) {
  const SpmInstance instance = tiny_instance();
  ChargingPlan caps;
  caps.units.assign(instance.num_edges(), 10);
  const SpmModel model = build_bl_spm(instance, caps);
  const lp::LpSolution sol = lp::SimplexSolver().solve(model.problem);
  ASSERT_TRUE(sol.ok());
  // Ample capacity: everything fits, revenue = total value = 11.
  EXPECT_NEAR(sol.objective, 11.0, 1e-6);
}

TEST(Builder, BlSpmZeroCapacityForcesDecline) {
  const SpmInstance instance = tiny_instance();
  const ChargingPlan caps = ChargingPlan::none(instance.num_edges());
  const SpmModel model = build_bl_spm(instance, caps);
  const lp::LpSolution sol = lp::SimplexSolver().solve(model.problem);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol.objective, 0.0, 1e-6);
}

TEST(Builder, RlSpmPurchaseCapBoundsColumns) {
  const SpmInstance instance = tiny_instance();
  // Cap every edge at 1 unit: the c columns get hard upper bounds and the
  // LP still routes everything (loads fit in one unit per edge).
  const std::vector<int> caps(static_cast<std::size_t>(instance.num_edges()), 1);
  const SpmModel model = build_rl_spm(instance, {}, nullptr, &caps);
  const lp::LpSolution sol = lp::SimplexSolver().solve(model.problem);
  ASSERT_TRUE(sol.ok());
  for (net::EdgeId e = 0; e < instance.num_edges(); ++e) {
    EXPECT_LE(sol.x[model.c_var[e]], 1.0 + 1e-9);
  }
  // Entry -1 = uncapacitated; wrong size throws.
  const std::vector<int> open(static_cast<std::size_t>(instance.num_edges()),
                              -1);
  const SpmModel free_model = build_rl_spm(instance, {}, nullptr, &open);
  const lp::LpSolution free_sol = lp::SimplexSolver().solve(free_model.problem);
  ASSERT_TRUE(free_sol.ok());
  // All-(-1) equals the unbounded model; binding caps can only raise cost
  // (here they do: requests 1 and 2 overlap at 1.3 units, forcing the
  // expensive detour).
  const SpmModel unbounded = build_rl_spm(instance);
  const lp::LpSolution unbounded_sol =
      lp::SimplexSolver().solve(unbounded.problem);
  ASSERT_TRUE(unbounded_sol.ok());
  EXPECT_NEAR(free_sol.objective, unbounded_sol.objective, 1e-9);
  EXPECT_GE(sol.objective, free_sol.objective - 1e-9);
  const std::vector<int> short_caps(2, 1);
  EXPECT_THROW(build_rl_spm(instance, {}, nullptr, &short_caps),
               std::invalid_argument);
}

TEST(Builder, BlSpmPinnedAboveCapacityClampsToZero) {
  // Regression for the fault path: a link degrade can shrink cap_e below
  // the already-committed load.  The BL-SPM capacity row's RHS
  // (cap − pinned) used to go negative, making the whole model infeasible;
  // it must clamp to zero (free load barred from the edge, commitments
  // honored elsewhere).
  const SpmInstance instance = tiny_instance();
  LoadMatrix pinned(instance.num_edges(), instance.num_slots());
  pinned.add(0, 0, 3.0);  // committed load far above the cap below
  ChargingPlan caps;
  caps.units.assign(instance.num_edges(), 1);
  const SpmModel model = build_bl_spm(instance, caps, {}, {}, &pinned);
  const lp::LpSolution sol = lp::SimplexSolver().solve(model.problem);
  // Feasible: the clamped row only forbids *new* load on the shrunk edge.
  ASSERT_TRUE(sol.ok());
}

// ------------------------------------------------------ exact (B&B) ------

TEST(Builder, SpmIlpFindsProfitablePlan) {
  const SpmInstance instance = tiny_instance();
  const SpmModel model = build_spm(instance);
  const lp::MipResult mip =
      lp::MipSolver().solve(model.problem, model.integer_columns());
  ASSERT_TRUE(mip.ok());
  const Schedule schedule = schedule_from_solution(instance, model, mip.x);
  const ChargingPlan plan = plan_from_solution(instance, model, mip.x);
  const ProfitBreakdown pb = evaluate_with_plan(instance, schedule, plan);
  EXPECT_NEAR(pb.profit, mip.objective, 1e-5);
  EXPECT_GT(pb.profit, 0.0);
  // The tiny instance is profitable enough that OPT accepts everything on
  // the cheap route: revenue 11, cost 2 units x 2 edges x price 1 = 4.
  EXPECT_NEAR(pb.profit, 7.0, 1e-5);
}

TEST(Builder, RlSpmIlpCostAtLeastLpBound) {
  const SpmInstance instance = tiny_instance();
  const SpmModel model = build_rl_spm(instance);
  const lp::LpSolution lp_sol = lp::SimplexSolver().solve(model.problem);
  const lp::MipResult mip =
      lp::MipSolver().solve(model.problem, model.integer_columns());
  ASSERT_TRUE(lp_sol.ok());
  ASSERT_TRUE(mip.ok());
  EXPECT_GE(mip.objective, lp_sol.objective - 1e-6);
  const Schedule schedule = schedule_from_solution(instance, model, mip.x);
  EXPECT_EQ(schedule.num_accepted(), instance.num_requests());
}

// -------------------------------------------------- solution extraction --

TEST(Builder, ScheduleFromSolutionThreshold) {
  const SpmInstance instance = tiny_instance();
  const SpmModel model = build_rl_spm(instance);
  std::vector<double> x(model.problem.num_variables(), 0.0);
  x[model.x_var[0][1]] = 1.0;
  x[model.x_var[2][0]] = 0.9;
  // request 1 fractional below threshold everywhere -> declined.
  x[model.x_var[1][0]] = 0.4;
  x[model.x_var[1][1]] = 0.4;
  const Schedule schedule = schedule_from_solution(instance, model, x);
  EXPECT_EQ(schedule.path_choice[0], 1);
  EXPECT_EQ(schedule.path_choice[1], kDeclined);
  EXPECT_EQ(schedule.path_choice[2], 0);
}

TEST(Builder, PlanFromSolutionRoundsC) {
  const SpmInstance instance = tiny_instance();
  const SpmModel model = build_rl_spm(instance);
  std::vector<double> x(model.problem.num_variables(), 0.0);
  x[model.c_var[0]] = 2.0000001;
  x[model.c_var[3]] = 0.9999999;
  const ChargingPlan plan = plan_from_solution(instance, model, x);
  EXPECT_EQ(plan.units[0], 2);
  EXPECT_EQ(plan.units[3], 1);
  EXPECT_EQ(plan.units[1], 0);
}

TEST(Builder, CostWeightLowersPathCoefficients) {
  const SpmInstance instance = tiny_instance();
  ChargingPlan caps;
  caps.units.assign(instance.num_edges(), 5);
  BlSpmOptions options;
  options.cost_weight = 1.0;
  const SpmModel plain = build_bl_spm(instance, caps);
  const SpmModel aware = build_bl_spm(instance, caps, {}, options);
  for (int i = 0; i < instance.num_requests(); ++i) {
    for (int j = 0; j < instance.num_paths(i); ++j) {
      const double c_plain = plain.problem.objective_coef(plain.x_var[i][j]);
      const double c_aware = aware.problem.objective_coef(aware.x_var[i][j]);
      EXPECT_LT(c_aware, c_plain);  // footprint subtracted
      // Expensive paths are penalized more than cheap ones.
    }
    if (instance.num_paths(i) >= 2) {
      const double cheap = aware.problem.objective_coef(aware.x_var[i][0]);
      const double dear = aware.problem.objective_coef(aware.x_var[i][1]);
      EXPECT_GE(cheap, dear);  // Yen order: path 0 is the cheapest
    }
  }
}

TEST(Builder, CostWeightNegativeThrows) {
  const SpmInstance instance = tiny_instance();
  ChargingPlan caps;
  caps.units.assign(instance.num_edges(), 5);
  BlSpmOptions bad;
  bad.cost_weight = -0.5;
  EXPECT_THROW(build_bl_spm(instance, caps, {}, bad), std::invalid_argument);
}

TEST(Builder, ColumnsFromDecisionRoundTrips) {
  const SpmInstance instance = tiny_instance();
  const SpmModel model = build_spm(instance);
  Schedule schedule = Schedule::all_declined(instance.num_requests());
  schedule.path_choice[0] = 1;
  schedule.path_choice[2] = 0;
  const std::vector<double> cols = columns_from_decision(instance, model, schedule);
  // x side: schedule_from_solution inverts it.
  const Schedule back = schedule_from_solution(instance, model, cols);
  EXPECT_EQ(back.path_choice, schedule.path_choice);
  // c side: matches the ceiled loads.
  const ChargingPlan expected =
      charging_from_loads(compute_loads(instance, schedule));
  const ChargingPlan plan = plan_from_solution(instance, model, cols);
  EXPECT_EQ(plan.units, expected.units);
  // And the encoded point is feasible for the model.
  EXPECT_TRUE(model.problem.is_feasible(cols, 1e-9));
}

TEST(Builder, ColumnsFromDecisionRejectsMaskedRequests) {
  const SpmInstance instance = tiny_instance();
  const std::vector<bool> accepted = {true, false, true};
  const SpmModel model = build_rl_spm(instance, accepted);
  Schedule schedule = Schedule::all_declined(instance.num_requests());
  schedule.path_choice[1] = 0;  // request 1 is outside the model
  EXPECT_THROW(columns_from_decision(instance, model, schedule),
               std::invalid_argument);
}

TEST(Builder, CapRowMapsEdgesAndSlots) {
  const SpmInstance instance = tiny_instance();
  ChargingPlan caps;
  caps.units.assign(instance.num_edges(), 2);
  const SpmModel model = build_bl_spm(instance, caps);
  ASSERT_EQ(static_cast<int>(model.cap_row.size()), instance.num_edges());
  int rows_found = 0;
  for (net::EdgeId e = 0; e < instance.num_edges(); ++e) {
    ASSERT_EQ(static_cast<int>(model.cap_row[e].size()), instance.num_slots());
    for (int t = 0; t < instance.num_slots(); ++t) {
      const int row = model.cap_row[e][t];
      if (row < 0) continue;
      ++rows_found;
      // The mapped row really is the (e, t) capacity constraint: rhs is the
      // edge capacity and all entries are request rates of slot-t-active
      // requests whose paths use e.
      const lp::Row& r = model.problem.row(row);
      EXPECT_EQ(r.type, lp::RowType::LessEqual);
      EXPECT_DOUBLE_EQ(r.rhs, 2.0);
      for (const lp::RowEntry& entry : r.entries) {
        bool matched = false;
        for (int i = 0; i < instance.num_requests() && !matched; ++i) {
          for (int j = 0; j < instance.num_paths(i) && !matched; ++j) {
            if (model.x_var[i][j] == entry.col) {
              matched = true;
              EXPECT_TRUE(instance.request(i).active_at(t));
              EXPECT_TRUE(instance.path_uses_edge(i, j, e));
              EXPECT_DOUBLE_EQ(entry.coef, instance.request(i).rate);
            }
          }
        }
        EXPECT_TRUE(matched) << "row entry not an x column";
      }
    }
  }
  EXPECT_GT(rows_found, 0);
}

TEST(Builder, CapacityDualsAreShadowPrices) {
  // Pin a single bottleneck: one edge, two requests, one unit: the dual of
  // the binding slot equals the marginal revenue of relaxing it (the value
  // of the displaced request per unit of its rate).
  net::Topology topo(2);
  topo.add_edge(0, 1, 1.0);
  std::vector<workload::Request> requests = {
      {0, 1, 0, 0, 1.0, 6.0},
      {0, 1, 0, 0, 1.0, 2.0},
  };
  InstanceConfig config;
  config.num_slots = 1;
  const SpmInstance instance(std::move(topo), std::move(requests), config);
  ChargingPlan caps;
  caps.units = {1};
  const SpmModel model = build_bl_spm(instance, caps);
  const lp::LpSolution sol = lp::SimplexSolver().solve(model.problem);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol.objective, 6.0, 1e-6);  // only the high bid fits
  const int row = model.cap_row[0][0];
  ASSERT_GE(row, 0);
  // One more unit admits the displaced bid worth 2 (its rate is 1).
  EXPECT_NEAR(std::abs(sol.duals[row]), 2.0, 1e-6);
}

// ------------------------------------------------ capacity rows ---------

/// The capacity rows as a plain scan over every (edge, slot) cell, request
/// and path, in emission order: the reference the bucketed builder must
/// reproduce row for row.
std::vector<lp::Row> scan_capacity_rows(const SpmInstance& instance,
                                        const std::vector<bool>& accepted,
                                        const SpmModel& model,
                                        const ChargingPlan* capacities,
                                        const LoadMatrix& pinned) {
  std::vector<lp::Row> rows;
  for (net::EdgeId e = 0; e < instance.num_edges(); ++e) {
    for (int t = 0; t < instance.num_slots(); ++t) {
      std::vector<lp::RowEntry> entries;
      for (int i = 0; i < instance.num_requests(); ++i) {
        if (!accepted[i]) continue;
        const workload::Request& r = instance.request(i);
        if (!r.active_at(t)) continue;
        for (int j = 0; j < instance.num_paths(i); ++j) {
          if (instance.path_uses_edge(i, j, e)) {
            entries.push_back({model.x_var[i][j], r.rate});
          }
        }
      }
      const double committed = pinned.at(e, t);
      if (entries.empty() && (model.c_var.empty() || committed <= 0)) {
        continue;
      }
      double rhs = 0;
      if (model.c_var.empty()) {
        rhs = capacities->units.at(e);
      } else {
        entries.push_back({model.c_var[e], -1.0});
      }
      if (committed > 0) {
        rhs -= committed;
        if (model.c_var.empty() && rhs < 0) rhs = 0;
      }
      rows.push_back({lp::RowType::LessEqual, rhs, std::move(entries),
                      "cap_e" + std::to_string(e) + "_t" + std::to_string(t)});
    }
  }
  return rows;
}

/// The capacity rows close the model, in (edge, slot) order: each must
/// equal its reference row exactly, and cap_row must point at it.
void expect_capacity_rows(const SpmModel& model,
                          const std::vector<lp::Row>& expected) {
  std::vector<int> mapped;
  for (const std::vector<int>& slots : model.cap_row) {
    for (int row : slots) {
      if (row >= 0) mapped.push_back(row);
    }
  }
  ASSERT_EQ(mapped.size(), expected.size());
  const int first = model.problem.num_rows() - static_cast<int>(expected.size());
  for (std::size_t k = 0; k < expected.size(); ++k) {
    EXPECT_EQ(mapped[k], first + static_cast<int>(k));
    const lp::Row& row = model.problem.row(first + static_cast<int>(k));
    const lp::Row& want = expected[k];
    EXPECT_EQ(row.name, want.name);
    EXPECT_EQ(row.type, want.type) << want.name;
    EXPECT_EQ(row.rhs, want.rhs) << want.name;
    ASSERT_EQ(row.entries.size(), want.entries.size()) << want.name;
    for (std::size_t p = 0; p < want.entries.size(); ++p) {
      EXPECT_EQ(row.entries[p].col, want.entries[p].col) << want.name;
      EXPECT_EQ(row.entries[p].coef, want.entries[p].coef) << want.name;
    }
  }
}

TEST(Builder, CapacityRowsEqualTheFullScanOnAPinnedBook) {
  // A B4 book where four of five requests are committed and stay out of
  // the models, so most (edge, slot) cells carry pinned load only.  Every
  // seventh request must route over its fifth-cheapest path, which the
  // instance appends to the three Yen candidates.
  const net::Topology topo = net::make_b4();
  Rng rng(2024);
  std::vector<workload::Request> requests;
  std::vector<net::Path> require;
  for (int i = 0; i < 80; ++i) {
    workload::Request r;
    r.src = rng.uniform_int(0, topo.num_nodes() - 1);
    do {
      r.dst = rng.uniform_int(0, topo.num_nodes() - 1);
    } while (r.dst == r.src);
    r.start_slot = rng.uniform_int(0, 11);
    r.end_slot = rng.uniform_int(r.start_slot, 11);
    r.rate = rng.uniform(0.01, 0.5);
    r.value = rng.uniform(0.1, 3.0);
    requests.push_back(r);
    const std::vector<net::Path> ranked =
        net::k_shortest_paths(topo, r.src, r.dst, 5);
    require.push_back(i % 7 == 0 && ranked.size() == 5 ? ranked.back()
                                                       : net::Path{});
  }
  InstanceConfig config;
  config.num_slots = 12;
  config.max_paths = 3;
  const SpmInstance instance(topo, std::move(requests), config, nullptr,
                             &require);

  Schedule committed = Schedule::all_declined(instance.num_requests());
  std::vector<bool> accepted(instance.num_requests(), true);
  int appended_free = 0;
  int appended_pinned = 0;
  for (int i = 0; i < instance.num_requests(); ++i) {
    const bool appended = instance.num_paths(i) > config.max_paths;
    if (i % 5 == 0) {
      appended_free += appended;
      continue;
    }
    accepted[i] = false;
    committed.path_choice[i] = instance.num_paths(i) - 1;
    appended_pinned += appended;
  }
  ASSERT_GT(appended_free, 0);
  ASSERT_GT(appended_pinned, 0);
  const LoadMatrix pinned = compute_loads(instance, committed);

  const SpmModel rl = build_rl_spm(instance, accepted, &pinned);
  expect_capacity_rows(rl, scan_capacity_rows(instance, accepted, rl,
                                              nullptr, pinned));
  ChargingPlan caps;
  for (net::EdgeId e = 0; e < instance.num_edges(); ++e) {
    caps.units.push_back(e % 3);
  }
  const SpmModel bl = build_bl_spm(instance, caps, accepted, {}, &pinned);
  expect_capacity_rows(bl, scan_capacity_rows(instance, accepted, bl, &caps,
                                              pinned));

  // A cell with pinned load and no free request gets a row holding only
  // its c column in RL-SPM, and no row in BL-SPM.
  int pinned_only = 0;
  for (net::EdgeId e = 0; e < instance.num_edges(); ++e) {
    for (int t = 0; t < instance.num_slots(); ++t) {
      if (pinned.at(e, t) <= 0) continue;
      const int row = rl.cap_row[e][t];
      ASSERT_GE(row, 0);
      const std::vector<lp::RowEntry>& entries = rl.problem.row(row).entries;
      if (entries.size() != 1) continue;
      ++pinned_only;
      EXPECT_EQ(entries[0].col, rl.c_var[e]);
      EXPECT_EQ(bl.cap_row[e][t], -1);
    }
  }
  EXPECT_GT(pinned_only, 0);
}

TEST(Builder, PlanFromSolutionRequiresCVars) {
  const SpmInstance instance = tiny_instance();
  ChargingPlan caps;
  caps.units.assign(instance.num_edges(), 1);
  const SpmModel model = build_bl_spm(instance, caps);
  const std::vector<double> x(model.problem.num_variables(), 0.0);
  EXPECT_THROW(plan_from_solution(instance, model, x), std::invalid_argument);
}

}  // namespace
}  // namespace metis::core
