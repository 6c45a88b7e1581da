// Stress tests of the simplex solver on harder LPs than the unit suite:
// larger random programs (certified by KKT), heavy degeneracy, extreme
// coefficient magnitudes, and the real SPM relaxations at bench scale.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/lp_builder.h"
#include "lp/presolve.h"
#include "lp/simplex.h"
#include "sim/scenario.h"
#include "util/rng.h"

namespace metis::lp {
namespace {

constexpr double kTol = 1e-5;

LinearProblem doubling_chain(int length);  // defined below

/// Condensed KKT certificate (same logic as test_lp_simplex, tolerances
/// loosened for larger/badly-scaled systems).
void expect_kkt(const LinearProblem& problem, const LpSolution& sol,
                double tol) {
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_TRUE(problem.is_feasible(sol.x, tol));
  const double sign = problem.sense() == Sense::Minimize ? 1.0 : -1.0;
  std::vector<double> d(problem.num_variables());
  for (int j = 0; j < problem.num_variables(); ++j) {
    d[j] = sign * problem.objective_coef(j);
  }
  for (int r = 0; r < problem.num_rows(); ++r) {
    const double y = sign * sol.duals[r];
    for (const RowEntry& e : problem.row(r).entries) {
      d[e.col] -= y * e.coef;
    }
  }
  for (int j = 0; j < problem.num_variables(); ++j) {
    const double lb = problem.lower_bound(j);
    const double ub = problem.upper_bound(j);
    const double xj = sol.x[j];
    const bool at_lower = std::isfinite(lb) && xj <= lb + tol;
    const bool at_upper = std::isfinite(ub) && xj >= ub - tol;
    if (at_lower && at_upper) continue;
    if (at_lower) {
      EXPECT_GE(d[j], -10 * tol) << "col " << j;
    } else if (at_upper) {
      EXPECT_LE(d[j], 10 * tol) << "col " << j;
    } else {
      EXPECT_NEAR(d[j], 0, 10 * tol) << "col " << j;
    }
  }
}

class LargeRandomLp : public ::testing::TestWithParam<int> {};

TEST_P(LargeRandomLp, SolvedAndCertified) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 265443u + 97);
  const int n = rng.uniform_int(20, 40);
  const int m = rng.uniform_int(20, 60);
  LinearProblem p(rng.bernoulli(0.5) ? Sense::Minimize : Sense::Maximize);
  std::vector<double> x0(n);
  for (int j = 0; j < n; ++j) {
    const double lb = rng.uniform(-10, 0);
    const double ub = rng.uniform(0.5, 10);
    p.add_variable(lb, ub, rng.uniform(-5, 5));
    x0[j] = rng.uniform(lb, ub);
  }
  for (int r = 0; r < m; ++r) {
    std::vector<RowEntry> entries;
    double activity = 0;
    for (int j = 0; j < n; ++j) {
      if (!rng.bernoulli(0.3)) continue;
      const double coef = rng.uniform(-3, 3);
      entries.push_back({j, coef});
      activity += coef * x0[j];
    }
    if (entries.empty()) continue;
    const double margin = rng.uniform(0, 1);
    switch (rng.uniform_int(0, 2)) {
      case 0: p.add_row(RowType::LessEqual, activity + margin, entries); break;
      case 1: p.add_row(RowType::GreaterEqual, activity - margin, entries); break;
      default: p.add_row(RowType::Equal, activity, entries); break;
    }
  }
  const LpSolution sol = SimplexSolver().solve(p);
  ASSERT_EQ(sol.status, SolveStatus::Optimal) << "seed " << GetParam();
  expect_kkt(p, sol, kTol);
  const double witness = p.objective_value(x0);
  if (p.sense() == Sense::Minimize) {
    EXPECT_LE(sol.objective, witness + kTol);
  } else {
    EXPECT_GE(sol.objective, witness - kTol);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, LargeRandomLp, ::testing::Range(0, 25));

TEST(SimplexStress, HeavyDegeneracy) {
  // Many coincident constraints through the optimum: classic cycling bait.
  LinearProblem p(Sense::Maximize);
  const int x = p.add_variable(0, kInfinity, 1);
  const int y = p.add_variable(0, kInfinity, 1);
  const int z = p.add_variable(0, kInfinity, 1);
  for (int i = 1; i <= 12; ++i) {
    p.add_row(RowType::LessEqual, 6,
              {{x, static_cast<double>(i)},
               {y, static_cast<double>(i)},
               {z, static_cast<double>(i)}});
  }
  p.add_row(RowType::LessEqual, 6, {{x, 1}, {y, 2}, {z, 3}});
  const LpSolution sol = SimplexSolver().solve(p);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  // Tightest cover: 12(x+y+z) <= 6 => x+y+z <= 0.5.
  EXPECT_NEAR(sol.objective, 0.5, 1e-6);
}

TEST(SimplexStress, ExtremeCoefficientScales) {
  // Mixed magnitudes spanning 8 orders: min cx st big*x + small*y >= b.
  LinearProblem p(Sense::Minimize);
  const int x = p.add_variable(0, kInfinity, 1e4);
  const int y = p.add_variable(0, kInfinity, 1e-3);
  p.add_row(RowType::GreaterEqual, 5, {{x, 1e4}, {y, 1e-4}});
  const LpSolution sol = SimplexSolver().solve(p);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  // Either buy 5e-4 of x (cost 5) or 5e4 of y (cost 50): x wins.
  EXPECT_NEAR(sol.objective, 5.0, 1e-4);
}

TEST(SimplexStress, BadlyScaledRandomLpsSolveDirectly) {
  // Objective and row coefficients spanning six orders of magnitude: the
  // default solve must still reach a feasible optimum.
  Rng rng(424242);
  for (int trial = 0; trial < 15; ++trial) {
    const int n = rng.uniform_int(2, 6);
    LinearProblem p(rng.bernoulli(0.5) ? Sense::Minimize : Sense::Maximize);
    std::vector<double> x0(n);
    for (int j = 0; j < n; ++j) {
      const double lb = rng.uniform(-3, 0);
      const double ub = rng.uniform(0.5, 4);
      // Badly scaled objective on purpose.
      p.add_variable(lb, ub, rng.uniform(-2, 2) * std::pow(10, rng.uniform_int(-3, 3)));
      x0[j] = rng.uniform(lb, ub);
    }
    for (int r = 0; r < 5; ++r) {
      std::vector<RowEntry> entries;
      double activity = 0;
      for (int j = 0; j < n; ++j) {
        if (!rng.bernoulli(0.6)) continue;
        const double coef =
            rng.uniform(-2, 2) * std::pow(10, rng.uniform_int(-3, 3));
        entries.push_back({j, coef});
        activity += coef * x0[j];
      }
      if (entries.empty()) continue;
      p.add_row(RowType::LessEqual, activity + rng.uniform(0, 1), entries);
    }
    const LpSolution direct = SimplexSolver().solve(p);
    ASSERT_EQ(direct.status, SolveStatus::Optimal) << "trial " << trial;
    EXPECT_TRUE(p.is_feasible(direct.x, 1e-5)) << "trial " << trial;
  }
}

TEST(SimplexStress, DoublingChainSolvedThroughPresolveByDefault) {
  // The default solve never hands the chain to the simplex: presolve
  // substitutes every singleton equality away, which is what keeps longer
  // chains solvable (see DoublingChainBeyondLimitNeedsPresolve below).
  const LinearProblem p = doubling_chain(22);
  const LpSolution sol = SimplexSolver().solve(p);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_NEAR(sol.objective, std::pow(2.0, 22), 1e-2);
  EXPECT_EQ(sol.stats.presolve_removed_rows, p.num_rows());
}

LinearProblem doubling_chain(int length) {
  // x_0 = 1, x_{i+1} = 2 x_i: the value doubles through `length` equalities,
  // so the solution spans 2^length while every coefficient is 1 or 2 — an
  // intrinsically ill-conditioned system that no equilibration can fix.
  LinearProblem p(Sense::Minimize);
  std::vector<int> cols;
  for (int i = 0; i <= length; ++i) {
    cols.push_back(
        p.add_variable(-kInfinity, kInfinity, i == length ? 1.0 : 0.0));
  }
  p.add_row(RowType::Equal, 1, {{cols[0], 1}});
  for (int i = 0; i < length; ++i) {
    p.add_row(RowType::Equal, 0, {{cols[i + 1], 1}, {cols[i], -2}});
  }
  return p;
}

TEST(SimplexStress, DoublingChainWithinConditioningLimit) {
  // The bare simplex handles ~6 orders of magnitude of solution spread.
  const LinearProblem p = doubling_chain(20);
  const LpSolution sol = SimplexSolver().solve(p);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_NEAR(sol.objective, std::pow(2.0, 20), 1e-3);
}

TEST(SimplexStress, DoublingChainBeyondLimitNeedsPresolve) {
  // At 2^30 the phase-1 reduced costs shrink below any safe pricing
  // tolerance — the textbook case for presolve, whose singleton-equality
  // substitution eliminates the chain entirely in exact arithmetic.
  const LinearProblem p = doubling_chain(30);
  const PresolveResult pr = presolve(p);
  ASSERT_FALSE(pr.infeasible);
  EXPECT_EQ(pr.reduced.num_variables(), 0);  // fully eliminated
  EXPECT_EQ(pr.reduced.num_rows(), 0);
  EXPECT_NEAR(pr.objective_offset, std::pow(2.0, 30), 1.0);
  EXPECT_NEAR(pr.fixed_value.back(), std::pow(2.0, 30), 1.0);
}

TEST(SimplexStress, BenchScaleRlSpmCertified) {
  // The real K=200 B4 relaxation (the workhorse LP of every figure),
  // certified by KKT rather than just trusted.
  sim::Scenario scenario;
  scenario.network = sim::Network::B4;
  scenario.num_requests = 200;
  scenario.seed = 3;
  const core::SpmInstance instance = sim::make_instance(scenario);
  const core::SpmModel model = core::build_rl_spm(instance);
  const LpSolution sol = SimplexSolver().solve(model.problem);
  expect_kkt(model.problem, sol, 1e-5);
}

TEST(SimplexStress, PresolvedBenchScaleAgrees) {
  sim::Scenario scenario;
  scenario.network = sim::Network::B4;
  scenario.num_requests = 150;
  scenario.seed = 5;
  const core::SpmInstance instance = sim::make_instance(scenario);
  const core::SpmModel model = core::build_rl_spm(instance);
  const PresolveResult pr = presolve(model.problem);
  ASSERT_FALSE(pr.infeasible);
  const LpSolution direct = SimplexSolver().solve(model.problem);
  const LpSolution reduced = SimplexSolver().solve(pr.reduced);
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(reduced.ok());
  EXPECT_NEAR(direct.objective, reduced.objective + pr.objective_offset, 1e-4);
}

}  // namespace
}  // namespace metis::lp
