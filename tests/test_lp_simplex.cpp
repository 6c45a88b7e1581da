// Tests for the two-phase bounded-variable simplex solver.
//
// Strategy:
//  * hand-checked LPs with known optima (including degenerate, equality,
//    bounded, free-variable, maximization and infeasible/unbounded cases);
//  * a KKT/duality verifier: any claimed-Optimal solution must be primal
//    feasible, complementary-slack and reduced-cost sign-consistent, and
//    must satisfy the strong-duality identity — together these certify
//    optimality independently of the solver's internals;
//  * parameterized property sweeps on random feasible-by-construction LPs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "lp/presolve.h"
#include "lp/problem.h"
#include "lp/simplex.h"
#include "util/rng.h"

namespace metis::lp {
namespace {

constexpr double kTol = 1e-6;

/// Certifies optimality of `sol` for `problem` through the KKT conditions.
void check_kkt(const LinearProblem& problem, const LpSolution& sol) {
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  ASSERT_EQ(static_cast<int>(sol.x.size()), problem.num_variables());
  ASSERT_EQ(static_cast<int>(sol.duals.size()), problem.num_rows());
  // Primal feasibility.
  EXPECT_TRUE(problem.is_feasible(sol.x, kTol));

  // Work in minimization form: flip costs and duals for Maximize.
  const double sign = problem.sense() == Sense::Minimize ? 1.0 : -1.0;
  std::vector<double> y(problem.num_rows());
  for (int r = 0; r < problem.num_rows(); ++r) y[r] = sign * sol.duals[r];

  // Reduced costs d_j = c_j - y^T A_j.
  std::vector<double> d(problem.num_variables());
  for (int j = 0; j < problem.num_variables(); ++j) {
    d[j] = sign * problem.objective_coef(j);
  }
  for (int r = 0; r < problem.num_rows(); ++r) {
    for (const RowEntry& e : problem.row(r).entries) {
      d[e.col] -= y[r] * e.coef;
    }
  }

  // Dual sign conditions per variable position.
  for (int j = 0; j < problem.num_variables(); ++j) {
    const double lb = problem.lower_bound(j);
    const double ub = problem.upper_bound(j);
    const double xj = sol.x[j];
    const bool at_lower = std::isfinite(lb) && xj <= lb + kTol;
    const bool at_upper = std::isfinite(ub) && xj >= ub - kTol;
    if (at_lower && at_upper) continue;  // fixed: any reduced cost ok
    if (at_lower) {
      EXPECT_GE(d[j], -1e-5) << "reduced cost sign at lower bound, col " << j;
    } else if (at_upper) {
      EXPECT_LE(d[j], 1e-5) << "reduced cost sign at upper bound, col " << j;
    } else {
      EXPECT_NEAR(d[j], 0, 1e-5) << "interior variable with nonzero reduced cost";
    }
  }

  // Row dual signs + complementary slackness.
  for (int r = 0; r < problem.num_rows(); ++r) {
    const double activity = problem.row_activity(r, sol.x);
    const double slack = problem.row(r).rhs - activity;
    switch (problem.row(r).type) {
      case RowType::LessEqual:
        // min form: binding LE rows have y <= 0 with our +slack convention.
        EXPECT_LE(y[r], 1e-5);
        if (slack > kTol) {
          EXPECT_NEAR(y[r], 0, 1e-5);
        }
        break;
      case RowType::GreaterEqual:
        EXPECT_GE(y[r], -1e-5);
        if (slack < -kTol) {
          EXPECT_NEAR(y[r], 0, 1e-5);
        }
        break;
      case RowType::Equal:
        break;  // free dual
    }
  }

  // Strong duality identity: c^T x = d^T x + y^T (b - s) with s the row
  // slack; equivalently c^T x - y^T b - d^T x + y^T s = 0.
  double lhs = 0;
  for (int j = 0; j < problem.num_variables(); ++j) {
    lhs += (sign * problem.objective_coef(j) - d[j]) * sol.x[j];
  }
  double rhs = 0;
  for (int r = 0; r < problem.num_rows(); ++r) {
    rhs += y[r] * problem.row_activity(r, sol.x);
  }
  EXPECT_NEAR(lhs, rhs, 1e-4 * (1 + std::abs(lhs)));
}

LpSolution solve(const LinearProblem& problem) {
  return SimplexSolver().solve(problem);
}

// ----------------------------------------------------- hand-built LPs ----

TEST(Simplex, TrivialBoundsOnlyMin) {
  LinearProblem p(Sense::Minimize);
  p.add_variable(1, 5, 2.0);
  p.add_variable(-3, 7, -1.0);
  const LpSolution sol = solve(p);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_NEAR(sol.x[0], 1, kTol);
  EXPECT_NEAR(sol.x[1], 7, kTol);
  EXPECT_NEAR(sol.objective, 2 * 1 - 7, kTol);
}

TEST(Simplex, ClassicTwoVariable) {
  // max 3x + 5y st x <= 4; 2y <= 12; 3x + 2y <= 18; x,y >= 0  (opt 36)
  LinearProblem p(Sense::Maximize);
  const int x = p.add_variable(0, kInfinity, 3);
  const int y = p.add_variable(0, kInfinity, 5);
  p.add_row(RowType::LessEqual, 4, {{x, 1}});
  p.add_row(RowType::LessEqual, 12, {{y, 2}});
  p.add_row(RowType::LessEqual, 18, {{x, 3}, {y, 2}});
  const LpSolution sol = solve(p);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_NEAR(sol.objective, 36, kTol);
  EXPECT_NEAR(sol.x[x], 2, kTol);
  EXPECT_NEAR(sol.x[y], 6, kTol);
  check_kkt(p, sol);
}

TEST(Simplex, EqualityConstraint) {
  // min x + 2y st x + y = 10, x <= 4 => x=4, y=6, obj=16
  LinearProblem p(Sense::Minimize);
  const int x = p.add_variable(0, 4, 1);
  const int y = p.add_variable(0, kInfinity, 2);
  p.add_row(RowType::Equal, 10, {{x, 1}, {y, 1}});
  const LpSolution sol = solve(p);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_NEAR(sol.objective, 16, kTol);
  check_kkt(p, sol);
}

TEST(Simplex, GreaterEqualRows) {
  // min 2x + 3y st x + y >= 4; x + 3y >= 6; x,y >= 0 => (3,1) obj 9
  LinearProblem p(Sense::Minimize);
  const int x = p.add_variable(0, kInfinity, 2);
  const int y = p.add_variable(0, kInfinity, 3);
  p.add_row(RowType::GreaterEqual, 4, {{x, 1}, {y, 1}});
  p.add_row(RowType::GreaterEqual, 6, {{x, 1}, {y, 3}});
  const LpSolution sol = solve(p);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_NEAR(sol.objective, 9, kTol);
  EXPECT_NEAR(sol.x[x], 3, kTol);
  EXPECT_NEAR(sol.x[y], 1, kTol);
  check_kkt(p, sol);
}

TEST(Simplex, FreeVariable) {
  // min x st x >= -7 handled via free var + GE row.
  LinearProblem p(Sense::Minimize);
  const int x = p.add_variable(-kInfinity, kInfinity, 1);
  p.add_row(RowType::GreaterEqual, -7, {{x, 1}});
  const LpSolution sol = solve(p);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_NEAR(sol.objective, -7, kTol);
  check_kkt(p, sol);
}

TEST(Simplex, InfeasibleDetected) {
  LinearProblem p(Sense::Minimize);
  const int x = p.add_variable(0, 1, 1);
  p.add_row(RowType::GreaterEqual, 5, {{x, 1}});
  EXPECT_EQ(solve(p).status, SolveStatus::Infeasible);
}

TEST(Simplex, InfeasibleEqualitySystem) {
  LinearProblem p(Sense::Minimize);
  const int x = p.add_variable(0, kInfinity, 0);
  const int y = p.add_variable(0, kInfinity, 0);
  p.add_row(RowType::Equal, 1, {{x, 1}, {y, 1}});
  p.add_row(RowType::Equal, 3, {{x, 1}, {y, 1}});
  EXPECT_EQ(solve(p).status, SolveStatus::Infeasible);
}

TEST(Simplex, UnboundedDetected) {
  LinearProblem p(Sense::Maximize);
  const int x = p.add_variable(0, kInfinity, 1);
  const int y = p.add_variable(0, kInfinity, 0);
  p.add_row(RowType::GreaterEqual, 1, {{x, 1}, {y, 1}});
  EXPECT_EQ(solve(p).status, SolveStatus::Unbounded);
}

TEST(Simplex, FreeVariableUnbounded) {
  LinearProblem p(Sense::Minimize);
  p.add_variable(-kInfinity, kInfinity, 1);
  EXPECT_EQ(solve(p).status, SolveStatus::Unbounded);
}

TEST(Simplex, DegenerateVertexStillSolves) {
  // Multiple constraints meet at the optimum (classic degeneracy).
  LinearProblem p(Sense::Maximize);
  const int x = p.add_variable(0, kInfinity, 1);
  const int y = p.add_variable(0, kInfinity, 1);
  p.add_row(RowType::LessEqual, 4, {{x, 1}, {y, 1}});
  p.add_row(RowType::LessEqual, 4, {{x, 2}, {y, 2}});
  p.add_row(RowType::LessEqual, 2, {{x, 1}});
  const LpSolution sol = solve(p);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_NEAR(sol.objective, 2, kTol);
  check_kkt(p, sol);
}

TEST(Simplex, FixedVariableRespected) {
  LinearProblem p(Sense::Minimize);
  const int x = p.add_variable(3, 3, 5);   // fixed
  const int y = p.add_variable(0, 10, 1);
  p.add_row(RowType::GreaterEqual, 7, {{x, 1}, {y, 1}});
  const LpSolution sol = solve(p);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_NEAR(sol.x[x], 3, kTol);
  EXPECT_NEAR(sol.x[y], 4, kTol);
  check_kkt(p, sol);
}

TEST(Simplex, DuplicateColumnEntriesMerged) {
  // Row 0 lists x twice: 1x + 2x <= 6 means 3x <= 6.  Row 1 lists x before
  // and after y: 0.5x + y + 0.5x <= 5 means x + y <= 5.  Row 2's two x
  // entries cancel exactly: y + 0.25x + z - 0.25x <= 4 means y + z <= 4.
  LinearProblem p(Sense::Maximize);
  const int x = p.add_variable(0, kInfinity, 2);
  const int y = p.add_variable(0, kInfinity, 1);
  const int z = p.add_variable(0, kInfinity, 3);
  p.add_row(RowType::LessEqual, 6, {{x, 1}, {x, 2}});
  p.add_row(RowType::LessEqual, 5, {{x, 0.5}, {y, 1}, {x, 0.5}});
  p.add_row(RowType::LessEqual, 4, {{y, 1}, {x, 0.25}, {z, 1}, {x, -0.25}});
  SimplexOptions raw;
  raw.presolve = false;
  for (const LpSolution& sol : {solve(p), SimplexSolver(raw).solve(p)}) {
    ASSERT_EQ(sol.status, SolveStatus::Optimal);
    EXPECT_NEAR(sol.x[x], 2, kTol);
    EXPECT_NEAR(sol.x[y], 0, kTol);
    EXPECT_NEAR(sol.x[z], 4, kTol);
    EXPECT_NEAR(sol.objective, 16, kTol);
    check_kkt(p, sol);
  }

  // Presolve folds row 0 into x's bound.  Row 1 keeps the merged
  // coefficient at x's first position; row 2 no longer holds x.
  const PresolveResult pr = presolve(p);
  EXPECT_EQ(pr.row_map[0], -1);
  ASSERT_GE(pr.row_map[1], 0);
  ASSERT_GE(pr.row_map[2], 0);
  EXPECT_EQ(pr.reduced.upper_bound(pr.col_map[x]), 2);
  const std::vector<RowEntry>& row1 = pr.reduced.row(pr.row_map[1]).entries;
  ASSERT_EQ(row1.size(), 2u);
  EXPECT_EQ(row1[0].col, pr.col_map[x]);
  EXPECT_EQ(row1[0].coef, 1.0);
  EXPECT_EQ(row1[1].col, pr.col_map[y]);
  EXPECT_EQ(row1[1].coef, 1.0);
  const std::vector<RowEntry>& row2 = pr.reduced.row(pr.row_map[2]).entries;
  ASSERT_EQ(row2.size(), 2u);
  EXPECT_EQ(row2[0].col, pr.col_map[y]);
  EXPECT_EQ(row2[1].col, pr.col_map[z]);
}

TEST(Simplex, NegativeRhsEquality) {
  LinearProblem p(Sense::Minimize);
  const int x = p.add_variable(-kInfinity, kInfinity, 1);
  p.add_row(RowType::Equal, -5, {{x, 1}});
  const LpSolution sol = solve(p);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_NEAR(sol.x[x], -5, kTol);
}

TEST(Simplex, EmptyProblemIsOptimalZero) {
  LinearProblem p(Sense::Minimize);
  const LpSolution sol = solve(p);
  EXPECT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_NEAR(sol.objective, 0, kTol);
}

TEST(Simplex, RedundantRowsHandled) {
  LinearProblem p(Sense::Maximize);
  const int x = p.add_variable(0, kInfinity, 2);
  for (int i = 0; i < 5; ++i) p.add_row(RowType::LessEqual, 3, {{x, 1}});
  const LpSolution sol = solve(p);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_NEAR(sol.objective, 6, kTol);
}

TEST(Simplex, TransportationProblem) {
  // 2 suppliers (cap 20, 30), 3 consumers (dem 10, 25, 15); known optimum.
  // costs: s0: 2 4 5 / s1: 3 1 7
  LinearProblem p(Sense::Minimize);
  std::vector<std::vector<int>> v(2, std::vector<int>(3));
  const double costs[2][3] = {{2, 4, 5}, {3, 1, 7}};
  for (int s = 0; s < 2; ++s) {
    for (int c = 0; c < 3; ++c) {
      v[s][c] = p.add_variable(0, kInfinity, costs[s][c]);
    }
  }
  const double caps[2] = {20, 30};
  const double demands[3] = {10, 25, 15};
  for (int s = 0; s < 2; ++s) {
    p.add_row(RowType::LessEqual, caps[s],
              {{v[s][0], 1}, {v[s][1], 1}, {v[s][2], 1}});
  }
  for (int c = 0; c < 3; ++c) {
    p.add_row(RowType::GreaterEqual, demands[c], {{v[0][c], 1}, {v[1][c], 1}});
  }
  const LpSolution sol = solve(p);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  // Optimal plan: s1->c1 25@1, s1->c0 5@3, s0->c0 5@2, s0->c2 15@5
  //             = 25 + 15 + 10 + 75 = 125.
  EXPECT_NEAR(sol.objective, 125, 1e-5);
  check_kkt(p, sol);
}

TEST(Simplex, MaximizeDualsSignFlipped) {
  LinearProblem p(Sense::Maximize);
  const int x = p.add_variable(0, kInfinity, 4);
  p.add_row(RowType::LessEqual, 5, {{x, 1}});
  const LpSolution sol = solve(p);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  // Shadow price of the capacity in the max problem: +4 per unit (our
  // convention reports duals in the problem's own sense).
  EXPECT_NEAR(sol.objective, 20, kTol);
  EXPECT_NEAR(std::abs(sol.duals[0]), 4, 1e-5);
}

TEST(Simplex, IterationLimitReported) {
  SimplexOptions options;
  options.max_iterations = 1;
  LinearProblem p(Sense::Minimize);
  const int x = p.add_variable(0, kInfinity, 1);
  const int y = p.add_variable(0, kInfinity, 1);
  p.add_row(RowType::GreaterEqual, 4, {{x, 1}, {y, 1}});
  p.add_row(RowType::GreaterEqual, 6, {{x, 1}, {y, 3}});
  const LpSolution sol = SimplexSolver(options).solve(p);
  EXPECT_EQ(sol.status, SolveStatus::IterationLimit);
}

TEST(Simplex, IterationLimitExposesNoHalfIteratedPoint) {
  // Contract: any non-Optimal status returns empty x/duals and objective 0 —
  // callers must never consume a partially pivoted point.  Holds on the
  // presolved and presolve-bypassing paths alike, and a caller-supplied
  // basis slot stays untouched.
  LinearProblem p(Sense::Minimize);
  const int x = p.add_variable(0, kInfinity, 1);
  const int y = p.add_variable(0, kInfinity, 1);
  p.add_row(RowType::GreaterEqual, 4, {{x, 1}, {y, 1}});
  p.add_row(RowType::GreaterEqual, 6, {{x, 1}, {y, 3}});
  for (const bool presolve : {true, false}) {
    SimplexOptions options;
    options.max_iterations = 1;
    options.presolve = presolve;
    Basis basis;
    const LpSolution sol = SimplexSolver(options).solve(p, &basis);
    EXPECT_EQ(sol.status, SolveStatus::IterationLimit)
        << "presolve " << presolve;
    EXPECT_TRUE(sol.x.empty()) << "presolve " << presolve;
    EXPECT_TRUE(sol.duals.empty()) << "presolve " << presolve;
    EXPECT_EQ(sol.objective, 0.0) << "presolve " << presolve;
    EXPECT_TRUE(basis.empty()) << "presolve " << presolve;
    EXPECT_EQ(sol.stats.iterations, sol.iterations) << "presolve " << presolve;
  }
}

TEST(Simplex, IterationLimitWithWarmBasisLeavesBasisIntact) {
  // Solve once to get a basis, then re-solve with a crippled iteration cap:
  // the warm attempt runs out of budget, but the snapshot the caller
  // carries must survive for the next (uncrippled) solve.
  LinearProblem p(Sense::Minimize);
  std::vector<int> cols;
  for (int j = 0; j < 6; ++j) cols.push_back(p.add_variable(0, 1, 1));
  std::vector<RowEntry> entries;
  for (int col : cols) entries.push_back({col, 1});
  p.add_row(RowType::LessEqual, 10, entries);
  Basis basis;
  const LpSolution warmup = SimplexSolver().solve(p, &basis);
  ASSERT_EQ(warmup.status, SolveStatus::Optimal);
  ASSERT_FALSE(basis.empty());
  const Basis saved = basis;

  // Flip every objective coefficient: the warm re-solve now needs one bound
  // flip per column, far beyond a 1-iteration budget.
  for (int col : cols) p.set_objective_coef(col, -1);
  SimplexOptions capped;
  capped.max_iterations = 1;
  const LpSolution limited = SimplexSolver(capped).solve(p, &basis);
  EXPECT_EQ(limited.status, SolveStatus::IterationLimit);
  EXPECT_TRUE(limited.x.empty());
  ASSERT_EQ(basis.status.size(), saved.status.size());
  EXPECT_TRUE(std::equal(basis.status.begin(), basis.status.end(),
                         saved.status.begin()));

  // The surviving snapshot still warm-starts an uncapped solve.
  const LpSolution redo = SimplexSolver().solve(p, &basis);
  EXPECT_EQ(redo.status, SolveStatus::Optimal);
  EXPECT_NEAR(redo.objective, -6, kTol);
  EXPECT_EQ(redo.stats.warm_starts, 1);
}

TEST(Simplex, NonFiniteDataIsRejected) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  LinearProblem p(Sense::Minimize);
  const int x = p.add_variable(0, 1, 1);
  EXPECT_THROW(p.add_variable(0, 1, kInfinity), std::invalid_argument);
  EXPECT_THROW(p.add_variable(0, 1, -kInfinity), std::invalid_argument);
  EXPECT_THROW(p.add_variable(nan, 1, 0), std::invalid_argument);

  // Objective coefficients must be finite; a rejected value leaves the old
  // one in place (a NaN used to solve to Optimal with objective nan).
  EXPECT_THROW(p.set_objective_coef(x, nan), std::invalid_argument);
  EXPECT_THROW(p.set_objective_coef(x, kInfinity), std::invalid_argument);
  EXPECT_THROW(p.set_objective_coef(x, -kInfinity), std::invalid_argument);
  EXPECT_THROW(p.set_objective_coef(x + 1, 2), std::invalid_argument);
  EXPECT_EQ(p.objective_coef(x), 1);

  // Bounds may be infinite but never NaN (a NaN lower bound used to solve
  // without an error).
  EXPECT_THROW(p.set_bounds(x, nan, 1), std::invalid_argument);
  EXPECT_THROW(p.set_bounds(x, 0, nan), std::invalid_argument);
  EXPECT_EQ(p.lower_bound(x), 0);
  EXPECT_EQ(p.upper_bound(x), 1);
  p.set_bounds(x, -kInfinity, kInfinity);
  p.set_bounds(x, 0, 1);

  // Row coefficients must be finite.
  EXPECT_THROW(p.add_row(RowType::LessEqual, 1, {{x, kInfinity}}),
               std::invalid_argument);
  EXPECT_THROW(p.add_row(RowType::LessEqual, 1, {{x, -kInfinity}}),
               std::invalid_argument);
  EXPECT_THROW(p.add_row(RowType::LessEqual, 1, {{x, nan}}),
               std::invalid_argument);
  EXPECT_EQ(p.num_rows(), 0);
  p.add_row(RowType::GreaterEqual, 0.5, {{x, 1}});
  const LpSolution sol = solve(p);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_NEAR(sol.objective, 0.5, kTol);
}

// ------------------------------------------------- property sweeps -------

struct RandomLpCase {
  std::uint64_t seed;
};

class SimplexRandomFeasible : public ::testing::TestWithParam<int> {};

/// Random LPs built to be feasible by construction: draw an interior point
/// x0 in a box, derive each row's rhs from its activity at x0 with margin.
TEST_P(SimplexRandomFeasible, SolvesAndSatisfiesKkt) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 2654435761u + 1);
  const int n = rng.uniform_int(2, 8);
  const int m = rng.uniform_int(1, 10);
  LinearProblem p(rng.bernoulli(0.5) ? Sense::Minimize : Sense::Maximize);
  std::vector<double> x0(n);
  for (int j = 0; j < n; ++j) {
    const double lb = rng.uniform(-5, 0);
    const double ub = rng.uniform(1, 6);
    p.add_variable(lb, ub, rng.uniform(-3, 3));
    x0[j] = rng.uniform(lb, ub);
  }
  for (int r = 0; r < m; ++r) {
    std::vector<RowEntry> entries;
    double activity = 0;
    for (int j = 0; j < n; ++j) {
      if (!rng.bernoulli(0.6)) continue;
      const double coef = rng.uniform(-2, 2);
      entries.push_back({j, coef});
      activity += coef * x0[j];
    }
    if (entries.empty()) continue;
    const double margin = rng.uniform(0, 2);
    switch (rng.uniform_int(0, 2)) {
      case 0:
        p.add_row(RowType::LessEqual, activity + margin, entries);
        break;
      case 1:
        p.add_row(RowType::GreaterEqual, activity - margin, entries);
        break;
      default:
        p.add_row(RowType::Equal, activity, entries);
        break;
    }
  }
  const LpSolution sol = solve(p);
  // Bounded box + feasible-by-construction => must be Optimal.
  ASSERT_EQ(sol.status, SolveStatus::Optimal) << "seed " << GetParam();
  check_kkt(p, sol);
  // The optimum must be at least as good as the witness point x0.
  const double witness = p.objective_value(x0);
  if (p.sense() == Sense::Minimize) {
    EXPECT_LE(sol.objective, witness + 1e-6);
  } else {
    EXPECT_GE(sol.objective, witness - 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SimplexRandomFeasible, ::testing::Range(0, 60));

class SimplexRandomMaybeInfeasible : public ::testing::TestWithParam<int> {};

/// Fully random LPs (possibly infeasible/unbounded): whatever the verdict,
/// it must be internally consistent.
TEST_P(SimplexRandomMaybeInfeasible, VerdictIsConsistent) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 40503u + 7);
  const int n = rng.uniform_int(1, 6);
  const int m = rng.uniform_int(1, 8);
  LinearProblem p(rng.bernoulli(0.5) ? Sense::Minimize : Sense::Maximize);
  for (int j = 0; j < n; ++j) {
    const bool lower = rng.bernoulli(0.8);
    const bool upper = rng.bernoulli(0.8);
    const double lb = lower ? rng.uniform(-4, 0) : -kInfinity;
    const double ub = upper ? rng.uniform(0.5, 5) : kInfinity;
    p.add_variable(lb, ub, rng.uniform(-2, 2));
  }
  for (int r = 0; r < m; ++r) {
    std::vector<RowEntry> entries;
    for (int j = 0; j < n; ++j) {
      if (rng.bernoulli(0.5)) entries.push_back({j, rng.uniform(-2, 2)});
    }
    if (entries.empty()) continue;
    const auto type = static_cast<RowType>(rng.uniform_int(0, 2));
    p.add_row(type, rng.uniform(-4, 4), entries);
  }
  const LpSolution sol = solve(p);
  switch (sol.status) {
    case SolveStatus::Optimal:
      check_kkt(p, sol);
      break;
    case SolveStatus::Infeasible:
    case SolveStatus::Unbounded:
      break;  // cross-checked against the MIP enumerator elsewhere
    default:
      FAIL() << "unexpected status " << to_string(sol.status);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, SimplexRandomMaybeInfeasible,
                         ::testing::Range(0, 60));

}  // namespace
}  // namespace metis::lp
