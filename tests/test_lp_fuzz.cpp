// Differential fuzz oracle for the sparse simplex solver (label: numeric).
//
// Two layers:
//  * sanity tests pinning the dense reference solver itself to hand-checked
//    optima — the oracle must be trustworthy before it is used as one;
//  * the seeded sweep: >= 500 generated SPM-shaped LPs (benign, degenerate,
//    near-singular, fault-mutated, badly scaled), each solved by the sparse
//    solver (devex pricing with the Harris ratio test, and Bland's rule with
//    the textbook ratio test) and the dense textbook reference,
//    cross-checking status, objective, primal feasibility and the full KKT
//    certificate of the sparse solution.
#include <gtest/gtest.h>

#include <cmath>

#include "lp/problem.h"
#include "lp/simplex.h"
#include "lp_reference.h"
#include "util/numeric.h"

namespace metis::lp {
namespace {

// ---------------------------------------------------------------------------
// Reference-solver sanity: the oracle against hand-checked optima.

TEST(LpReference, SolvesTextbookMin) {
  // min -x - 2y  s.t. x + y <= 4, x <= 3, y <= 2, x,y >= 0.
  // Optimum at (2, 2) with objective -6.
  LinearProblem p(Sense::Minimize);
  const int x = p.add_variable(0, 3, -1);
  const int y = p.add_variable(0, 2, -2);
  p.add_row(RowType::LessEqual, 4, {{x, 1}, {y, 1}});
  const reference::ReferenceSolution ref = reference::solve_reference(p);
  ASSERT_EQ(ref.status, SolveStatus::Optimal);
  EXPECT_NEAR(ref.objective, -6.0, 1e-9);
  EXPECT_NEAR(ref.x[x], 2.0, 1e-9);
  EXPECT_NEAR(ref.x[y], 2.0, 1e-9);
}

TEST(LpReference, SolvesMaximizeWithEquality) {
  // max 3x + y  s.t. x + y = 2, x <= 1.5, x,y >= 0.  Optimum (1.5, 0.5) -> 5.
  LinearProblem p(Sense::Maximize);
  const int x = p.add_variable(0, 1.5, 3);
  const int y = p.add_variable(0, kInfinity, 1);
  p.add_row(RowType::Equal, 2, {{x, 1}, {y, 1}});
  const reference::ReferenceSolution ref = reference::solve_reference(p);
  ASSERT_EQ(ref.status, SolveStatus::Optimal);
  EXPECT_NEAR(ref.objective, 5.0, 1e-9);
}

TEST(LpReference, HandlesFreeAndNegativeBounds) {
  // min x + y with x free, y in [-5, -1], x >= y - 1 (i.e. -x + y <= 1... )
  // Constraint: x - y >= 2.  Optimum: y = -5, x = -3 -> objective -8.
  LinearProblem p(Sense::Minimize);
  const int x = p.add_variable(-kInfinity, kInfinity, 1);
  const int y = p.add_variable(-5, -1, 1);
  p.add_row(RowType::GreaterEqual, 2, {{x, 1}, {y, -1}});
  const reference::ReferenceSolution ref = reference::solve_reference(p);
  ASSERT_EQ(ref.status, SolveStatus::Optimal);
  EXPECT_NEAR(ref.objective, -8.0, 1e-9);
  EXPECT_NEAR(ref.x[x], -3.0, 1e-9);
  EXPECT_NEAR(ref.x[y], -5.0, 1e-9);
}

TEST(LpReference, DetectsInfeasible) {
  LinearProblem p(Sense::Minimize);
  const int x = p.add_variable(0, 1, 1);
  p.add_row(RowType::GreaterEqual, 5, {{x, 1}});
  EXPECT_EQ(reference::solve_reference(p).status, SolveStatus::Infeasible);
}

TEST(LpReference, DetectsUnbounded) {
  LinearProblem p(Sense::Minimize);
  const int x = p.add_variable(-kInfinity, kInfinity, 1);
  p.add_row(RowType::LessEqual, 1, {{x, 1}});
  EXPECT_EQ(reference::solve_reference(p).status, SolveStatus::Unbounded);
}

TEST(LpReference, HandlesFixedColumns) {
  // x fixed at 2 contributes through the row; only y is decided.
  LinearProblem p(Sense::Minimize);
  const int x = p.add_variable(2, 2, 10);
  const int y = p.add_variable(0, kInfinity, 1);
  p.add_row(RowType::GreaterEqual, 5, {{x, 1}, {y, 1}});
  const reference::ReferenceSolution ref = reference::solve_reference(p);
  ASSERT_EQ(ref.status, SolveStatus::Optimal);
  EXPECT_NEAR(ref.x[x], 2.0, 1e-12);
  EXPECT_NEAR(ref.x[y], 3.0, 1e-9);
  EXPECT_NEAR(ref.objective, 23.0, 1e-9);
}

// The certificate checker must reject a corrupted dual vector — otherwise a
// silently wrong sparse solver would sail through the sweep.
TEST(LpReference, CertificateCheckerCatchesBadDuals) {
  LinearProblem p(Sense::Minimize);
  const int x = p.add_variable(0, 3, -1);
  const int y = p.add_variable(0, 2, -2);
  p.add_row(RowType::LessEqual, 4, {{x, 1}, {y, 1}});
  LpSolution sol = SimplexSolver().solve(p);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  ASSERT_TRUE(reference::check_certificates(p, sol).empty());
  sol.duals[0] += 1.0;  // corrupt: breaks sign and/or strong duality
  EXPECT_FALSE(reference::check_certificates(p, sol).empty());
}

// ---------------------------------------------------------------------------
// The differential sweep.

constexpr unsigned long long kNumCases = 600;  // acceptance floor is 500

TEST(LpFuzz, SparseMatchesReferenceOverSeededSweep) {
  // Two sparse-solver paths against the dense oracle: the default (devex
  // partial pricing with the Harris two-pass ratio test) and
  // bland_threshold = 0 (Bland's rule with the textbook ratio test from
  // the first pivot, the path production takes after a run of degenerate
  // pivots).  The two may stop at different vertices of a shared optimal
  // face, so only status and objective value are cross-checked — plus
  // primal feasibility and the full KKT certificate, which every path must
  // produce on its own.
  struct SolverPath {
    const char* name;
    int bland_threshold;
  };
  constexpr SolverPath kPaths[] = {
      {"devex+harris", SimplexOptions{}.bland_threshold},
      {"bland+textbook", 0},
  };
  int optimal = 0, infeasible = 0;
  for (unsigned long long seed = 1; seed <= kNumCases; ++seed) {
    const reference::FuzzCase fc = reference::make_fuzz_case(seed);
    const reference::ReferenceSolution ref =
        reference::solve_reference(fc.problem);
    ASSERT_NE(ref.status, SolveStatus::IterationLimit) << fc.label;
    if (ref.status == SolveStatus::Optimal) {
      ++optimal;
    } else {
      ++infeasible;
    }

    for (const SolverPath& path : kPaths) {
      SimplexOptions opt;
      opt.bland_threshold = path.bland_threshold;
      const LpSolution sol = SimplexSolver(opt).solve(fc.problem);
      ASSERT_EQ(sol.status, ref.status) << fc.label << " (" << path.name
                                        << ')';
      if (ref.status != SolveStatus::Optimal) continue;

      const double obj_tol = num::kOptTol * num::rel_scale(ref.objective);
      EXPECT_NEAR(sol.objective, ref.objective, obj_tol)
          << fc.label << " (" << path.name << ')';
      EXPECT_TRUE(fc.problem.is_feasible(sol.x, num::kOptTol))
          << fc.label << " (" << path.name << ')';

      const std::vector<std::string> bad =
          reference::check_certificates(fc.problem, sol);
      EXPECT_TRUE(bad.empty()) << fc.label << " (" << path.name
                               << "): " << (bad.empty() ? "" : bad[0]);
    }
  }
  // The generator must actually exercise both outcomes: an all-Optimal (or
  // all-Infeasible) sweep means a generator class silently collapsed.
  EXPECT_GE(optimal, 300) << "generator stopped producing solvable cases";
  EXPECT_GE(infeasible, 10) << "fault-mutated class stopped producing "
                               "infeasible cases";
}

// Warm starts under fuzz: re-solving the same problem from its own optimal
// basis must reproduce the optimum without drifting.
TEST(LpFuzz, WarmRestartReproducesOptimum) {
  for (unsigned long long seed = 1; seed <= 60; ++seed) {
    const reference::FuzzCase fc = reference::make_fuzz_case(seed);
    Basis basis;
    const LpSolution cold = SimplexSolver().solve(fc.problem, &basis);
    if (cold.status != SolveStatus::Optimal || basis.empty()) continue;
    const LpSolution warm = SimplexSolver().solve(fc.problem, &basis);
    ASSERT_EQ(warm.status, SolveStatus::Optimal) << fc.label;
    EXPECT_NEAR(warm.objective, cold.objective,
                num::kOptTol * num::rel_scale(cold.objective))
        << fc.label;
    EXPECT_LE(warm.iterations, cold.iterations) << fc.label;
  }
}

}  // namespace
}  // namespace metis::lp
