// Pricing-layer suite for the sparse simplex (labels: lp, numeric).
//
// Devex partial pricing must be a pure work optimization: the rotating
// candidate window must not be able to hide an attractive column (the scan
// falls through to a full ring pass, so an optimal verdict is certified
// against every nonbasic column), the optimum must not depend on the
// window size, and the weight-reset-on-refactorization invariant must not
// change the optimum.  The deterministic contract — identical repeat
// solves — is pinned bitwise.  test_lp_fuzz checks the default path
// against the dense reference.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/lp_builder.h"
#include "lp/problem.h"
#include "lp/simplex.h"
#include "lp_reference.h"
#include "sim/scenario.h"
#include "util/numeric.h"

namespace metis::lp {
namespace {

LpSolution solve_with(const LinearProblem& p, int window = 0) {
  SimplexOptions o;
  o.pricing_window = window;
  return SimplexSolver(o).solve(p);
}

// ---------------------------------------------------------------------------
// Window size.

// Tiny windows force many ring rotations and frequent full passes; the
// optimum must not depend on the window size.
TEST(Pricing, WindowSizeNeverChangesTheOptimum) {
  for (unsigned long long seed = 1; seed <= 40; ++seed) {
    const reference::FuzzCase fc = reference::make_fuzz_case(seed);
    const LpSolution wide = solve_with(fc.problem);
    for (int window : {1, 3, 8}) {
      const LpSolution narrow = solve_with(fc.problem, window);
      ASSERT_EQ(narrow.status, wide.status)
          << fc.label << " window=" << window;
      if (wide.status != SolveStatus::Optimal) continue;
      EXPECT_NEAR(narrow.objective, wide.objective,
                  num::kOptTol * num::rel_scale(wide.objective))
          << fc.label << " window=" << window;
    }
  }
}

// ---------------------------------------------------------------------------
// Weight lifecycle.

TEST(Pricing, WeightResetOnRefactorizationKeepsTheOptimum) {
  // refactor_interval = 1 resets the devex reference framework on every
  // pivot (the weights never leave their initial value); at 2 and 3 the
  // fused BTRAN of the next duals and the pivot row alternates with a
  // refactorization every pivot or two (the fuzz LPs never reach the
  // default eta cap of 100).  bland_threshold = 1 refactorizes on
  // Bland-mode entry after a single degenerate pivot, which must discard
  // the duals carried from the previous pivot.  The path through the
  // polytope changes but the optimum must not, and every optimum must
  // certify.
  struct Arm {
    int refactor_interval;
    int bland_threshold;
  };
  const SimplexOptions defaults;
  const Arm arms[] = {{1, defaults.bland_threshold},
                      {2, defaults.bland_threshold},
                      {3, defaults.bland_threshold},
                      {defaults.refactor_interval, 1},
                      {2, 1}};
  for (unsigned long long seed = 1; seed <= 40; ++seed) {
    const reference::FuzzCase fc = reference::make_fuzz_case(seed);
    const LpSolution normal = solve_with(fc.problem);
    for (const Arm& arm : arms) {
      SimplexOptions o;
      o.refactor_interval = arm.refactor_interval;
      o.bland_threshold = arm.bland_threshold;
      const LpSolution sol = SimplexSolver(o).solve(fc.problem);
      const std::string label =
          fc.label + " refactor_interval=" +
          std::to_string(arm.refactor_interval) +
          " bland_threshold=" + std::to_string(arm.bland_threshold);
      ASSERT_EQ(sol.status, normal.status) << label;
      if (normal.status != SolveStatus::Optimal) continue;
      EXPECT_NEAR(sol.objective, normal.objective,
                  num::kOptTol * num::rel_scale(normal.objective))
          << label;
      for (const std::string& v :
           reference::check_certificates(fc.problem, sol)) {
        ADD_FAILURE() << label << ": " << v;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Window fallback: a candidate window must not be able to hide the only
// attractive column.

TEST(Pricing, FallbackFindsAttractiveColumnOutsideEveryWindow) {
  // Twelve structurals; only the LAST one improves the objective, so with
  // pricing_window = 4 the first windows find nothing and the scan must
  // walk the whole ring (a full fallback) to reach it.  Presolve is off so
  // the zero-objective columns actually reach the simplex.
  LinearProblem p(Sense::Maximize);
  std::vector<int> cols;
  for (int j = 0; j < 11; ++j) {
    cols.push_back(p.add_variable(0.0, 1.0, 0.0));
  }
  const int star = p.add_variable(0.0, 5.0, 1.0);
  std::vector<RowEntry> entries;
  for (int j : cols) entries.push_back({j, 1.0});
  entries.push_back({star, 1.0});
  p.add_row(RowType::LessEqual, 3.0, entries);

  SimplexOptions o;
  o.pricing_window = 4;
  o.presolve = false;
  const LpSolution sol = SimplexSolver(o).solve(p);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_NEAR(sol.objective, 3.0, num::kOptTol);
  EXPECT_NEAR(sol.x[star], 3.0, num::kOptTol);
  // At least the final certification pass (no attractive column anywhere)
  // walks the full ring.
  EXPECT_GE(sol.stats.full_fallbacks, 1);
  EXPECT_EQ(sol.stats.pricing_passes,
            sol.stats.partial_hits + sol.stats.full_fallbacks);
}

TEST(Pricing, PartialWindowSatisfiesPassesOnSpmRelaxation) {
  // On a real RL-SPM relaxation the rotating window should answer most
  // pricing passes without walking the full nonbasic ring — that is the
  // entire point of partial pricing.
  sim::Scenario sc;
  sc.network = sim::Network::B4;
  sc.num_requests = 60;
  sc.seed = 1;
  const auto instance = sim::make_instance(sc);
  const auto model = core::build_rl_spm(instance);
  const LpSolution sol = solve_with(model.problem);
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  EXPECT_GT(sol.stats.partial_hits, 0);
  EXPECT_GE(sol.stats.full_fallbacks, 1);
  EXPECT_GT(sol.stats.partial_hits, sol.stats.full_fallbacks);
}

// ---------------------------------------------------------------------------
// Determinism: repeat solves are bit-identical.

TEST(Pricing, RepeatDevexSolvesAreBitIdentical) {
  sim::Scenario sc;
  sc.network = sim::Network::B4;
  sc.num_requests = 50;
  sc.seed = 3;
  const auto instance = sim::make_instance(sc);
  const auto model = core::build_rl_spm(instance);
  const LpSolution a = solve_with(model.problem);
  const LpSolution b = solve_with(model.problem);
  ASSERT_EQ(a.status, SolveStatus::Optimal);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.objective, b.objective);  // bitwise, not within tolerance
  ASSERT_EQ(a.x.size(), b.x.size());
  for (std::size_t j = 0; j < a.x.size(); ++j) EXPECT_EQ(a.x[j], b.x[j]);
  EXPECT_EQ(a.stats.pricing_passes, b.stats.pricing_passes);
  EXPECT_EQ(a.stats.partial_hits, b.stats.partial_hits);
  EXPECT_EQ(a.stats.full_fallbacks, b.stats.full_fallbacks);
}

// ---------------------------------------------------------------------------
// Singular-basis repair: the configuration that used to throw.

TEST(Pricing, BasisRepairRecoversHistoricallySingularRun) {
  // Devex with an explicit 48-column window on the K=100 B4 relaxation
  // drives the basis numerically singular mid-run (tiny normalized pivots
  // accumulate); refactorize() used to throw "singular basis during
  // refactorize" here.  The deterministic slack swap-in repair must finish
  // the solve at the optimum the default window reaches, and the repaired
  // optimum must certify.  (This is the long test of the suite — the
  // degenerate struggle runs tens of thousands of Bland-guarded pivots —
  // but it is the only known in-distribution reproducer of the repair
  // path.)
  sim::Scenario sc;
  sc.network = sim::Network::B4;
  sc.num_requests = 100;
  sc.seed = 1;
  const auto instance = sim::make_instance(sc);
  const auto model = core::build_rl_spm(instance);
  const LpSolution normal = solve_with(model.problem);
  ASSERT_EQ(normal.status, SolveStatus::Optimal);
  const LpSolution repaired = solve_with(model.problem, /*window=*/48);
  ASSERT_EQ(repaired.status, SolveStatus::Optimal);
  EXPECT_GT(repaired.stats.basis_repairs, 0);
  EXPECT_NEAR(repaired.objective, normal.objective,
              num::kOptTol * num::rel_scale(normal.objective));
  EXPECT_TRUE(model.problem.is_feasible(repaired.x, num::kOptTol));
  for (const std::string& v :
       reference::check_certificates(model.problem, repaired)) {
    ADD_FAILURE() << v;
  }
}

}  // namespace
}  // namespace metis::lp
