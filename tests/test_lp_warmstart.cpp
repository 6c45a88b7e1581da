// Warm-start equivalence suite for the revised simplex: a carried Basis
// snapshot must never change which optimum is found (objectives agree to
// tolerance), must shrink the work on re-solves (fewer iterations than a
// cold solve), and must degrade safely — an incompatible, stale or garbage
// snapshot silently falls back to a cold start.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/accounting.h"
#include "core/lp_builder.h"
#include "lp/basis_lift.h"
#include "lp/simplex.h"
#include "sim/scenario.h"
#include "util/rng.h"

namespace metis::lp {
namespace {

constexpr double kTol = 1e-6;

core::SpmInstance small_instance(std::uint64_t seed, int k) {
  sim::Scenario s;
  s.network = sim::Network::SubB4;
  s.num_requests = k;
  s.seed = seed;
  return sim::make_instance(s);
}

double rel_diff(double a, double b) {
  return std::abs(a - b) / (1 + std::max(std::abs(a), std::abs(b)));
}

TEST(WarmStart, ResolveOfSameProblemIsNearFree) {
  const core::SpmInstance instance = small_instance(1, 25);
  const core::SpmModel model = core::build_rl_spm(instance);
  SimplexSolver solver;
  Basis basis;
  const LpSolution cold = solver.solve(model.problem, &basis);
  ASSERT_TRUE(cold.ok());
  ASSERT_FALSE(basis.empty());
  EXPECT_EQ(cold.stats.cold_starts, 1);

  const LpSolution warm = solver.solve(model.problem, &basis);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm.stats.warm_starts, 1);
  EXPECT_EQ(warm.stats.cold_starts, 0);
  // The snapshot is already optimal: pricing confirms it without pivoting.
  EXPECT_LE(warm.stats.iterations, 1);
  EXPECT_LT(warm.stats.iterations, cold.stats.iterations);
  EXPECT_LE(rel_diff(warm.objective, cold.objective), kTol);
}

TEST(WarmStart, RhsPerturbationResolvesCheaper) {
  // The Metis trim step changes only capacity right-hand sides; the basis
  // from the previous optimum should put the re-solve within a few dual
  // repair pivots of the new one.
  const core::SpmInstance instance = small_instance(2, 30);
  core::ChargingPlan caps;
  caps.units.assign(instance.num_edges(), 3);
  const core::SpmModel before = core::build_bl_spm(instance, caps);
  SimplexSolver solver;
  Basis basis;
  const LpSolution first = solver.solve(before.problem, &basis);
  ASSERT_TRUE(first.ok());

  caps.units[0] = 2;  // trim one edge
  const core::SpmModel after = core::build_bl_spm(instance, caps);
  const LpSolution warm = solver.solve(after.problem, &basis);
  const LpSolution cold = solver.solve(after.problem);
  ASSERT_TRUE(cold.ok());
  EXPECT_LE(rel_diff(warm.ok() ? warm.objective : cold.objective,
                     cold.objective),
            kTol);
  if (warm.stats.warm_starts == 1) {
    EXPECT_LE(warm.stats.iterations, cold.stats.iterations);
  }
}

TEST(WarmStart, MetisAlternationSequenceSavesIterations) {
  // Emulates the alternation loop's LP sequence: one BL-SPM shape, a
  // capacity vector trimmed by one unit per step.  The warm chain must
  // match every cold objective within tolerance and spend strictly fewer
  // simplex iterations in total (the bench pins the ratio; the test pins
  // correctness and direction).
  const core::SpmInstance instance = small_instance(3, 35);
  core::ChargingPlan caps;
  caps.units.assign(instance.num_edges(), 4);
  SimplexSolver solver;
  Basis basis;
  long warm_iterations = 0;
  long cold_iterations = 0;
  int warm_accepted = 0;
  for (int step = 0; step < 6; ++step) {
    const core::SpmModel model = core::build_bl_spm(instance, caps);
    const LpSolution warm = solver.solve(model.problem, &basis);
    const LpSolution cold = solver.solve(model.problem);
    ASSERT_TRUE(warm.ok()) << "step " << step;
    ASSERT_TRUE(cold.ok()) << "step " << step;
    EXPECT_LE(rel_diff(warm.objective, cold.objective), kTol)
        << "step " << step;
    warm_iterations += warm.stats.iterations;
    cold_iterations += cold.stats.iterations;
    warm_accepted += warm.stats.warm_starts;
    caps.units[step % instance.num_edges()] =
        std::max(0, caps.units[step % instance.num_edges()] - 1);
  }
  EXPECT_GE(warm_accepted, 4) << "basis should survive rhs-only changes";
  EXPECT_LT(warm_iterations, cold_iterations);
}

TEST(WarmStart, IncompatibleSnapshotFallsBackToCold) {
  const core::SpmInstance a = small_instance(4, 20);
  const core::SpmInstance b = small_instance(5, 12);
  SimplexSolver solver;
  Basis basis;
  ASSERT_TRUE(solver.solve(core::build_rl_spm(a).problem, &basis).ok());
  const core::SpmModel other = core::build_rl_spm(b);
  const LpSolution sol = solver.solve(other.problem, &basis);
  ASSERT_TRUE(sol.ok());
  EXPECT_EQ(sol.stats.cold_starts, 1);
  EXPECT_EQ(sol.stats.warm_starts, 0);
  // The slot now holds a snapshot of the problem actually solved.
  EXPECT_TRUE(
      basis.compatible(other.problem.num_variables(), other.problem.num_rows()));
}

TEST(WarmStart, GarbageSnapshotIsRejectedNotTrusted) {
  // Right shape, nonsense content (no Basic entries at all): the solver
  // must reject it, cold-start, and still reach the optimum.
  const core::SpmInstance instance = small_instance(6, 20);
  const core::SpmModel model = core::build_rl_spm(instance);
  const LpSolution reference = SimplexSolver().solve(model.problem);
  ASSERT_TRUE(reference.ok());

  Basis garbage;
  garbage.status.assign(
      model.problem.num_variables() + model.problem.num_rows(),
      BasisStatus::AtLower);
  const LpSolution sol = SimplexSolver().solve(model.problem, &garbage);
  ASSERT_TRUE(sol.ok());
  EXPECT_EQ(sol.stats.cold_starts, 1);
  EXPECT_LE(rel_diff(sol.objective, reference.objective), kTol);
}

TEST(WarmStart, ObjectivePerturbationMatchesColdOnRandomSequence) {
  // Random-LP chain: re-solve with a slightly rotated objective from the
  // previous basis; every warm objective must match the cold one.
  Rng rng(99);
  LinearProblem p(Sense::Minimize);
  const int n = 6;
  for (int j = 0; j < n; ++j) p.add_variable(0, 4, rng.uniform(-2, 2));
  for (int r = 0; r < 5; ++r) {
    std::vector<RowEntry> entries;
    for (int j = 0; j < n; ++j) {
      if (rng.bernoulli(0.6)) entries.push_back({j, rng.uniform(-2, 2)});
    }
    if (entries.empty()) entries.push_back({r % n, 1.0});
    p.add_row(RowType::LessEqual, rng.uniform(1, 6), entries);
  }
  SimplexSolver solver;
  Basis basis;
  for (int step = 0; step < 8; ++step) {
    const LpSolution warm = solver.solve(p, &basis);
    const LpSolution cold = solver.solve(p);
    ASSERT_TRUE(warm.ok()) << "step " << step;
    ASSERT_TRUE(cold.ok()) << "step " << step;
    EXPECT_LE(rel_diff(warm.objective, cold.objective), kTol)
        << "step " << step;
    const int j = rng.uniform_int(0, n - 1);
    p.set_objective_coef(j, p.objective_coef(j) + rng.uniform(-0.5, 0.5));
  }
}

// ---------------------------------------------------------- degeneracy ----
// Regression cover for the Harris ratio test (label: numeric): tied ratio
// candidates and singular warm-start bases are exactly where a ratio-test
// rewrite would break first.

TEST(Degeneracy, TiedRatioCandidatesAgreeAcrossRatioTests) {
  // Twelve identical unit-value requests over duplicated shared capacity
  // rows: every ratio-test step sees a block of exactly tied candidates,
  // and the duplicate rows force degenerate pivots.  The default path
  // (Harris) and bland_threshold = 0 (the textbook ratio test from the
  // first pivot) may walk different vertex sequences but must land on the
  // same objective.  Presolve off so the duplicates actually reach the
  // simplex.
  LinearProblem p(Sense::Maximize);
  std::vector<int> x;
  for (int i = 0; i < 12; ++i) x.push_back(p.add_variable(0, 1, 1.0));
  for (int dup = 0; dup < 4; ++dup) {
    std::vector<RowEntry> row;
    for (int v : x) row.push_back({v, 1.0});
    p.add_row(RowType::LessEqual, 3.0, row);
  }
  SimplexOptions harris_opt;
  harris_opt.presolve = false;
  SimplexOptions textbook_opt = harris_opt;
  textbook_opt.bland_threshold = 0;
  const LpSolution harris = SimplexSolver(harris_opt).solve(p);
  const LpSolution textbook = SimplexSolver(textbook_opt).solve(p);
  ASSERT_TRUE(harris.ok());
  ASSERT_TRUE(textbook.ok());
  EXPECT_NEAR(harris.objective, 3.0, kTol);
  EXPECT_LE(rel_diff(harris.objective, textbook.objective), kTol);
}

TEST(Degeneracy, DuplicateRateRequestsMatchAcrossRatioTests) {
  // The SPM flavor of the same ambiguity: a real instance whose requests
  // share one rate, so BL-SPM capacity rows tie at every pivot.
  const core::SpmInstance instance = small_instance(11, 30);
  core::ChargingPlan caps;
  caps.units.assign(instance.num_edges(), 2);
  const core::SpmModel model = core::build_bl_spm(instance, caps);
  SimplexOptions textbook_opt;
  textbook_opt.bland_threshold = 0;
  const LpSolution harris = SimplexSolver().solve(model.problem);
  const LpSolution textbook = SimplexSolver(textbook_opt).solve(model.problem);
  ASSERT_TRUE(harris.ok());
  ASSERT_TRUE(textbook.ok());
  EXPECT_LE(rel_diff(harris.objective, textbook.objective), kTol);
}

TEST(Degeneracy, SingularAfterMutationBasisFallsBackToCold) {
  // A basis that was optimal for one problem can be structurally singular
  // for a same-shaped mutated problem (here: the second row becomes a
  // multiple of the first, so the two basic structurals are dependent).
  // The factorization must detect it, reject the snapshot and cold-start —
  // never crash or silently return the stale optimum.
  LinearProblem before(Sense::Minimize);
  const int x = before.add_variable(0, 5, -1);
  const int y = before.add_variable(0, 5, -1);
  before.add_row(RowType::LessEqual, 2, {{x, 1}, {y, 1}});
  before.add_row(RowType::LessEqual, 0, {{x, 1}, {y, -1}});
  SimplexSolver solver;
  Basis basis;
  const LpSolution first = solver.solve(before, &basis);
  ASSERT_TRUE(first.ok());
  ASSERT_FALSE(basis.empty());

  LinearProblem mutated(Sense::Minimize);
  const int mx = mutated.add_variable(0, 5, -1);
  const int my = mutated.add_variable(0, 5, -1);
  mutated.add_row(RowType::LessEqual, 2, {{mx, 1}, {my, 1}});
  mutated.add_row(RowType::LessEqual, 4, {{mx, 2}, {my, 2}});
  const LpSolution cold = solver.solve(mutated);
  ASSERT_TRUE(cold.ok());
  Basis stale = basis;
  const LpSolution warm = solver.solve(mutated, &stale);
  ASSERT_TRUE(warm.ok());
  EXPECT_LE(rel_diff(warm.objective, cold.objective), kTol);
}

// ---------------------------------------------------------- basis lift ----
// Cross-shape reuse (lp/basis_lift.h): mapping the persistent part of an
// old basis onto a differently-shaped problem.  Correctness never depends
// on the lift — a rejected or empty lift is just a cold start — so these
// tests pin the mapping/repair mechanics and the end-to-end payoff.

TEST(BasisLift, EmptyOrIncompatibleOldBasisYieldsEmpty) {
  const std::vector<int> cols = {0, -1};
  const std::vector<int> rows = {0};
  EXPECT_TRUE(lift_basis(Basis{}, 2, 1, cols, rows).empty());
  Basis wrong_shape;
  wrong_shape.status.assign(2, BasisStatus::Basic);  // claims 2 != 2+1 slots
  EXPECT_TRUE(lift_basis(wrong_shape, 2, 1, cols, rows).empty());
}

TEST(BasisLift, MapsStatusesAndDefaultsNewEntities) {
  // Old: 3 columns + 2 rows.  New: 4 columns (old0, old2, two new) and
  // 3 rows (old1, two new).
  Basis old_basis;
  old_basis.status = {BasisStatus::Basic,  BasisStatus::AtLower,
                      BasisStatus::AtUpper, BasisStatus::Basic,
                      BasisStatus::AtLower};
  const std::vector<int> col_of_new = {0, 2, -1, -1};
  const std::vector<int> row_of_new = {1, -1, -1};
  const Basis lifted = lift_basis(old_basis, 3, 2, col_of_new, row_of_new);
  ASSERT_TRUE(lifted.compatible(4, 3));
  EXPECT_EQ(lifted.status[0], BasisStatus::Basic);    // mapped old col 0
  EXPECT_EQ(lifted.status[1], BasisStatus::AtUpper);  // mapped old col 2
  EXPECT_EQ(lifted.status[2], BasisStatus::AtLower);  // new column default
  EXPECT_EQ(lifted.status[3], BasisStatus::AtLower);
  EXPECT_EQ(lifted.status[4], BasisStatus::AtLower);  // mapped old row 1 slack
  EXPECT_EQ(lifted.status[5], BasisStatus::Basic);    // new row slack default
  EXPECT_EQ(lifted.status[6], BasisStatus::Basic);
  // 1 basic column + 2 basic slacks == 3 rows: already count-consistent.
}

TEST(BasisLift, CountRepairDemotesNewRowSlacksFirst) {
  // Everything Basic in the old basis produces a surplus after the lift;
  // the repair must park row slacks (new rows first), never structurals.
  Basis old_basis;
  old_basis.status.assign(4, BasisStatus::Basic);  // 2 cols + 2 rows
  const std::vector<int> col_of_new = {0, 1};
  const std::vector<int> row_of_new = {0, 1, -1};
  const Basis lifted = lift_basis(old_basis, 2, 2, col_of_new, row_of_new);
  ASSERT_TRUE(lifted.compatible(2, 3));
  EXPECT_EQ(lifted.status[0], BasisStatus::Basic);  // structurals untouched
  EXPECT_EQ(lifted.status[1], BasisStatus::Basic);
  EXPECT_EQ(lifted.status[2 + 1], BasisStatus::Basic);  // mapped row 1 kept
  EXPECT_EQ(lifted.status[2 + 2], BasisStatus::AtLower);  // new row demoted 1st
  EXPECT_EQ(lifted.status[2 + 0], BasisStatus::AtLower);  // then mapped row 0
}

TEST(BasisLift, BasicNewColumnsHonoredAndBoundsChecked) {
  Basis old_basis;
  old_basis.status = {BasisStatus::AtLower, BasisStatus::Basic};  // 1 col, 1 row
  const std::vector<int> col_of_new = {-1, 0};
  const std::vector<int> row_of_new = {0};
  const std::vector<int> mark_basic = {0};
  const Basis lifted =
      lift_basis(old_basis, 1, 1, col_of_new, row_of_new, mark_basic);
  ASSERT_TRUE(lifted.compatible(2, 1));
  EXPECT_EQ(lifted.status[0], BasisStatus::Basic);  // forced by the caller
  // Count repair parks the mapped-Basic row slack to end at exactly 1 basic.
  EXPECT_EQ(lifted.status[2], BasisStatus::AtLower);

  const std::vector<int> bad_col = {5, -1};
  EXPECT_THROW(lift_basis(old_basis, 1, 1, bad_col, row_of_new),
               std::invalid_argument);
  const std::vector<int> bad_mark = {7};
  EXPECT_THROW(
      lift_basis(old_basis, 1, 1, col_of_new, row_of_new, bad_mark),
      std::invalid_argument);
}

TEST(BasisLift, GrownRlSpmLiftMatchesColdObjective) {
  // The online pipeline's actual shape change: the same request book plus
  // ten new arrivals (generate() draws sequentially, so the smaller book
  // is a prefix of the larger).  Lifting the old optimum must never change
  // the optimum found; acceptance of the lift is the solver's call.
  const core::SpmInstance small = small_instance(8, 20);
  const core::SpmInstance grown = small_instance(8, 30);
  SimplexSolver solver;

  const core::SpmModel small_model = core::build_rl_spm(small);
  Basis basis;
  ASSERT_TRUE(solver.solve(small_model.problem, &basis).ok());
  core::ModelSnapshot snapshot;
  core::snapshot_model(small_model, basis, snapshot);
  ASSERT_FALSE(snapshot.empty());

  const core::SpmModel grown_model = core::build_rl_spm(grown);
  Basis lifted =
      core::lift_into_model(snapshot, grown_model, /*equality_assignments=*/true);
  ASSERT_FALSE(lifted.empty());
  ASSERT_TRUE(lifted.compatible(grown_model.problem.num_variables(),
                                grown_model.problem.num_rows()));
  const LpSolution warm = solver.solve(grown_model.problem, &lifted);
  const LpSolution cold = solver.solve(grown_model.problem);
  ASSERT_TRUE(warm.ok());
  ASSERT_TRUE(cold.ok());
  EXPECT_LE(rel_diff(warm.objective, cold.objective), kTol);
}

TEST(BasisLift, GrownBlSpmLiftMatchesColdObjective) {
  const core::SpmInstance small = small_instance(9, 20);
  const core::SpmInstance grown = small_instance(9, 30);
  core::ChargingPlan caps;
  caps.units.assign(small.num_edges(), 4);
  SimplexSolver solver;

  const core::SpmModel small_model = core::build_bl_spm(small, caps);
  Basis basis;
  ASSERT_TRUE(solver.solve(small_model.problem, &basis).ok());
  core::ModelSnapshot snapshot;
  core::snapshot_model(small_model, basis, snapshot);

  const core::SpmModel grown_model = core::build_bl_spm(grown, caps);
  Basis lifted = core::lift_into_model(snapshot, grown_model,
                                       /*equality_assignments=*/false);
  ASSERT_FALSE(lifted.empty());
  const LpSolution warm = solver.solve(grown_model.problem, &lifted);
  const LpSolution cold = solver.solve(grown_model.problem);
  ASSERT_TRUE(warm.ok());
  ASSERT_TRUE(cold.ok());
  EXPECT_LE(rel_diff(warm.objective, cold.objective), kTol);
}

TEST(WarmStart, DegenerateTiedRatiosStayPrimalFeasible) {
  // Regression for the textbook ratio test's tie band.  The old one-pass
  // rule banded candidates against the *running* minimum with the
  // feasibility tolerance, so a row scanned early whose ratio is within
  // tol of (but above) the true minimum could keep the leaving position
  // while a later, strictly smaller ratio went unrecorded — the step then
  // overdrives the true blocker through its bound by up to tol * |coef|.
  //
  // Construction: maximize x with two near-tied blocking rows.  Row 0
  // (smaller slack column, scanned first) has ratio 1 + 0.9e-7; row 1 has
  // the true minimum ratio 1.0 with coefficient 1000.  Under the old rule
  // the step is 1 + 0.9e-7 and row 1's activity ends at 1000.00009 —
  // a 9e-5 primal violation that survives refactorization.  The two-pass
  // rule anchors the tie band (kTieTol-sized) at the final minimum, steps
  // exactly 1.0 and keeps the point feasible.  Warm-started from the slack
  // basis so presolve cannot reduce the crafted rows away;
  // bland_threshold = 0 exercises the textbook path from the first pivot.
  LinearProblem p(Sense::Maximize);
  const int x = p.add_variable(0.0, 10.0, 1.0, "x");
  p.add_row(RowType::LessEqual, 1.0 + 0.9e-7, {{x, 1.0}});
  p.add_row(RowType::LessEqual, 1000.0, {{x, 1000.0}});

  SimplexOptions options;
  options.bland_threshold = 0;
  Basis slack_basis;
  slack_basis.status = {BasisStatus::AtLower,  // x at 0
                        BasisStatus::Basic, BasisStatus::Basic};
  const LpSolution sol =
      SimplexSolver(options).solve(p, &slack_basis);
  ASSERT_TRUE(sol.ok());
  EXPECT_EQ(sol.stats.warm_starts, 1);
  EXPECT_NEAR(sol.objective, 1.0, kTol);
  // The binding row must not be overdriven: activity <= rhs + kFeasTol.
  EXPECT_LE(1000.0 * sol.x[x], 1000.0 + num::kFeasTol);
}

}  // namespace
}  // namespace metis::lp
