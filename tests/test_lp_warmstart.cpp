// Warm-start equivalence suite for the revised simplex: a carried Basis
// snapshot must never change which optimum is found (objectives agree to
// tolerance), must shrink the work on re-solves (fewer iterations than a
// cold solve), and must degrade safely — an incompatible, stale or garbage
// snapshot silently falls back to a cold start.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/accounting.h"
#include "core/lp_builder.h"
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

// ------------------------------------------------------ slack start ----
// The incremental Metis loop starts a decide's first BL-SPM solve from the
// slack basis (core::IncrementalContext::slack_start).  BL-SPM's rows are
// all <= with non-negative right-hand sides, pinned loads or not, so the
// simplex must accept that basis, and from there it walks the same pivots
// as a cold solve without presolve, which starts from the same basis.

TEST(WarmStart, BlSpmSlackStartMatchesUnpresolvedColdSolve) {
  SimplexOptions no_presolve;
  no_presolve.presolve = false;
  for (const std::uint64_t seed : {9, 10, 11}) {
    const core::SpmInstance instance = small_instance(seed, 30);
    core::ChargingPlan caps;
    caps.units.assign(instance.num_edges(), 2);
    // The online shape: the first 10 requests committed on their first
    // candidate path, their loads moved to the capacity rows' rhs.
    core::Schedule prefix =
        core::Schedule::all_declined(instance.num_requests());
    std::vector<bool> free(instance.num_requests(), true);
    for (int i = 0; i < 10; ++i) {
      prefix.path_choice[i] = 0;
      free[i] = false;
    }
    const core::LoadMatrix pinned = core::compute_loads(instance, prefix);
    for (const bool with_pins : {false, true}) {
      SCOPED_TRACE("seed " + std::to_string(seed) +
                   (with_pins ? ", pinned prefix" : ", nothing pinned"));
      const core::SpmModel model =
          with_pins ? core::build_bl_spm(instance, caps, free, {}, &pinned)
                    : core::build_bl_spm(instance, caps);
      const int n = model.problem.num_variables();
      Basis slack;
      slack.status.assign(n, BasisStatus::AtLower);
      slack.status.resize(n + model.problem.num_rows(), BasisStatus::Basic);

      const LpSolution warm = SimplexSolver().solve(model.problem, &slack);
      const LpSolution cold = SimplexSolver(no_presolve).solve(model.problem);
      ASSERT_TRUE(warm.ok());
      ASSERT_TRUE(cold.ok());
      EXPECT_EQ(warm.stats.warm_starts, 1);
      EXPECT_EQ(cold.stats.cold_starts, 1);
      EXPECT_GT(warm.stats.iterations, 0);
      EXPECT_EQ(warm.stats.iterations, cold.stats.iterations);
      EXPECT_EQ(warm.stats.factorizations, cold.stats.factorizations);
      EXPECT_EQ(warm.objective, cold.objective);
      EXPECT_EQ(warm.x, cold.x);
      EXPECT_EQ(warm.duals, cold.duals);
    }
  }
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
