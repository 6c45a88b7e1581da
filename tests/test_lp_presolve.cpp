// Tests for the LP presolver: reduction rules, verdicts, restoration, and a
// property sweep proving presolve preserves the optimum on random LPs.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <utility>

#include "core/accounting.h"
#include "core/lp_builder.h"
#include "core/metis.h"
#include "lp/presolve.h"
#include "lp/simplex.h"
#include "sim/scenario.h"
#include "util/rng.h"
#include "util/serialize.h"

namespace metis::lp {
namespace {

TEST(Presolve, FixedColumnSubstitutionCascades) {
  // x is fixed; substituting it turns the row into a singleton on y, which
  // tightens y's bounds and drops the row; y is then an empty column and is
  // fixed at its objective-optimal bound.  The toy LP presolves away
  // completely.
  LinearProblem p(Sense::Minimize);
  const int x = p.add_variable(3, 3, 2);   // fixed at 3
  const int y = p.add_variable(0, 10, 1);
  p.add_row(RowType::LessEqual, 8, {{x, 1}, {y, 1}});
  const PresolveResult pr = presolve(p);
  ASSERT_FALSE(pr.infeasible);
  EXPECT_EQ(pr.removed_columns, 2);
  EXPECT_EQ(pr.removed_rows, 1);
  EXPECT_EQ(pr.col_map[x], -1);
  EXPECT_EQ(pr.col_map[y], -1);
  EXPECT_DOUBLE_EQ(pr.fixed_value[x], 3);
  EXPECT_DOUBLE_EQ(pr.fixed_value[y], 0);       // min, positive cost -> lb
  EXPECT_DOUBLE_EQ(pr.objective_offset, 6);     // 2*3 + 1*0
  EXPECT_EQ(pr.reduced.num_variables(), 0);
  EXPECT_EQ(pr.reduced.num_rows(), 0);
}

TEST(Presolve, SingletonRowsTightenBoundsThenFix) {
  LinearProblem p(Sense::Minimize);
  const int x = p.add_variable(-10, 10, 1);
  p.add_row(RowType::LessEqual, 4, {{x, 2}});     // x <= 2
  p.add_row(RowType::GreaterEqual, -6, {{x, 2}}); // x >= -3
  p.add_row(RowType::LessEqual, 6, {{x, -2}});    // x >= -3 (again)
  const PresolveResult pr = presolve(p);
  ASSERT_FALSE(pr.infeasible);
  EXPECT_EQ(pr.reduced.num_rows(), 0);
  // After all three rows fold into bounds [-3, 2], x is an empty column and
  // is fixed at the minimizing end.
  EXPECT_EQ(pr.col_map[x], -1);
  EXPECT_DOUBLE_EQ(pr.fixed_value[x], -3);
}

TEST(Presolve, SingletonEqualityFixesAndCascades) {
  // 2x = 6 fixes x=3, which empties the second row into a rhs check.
  LinearProblem p(Sense::Minimize);
  const int x = p.add_variable(0, 10, 1);
  p.add_row(RowType::Equal, 6, {{x, 2}});
  p.add_row(RowType::LessEqual, 5, {{x, 1}});
  const PresolveResult pr = presolve(p);
  ASSERT_FALSE(pr.infeasible);
  EXPECT_EQ(pr.reduced.num_variables(), 0);
  EXPECT_EQ(pr.reduced.num_rows(), 0);
  EXPECT_DOUBLE_EQ(pr.fixed_value[x], 3);
}

TEST(Presolve, DetectsInfeasibleSingletonChain) {
  LinearProblem p(Sense::Minimize);
  const int x = p.add_variable(0, 10, 1);
  p.add_row(RowType::GreaterEqual, 8, {{x, 1}});  // x >= 8
  p.add_row(RowType::LessEqual, 4, {{x, 1}});     // x <= 4
  EXPECT_TRUE(presolve(p).infeasible);
}

TEST(Presolve, DetectsInfeasibleEmptyRow) {
  LinearProblem p(Sense::Minimize);
  const int x = p.add_variable(2, 2, 0);  // fixed
  p.add_row(RowType::Equal, 5, {{x, 1}});  // 2 = 5 after substitution
  EXPECT_TRUE(presolve(p).infeasible);
}

TEST(Presolve, EmptyColumnFixedByObjective) {
  LinearProblem p(Sense::Maximize);
  const int x = p.add_variable(0, 7, 3);   // empty, maximize => ub
  const int y = p.add_variable(-2, 5, -1); // empty, maximize => lb
  const PresolveResult pr = presolve(p);
  EXPECT_DOUBLE_EQ(pr.fixed_value[x], 7);
  EXPECT_DOUBLE_EQ(pr.fixed_value[y], -2);
  EXPECT_EQ(pr.reduced.num_variables(), 0);
  EXPECT_DOUBLE_EQ(pr.objective_offset, 3 * 7 + (-1) * -2);
}

TEST(Presolve, DetectsUnboundedEmptyColumn) {
  LinearProblem p(Sense::Maximize);
  p.add_variable(0, kInfinity, 1);
  EXPECT_TRUE(presolve(p).unbounded);
}

TEST(Presolve, RestoreRebuildsFullVector) {
  // A two-entry row that cannot fold away keeps y and z alive; the fixed
  // column x is restored from its recorded value.
  LinearProblem p(Sense::Minimize);
  const int x = p.add_variable(4, 4, 1);
  const int y = p.add_variable(0, 9, 1);
  const int z = p.add_variable(0, 9, -1);
  p.add_row(RowType::GreaterEqual, 2, {{y, 1}, {z, 1}});
  p.add_row(RowType::LessEqual, 12, {{y, 2}, {z, 1}});
  const PresolveResult pr = presolve(p);
  ASSERT_FALSE(pr.infeasible);
  ASSERT_GE(pr.col_map[y], 0);
  ASSERT_GE(pr.col_map[z], 0);
  EXPECT_EQ(pr.col_map[x], -1);
  std::vector<double> reduced_x(pr.reduced.num_variables(), 0.0);
  reduced_x[pr.col_map[y]] = 2.5;
  reduced_x[pr.col_map[z]] = 1.5;
  const std::vector<double> full = pr.restore(reduced_x);
  EXPECT_DOUBLE_EQ(full[x], 4);
  EXPECT_DOUBLE_EQ(full[y], 2.5);
  EXPECT_DOUBLE_EQ(full[z], 1.5);
}

TEST(Presolve, MapColumnsDropsEliminated) {
  LinearProblem p(Sense::Minimize);
  const int x = p.add_variable(2, 2, 0);   // fixed -> eliminated
  const int y = p.add_variable(0, 5, 1);
  const int z = p.add_variable(0, 5, -1);
  p.add_row(RowType::LessEqual, 9, {{x, 1}, {y, 2}, {z, 1}});
  p.add_row(RowType::GreaterEqual, 1, {{y, 1}, {z, 2}});
  const PresolveResult pr = presolve(p);
  const std::vector<int> mapped = pr.map_columns({x, y, z});
  ASSERT_EQ(mapped.size(), 2u);
  EXPECT_EQ(mapped[0], pr.col_map[y]);
  EXPECT_EQ(mapped[1], pr.col_map[z]);
}

TEST(Presolve, RlSpmModelShrinks) {
  // Real model: RL-SPM has plenty of structure to squeeze (single-path
  // requests force x = 1 via singleton equality rows, etc.).
  sim::Scenario scenario;
  scenario.network = sim::Network::SubB4;
  scenario.num_requests = 30;
  scenario.seed = 2;
  const core::SpmInstance instance = sim::make_instance(scenario);
  const core::SpmModel model = core::build_rl_spm(instance);
  const PresolveResult pr = presolve(model.problem);
  ASSERT_FALSE(pr.infeasible);
  EXPECT_LE(pr.reduced.num_rows(), model.problem.num_rows());
  EXPECT_LE(pr.reduced.num_variables(), model.problem.num_variables());
  // Optimum is preserved (offset included).
  const LpSolution direct = SimplexSolver().solve(model.problem);
  const LpSolution via = SimplexSolver().solve(pr.reduced);
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(via.ok());
  EXPECT_NEAR(direct.objective, via.objective + pr.objective_offset, 1e-5);
  // Restored solution is feasible for the original problem.
  const std::vector<double> full = pr.restore(via.x);
  EXPECT_TRUE(model.problem.is_feasible(full, 1e-6));
}

// ------------------------------------------- postsolve round-trips ------

/// Certifies `sol` as an optimal primal/dual pair for `problem`: primal
/// feasibility, reduced-cost and row-dual sign conditions, complementary
/// slackness, strong duality.  Independent of how the pair was produced, so
/// it validates postsolve's dual recovery without trusting the solver.
void certify_kkt(const LinearProblem& problem, const LpSolution& sol) {
  constexpr double tol = 1e-6;
  ASSERT_EQ(sol.status, SolveStatus::Optimal);
  ASSERT_EQ(static_cast<int>(sol.x.size()), problem.num_variables());
  ASSERT_EQ(static_cast<int>(sol.duals.size()), problem.num_rows());
  EXPECT_TRUE(problem.is_feasible(sol.x, tol));

  const double sign = problem.sense() == Sense::Minimize ? 1.0 : -1.0;
  std::vector<double> y(problem.num_rows());
  for (int r = 0; r < problem.num_rows(); ++r) y[r] = sign * sol.duals[r];
  std::vector<double> d(problem.num_variables());
  for (int j = 0; j < problem.num_variables(); ++j) {
    d[j] = sign * problem.objective_coef(j);
  }
  for (int r = 0; r < problem.num_rows(); ++r) {
    for (const RowEntry& e : problem.row(r).entries) d[e.col] -= y[r] * e.coef;
  }
  for (int j = 0; j < problem.num_variables(); ++j) {
    const double lb = problem.lower_bound(j);
    const double ub = problem.upper_bound(j);
    const bool at_lower = std::isfinite(lb) && sol.x[j] <= lb + tol;
    const bool at_upper = std::isfinite(ub) && sol.x[j] >= ub - tol;
    if (at_lower && at_upper) continue;
    if (at_lower) {
      EXPECT_GE(d[j], -1e-5) << "col " << j;
    } else if (at_upper) {
      EXPECT_LE(d[j], 1e-5) << "col " << j;
    } else {
      EXPECT_NEAR(d[j], 0, 1e-5) << "col " << j;
    }
  }
  for (int r = 0; r < problem.num_rows(); ++r) {
    const double slack = problem.row(r).rhs - problem.row_activity(r, sol.x);
    switch (problem.row(r).type) {
      case RowType::LessEqual:
        EXPECT_LE(y[r], 1e-5) << "row " << r;
        if (slack > tol) EXPECT_NEAR(y[r], 0, 1e-5) << "row " << r;
        break;
      case RowType::GreaterEqual:
        EXPECT_GE(y[r], -1e-5) << "row " << r;
        if (slack < -tol) EXPECT_NEAR(y[r], 0, 1e-5) << "row " << r;
        break;
      case RowType::Equal:
        break;
    }
  }
}

/// Small network where requests 0->1 and 1->2 have exactly one candidate
/// path: their assignment rows are singleton equalities, so presolve is
/// guaranteed to eliminate rows/columns and postsolve must replay them.
core::SpmInstance mixed_path_instance() {
  net::Topology topo(3);
  topo.add_edge(0, 1, 1.5);
  topo.add_edge(1, 2, 1.0);
  topo.add_edge(0, 2, 2.5);
  std::vector<workload::Request> requests = {
      {0, 1, 0, 2, 0.7, 4.0},
      {0, 1, 1, 3, 0.5, 3.0},
      {0, 2, 0, 3, 0.6, 5.0},
      {0, 2, 2, 3, 0.8, 4.5},
      {1, 2, 0, 1, 0.4, 2.0},
  };
  core::InstanceConfig config;
  config.num_slots = 4;
  return core::SpmInstance(std::move(topo), std::move(requests), config);
}

TEST(Postsolve, RecoversPrimalAndDualsOnRlSpm) {
  // Reduced solve + postsolve must reproduce the no-presolve solver's
  // optimum on an RL-SPM model, with a KKT-certifiable dual vector.
  const core::SpmInstance instance = mixed_path_instance();
  const core::SpmModel model = core::build_rl_spm(instance);
  const PresolveResult pr = presolve(model.problem);
  ASSERT_FALSE(pr.infeasible);
  ASSERT_FALSE(pr.unbounded);
  EXPECT_GT(pr.removed_rows + pr.removed_columns, 0);

  SimplexOptions raw;
  raw.presolve = false;
  const LpSolution reduced = SimplexSolver(raw).solve(pr.reduced);
  ASSERT_TRUE(reduced.ok());
  const LpSolution sol = pr.postsolve(model.problem, reduced);
  certify_kkt(model.problem, sol);

  const LpSolution dense = SimplexSolver(raw).solve(model.problem);
  ASSERT_TRUE(dense.ok());
  EXPECT_NEAR(sol.objective, dense.objective,
              1e-6 * (1 + std::abs(dense.objective)));
}

TEST(Postsolve, RecoversPrimalAndDualsOnBlSpm) {
  sim::Scenario scenario;
  scenario.network = sim::Network::SubB4;
  scenario.num_requests = 25;
  scenario.seed = 6;
  const core::SpmInstance instance = sim::make_instance(scenario);
  core::ChargingPlan caps;
  caps.units.assign(instance.num_edges(), 3);
  const core::SpmModel model = core::build_bl_spm(instance, caps);
  const PresolveResult pr = presolve(model.problem);
  ASSERT_FALSE(pr.infeasible);
  ASSERT_FALSE(pr.unbounded);

  SimplexOptions raw;
  raw.presolve = false;
  const LpSolution reduced = SimplexSolver(raw).solve(pr.reduced);
  ASSERT_TRUE(reduced.ok());
  const LpSolution sol = pr.postsolve(model.problem, reduced);
  certify_kkt(model.problem, sol);

  const LpSolution dense = SimplexSolver(raw).solve(model.problem);
  ASSERT_TRUE(dense.ok());
  EXPECT_NEAR(sol.objective, dense.objective,
              1e-6 * (1 + std::abs(dense.objective)));
}

TEST(Postsolve, PassesThroughNonOptimalStatus) {
  LinearProblem p(Sense::Minimize);
  const int x = p.add_variable(0, 10, 1);
  const int y = p.add_variable(0, 10, 1);
  p.add_row(RowType::GreaterEqual, 4, {{x, 1}, {y, 1}});
  const PresolveResult pr = presolve(p);
  LpSolution limited;
  limited.status = SolveStatus::IterationLimit;
  const LpSolution out = pr.postsolve(p, limited);
  EXPECT_EQ(out.status, SolveStatus::IterationLimit);
  EXPECT_TRUE(out.x.empty());
  EXPECT_TRUE(out.duals.empty());
  EXPECT_EQ(out.objective, 0.0);
}

TEST(Postsolve, SolverDefaultPathEqualsExplicitRoundTrip) {
  // SimplexSolver with presolve on (the default) reports its reductions in
  // the solve stats and still yields a KKT-certifiable pair.
  const core::SpmInstance instance = mixed_path_instance();
  const core::SpmModel model = core::build_rl_spm(instance);
  const LpSolution via_solver = SimplexSolver().solve(model.problem);
  ASSERT_TRUE(via_solver.ok());
  certify_kkt(model.problem, via_solver);
  EXPECT_GT(via_solver.stats.presolve_removed_rows +
                via_solver.stats.presolve_removed_cols,
            0);
}

class PresolveProperty : public ::testing::TestWithParam<int> {};

TEST_P(PresolveProperty, PreservesOptimumOnRandomLps) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 6151u + 29);
  const int n = rng.uniform_int(2, 8);
  const int m = rng.uniform_int(1, 8);
  LinearProblem p(rng.bernoulli(0.5) ? Sense::Minimize : Sense::Maximize);
  std::vector<double> x0(n);
  for (int j = 0; j < n; ++j) {
    double lb = rng.uniform(-4, 0);
    double ub = rng.uniform(0.5, 5);
    if (rng.bernoulli(0.2)) ub = lb;  // sprinkle fixed columns
    p.add_variable(lb, ub, rng.uniform(-3, 3));
    x0[j] = rng.uniform(lb, ub);
  }
  for (int r = 0; r < m; ++r) {
    std::vector<RowEntry> entries;
    double activity = 0;
    const int width = rng.uniform_int(1, n);  // include singleton rows
    for (int c = 0; c < width; ++c) {
      const int j = rng.uniform_int(0, n - 1);
      const double coef = rng.uniform(-2, 2);
      entries.push_back({j, coef});
      activity += coef * x0[j];
    }
    const double margin = rng.uniform(0, 2);
    switch (rng.uniform_int(0, 2)) {
      case 0: p.add_row(RowType::LessEqual, activity + margin, entries); break;
      case 1: p.add_row(RowType::GreaterEqual, activity - margin, entries); break;
      default: p.add_row(RowType::Equal, activity, entries); break;
    }
  }
  const PresolveResult pr = presolve(p);
  ASSERT_FALSE(pr.infeasible) << "x0 is a feasibility witness";
  ASSERT_FALSE(pr.unbounded) << "box bounds are finite";
  const LpSolution direct = SimplexSolver().solve(p);
  const LpSolution via = SimplexSolver().solve(pr.reduced);
  ASSERT_EQ(direct.status, SolveStatus::Optimal);
  ASSERT_EQ(via.status, SolveStatus::Optimal);
  EXPECT_NEAR(direct.objective, via.objective + pr.objective_offset,
              1e-5 * (1 + std::abs(direct.objective)))
      << "seed " << GetParam();
  EXPECT_TRUE(p.is_feasible(pr.restore(via.x), 1e-5));
  // Full round-trip: the postsolved primal/dual pair certifies against the
  // original problem.
  certify_kkt(p, pr.postsolve(p, via));
}

INSTANTIATE_TEST_SUITE_P(Sweep, PresolveProperty, ::testing::Range(0, 40));

// ------------------------------------------- solve-path pins ------------
//
// CRC-32 pins of presolve's output and of a cold solve plus a warm re-solve
// on five LPs of the shapes Metis solves.  Presolve, the engine build and
// the LU all sum duplicate and eliminated entries in a fixed order; a
// change to any of them that moves a single bit of a reduced row, a pivot,
// x, a dual or a basis status fails here.

void put_problem(serialize::ByteWriter& out, const LinearProblem& p) {
  out.u8(static_cast<std::uint8_t>(p.sense()));
  out.i32(p.num_variables());
  for (int j = 0; j < p.num_variables(); ++j) {
    out.f64(p.lower_bound(j));
    out.f64(p.upper_bound(j));
    out.f64(p.objective_coef(j));
  }
  out.i32(p.num_rows());
  for (const Row& row : p.rows()) {
    out.u8(static_cast<std::uint8_t>(row.type));
    out.f64(row.rhs);
    out.u64(row.entries.size());
    for (const RowEntry& e : row.entries) {
      out.i32(e.col);
      out.f64(e.coef);
    }
  }
}

std::uint32_t presolve_crc(const PresolveResult& pr) {
  serialize::ByteWriter out;
  out.boolean(pr.infeasible);
  out.boolean(pr.unbounded);
  put_problem(out, pr.reduced);
  for (int c : pr.col_map) out.i32(c);
  for (int r : pr.row_map) out.i32(r);
  for (double v : pr.fixed_value) out.f64(v);
  out.f64(pr.objective_offset);
  out.i32(pr.removed_columns);
  out.i32(pr.removed_rows);
  for (const PresolveResult::SingletonRow& s : pr.eliminated_singletons) {
    out.i32(s.row);
    out.i32(s.col);
    out.f64(s.coef);
    out.f64(s.bound);
  }
  return serialize::crc32(out.bytes());
}

struct SolvePin {
  SolveStatus status;
  int warm_starts;
  long iterations;
  int factorizations;
  std::uint32_t crc;  ///< objective, x, duals and basis statuses
};

SolvePin pin_of(const LpSolution& sol, const Basis& basis) {
  serialize::ByteWriter out;
  out.f64(sol.objective);
  for (double v : sol.x) out.f64(v);
  for (double v : sol.duals) out.f64(v);
  for (BasisStatus s : basis.status) out.u8(static_cast<std::uint8_t>(s));
  return {sol.status, sol.stats.warm_starts, sol.stats.iterations,
          sol.stats.factorizations, serialize::crc32(out.bytes())};
}

void expect_pin(const SolvePin& got, const SolvePin& want) {
  EXPECT_EQ(got.status, want.status);
  EXPECT_EQ(got.warm_starts, want.warm_starts);
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.factorizations, want.factorizations);
  EXPECT_EQ(got.crc, want.crc);
}

struct LpPin {
  std::uint32_t presolve;
  SolvePin cold;
  SolvePin warm;  ///< re-solve from the basis the cold solve exported
};

void expect_pinned(const LinearProblem& p, const LpPin& want) {
  EXPECT_EQ(presolve_crc(presolve(p)), want.presolve);
  Basis basis;
  const LpSolution cold = SimplexSolver().solve(p, &basis);
  const SolvePin got_cold = pin_of(cold, basis);
  {
    SCOPED_TRACE("cold solve");
    expect_pin(got_cold, want.cold);
  }
  const LpSolution warm = SimplexSolver().solve(p, &basis);
  const SolvePin got_warm = pin_of(warm, basis);
  {
    SCOPED_TRACE("warm re-solve");
    expect_pin(got_warm, want.warm);
  }
}

/// The B4 book the pins are taken on: K = 60, scenario seed 1.
const core::SpmInstance& pin_instance() {
  static const core::SpmInstance instance = [] {
    sim::Scenario scenario;
    scenario.network = sim::Network::B4;
    scenario.num_requests = 60;
    scenario.seed = 1;
    return sim::make_instance(scenario);
  }();
  return instance;
}

/// Every request of `instance` in [first, last) on its first candidate
/// path; the rest declined.
core::Schedule first_paths(const core::SpmInstance& instance, int first,
                           int last) {
  core::Schedule schedule =
      core::Schedule::all_declined(instance.num_requests());
  for (int i = first; i < last; ++i) {
    if (instance.num_paths(i) > 0) schedule.path_choice[i] = 0;
  }
  return schedule;
}

TEST(SolvePathPins, RlSpm) {
  expect_pinned(core::build_rl_spm(pin_instance()).problem,
                {0xf0b68b0e, {SolveStatus::Optimal, 0, 470, 5, 0x7835123a},
                 {SolveStatus::Optimal, 1, 1, 1, 0x2b7ddb81}});
}

TEST(SolvePathPins, BlSpmUnderTrimmedPlan) {
  const core::SpmInstance& instance = pin_instance();
  const core::Schedule all = first_paths(instance, 0, instance.num_requests());
  core::ChargingPlan plan =
      core::charging_from_loads(core::compute_loads(instance, all));
  for (int k = 0; k < 3; ++k) {
    core::trim_min_utilization_link(instance, all, plan);
  }
  expect_pinned(core::build_bl_spm(instance, plan).problem,
                {0x751e3fe2, {SolveStatus::Optimal, 0, 127, 1, 0xc071db09},
                 {SolveStatus::Optimal, 1, 3, 1, 0x015b0a5e}});
}

TEST(SolvePathPins, RlSpmWithPinnedPrefix) {
  // The online shape: the first 20 requests are committed and move to the
  // capacity rows' rhs; a cell only they load gives a singleton row.  The
  // basis lifted out of presolve does not warm-start the re-solve, which
  // therefore repeats the cold solve.
  const core::SpmInstance& instance = pin_instance();
  const core::LoadMatrix pinned =
      core::compute_loads(instance, first_paths(instance, 0, 20));
  std::vector<bool> accepted(instance.num_requests(), false);
  for (int i = 20; i < instance.num_requests(); ++i) accepted[i] = true;
  expect_pinned(core::build_rl_spm(instance, accepted, &pinned).problem,
                {0xb5c9a71f, {SolveStatus::Optimal, 0, 316, 4, 0xe39bf782},
                 {SolveStatus::Optimal, 0, 316, 4, 0xe39bf782}});
}

TEST(SolvePathPins, RlSpmWithZeroPurchaseCaps) {
  // The fault shape: capped-at-zero purchase columns are fixed, and
  // presolve substitutes them into the capacity rows.
  const core::SpmInstance& instance = pin_instance();
  std::vector<int> cap(instance.num_edges(), -1);
  for (int e = 0; e < instance.num_edges(); e += 17) cap[e] = 0;
  for (int e = 3; e < instance.num_edges(); e += 17) cap[e] = 2;
  expect_pinned(core::build_rl_spm(instance, {}, nullptr, &cap).problem,
                {0x893c0782, {SolveStatus::Optimal, 0, 372, 4, 0xddf332af},
                 {SolveStatus::Optimal, 1, 1, 1, 0x1f74297a}});
}

TEST(SolvePathPins, RepeatedAndCancellingEntries) {
  LinearProblem p(Sense::Maximize);
  const int x = p.add_variable(0, 4, 3);
  const int y = p.add_variable(0, 5, 2);
  const int z = p.add_variable(-1, 6, -1);
  const int f = p.add_variable(1.5, 1.5, 1);  // fixed: substituted
  const int w = p.add_variable(0, kInfinity, 0.5);
  // x, y and w repeat non-adjacently; x's pair in row 1 and w's pair in
  // row 3 cancel exactly.
  p.add_row(RowType::LessEqual, 10, {{x, 1}, {y, 2}, {x, 0.5}, {f, 1}});
  p.add_row(RowType::GreaterEqual, 1, {{y, 1}, {x, 0.3}, {z, 1}, {x, -0.3}});
  p.add_row(RowType::LessEqual, 7, {{z, 2}, {w, 1}, {y, 0.25}, {w, 0.5}});
  p.add_row(RowType::LessEqual, 9, {{w, 1}, {x, 1}, {w, -1}, {f, 2}});
  p.add_row(RowType::Equal, 3, {{x, 1}, {y, 1}, {z, 1}, {w, -1}, {y, 0.5}});
  expect_pinned(p, {0x7d30de72, {SolveStatus::Optimal, 0, 7, 1, 0xdedf03c0},
                 {SolveStatus::Optimal, 1, 1, 1, 0x3f0e522e}});
}

}  // namespace
}  // namespace metis::lp
