// Tests for the branch & bound MIP solver, including exhaustive-enumeration
// cross-checks on random small binary programs and SUBSET-SUM instances
// (the problem the paper's NP-hardness reduction uses).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "baselines/opt.h"
#include "lp/mip.h"
#include "sim/scenario.h"
#include "util/rng.h"

namespace metis::lp {
namespace {

constexpr double kTol = 1e-5;

MipResult solve(const LinearProblem& p, const std::vector<int>& ints,
                MipOptions options = {}) {
  return MipSolver(options).solve(p, ints);
}

TEST(Mip, PureLpPassThrough) {
  LinearProblem p(Sense::Maximize);
  const int x = p.add_variable(0, 10, 3);
  p.add_row(RowType::LessEqual, 4.5, {{x, 1}});
  const MipResult r = solve(p, {});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.status, SolveStatus::Optimal);
  EXPECT_NEAR(r.objective, 13.5, kTol);
}

TEST(Mip, SimpleIntegerRounding) {
  // max x st x <= 4.5, x integer => 4
  LinearProblem p(Sense::Maximize);
  const int x = p.add_variable(0, 10, 1);
  p.add_row(RowType::LessEqual, 4.5, {{x, 1}});
  const MipResult r = solve(p, {x});
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.objective, 4, kTol);
  EXPECT_NEAR(r.x[x], 4, kTol);
}

TEST(Mip, Knapsack) {
  // Classic: weights {2,3,4,5}, values {3,4,5,6}, cap 5 => best 7 ({2,3}).
  LinearProblem p(Sense::Maximize);
  const double w[] = {2, 3, 4, 5};
  const double v[] = {3, 4, 5, 6};
  std::vector<int> vars, ints;
  std::vector<RowEntry> entries;
  for (int i = 0; i < 4; ++i) {
    const int col = p.add_variable(0, 1, v[i]);
    vars.push_back(col);
    ints.push_back(col);
    entries.push_back({col, w[i]});
  }
  p.add_row(RowType::LessEqual, 5, entries);
  const MipResult r = solve(p, ints);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.objective, 7, kTol);
  EXPECT_EQ(r.status, SolveStatus::Optimal);
}

TEST(Mip, IntegerInfeasible) {
  // 0.4 <= x <= 0.6, x integer: no integer point.
  LinearProblem p(Sense::Minimize);
  const int x = p.add_variable(0.4, 0.6, 1);
  const MipResult r = solve(p, {x});
  EXPECT_EQ(r.status, SolveStatus::Infeasible);
  EXPECT_FALSE(r.ok());
}

TEST(Mip, LpInfeasiblePropagates) {
  LinearProblem p(Sense::Minimize);
  const int x = p.add_variable(0, 1, 1);
  p.add_row(RowType::GreaterEqual, 10, {{x, 1}});
  EXPECT_EQ(solve(p, {x}).status, SolveStatus::Infeasible);
}

TEST(Mip, UnboundedPropagates) {
  LinearProblem p(Sense::Maximize);
  const int x = p.add_variable(0, kInfinity, 1);
  EXPECT_EQ(solve(p, {x}).status, SolveStatus::Unbounded);
}

TEST(Mip, EqualityWithIntegers) {
  // min x + y st 2x + 3y = 12, integers >= 0 => (0,4)->4, (3,2)->5, (6,0)->6.
  LinearProblem p(Sense::Minimize);
  const int x = p.add_variable(0, kInfinity, 1);
  const int y = p.add_variable(0, kInfinity, 1);
  p.add_row(RowType::Equal, 12, {{x, 2}, {y, 3}});
  const MipResult r = solve(p, {x, y});
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.objective, 4, kTol);
}

TEST(Mip, MixedIntegerContinuous) {
  // max 2x + y st x + y <= 3.7, x integer, y continuous => x=3, y=0.7.
  LinearProblem p(Sense::Maximize);
  const int x = p.add_variable(0, kInfinity, 2);
  const int y = p.add_variable(0, kInfinity, 1);
  p.add_row(RowType::LessEqual, 3.7, {{x, 1}, {y, 1}});
  const MipResult r = solve(p, {x});
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.objective, 6.7, kTol);
  EXPECT_NEAR(r.x[x], 3, kTol);
  EXPECT_NEAR(r.x[y], 0.7, kTol);
}

TEST(Mip, SubsetSumSolvable) {
  // The paper reduces SUBSET-SUM to SPM; exercise the solver on it directly:
  // find a subset of {3, 5, 8, 13, 21} summing to 26 (5 + 8 + 13).
  LinearProblem p(Sense::Maximize);
  const double values[] = {3, 5, 8, 13, 21};
  std::vector<int> ints;
  std::vector<RowEntry> entries;
  for (double v : values) {
    const int col = p.add_variable(0, 1, 0);
    ints.push_back(col);
    entries.push_back({col, v});
  }
  p.add_row(RowType::Equal, 26, entries);
  const MipResult r = solve(p, ints);
  ASSERT_TRUE(r.ok());
  double sum = 0;
  for (std::size_t i = 0; i < 5; ++i) sum += values[i] * std::round(r.x[ints[i]]);
  EXPECT_NEAR(sum, 26, kTol);
}

TEST(Mip, SubsetSumInfeasible) {
  // No subset of {4, 6, 10} sums to 7.
  LinearProblem p(Sense::Maximize);
  const double values[] = {4, 6, 10};
  std::vector<int> ints;
  std::vector<RowEntry> entries;
  for (double v : values) {
    const int col = p.add_variable(0, 1, 0);
    ints.push_back(col);
    entries.push_back({col, v});
  }
  p.add_row(RowType::Equal, 7, entries);
  EXPECT_EQ(solve(p, ints).status, SolveStatus::Infeasible);
}

TEST(Mip, NodeLimitKeepsIncumbent) {
  // A 12-item knapsack with a 1-node budget: must still return *some*
  // incumbent (the root heuristic) flagged as NodeLimit, with bound >=
  // incumbent.
  Rng rng(5);
  LinearProblem p(Sense::Maximize);
  std::vector<int> ints;
  std::vector<RowEntry> entries;
  for (int i = 0; i < 12; ++i) {
    const int col = p.add_variable(0, 1, rng.uniform(1, 10));
    ints.push_back(col);
    entries.push_back({col, rng.uniform(1, 10)});
  }
  p.add_row(RowType::LessEqual, 15, entries);
  MipOptions options;
  options.max_nodes = 1;
  const MipResult r = solve(p, ints, options);
  if (r.has_incumbent) {
    EXPECT_GE(r.best_bound + kTol, r.objective);
  }
  EXPECT_TRUE(r.status == SolveStatus::NodeLimit ||
              r.status == SolveStatus::Optimal);
}

TEST(Mip, FailedNodeLpKeepsTheSearchOpen) {
  // OPT(SPM) on SUB-B4 with node LPs capped at 39 iterations: some nodes
  // hit the cap and are dropped unexplored.  The search must not report
  // the incumbent it has at the end as proven optimal, and the bound it
  // reports must still cover the optimum the uncapped search proves.
  sim::Scenario sc;
  sc.network = sim::Network::SubB4;
  sc.num_requests = 10;
  sc.seed = 3;
  const core::SpmInstance instance = sim::make_instance(sc);
  MipOptions options;
  options.max_nodes = 20000;
  const baselines::OptResult full = baselines::run_opt_spm(instance, options);
  ASSERT_EQ(full.status, SolveStatus::Optimal);
  ASSERT_TRUE(full.exact);

  options.lp.max_iterations = 39;
  const baselines::OptResult capped = baselines::run_opt_spm(instance, options);
  EXPECT_EQ(capped.status, SolveStatus::IterationLimit);
  EXPECT_FALSE(capped.exact);
  ASSERT_TRUE(capped.ok());
  EXPECT_LE(capped.breakdown.profit, full.breakdown.profit + kTol);
  EXPECT_GE(capped.best_bound, full.breakdown.profit - kTol);
}

TEST(Mip, FailedNodeLpWithoutIncumbentIsNotInfeasible) {
  // 2 * (x0 + x1 + x2 + x3) = 5 has no integer solution, which the full
  // search proves.  Capped at 4 iterations the root LP still solves but
  // its children do not: a search that dropped nodes has proven nothing,
  // so it must not read as Infeasible.
  LinearProblem p(Sense::Maximize);
  std::vector<int> ints;
  std::vector<RowEntry> entries;
  for (int i = 0; i < 4; ++i) {
    const int col = p.add_variable(0, 4, 1 + i);
    ints.push_back(col);
    entries.push_back({col, 2});
  }
  p.add_row(RowType::Equal, 5, entries);
  EXPECT_EQ(solve(p, ints).status, SolveStatus::Infeasible);

  MipOptions options;
  options.lp.max_iterations = 4;
  const MipResult r = solve(p, ints, options);
  EXPECT_FALSE(r.has_incumbent);
  EXPECT_EQ(r.status, SolveStatus::IterationLimit);
}

TEST(Mip, BadIntegerIndexThrows) {
  LinearProblem p(Sense::Minimize);
  p.add_variable(0, 1, 1);
  EXPECT_THROW(solve(p, {5}), std::invalid_argument);
}

TEST(Mip, GapReportedZeroWhenExact) {
  LinearProblem p(Sense::Maximize);
  const int x = p.add_variable(0, 3, 1);
  const MipResult r = solve(p, {x});
  ASSERT_TRUE(r.ok());
  EXPECT_LE(r.gap(), 1e-6);
}

// ----------------------------------------------------------- warm start --

TEST(MipWarmStart, SeedBecomesIncumbentUnderZeroBudget) {
  // With a 0-node budget the solver can only return the seed.
  LinearProblem p(Sense::Maximize);
  const double w[] = {2, 3, 4, 5};
  const double v[] = {3, 4, 5, 6};
  std::vector<int> ints;
  std::vector<RowEntry> entries;
  for (int i = 0; i < 4; ++i) {
    const int col = p.add_variable(0, 1, v[i]);
    ints.push_back(col);
    entries.push_back({col, w[i]});
  }
  p.add_row(RowType::LessEqual, 5, entries);
  const std::vector<double> seed = {0, 0, 1, 0};  // value 5, feasible
  MipOptions options;
  options.max_nodes = 0;
  const MipResult r = MipSolver(options).solve(p, ints, &seed);
  ASSERT_TRUE(r.ok());
  EXPECT_GE(r.objective, 5 - 1e-9);
}

TEST(MipWarmStart, ResultNeverWorseThanSeed) {
  Rng rng(31);
  for (int trial = 0; trial < 10; ++trial) {
    LinearProblem p(Sense::Maximize);
    std::vector<int> ints;
    std::vector<RowEntry> entries;
    for (int i = 0; i < 8; ++i) {
      const int col = p.add_variable(0, 1, rng.uniform(1, 5));
      ints.push_back(col);
      entries.push_back({col, rng.uniform(1, 4)});
    }
    p.add_row(RowType::LessEqual, 8, entries);
    // Greedy seed: take items while they fit.
    std::vector<double> seed(8, 0.0);
    double used = 0;
    for (int i = 0; i < 8; ++i) {
      if (used + entries[i].coef <= 8) {
        seed[i] = 1;
        used += entries[i].coef;
      }
    }
    ASSERT_TRUE(p.is_feasible(seed, 1e-9));
    const double seed_value = p.objective_value(seed);
    const MipResult r = MipSolver().solve(p, ints, &seed);
    ASSERT_TRUE(r.ok());
    EXPECT_GE(r.objective, seed_value - 1e-9) << "trial " << trial;
  }
}

TEST(MipWarmStart, InfeasibleSeedIgnored) {
  LinearProblem p(Sense::Maximize);
  const int x = p.add_variable(0, 1, 1);
  p.add_row(RowType::LessEqual, 0, {{x, 1}});
  const std::vector<double> bad_seed = {1.0};  // violates the row
  const MipResult r = MipSolver().solve(p, {x}, &bad_seed);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.objective, 0, 1e-9);
}

TEST(MipWarmStart, FractionalSeedIgnored) {
  LinearProblem p(Sense::Maximize);
  const int x = p.add_variable(0, 1, 1);
  const std::vector<double> bad_seed = {0.5};
  const MipResult r = MipSolver().solve(p, {x}, &bad_seed);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.objective, 1, 1e-9);  // solved normally
}

TEST(MipWarmStart, WrongSizeSeedIgnored) {
  LinearProblem p(Sense::Maximize);
  const int x = p.add_variable(0, 1, 1);
  const std::vector<double> bad_seed = {1.0, 0.0};
  const MipResult r = MipSolver().solve(p, {x}, &bad_seed);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.objective, 1, 1e-9);
}

// ------------------------- exhaustive cross-check property sweep ---------

class MipVsEnumeration : public ::testing::TestWithParam<int> {};

/// Random binary programs with <= 10 variables, checked against exhaustive
/// enumeration of all 2^n assignments.
TEST_P(MipVsEnumeration, MatchesBruteForce) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7349u + 13);
  const int n = rng.uniform_int(2, 10);
  const int m = rng.uniform_int(1, 5);
  LinearProblem p(rng.bernoulli(0.5) ? Sense::Maximize : Sense::Minimize);
  std::vector<int> ints;
  for (int j = 0; j < n; ++j) {
    ints.push_back(p.add_variable(0, 1, rng.uniform(-5, 5)));
  }
  for (int r = 0; r < m; ++r) {
    std::vector<RowEntry> entries;
    for (int j = 0; j < n; ++j) {
      if (rng.bernoulli(0.6)) entries.push_back({j, rng.uniform(-3, 3)});
    }
    if (entries.empty()) continue;
    // LE rows with a slackish rhs keep a decent share feasible.
    p.add_row(rng.bernoulli(0.8) ? RowType::LessEqual : RowType::GreaterEqual,
              rng.uniform(-2, 4), entries);
  }

  // Brute force.
  bool any_feasible = false;
  double best = 0;
  std::vector<double> x(n);
  for (int mask = 0; mask < (1 << n); ++mask) {
    for (int j = 0; j < n; ++j) x[j] = (mask >> j) & 1;
    if (!p.is_feasible(x, 1e-9)) continue;
    const double obj = p.objective_value(x);
    if (!any_feasible ||
        (p.sense() == Sense::Maximize ? obj > best : obj < best)) {
      best = obj;
      any_feasible = true;
    }
  }

  const MipResult r = solve(p, ints);
  if (!any_feasible) {
    EXPECT_EQ(r.status, SolveStatus::Infeasible) << "seed " << GetParam();
  } else {
    ASSERT_TRUE(r.ok()) << "seed " << GetParam();
    EXPECT_NEAR(r.objective, best, 1e-5) << "seed " << GetParam();
    EXPECT_TRUE(p.is_feasible(r.x, 1e-6));
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, MipVsEnumeration, ::testing::Range(0, 50));

}  // namespace
}  // namespace metis::lp
