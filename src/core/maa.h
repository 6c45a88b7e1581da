// MAA — Multistage Approximation Algorithm for RL-SPM (Algorithm 1).
//
// Stages:
//   1. Relaxation: solve the LP relaxation of RL-SPM (x in [0,1], c real).
//   2. Randomized rounding: pick exactly one path per request with
//      probability x̂_{i,j} (the assignment rows force sum_j x̂ = 1).
//   3. Ceiling: charge c_e = ceil(max_t load(e,t)) per edge.
//
// `rounding_trials > 1` repeats stage 2 and keeps the cheapest rounding
// (an ablation knob; the paper's algorithm is trials = 1).
//
// relax_maa is stage 1 and round_maa stages 2-3; run_maa runs both.  The
// split lets Metis keep one relaxation across alternation rounds that hand
// MAA the same accepted set (the LP depends on nothing else in a call).
#pragma once

#include <vector>

#include "core/accounting.h"
#include "core/instance.h"
#include "core/schedule.h"
#include "lp/simplex.h"
#include "util/rng.h"

namespace metis::core {

struct MaaOptions {
  /// Independent roundings of stage 2, cheapest kept (1 = the paper).
  int rounding_trials = 1;
  /// Worker threads for the best-of-N rounding loop (0 = all hardware
  /// threads, 1 = strictly serial).  With `rounding_trials > 1` each trial
  /// draws from an index-addressed stream (`Rng::split(trial)`) and the
  /// winner is reduced by (cost, lowest trial index), so the result is
  /// bit-identical for every thread count.  With `rounding_trials == 1`
  /// (the paper's Algorithm 1) the single rounding draws directly from the
  /// caller's generator, byte-for-byte reproducing the historical serial
  /// behaviour.  See docs/ALGORITHMS.md §"Parallel execution".
  int threads = 0;
  /// Simplex knobs for the relaxation solve, which always starts cold:
  /// no basis is carried into it (Metis reuses a whole relaxation instead).
  lp::SimplexOptions lp;
  /// Online admission (see IncrementalState in metis.h): the commitments'
  /// per-(edge, slot) load.  It moves to the capacity rows' RHS, and each
  /// rounding's plan is charged for it on top of the instance's load; the
  /// schedule covers the instance alone.  Null (the default): plain
  /// offline solve, bit-identical to the historical path.
  const LoadMatrix* committed = nullptr;
  /// Fault repair: per-edge purchase ceiling on the relaxation's c_e
  /// columns (entry < 0 = uncapacitated; see build_rl_spm).  The rounded
  /// plan can still overshoot a cap — randomized rounding only respects
  /// the relaxation in expectation — so callers that need a hard guarantee
  /// must shed after the fact (sim/faults.h does).  nullptr (the default)
  /// keeps every column unbounded, bit-identical to the historical model.
  const std::vector<int>* edge_capacity = nullptr;
};

struct MaaResult {
  lp::SolveStatus status = lp::SolveStatus::NotSolved;  ///< relaxation outcome
  Schedule schedule;  ///< rounded path per accepted request
  ChargingPlan plan;  ///< ceiled integer units per edge (10 Gbps each)
  /// Objective of the LP relaxation (a lower bound on the optimal cost).
  double lp_cost = 0;
  /// Fractional charged bandwidth per edge from the relaxation (ĉ_e).
  std::vector<double> fractional_c;
  /// Cost of the returned (rounded + ceiled) plan.
  double cost = 0;
  /// alpha = min positive fractional ĉ_e (drives the (alpha+1)/alpha bound).
  double alpha = 0;
  /// Work counters of the relaxation solve (aggregatable via +=).
  lp::SolveStats lp_stats;

  /// False when the relaxation did not reach optimality; `status` says why
  /// (Infeasible vs IterationLimit vs numerical NotSolved).
  bool ok() const { return status == lp::SolveStatus::Optimal; }
};

/// Stage 1's outcome, kept compact so that Metis can hold the last one
/// across rounds: the LP, its column map and its duals are dropped once
/// x̂ has been read out.
struct MaaRelaxation {
  lp::SolveStatus status = lp::SolveStatus::NotSolved;
  double objective = 0;              ///< LP optimum (MaaResult::lp_cost)
  std::vector<double> fractional_c;  ///< ĉ_e per edge
  double alpha = 0;                  ///< min positive ĉ_e
  std::vector<bool> accepted;        ///< the set it was built for (full size)
  /// x̂ of every accepted request in index order, one entry per candidate
  /// path in path order.
  std::vector<double> x_hat;

  bool ok() const { return status == lp::SolveStatus::Optimal; }
};

/// Stage 1: builds RL-SPM over the requests with accepted[i] == true
/// (empty = all) and solves it; the solve's work is added to `stats`.
MaaRelaxation relax_maa(const SpmInstance& instance,
                        const std::vector<bool>& accepted,
                        const MaaOptions& options, lp::SolveStats& stats);

/// Stages 2-3 over an optimal relaxation (for any other, only `status` is
/// set).  `lp_stats` stays zero: the relaxation's work is counted where it
/// was solved.
MaaResult round_maa(const SpmInstance& instance,
                    const MaaRelaxation& relaxation, Rng& rng,
                    const MaaOptions& options);

/// Runs MAA over the requests with accepted[i] == true (empty = all).
/// Declined requests keep kDeclined in the returned schedule.
MaaResult run_maa(const SpmInstance& instance, const std::vector<bool>& accepted,
                  Rng& rng, const MaaOptions& options = {});

/// Convenience overload: all requests accepted.
MaaResult run_maa(const SpmInstance& instance, Rng& rng,
                  const MaaOptions& options = {});

}  // namespace metis::core
