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
#pragma once

#include <vector>

#include "core/accounting.h"
#include "core/instance.h"
#include "core/schedule.h"
#include "lp/simplex.h"
#include "util/rng.h"

namespace metis::core {

struct IncrementalContext;  // core/lp_builder.h

struct MaaOptions {
  /// Independent roundings of stage 2, cheapest kept (1 = the paper).
  int rounding_trials = 1;
  /// Deterministic variant (ablation): instead of sampling, each request
  /// takes its argmax-probability path.  `rounding_trials` is ignored.
  bool deterministic = false;
  /// Worker threads for the best-of-N rounding loop (0 = all hardware
  /// threads, 1 = strictly serial).  With `rounding_trials > 1` each trial
  /// draws from an index-addressed stream (`Rng::split(trial)`) and the
  /// winner is reduced by (cost, lowest trial index), so the result is
  /// bit-identical for every thread count.  With `rounding_trials == 1`
  /// (the paper's Algorithm 1) the single rounding draws directly from the
  /// caller's generator, byte-for-byte reproducing the historical serial
  /// behaviour.  See docs/ALGORITHMS.md §"Parallel execution".
  int threads = 0;
  /// Simplex knobs for the relaxation solve.
  lp::SimplexOptions lp;
  /// Optional basis-reuse slot: when non-null, the relaxation warm-starts
  /// from *warm_basis and writes the optimal basis back (see Basis in
  /// lp/types.h).  Metis's alternation loop points this at a basis it
  /// carries across iterations; the LP column order is stable for a fixed
  /// accepted set (see lp_builder.h), so re-solves start near-optimal.
  lp::Basis* warm_basis = nullptr;
  /// Online admission (see IncrementalState in metis.h): when non-null,
  /// committed requests are pinned — excluded from the LP (their loads move
  /// to the capacity rows' RHS) and merged verbatim into the returned
  /// schedule/plan.  Null (the default): plain offline solve,
  /// bit-identical to the historical path.
  const IncrementalContext* incremental = nullptr;
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

/// Runs MAA over the requests with accepted[i] == true (empty = all).
/// Declined requests keep kDeclined in the returned schedule.
MaaResult run_maa(const SpmInstance& instance, const std::vector<bool>& accepted,
                  Rng& rng, const MaaOptions& options = {});

/// Convenience overload: all requests accepted.
MaaResult run_maa(const SpmInstance& instance, Rng& rng,
                  const MaaOptions& options = {});

}  // namespace metis::core
