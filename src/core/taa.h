// TAA — Tree-based Approximation Algorithm for BL-SPM (Algorithm 2).
//
// Steps:
//   1. Normalize rates and values to [0,1].
//   2. Solve the BL-SPM LP relaxation under the given capacities.
//   3. Pick the scaling factor mu from the paper's inequality (6).
//   4. Walk the K-level decision tree: for each request choose the option
//      (one of its L_i paths, or declining) that minimizes the pessimistic
//      estimator u_root, i.e. the method of conditional probabilities on the
//      Chernoff-Hoeffding bounds.
//
// Two engineering guards on top of the paper's description:
//   * a *hard feasibility guard*: options that would violate a capacity
//     constraint outright are discarded (a violated branch cannot reach a
//     "good leaf", so this never excludes the guaranteed solution);
//   * an optional greedy *augmentation pass* (on by default): requests the
//     walk declined are re-admitted if they still fit in residual capacity —
//     a pure revenue improvement that keeps feasibility.  Disable via
//     TaaOptions::augment to measure the bare walk (see the ablation bench).
#pragma once

#include <vector>

#include "core/accounting.h"
#include "core/instance.h"
#include "core/schedule.h"
#include "lp/simplex.h"

namespace metis::core {

struct IncrementalContext;  // core/lp_builder.h

struct TaaOptions {
  /// Greedy re-admission of walk-declined requests that still fit.
  bool augment = true;
  /// Simplex knobs for the relaxation solve.
  lp::SimplexOptions lp;
  /// Optional basis-reuse slot for the BL-SPM relaxation: when non-null,
  /// the solve warm-starts from *warm_basis and writes the optimal basis
  /// back (see Basis in lp/types.h).  Consecutive Metis iterations re-solve
  /// the same-shaped LP with only capacities/acceptance perturbed.
  lp::Basis* warm_basis = nullptr;
  /// Online admission (see IncrementalState in metis.h): when non-null,
  /// committed requests are pinned — excluded from the LP (their loads are
  /// subtracted from the capacity rows' RHS), pre-loaded into the walk's
  /// feasibility guard, and merged verbatim into the returned schedule.
  /// Null: plain offline solve.
  const IncrementalContext* incremental = nullptr;
};

struct TaaResult {
  lp::SolveStatus status = lp::SolveStatus::NotSolved;  ///< relaxation outcome
  Schedule schedule;  ///< accepted path per request under the capacities
  double lp_revenue = 0;   ///< optimal relaxed revenue (upper bound)
  double revenue = 0;      ///< revenue of the returned schedule
  double mu = 0;           ///< scaling factor actually used
  double gamma = 0;        ///< D(I_S, 1/(N+1))
  double revenue_floor = 0;  ///< I_B denormalized (the Theorem 6 target)
  int walk_accepted = 0;     ///< accepted by the tree walk itself
  int augment_accepted = 0;  ///< additionally accepted by augmentation
  /// Work counters of the relaxation solve (aggregatable via +=).
  lp::SolveStats lp_stats;

  /// False when the relaxation did not reach optimality; `status` says why
  /// (Infeasible vs IterationLimit vs numerical NotSolved).
  bool ok() const { return status == lp::SolveStatus::Optimal; }
};

/// Runs TAA under per-edge capacities over the requests with
/// accepted[i] == true (empty mask = all requests participate).
TaaResult run_taa(const SpmInstance& instance, const ChargingPlan& capacities,
                  const std::vector<bool>& accepted = {},
                  const TaaOptions& options = {});

/// The *splittable* counterpart (extension): with multipath splitting
/// allowed, BL-SPM's LP relaxation is itself the exact optimum — a request
/// counts as satisfied to the extent sum_j x_{i,j}, and revenue is earned
/// pro-rata.  Quantifies what the paper's unsplittable model gives up
/// (cf. the EcoFlow discussion in Section VI: splitting avoids charge
/// increases but introduces packet reordering).
struct SplittableResult {
  lp::SolveStatus status = lp::SolveStatus::NotSolved;
  double revenue = 0;                     ///< optimal splittable revenue
  std::vector<std::vector<double>> flow;  ///< [request][path] fractions
  lp::SolveStats lp_stats;                ///< work counters of the solve
  bool ok() const { return status == lp::SolveStatus::Optimal; }
};

SplittableResult run_splittable_bl_spm(const SpmInstance& instance,
                                       const ChargingPlan& capacities,
                                       const std::vector<bool>& accepted = {});

}  // namespace metis::core
