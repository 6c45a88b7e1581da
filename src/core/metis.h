// Metis — the alternate-optimization framework of Section II.C.
//
// Modules (Fig. 1 of the paper) and how they map here:
//   Input        -> SpmInstance
//   RL-SPM Solver-> run_maa (minimize cost of the current accepted set)
//   BW Limiter   -> trim_min_utilization_link (rule tau: one unit off the
//                   link with minimum average utilization)
//   BL-SPM Solver-> run_taa (maximize revenue under the trimmed bandwidth)
//   SP Updater   -> the best (profit, schedule, plan) seen so far
//   Output       -> MetisResult
//
// The loop runs theta times (or until TAA declines everything / the accepted
// set stops changing), alternately reducing cost and improving revenue.
#pragma once

#include <vector>

#include "core/accounting.h"
#include "core/instance.h"
#include "core/lp_builder.h"
#include "core/maa.h"
#include "core/schedule.h"
#include "core/taa.h"
#include "util/rng.h"

namespace metis::core {

struct MetisOptions {
  /// Number of alternation loops (the paper's theta >= 1).  Each loop trims
  /// `trim_units` from one link, so theta bounds how far the bandwidth sweep
  /// can descend; larger theta explores deeper trades of cost vs revenue.
  ///
  /// theta == 0 selects *convergence mode*: run the paper's worst-case
  /// bound of K loops (Section II.C: "Metis loops at most K times"),
  /// stopping early when every request has been declined or no purchased
  /// bandwidth remains to trim.
  int theta = 16;
  /// Units removed from the min-utilization link per loop (rule tau).
  int trim_units = 1;
  /// Engineering guard on the SP updater (see DESIGN.md): before recording a
  /// candidate decision, greedily decline accepted requests whose bid does
  /// not cover the bandwidth cost their removal would save.  Each removal
  /// strictly increases profit, so the recorded decision can only improve.
  bool prune = true;
  /// Second SP-updater guard: a first-improvement local search that moves
  /// accepted requests onto alternative candidate paths whenever that
  /// lowers the ceiled charging cost.  Recovers most of the integer-packing
  /// gap that randomized rounding leaves at small K.
  bool local_search = true;
  /// Inner-solver options.  The MAA default keeps the cheapest of 8
  /// roundings per pass: inside the alternation loop the LP solve dominates
  /// the cost anyway, and single-rounding variance otherwise leaks straight
  /// into the recorded profit at small K.
  MaaOptions maa = [] {
    MaaOptions options;
    options.rounding_trials = 8;
    return options;
  }();
  /// Inner TAA options (augmentation, LP knobs).
  TaaOptions taa;
  /// Carry a simplex basis between the alternation rounds of one call:
  /// each BL-SPM re-solve warm-starts from the previous round's optimal
  /// basis whenever the accepted set (and hence the LP shape) is
  /// unchanged, and silently cold-starts otherwise.  Every other solve is
  /// cold through presolve, and no LP state outlives the call.  Off solves
  /// every BL-SPM relaxation cold (the ablation baseline measured by
  /// bench_lp_solver).  RL-SPM is not affected either way: every round
  /// that keeps the accepted set reuses the relaxation solved for it, and
  /// every new set is solved cold.
  bool warm_start = true;
  /// Fault repair (sim/faults.h): per-edge hard capacity (size num_edges;
  /// entry < 0 = uncapacitated).  Caps the RL-SPM purchase columns and
  /// clamps the plan handed to the BL-SPM pass, steering the whole loop
  /// away from links a fault shrank or killed.  nullptr (the default) is
  /// the historical uncapacitated loop, byte for byte.
  const std::vector<int>* edge_capacity = nullptr;
};

/// One loop's bookkeeping (for convergence plots and the theta ablation).
struct MetisIteration {
  double profit_after_maa = 0;  ///< profit of the MAA candidate this loop
  double profit_after_taa = 0;  ///< profit of the TAA candidate this loop
  int accepted_after_taa = 0;   ///< acceptance count after the TAA pass
  int trimmed_edge = -1;        ///< edge trimmed by the BW limiter (-1: none)
};

struct MetisResult {
  ProfitBreakdown best;   ///< SP Updater's record
  Schedule schedule;      ///< acceptance + routing decision
  ChargingPlan plan;      ///< bandwidth purchase decision
  std::vector<MetisIteration> history;
  int iterations_run = 0;
  /// Status of the last inner MAA / TAA solve.  When the loop stops early
  /// because a relaxation failed, these distinguish an infeasible LP from
  /// an iteration-limited or numerically failed one (NotSolved means the
  /// corresponding stage never ran).
  lp::SolveStatus maa_status = lp::SolveStatus::NotSolved;
  lp::SolveStatus taa_status = lp::SolveStatus::NotSolved;
  /// LP work aggregated over every relaxation solved by the loop.
  lp::SolveStats lp_stats;
};

/// BW Limiter: among edges with plan.units above their floor, reduces the
/// one whose average utilization (mean_t load / units) is minimal by
/// `units`, clamped at the floor.  `floor` is a per-edge minimum purchase
/// (size num_edges); nullptr means floor 0 everywhere (the offline rule
/// tau verbatim).  The incremental loop passes the ceiled peaks of the
/// committed loads so a trim can never cut below what the pinned requests
/// already consume.  Returns the trimmed edge id, or -1 when every edge is
/// at its floor.
int trim_min_utilization_link(const SpmInstance& instance, const Schedule& schedule,
                              ChargingPlan& plan, int units = 1,
                              const std::vector<int>* floor = nullptr);

/// Profit pruning: repeatedly declines the accepted request with the worst
/// (value - cost saving of removing it) as long as that quantity is
/// negative, where the saving is the drop in ceiled charging on the
/// request's path.  Returns the number of requests declined.  Every removal
/// strictly increases evaluate(instance, schedule).profit.  Requests below
/// `first_mutable` are commitments: their loads still count, but they are
/// never declined.
int prune_unprofitable(const SpmInstance& instance, Schedule& schedule,
                       int first_mutable = 0);

/// Routing local search: sweeps accepted requests, moving each onto the
/// candidate path that minimizes the total ceiled charging cost given the
/// rest of the schedule, until a sweep makes no move.  Returns the number of
/// moves.  Never increases cost (and never changes acceptance).  Requests
/// below `first_mutable` are commitments and are never moved.
int reroute_cheaper(const SpmInstance& instance, Schedule& schedule,
                    int first_mutable = 0);

/// Greedy admission sweep: repeatedly accepts the declined request (at or
/// past `first_mutable`) whose bid exceeds the marginal ceiled charging
/// cost of its cheapest candidate path by the largest margin, until no
/// profitable admission remains.  The complement of prune_unprofitable.
/// Paths that would push an edge past `edge_capacity` (same convention as
/// MetisOptions::edge_capacity; nullptr = uncapacitated) are skipped.
/// Returns the number of requests admitted; every admission strictly
/// increases evaluate(instance, schedule).profit.
int admit_profitable(const SpmInstance& instance, Schedule& schedule,
                     int first_mutable = 0,
                     const std::vector<int>* edge_capacity = nullptr);

/// Runs the full Metis loop.
MetisResult run_metis(const SpmInstance& instance, Rng& rng,
                      const MetisOptions& options = {});

/// The commitments of the online admission pipeline (sim/online.h).  With
/// `committed` empty, run_metis_incremental is bit-identical to run_metis —
/// the anchor the single-batch test pins.
struct IncrementalState {
  /// Hard commitments: final decisions for the first `committed.size()`
  /// requests of the instance, in arrival order (path index or kDeclined).
  /// Committed requests are excluded from re-optimization: accepted ones
  /// keep their path (their loads move into the LP right-hand sides and
  /// floor the BW limiter), declined ones stay declined.
  std::vector<int> committed;
};

/// Metis over `instance` treating the leading `state.committed.size()`
/// requests as already decided.  The returned schedule/plan/profit cover
/// the *whole* instance (commitments included); the caller appends the new
/// decisions to `state.committed` before the next batch.  A call decides
/// from its arguments alone: no LP state carries from one call to the next.
MetisResult run_metis_incremental(const SpmInstance& instance,
                                  const IncrementalState& state, Rng& rng,
                                  const MetisOptions& options = {});

}  // namespace metis::core
