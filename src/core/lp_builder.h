// Builders that translate SPM and its two variants into LinearProblem form.
//
// Variable layout is returned alongside the problem so solvers/rounders can
// map LP columns back to (request, path) pairs and edges:
//
//   RL-SPM  (min cost, accepted set fixed):
//       min  sum_e u_e c_e
//       s.t. sum_j x_{i,j}  = 1                       for accepted i
//            sum_{i,j} r_{i,t} x_{i,j} I_{i,j,e} - c_e <= 0   for all (e,t)
//            x in [0,1] (or {0,1}),  c_e >= 0 (or integer)
//
//   BL-SPM  (max revenue, capacities fixed):
//       max  sum_i v_i sum_j x_{i,j}
//       s.t. sum_j x_{i,j} <= 1                       for all i
//            sum_{i,j} r_{i,t} x_{i,j} I_{i,j,e} <= cap_e   for all (e,t)
//
//   SPM     (max profit, everything free):
//       max  sum_i v_i sum_j x_{i,j} - sum_e u_e c_e
//       s.t. sum_j x_{i,j} <= 1;  load(e,t) - c_e <= 0
//
// Ordering contract (load-bearing for warm starts): for a fixed instance
// and accepted set, every builder emits columns and rows in a fixed
// deterministic order — x columns per accepted request in index order,
// path-major, then c columns per edge; assignment rows before capacity
// rows per (edge, slot).  Two builds over the same accepted set therefore
// produce identically-shaped LinearProblems, which is what lets a
// lp::Basis snapshot from one solve warm-start the next (Metis carries a
// BL-SPM one across alternation iterations; see TaaOptions::warm_basis).
// Changing the accepted set changes the shape, and the solver falls back
// to a cold start on its own — never rely on column indices surviving an
// acceptance change.
#pragma once

#include <vector>

#include "core/accounting.h"
#include "core/instance.h"
#include "core/schedule.h"
#include "lp/problem.h"
#include "lp/types.h"

namespace metis::core {

/// Column map of a built model.  x_var[i][j] == -1 when request i is not
/// part of the model (declined up-front); c_var is empty for BL-SPM.
struct SpmModel {
  lp::LinearProblem problem;
  std::vector<std::vector<int>> x_var;  ///< [request][path] -> column
  std::vector<int> c_var;               ///< [edge] -> column (may be empty)
  /// [edge][slot] -> row index of the capacity constraint, or -1 when the
  /// pair has no row (nothing can load it).  Lets callers read the LP duals
  /// as per-(edge, slot) shadow prices of bandwidth.
  std::vector<std::vector<int>> cap_row;

  /// All x columns (for MIP integrality lists).
  std::vector<int> x_columns() const;
  /// All columns that must be integral in the exact formulations (x and c).
  std::vector<int> integer_columns() const;
};

/// RL-SPM for the subset of requests with accepted[i] == true.
/// An empty `accepted` vector means "all requests accepted".
///
/// `pinned` (online admission): per-(edge, slot) loads of requests whose
/// routing is already committed and therefore NOT part of the model.  The
/// pinned load moves to the capacity rows' right-hand side (load_free − c_e
/// ≤ −pinned(e,t)), so the purchased c_e must cover commitments plus
/// whatever the model routes.  A capacity row is emitted for every (e, t)
/// with either a potential free load or a positive pinned load.  Passing
/// nullptr (or an all-zero matrix) reproduces the offline model exactly,
/// byte for byte — the bit-identity anchor of the single-batch online mode.
///
/// `purchase_cap` (optional, fault repair): per-edge ceiling on the c_e
/// purchase column (size num_edges); an entry < 0 leaves that edge
/// uncapacitated.  RL-SPM's columns are otherwise unbounded — the provider
/// buys whatever it needs — but after a link degrades, what it can buy on
/// that link is physically capped.  nullptr reproduces the unbounded model
/// exactly.
SpmModel build_rl_spm(const SpmInstance& instance,
                      const std::vector<bool>& accepted = {},
                      const LoadMatrix* pinned = nullptr,
                      const std::vector<int>* purchase_cap = nullptr);

/// BL-SPM under per-edge capacities (units.size() == num_edges).  Only
/// requests with accepted[i] == true participate (empty = all).
///
/// `pinned` (online admission): committed loads subtracted from the
/// capacity rows' right-hand side (load_free ≤ cap_e − pinned(e,t)); the
/// caller guarantees cap_e covers the pinned peak (the incremental Metis
/// trim floor).  nullptr / all-zero reproduces the offline model exactly.
SpmModel build_bl_spm(const SpmInstance& instance, const ChargingPlan& capacities,
                      const std::vector<bool>& accepted = {},
                      const LoadMatrix* pinned = nullptr);

/// The full SPM problem (used with MipSolver for OPT(SPM)).
SpmModel build_spm(const SpmInstance& instance);

/// Extracts a Schedule from solved x values: for each request the path with
/// x >= 0.5 (exact formulations produce 0/1 values).  Fractional solutions
/// below the threshold everywhere yield kDeclined.
Schedule schedule_from_solution(const SpmInstance& instance, const SpmModel& model,
                                const std::vector<double>& x);

/// Extracts a ChargingPlan from solved c values (rounded to nearest int).
ChargingPlan plan_from_solution(const SpmInstance& instance, const SpmModel& model,
                                const std::vector<double>& x);

/// Pinning context threaded through one MAA or TAA solve by the
/// incremental Metis loop (online admission, see IncrementalState in
/// metis.h).  Both pointers are non-owning; either may be null.  With them
/// null — or pointing at an all-declined schedule / all-zero matrix — the
/// solve is byte-identical to the offline one.
struct IncrementalContext {
  /// Full-size schedule of already-committed decisions (kDeclined for every
  /// request still free).  Committed requests are excluded from the LP and
  /// merged verbatim into the returned schedule.
  const Schedule* committed = nullptr;
  /// Loads of the committed acceptances (compute_loads over *committed).
  const LoadMatrix* committed_loads = nullptr;
};

/// The inverse of schedule_from_solution: encodes a concrete decision as a
/// full column assignment of `model` (x from the schedule; c, when the model
/// has c columns, as the ceiled peak loads).  Used to warm-start MipSolver
/// with a heuristic solution.
std::vector<double> columns_from_decision(const SpmInstance& instance,
                                          const SpmModel& model,
                                          const Schedule& schedule);

}  // namespace metis::core
