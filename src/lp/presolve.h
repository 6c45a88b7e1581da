// Presolve: standard LP/MIP reductions applied before the simplex.
//
// Rules (iterated to a fixpoint):
//   * fixed columns (lower == upper) are substituted into their rows;
//   * empty rows become pure feasibility checks on their rhs;
//   * singleton rows (one nonzero) become bound tightenings and are dropped;
//   * empty columns are fixed at their objective-optimal bound.
//
// The result is a smaller problem plus the bookkeeping needed to lift a
// reduced solution back to the original variable space.  `postsolve`
// recovers the FULL primal and dual vectors: eliminated singleton rows are
// replayed in reverse elimination order, and any row whose folded-in bound
// supports the optimum at a presolve-tightened bound receives the reduced
// cost of its column as its multiplier — the lifted solution satisfies the
// original problem's KKT conditions (test_lp_presolve certifies this).
// SimplexSolver runs this pipeline internally by default; see
// SimplexOptions::presolve for the bypass conditions.
#pragma once

#include <vector>

#include "lp/problem.h"
#include "lp/types.h"

namespace metis::lp {

/// The reduced problem plus everything needed to lift a reduced-space
/// solution, dual vector or basis back to the original problem (see the
/// file comment for the reduction rules).
struct PresolveResult {
  /// The problem after all reductions; solve this instead of the original.
  LinearProblem reduced;
  /// Early verdicts.  When either flag is set, `reduced` is meaningless.
  bool infeasible = false;
  bool unbounded = false;

  /// original column -> reduced column, or -1 when eliminated.
  std::vector<int> col_map;
  /// value of each eliminated column (indexed by original column).
  std::vector<double> fixed_value;
  /// original row -> reduced row, or -1 when eliminated.
  std::vector<int> row_map;
  /// objective constant contributed by eliminated columns.
  double objective_offset = 0;

  int removed_columns = 0;
  int removed_rows = 0;

  /// One eliminated singleton row (in elimination order): `a * x[col]` vs
  /// `rhs` folded into a bound `rhs / a` on `col`.  Replayed in reverse by
  /// `postsolve` to reconstruct the row's dual multiplier.
  struct SingletonRow {
    int row = -1;
    int col = -1;
    double coef = 0;
    double bound = 0;   ///< rhs / coef, the bound folded into the column
  };
  std::vector<SingletonRow> eliminated_singletons;

  /// Lifts a reduced-space solution back to the original columns.
  std::vector<double> restore(const std::vector<double>& reduced_x) const;

  /// Lifts a full reduced-space LpSolution (primal, duals, objective) back
  /// to `original`'s space.  Non-Optimal solutions pass through with empty
  /// primal/dual vectors.  The returned objective is recomputed from the
  /// restored x to wash out reduction round-off.  A replayed singleton row
  /// takes a multiplier whose sign is wrong for its row type by at most
  /// num::kFeasTol.
  LpSolution postsolve(const LinearProblem& original,
                       const LpSolution& reduced_sol) const;

  /// Lifts a basis snapshot of the reduced problem into `original`'s column
  /// space: surviving columns/slacks keep their status, eliminated columns
  /// rest at the bound equal to their fixed value, and slacks of eliminated
  /// rows become basic (an always-nonsingular, primal-feasible completion).
  Basis lift_basis(const LinearProblem& original, const Basis& reduced) const;

  /// Maps original column indices (e.g. an integrality list) into reduced
  /// space, dropping eliminated ones.
  std::vector<int> map_columns(const std::vector<int>& original_cols) const;
};

/// Applies the reductions.  num::kPivotTol is the feasibility tolerance for
/// the verdict checks and the bound gap below which a column counts as
/// fixed: tighter than the simplex feasibility tolerance, so presolve never
/// fixes what the solver could still move.
PresolveResult presolve(const LinearProblem& problem);

}  // namespace metis::lp
