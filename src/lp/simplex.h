// SimplexSolver: a two-phase primal simplex method for LinearProblem.
//
// Design (sparse revised simplex, sized for the LPs in this repo: up to a
// few thousand columns and ~1000 rows, very sparse — each SPM path column
// touches only its path's edge-slot rows):
//
//  * Computational standard form.  Every row gets one slack column with
//    coefficient +1 whose bounds encode the row type (LessEqual: [0, inf),
//    GreaterEqual: (-inf, 0], Equal: [0, 0]).
//  * Bounded variables.  Columns live in [l_j, u_j]; nonbasic columns rest at
//    a finite bound (or at 0 when free).  Bound flips are handled without a
//    basis change.
//  * Phase 1 with artificials.  Rows whose initial slack value falls outside
//    the slack bounds receive one artificial column; phase 1 minimizes the
//    sum of artificials.  Artificials are frozen ([0,0]) once driven out.
//  * Sparse LU basis factorization (left-looking, partial pivoting with
//    deterministic ties; each column visits only the earlier pivots whose
//    pivot row it touches) with product-form eta updates per pivot; the
//    basis is refactorized every `refactor_interval` pivots to bound drift.
//    FTRAN/BTRAN run against the sparse factors, never a dense inverse.
//    After a pivot that keeps the eta file, one fused BTRAN yields both the
//    next iteration's duals and the devex pivot row; the duals are also
//    kept across bound flips.
//  * Devex partial pricing: each pass scans a rotating window of nonbasic
//    columns and the entering column maximizes d_j^2 / w_j.  The weights
//    follow Forrest & Goldfarb's recurrence (update_devex in simplex.cpp)
//    and reset to 1 on every refactorization.  A pass whose windows hold no
//    attractive column walks the full ring, so an optimal verdict is
//    certified against every nonbasic column.
//  * Harris two-pass ratio test: pass 1 expands every bound by kFeasTol *
//    max(1, |bound|); pass 2 picks the largest pivot that fits under the
//    relaxed step, so degenerate vertices get stable pivots.
//  * Bland's rule after `bland_threshold` consecutive degenerate pivots:
//    the first eligible column enters and the textbook smallest-ratio test
//    picks the leaving one, which guarantees termination.  Every tie goes
//    to the smallest index, so solves are bit-reproducible.
//  * Presolve by default.  `presolve()` reductions run in front of the
//    simplex and `postsolve` lifts the reduced optimum — primal AND dual —
//    back to the caller's space.  Bypassed when `options.presolve` is off,
//    when a warm basis is accepted (the basis refers to the full problem),
//    and on a presolve `unbounded` verdict (which assumes the remaining
//    model is feasible; the full solve proves it).
//  * Warm starts.  `solve(problem, &basis)` tries to start from a caller
//    supplied basis snapshot and writes the optimal basis back, so repeated
//    solves of same-shaped problems (Metis alternation, branch & bound
//    children) skip phase 1 and most of phase 2.  See Basis in types.h for
//    the acceptance contract; rejection silently falls back to a cold start.
//
// This module is the stand-in for the commercial LP solver (Gurobi) used by
// the paper; see DESIGN.md section 2.
#pragma once

#include "lp/problem.h"
#include "lp/types.h"

namespace metis::lp {

/// Knobs of the sparse revised simplex.  The defaults are the production
/// configuration every solver in the repo runs with; tests move them to
/// reach the iteration limit, refactorization boundaries, Bland mode, the
/// unreduced problem and the full-pass pricing fallback, and
/// bench_lp_solver's cold baseline turns presolve off.  Tolerances are the
/// fixed constants of util/numeric.h.
struct SimplexOptions {
  /// 0 means automatic: 200 * (rows + cols) + 2000.
  int max_iterations = 0;
  /// Refactorize the basis every this many pivots.
  int refactor_interval = 100;
  /// Consecutive degenerate pivots before switching to Bland's rule; 0
  /// prices by Bland's rule with the textbook ratio test from the first
  /// pivot.
  int bland_threshold = 64;
  /// Run presolve reductions before the simplex (skipped when a warm-start
  /// basis is accepted).  Postsolve restores full primal/dual vectors, so
  /// this is transparent to callers.
  bool presolve = true;
  /// Columns per partial-pricing candidate window.  0 selects the automatic
  /// size max(64, num_cols / 8).  Small explicit windows are for tests that
  /// exercise the full-pass fallback.
  int pricing_window = 0;
};

/// The two-phase primal simplex method over LinearProblem (see the file
/// comment for the design).  Stateless apart from its options: solve() may
/// be called repeatedly and from multiple threads concurrently.
class SimplexSolver {
 public:
  explicit SimplexSolver(SimplexOptions options = {}) : options_(options) {}

  /// Solves the problem.  The returned solution is in the problem's own
  /// sense (objective is the true max/min value, duals match the rows).
  /// Non-Optimal statuses return empty x/duals and objective 0.
  LpSolution solve(const LinearProblem& problem) const;

  /// Same, with basis reuse: when `basis` is non-null and holds a
  /// compatible snapshot, the solve warm-starts from it (bypassing
  /// presolve); an unusable snapshot falls back to a cold start.  On
  /// Optimal, `*basis` is overwritten with the final basis (possibly empty
  /// when no valid snapshot exists, e.g. an artificial stayed basic); on
  /// any other status it is left untouched.
  LpSolution solve(const LinearProblem& problem, Basis* basis) const;

  const SimplexOptions& options() const { return options_; }

 private:
  SimplexOptions options_;
};

}  // namespace metis::lp
