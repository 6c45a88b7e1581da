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
//  * Devex partial pricing over rotating candidate windows by default
//    (PricingRule::Dantzig restores the full-scan rule), with an automatic
//    switch to Bland's rule after a run of degenerate pivots, which
//    guarantees termination under either rule.
//  * Presolve by default.  `presolve()` reductions run in front of the
//    simplex and `postsolve` lifts the reduced optimum — primal AND dual —
//    back to the caller's space.  Bypassed when `options.presolve` is off,
//    when `options.scale` is on, when a warm basis is accepted (the basis
//    refers to the full problem), and on a presolve `unbounded` verdict
//    (which assumes the remaining model is feasible; the full solve proves
//    it).
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
#include "util/numeric.h"

namespace metis::lp {

/// Entering-variable pricing rule of the simplex.
///
///  * Dantzig — full scan: every nonbasic column's reduced cost is
///    recomputed each iteration and the largest violation enters.  O(nnz(A))
///    per iteration, the historical behaviour.
///  * Devex — partial pricing with candidate windows: only a rotating
///    window of nonbasic columns is priced per iteration, and the entering
///    column maximizes the devex-weighted violation d_j^2 / w_j.  Reference
///    weights start at 1, follow Forrest & Goldfarb's recurrence per pivot
///    (pivot-row based; see update_devex in simplex.cpp: the pivot row
///    comes from the fused BTRAN and is accumulated row-wise over its
///    nonzeros), and reset on every refactorization and on Bland-mode
///    entry.  When no window
///    contains an attractive column the scan falls through to a full pass,
///    so optimality certification is exactly the Dantzig one.
///
/// Both rules are deterministic (ties to the smallest column index, window
/// rotation a pure function of the pivot sequence), so offline bit-identity,
/// warm/cold decision equality and thread invariance are unchanged.
enum class PricingRule { Dantzig, Devex };

/// Knobs of the sparse revised simplex.  The defaults are the production
/// configuration every solver in the repo runs with; tests flip individual
/// toggles (harris, pricing, presolve) to cross-check code paths against
/// each other.
struct SimplexOptions {
  /// 0 means automatic: 200 * (rows + cols) + 2000.
  int max_iterations = 0;
  /// Primal feasibility / reduced-cost tolerance.
  double tol = num::kFeasTol;
  /// Pivot magnitude below which a column is rejected as numerically unsafe.
  double pivot_tol = num::kPivotTol;
  /// Refactorize the basis every this many pivots.
  int refactor_interval = 100;
  /// Consecutive degenerate pivots before switching to Bland's rule.
  int bland_threshold = 64;
  /// Harris two-pass ratio test: pass 1 finds the minimum ratio with every
  /// bound expanded by the feasibility budget `tol * max(1, |bound|)`;
  /// pass 2 picks the numerically largest pivot among the candidates that
  /// fit under it (ties to the smallest basis column index).  Degenerate
  /// and near-degenerate instances get large stable pivots instead of
  /// cycling on tiny ones; transient bound violations are bounded by the
  /// expansion budget and washed out at the next refactorization.  Off
  /// falls back to the textbook smallest-ratio rule (the differential fuzz
  /// oracle cross-checks the two paths against each other).
  bool harris = true;
  /// Geometric-mean equilibration of rows and columns before solving.
  /// Opt-in: it rescues problems whose coefficients span many orders of
  /// magnitude (see test_lp_stress), but on naturally well-scaled models —
  /// including all SPM formulations in this repo — it perturbs degeneracy
  /// handling and costs several times more iterations.  The solution is
  /// unscaled transparently when enabled.
  bool scale = false;
  /// Run presolve reductions before the simplex (skipped when `scale` is
  /// on or a warm-start basis is accepted).  Postsolve restores full
  /// primal/dual vectors, so this is transparent to callers.
  bool presolve = true;
  /// Entering-variable pricing rule (see PricingRule).  Devex partial
  /// pricing is the default; Dantzig reproduces the historical full scan
  /// (the differential fuzz oracle cross-checks the two paths).
  PricingRule pricing = PricingRule::Devex;
  /// Columns per partial-pricing candidate window (devex only).  0 selects
  /// the automatic size max(64, num_cols / 8).  Small explicit windows are
  /// for tests that exercise the full-pass fallback.
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
