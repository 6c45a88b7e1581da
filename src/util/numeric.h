// Numerical-correctness policy: every tolerance the LP/MIP pipeline and the
// algorithm layers use, named, documented, and in one place.
//
// Why a single header: the profit guarantees of the paper only hold when the
// solver stack is numerically trustworthy, and a trustworthy stack cannot be
// assembled from ~20 ad-hoc magic epsilons that disagree with each other.
// Every comparison against "numerically zero" in src/lp/ and src/core/ must
// route through one of the named constants below (a `numeric`-labeled ctest
// greps for stray inline epsilons).  The table is documented for humans in
// DESIGN.md §"Numerical contract".
//
// Two regimes:
//  * Working tolerances (kFeasTol, kPivotTol, kSingularTol) — what the
//    simplex uses internally while pivoting.  Tight, because slack here
//    compounds over thousands of pivots.
//  * Checking tolerances (kOptTol, kIntegralityTol) — what callers and
//    certificates use to accept a finished answer.  Deliberately coarser
//    than the working tolerances: a solver must not claim more precision
//    than it maintains.
//
// Scale awareness: an absolute epsilon that is safe at loads of O(1) units
// silently mis-scales at O(1e6) units (the ROADMAP's "millions of users"
// regime).  Comparisons against quantities whose magnitude grows with the
// instance must use the relative helpers (approx_le & friends) with the
// natural scale of the comparison — e.g. a capacity check passes the
// capacity itself as `scale`.  Quantities that are *by construction* O(1)
// (LP reduced costs on the well-scaled SPM models, probabilities, per-unit
// rates) may use the constants absolutely.
#pragma once

#include <algorithm>
#include <cmath>

namespace metis::num {

/// Primal feasibility / reduced-cost working tolerance of the simplex and
/// the sign tolerance of postsolve's row duals.  Also the Harris ratio
/// test's bound-expansion budget: basic variables may transiently violate
/// a bound by up to this much (times scale) in exchange for larger, safer
/// pivots.
inline constexpr double kFeasTol = 1e-7;

/// Optimality / acceptance tolerance: objective agreement between two
/// solvers, dual-certificate slack, warm-start bound acceptance, phase-1
/// residual infeasibility, and `LinearProblem::is_feasible`'s default.
/// Coarser than kFeasTol by design (see header comment).
inline constexpr double kOptTol = 1e-6;

/// Pivot magnitude below which a column is rejected as numerically unsafe
/// and the ratio test must look elsewhere.  Also the presolve fixing
/// threshold: bounds closer than this are a fix.
inline constexpr double kPivotTol = 1e-9;

/// LU elimination pivot below which the basis is declared singular and the
/// factorization fails (triggering a cold restart from the slack basis).
inline constexpr double kSingularTol = 1e-12;

/// Distance from the nearest integer at which a value still counts as
/// integral (MIP branching, incumbent acceptance, rounding heuristics).
inline constexpr double kIntegralityTol = 1e-6;

/// Ceiling backoff for charged bandwidth units: ceil(peak - kCeilGuard), so
/// a numerically-exact integer peak (1.0000000001 from float accumulation
/// of exact-looking rates) is not overcharged by one unit.  The single
/// source of truth for this guard — core::charged_units, the TAA/Amoeba
/// capacity fit checks and the EcoFlow baseline all share it, so no two
/// layers can disagree on the charged units of the same peak.
inline constexpr double kCeilGuard = 1e-9;

/// Strict-improvement margin for greedy/local-search heuristics comparing
/// money-valued objectives (Metis prune/reroute, MAA's alpha floor): a move
/// must beat the status quo by more than this to be taken, which keeps the
/// fixed-point loops from oscillating on round-off.
inline constexpr double kImproveTol = 1e-9;

/// Strict-improvement margin for branch & bound incumbent updates and
/// dominance pruning.  Much tighter than kImproveTol: an incumbent update
/// is bookkeeping (no oscillation risk), and a loose margin here would
/// discard genuinely better solutions on near-tied instances.
inline constexpr double kIncumbentTol = 1e-12;

/// Tie margin of the TAA derandomized walk: a candidate must lower the
/// pessimistic estimator by more than this to displace an earlier one, so
/// equal-estimate candidates resolve to the lowest index deterministically.
inline constexpr double kTieTol = 1e-15;

/// Bisection convergence tolerance (relative) and domain margin for the
/// Chernoff-bound root finders.
inline constexpr double kBisectTol = 1e-12;

/// Floor for logarithm arguments: exp(-700) underflows to 0 and log(0) is
/// -inf; probabilities are clamped here first (core/estimator.cpp).
inline constexpr double kTinyFloor = 1e-300;

/// max(1, |scale|): the relative-comparison denominator.  Using max with 1
/// keeps the helpers absolute near the origin and relative for large
/// magnitudes, which is the standard mixed absolute/relative test.
inline double rel_scale(double scale) { return std::max(1.0, std::abs(scale)); }

/// a <= b, allowing slack `tol * max(1, |scale|)`.  Pass the natural
/// magnitude of the comparison as `scale` (e.g. the capacity in a
/// load-vs-capacity check); defaults keep the historical absolute check.
inline bool approx_le(double a, double b, double scale = 1.0,
                      double tol = kFeasTol) {
  return a <= b + tol * rel_scale(scale);
}

/// a >= b within `tol * max(1, |scale|)`.
inline bool approx_ge(double a, double b, double scale = 1.0,
                      double tol = kFeasTol) {
  return a >= b - tol * rel_scale(scale);
}

/// |a - b| <= tol * max(1, |scale|).
inline bool approx_eq(double a, double b, double scale = 1.0,
                      double tol = kFeasTol) {
  return std::abs(a - b) <= tol * rel_scale(scale);
}

/// a < b by a margin that survives round-off: the strict counterpart of
/// approx_ge (definitely_lt(a,b) == !approx_ge(a,b)).
inline bool definitely_lt(double a, double b, double scale = 1.0,
                          double tol = kFeasTol) {
  return a < b - tol * rel_scale(scale);
}

}  // namespace metis::num
