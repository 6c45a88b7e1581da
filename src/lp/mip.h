// MipSolver: branch & bound for mixed-integer linear programs.
//
// Integrality is requested per column (the LinearProblem itself is purely
// continuous).  The solver runs best-first branch & bound over LP
// relaxations solved by SimplexSolver:
//
//  * node selection: best LP bound first (priority queue);
//  * branching variable: most fractional integer column;
//  * incumbent: found at integral LP optima, plus a cheap rounding heuristic
//    at the root to seed pruning;
//  * limits: relative gap, node count, wall-clock time.  When a limit stops
//    the search the best incumbent and the proven bound are still returned,
//    which is how the OPT(SPM)/OPT(RL-SPM) baselines report "best found
//    within budget" on large instances (see DESIGN.md);
//  * failed node LPs: a node whose relaxation ends without a verdict (e.g.
//    at the simplex iteration cap) is dropped, but its bound stays open
//    and the search reports that LP's status instead of Optimal (or
//    Infeasible) unless the final incumbent prunes the node.
//
// This module is the stand-in for the ILP side of Gurobi used by the paper.
#pragma once

#include <vector>

#include "lp/problem.h"
#include "lp/simplex.h"
#include "lp/types.h"

namespace metis::lp {

/// Limits of the branch & bound search.  Its tolerances are the fixed
/// constants of util/numeric.h: a relaxation value within kIntegralityTol
/// of an integer counts as integral, the search stops when
/// |incumbent - bound| / max(1, |incumbent|) <= kOptTol, and a candidate
/// incumbent (the caller's warm-start seed or the root rounding) must be
/// feasible within kOptTol.
struct MipOptions {
  /// Node budget for the best-first search; the best incumbent found and
  /// the proven bound are returned either way (status NodeLimit).
  long max_nodes = 200000;
  /// Wall-clock budget in seconds; <= 0 means unlimited.
  double time_limit_seconds = 0;
  /// Options of the relaxation solves at every node.
  SimplexOptions lp;
};

/// Best-first branch & bound over SimplexSolver relaxations (see the file
/// comment).  Stateless apart from its options.
class MipSolver {
 public:
  explicit MipSolver(MipOptions options = {}) : options_(options) {}

  /// Solves `problem` with the columns in `integer_vars` restricted to
  /// integer values.  Indices must be valid and unique.
  ///
  /// `warm_start` (optional) seeds the incumbent with a known feasible
  /// integral solution — standard MIP practice that turns bound pruning on
  /// from the first node and guarantees the result is at least as good as
  /// the seed.  An infeasible or non-integral seed is ignored with a
  /// warning.
  MipResult solve(const LinearProblem& problem,
                  const std::vector<int>& integer_vars,
                  const std::vector<double>* warm_start = nullptr) const;

  const MipOptions& options() const { return options_; }

 private:
  MipOptions options_;
};

}  // namespace metis::lp
