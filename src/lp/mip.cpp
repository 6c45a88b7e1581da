#include "lp/mip.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <queue>
#include <stdexcept>

#include "util/log.h"
#include "util/numeric.h"
#include "util/telemetry.h"

namespace metis::lp {

namespace {

/// A node is a set of bound overrides on integer columns.
struct BoundChange {
  int col;
  double lower;
  double upper;
};

struct Node {
  std::vector<BoundChange> changes;
  double bound;  // LP relaxation objective in minimization form
  int depth = 0;
};

struct NodeOrder {
  bool operator()(const Node& a, const Node& b) const {
    if (a.bound != b.bound) return a.bound > b.bound;  // smaller bound first
    return a.depth < b.depth;                          // deeper first on ties
  }
};

}  // namespace

MipResult MipSolver::solve(const LinearProblem& problem,
                           const std::vector<int>& integer_vars,
                           const std::vector<double>* warm_start) const {
  problem.validate();
  for (int col : integer_vars) {
    if (col < 0 || col >= problem.num_variables()) {
      throw std::invalid_argument("MipSolver: bad integer column index");
    }
  }
  METIS_SPAN("mip_solve");
  const telemetry::Stopwatch timer;
  const auto out_of_time = [&] {
    if (options_.time_limit_seconds <= 0) return false;
    return timer.seconds() > options_.time_limit_seconds;
  };

  // Work in minimization form; flip back at the end.
  const double sign = problem.sense() == Sense::Minimize ? 1.0 : -1.0;
  LinearProblem work = problem;
  work.set_sense(Sense::Minimize);
  if (sign < 0) {
    for (int j = 0; j < work.num_variables(); ++j) {
      work.set_objective_coef(j, -work.objective_coef(j));
    }
  }

  SimplexSolver lp(options_.lp);
  MipResult result;
  double incumbent_obj = kInfinity;  // minimization form
  std::vector<double> incumbent_x;

  const auto apply = [&](const std::vector<BoundChange>& changes) {
    for (const BoundChange& ch : changes) work.set_bounds(ch.col, ch.lower, ch.upper);
  };
  const auto restore = [&](const std::vector<BoundChange>& changes) {
    for (const BoundChange& ch : changes) {
      work.set_bounds(ch.col, problem.lower_bound(ch.col),
                      problem.upper_bound(ch.col));
    }
  };

  const auto fractional_col = [&](const std::vector<double>& x) {
    // Most-fractional branching: pick the column farthest from integrality.
    int best = -1;
    double best_frac = num::kIntegralityTol;
    for (int col : integer_vars) {
      const double frac = std::abs(x[col] - std::round(x[col]));
      if (frac > best_frac) {
        best_frac = frac;
        best = col;
      }
    }
    return best;
  };

  const auto try_incumbent = [&](const std::vector<double>& x, double obj) {
    if (obj < incumbent_obj - num::kIncumbentTol) {
      incumbent_obj = obj;
      incumbent_x = x;
      // Snap near-integers exactly.
      for (int col : integer_vars) {
        incumbent_x[col] = std::round(incumbent_x[col]);
      }
    }
  };

  // Seed the incumbent from the warm start, if one is supplied and valid.
  if (warm_start != nullptr) {
    bool valid = static_cast<int>(warm_start->size()) == work.num_variables();
    if (valid) {
      for (int col : integer_vars) {
        if (std::abs((*warm_start)[col] - std::round((*warm_start)[col])) >
            num::kIntegralityTol) {
          valid = false;
          break;
        }
      }
    }
    if (valid && work.is_feasible(*warm_start, num::kOptTol)) {
      try_incumbent(*warm_start, work.objective_value(*warm_start));
    } else {
      METIS_LOG_WARN << "MIP warm start rejected (infeasible or fractional)";
    }
  }

  // --- Root node ---
  // One basis snapshot threads through the whole tree: each node tries to
  // warm-start from the most recent optimal basis (parent or sibling —
  // usually one bound change away) and silently cold-starts when the
  // snapshot is not primal feasible under the node's bounds.
  Basis basis;
  LpSolution root = lp.solve(work, &basis);
  result.lp_stats += root.stats;
  if (root.status == SolveStatus::Infeasible) {
    result.status = SolveStatus::Infeasible;
    return result;
  }
  if (root.status == SolveStatus::Unbounded) {
    result.status = SolveStatus::Unbounded;
    return result;
  }
  if (root.status != SolveStatus::Optimal) {
    result.status = root.status;
    return result;
  }

  // Rounding heuristic at the root: round integer columns to the nearest
  // integer within bounds and keep it if it happens to be feasible.
  {
    std::vector<double> rounded = root.x;
    bool integral = true;
    for (int col : integer_vars) {
      double v = std::round(rounded[col]);
      v = std::clamp(v, problem.lower_bound(col), problem.upper_bound(col));
      // Clamping against fractional bounds can leave v non-integer; such a
      // point must not become an incumbent.
      if (std::abs(v - std::round(v)) > num::kIntegralityTol) {
        integral = false;
        break;
      }
      rounded[col] = v;
    }
    if (integral && work.is_feasible(rounded, num::kOptTol)) {
      try_incumbent(rounded, work.objective_value(rounded));
    }
  }

  // Two-phase node selection: depth-first diving until the first incumbent
  // exists (reaches integral leaves quickly), then best-first on the LP
  // bound (closes the gap quickly).
  std::priority_queue<Node, std::vector<Node>, NodeOrder> open;
  std::vector<Node> dive_stack;
  open.push(Node{{}, root.objective, 0});
  double best_open_bound = root.objective;
  SolveStatus stop_reason = SolveStatus::Optimal;
  // Nodes whose LP failed (iteration limit, numerical trouble) are dropped
  // unexplored: the smallest of their bounds stays open, and the status of
  // the first failure replaces Optimal unless the final incumbent prunes
  // every dropped node.
  double dropped_bound = kInfinity;
  SolveStatus dropped_status = SolveStatus::Optimal;
  // A bound that cannot beat the incumbent by more than the relative gap.
  const auto pruned = [&](double bound) {
    return incumbent_obj < kInfinity &&
           bound >= incumbent_obj -
                        num::kOptTol * std::max(1.0, std::abs(incumbent_obj));
  };

  bool popped_from_queue = false;
  const auto pop_node = [&]() -> Node {
    if (incumbent_x.empty() && !dive_stack.empty()) {
      Node node = std::move(dive_stack.back());
      dive_stack.pop_back();
      popped_from_queue = false;
      return node;
    }
    if (!dive_stack.empty()) {
      // An incumbent appeared: drain the dive stack into the queue.
      for (Node& n : dive_stack) open.push(std::move(n));
      dive_stack.clear();
    }
    Node node = open.top();
    open.pop();
    popped_from_queue = true;
    return node;
  };
  const auto push_node = [&](Node&& node) {
    if (incumbent_x.empty()) {
      dive_stack.push_back(std::move(node));
    } else {
      open.push(std::move(node));
    }
  };

  while (!open.empty() || !dive_stack.empty()) {
    if (result.nodes >= options_.max_nodes) {
      stop_reason = SolveStatus::NodeLimit;
      break;
    }
    if (out_of_time()) {
      stop_reason = SolveStatus::TimeLimit;
      break;
    }
    Node node = pop_node();
    if (popped_from_queue) best_open_bound = node.bound;
    // Prune by bound against the incumbent.
    if (pruned(node.bound)) {
      if (popped_from_queue) {
        // Best-first order: every remaining node is at least as bad.
        best_open_bound = incumbent_obj;
        break;
      }
      continue;  // diving: prune this node only
    }
    ++result.nodes;

    apply(node.changes);
    LpSolution sol = lp.solve(work, &basis);
    restore(node.changes);
    result.lp_stats += sol.stats;

    if (sol.status == SolveStatus::Infeasible) continue;
    if (sol.status != SolveStatus::Optimal) {
      METIS_LOG_WARN << "MIP node LP ended with status " << to_string(sol.status);
      dropped_bound = std::min(dropped_bound, node.bound);
      if (dropped_status == SolveStatus::Optimal) dropped_status = sol.status;
      continue;
    }
    if (incumbent_obj < kInfinity &&
        sol.objective >= incumbent_obj - num::kIncumbentTol) {
      continue;  // dominated
    }
    const int branch_col = fractional_col(sol.x);
    if (branch_col < 0) {
      try_incumbent(sol.x, sol.objective);
      continue;
    }
    const double v = sol.x[branch_col];
    const auto make_down = [&]() -> std::optional<Node> {
      Node child = node;
      child.depth++;
      double lo = problem.lower_bound(branch_col);
      double hi = std::floor(v);
      for (const BoundChange& ch : node.changes) {
        if (ch.col == branch_col) {
          lo = ch.lower;
          hi = std::min(hi, ch.upper);
        }
      }
      if (lo > hi) return std::nullopt;
      child.changes.push_back({branch_col, lo, hi});
      child.bound = sol.objective;
      return child;
    };
    const auto make_up = [&]() -> std::optional<Node> {
      Node child = node;
      child.depth++;
      double lo = std::ceil(v);
      double hi = problem.upper_bound(branch_col);
      for (const BoundChange& ch : node.changes) {
        if (ch.col == branch_col) {
          lo = std::max(lo, ch.lower);
          hi = ch.upper;
        }
      }
      if (lo > hi) return std::nullopt;
      child.changes.push_back({branch_col, lo, hi});
      child.bound = sol.objective;
      return child;
    };
    auto down = make_down();
    auto up = make_up();
    // While diving, push the child on the rounding-preferred side last so it
    // is explored first (LIFO): this reaches integral leaves fastest.
    const bool prefer_down = v - std::floor(v) < 0.5;
    if (prefer_down) {
      if (up) push_node(*std::move(up));
      if (down) push_node(*std::move(down));
    } else {
      if (down) push_node(*std::move(down));
      if (up) push_node(*std::move(up));
    }
  }

  const bool dropped_open = dropped_bound < kInfinity && !pruned(dropped_bound);
  if (dropped_open && stop_reason == SolveStatus::Optimal) {
    stop_reason = dropped_status;
  }
  if (open.empty() && dive_stack.empty() &&
      stop_reason == SolveStatus::Optimal) {
    best_open_bound = incumbent_obj;  // tree exhausted: bound is exact
  } else {
    if (!open.empty()) {
      best_open_bound = std::min(best_open_bound, open.top().bound);
    }
    for (const Node& n : dive_stack) {
      best_open_bound = std::min(best_open_bound, n.bound);
    }
    if (dropped_open) best_open_bound = std::min(best_open_bound, dropped_bound);
  }

  result.has_incumbent = incumbent_obj < kInfinity;
  if (result.has_incumbent) {
    result.objective = sign * incumbent_obj;
    result.x = std::move(incumbent_x);
    result.best_bound = sign * best_open_bound;
    result.status = stop_reason;
  } else {
    result.status = stop_reason == SolveStatus::Optimal ? SolveStatus::Infeasible
                                                        : stop_reason;
    result.best_bound = sign * best_open_bound;
  }
  telemetry::count("mip.solves");
  telemetry::count("mip.nodes", result.nodes);
  telemetry::observe("mip.solve_ms", timer.ms());
  return result;
}

}  // namespace metis::lp
