#include "lp/presolve.h"

#include <cmath>
#include <stdexcept>

#include "util/numeric.h"
#include "util/telemetry.h"

namespace metis::lp {

namespace {

/// Working copy of the problem that supports in-place elimination.
struct Work {
  Sense sense;
  std::vector<double> obj, lb, ub;
  std::vector<bool> col_alive;
  struct WRow {
    RowType type;
    double rhs;
    std::vector<RowEntry> entries;  // only alive columns
    bool alive = true;
  };
  std::vector<WRow> rows;
};

Work load(const LinearProblem& p) {
  Work w;
  w.sense = p.sense();
  w.obj = p.objective();
  w.lb.resize(p.num_variables());
  w.ub.resize(p.num_variables());
  for (int j = 0; j < p.num_variables(); ++j) {
    w.lb[j] = p.lower_bound(j);
    w.ub[j] = p.upper_bound(j);
  }
  w.col_alive.assign(p.num_variables(), true);
  w.rows.resize(p.num_rows());
  for (int r = 0; r < p.num_rows(); ++r) {
    const Row& row = p.row(r);
    w.rows[r].type = row.type;
    w.rows[r].rhs = row.rhs;
    // Merge duplicate column references.
    for (const RowEntry& e : row.entries) {
      bool merged = false;
      for (RowEntry& existing : w.rows[r].entries) {
        if (existing.col == e.col) {
          existing.coef += e.coef;
          merged = true;
          break;
        }
      }
      if (!merged) w.rows[r].entries.push_back(e);
    }
    // Drop exact-zero coefficients.
    std::erase_if(w.rows[r].entries,
                  [](const RowEntry& e) { return e.coef == 0.0; });
  }
  return w;
}

/// Substitutes a fixed column's value into all rows and kills the column.
void eliminate_fixed(Work& w, int col, double value) {
  w.col_alive[col] = false;
  for (auto& row : w.rows) {
    if (!row.alive) continue;
    for (std::size_t k = 0; k < row.entries.size(); ++k) {
      if (row.entries[k].col == col) {
        row.rhs -= row.entries[k].coef * value;
        row.entries.erase(row.entries.begin() + static_cast<long>(k));
        break;
      }
    }
  }
}

/// Checks an empty row's rhs.  Returns false when infeasible.
bool empty_row_feasible(const Work::WRow& row, double tol) {
  switch (row.type) {
    case RowType::LessEqual: return row.rhs >= -tol;
    case RowType::GreaterEqual: return row.rhs <= tol;
    case RowType::Equal: return std::abs(row.rhs) <= tol;
  }
  return true;
}

}  // namespace

std::vector<double> PresolveResult::restore(
    const std::vector<double>& reduced_x) const {
  std::vector<double> x(col_map.size(), 0.0);
  for (std::size_t j = 0; j < col_map.size(); ++j) {
    x[j] = col_map[j] >= 0 ? reduced_x.at(col_map[j]) : fixed_value[j];
  }
  return x;
}

LpSolution PresolveResult::postsolve(const LinearProblem& original,
                                     const LpSolution& reduced_sol) const {
  LpSolution out;
  out.status = reduced_sol.status;
  out.iterations = reduced_sol.iterations;
  out.stats = reduced_sol.stats;
  if (reduced_sol.status != SolveStatus::Optimal) return out;

  out.x = restore(reduced_sol.x);
  out.objective = original.objective_value(out.x);

  // Duals, working in minimization form (duals are reported in the
  // problem's own sense, so flip on the way in and out for Maximize).
  const double sign = original.sense() == Sense::Minimize ? 1.0 : -1.0;
  std::vector<double> y(original.num_rows(), 0.0);
  for (int r = 0; r < original.num_rows(); ++r) {
    if (row_map[r] >= 0) y[r] = sign * reduced_sol.duals.at(row_map[r]);
  }

  // Column view of the original matrix for reduced-cost evaluation.
  std::vector<std::vector<std::pair<int, double>>> col_rows(
      original.num_variables());
  for (int r = 0; r < original.num_rows(); ++r) {
    for (const RowEntry& e : original.row(r).entries) {
      col_rows[e.col].emplace_back(r, e.coef);
    }
  }

  // Replay eliminated singleton rows newest-first.  A row whose folded-in
  // bound supports the optimum (x rests on it) is active in the original
  // problem; its multiplier absorbs the column's remaining reduced cost,
  // provided the resulting sign is admissible for the row type — when two
  // folds pin the same column from both sides, the sign guard routes the
  // reduced cost to whichever row direction actually supports it.
  for (auto it = eliminated_singletons.rbegin();
       it != eliminated_singletons.rend(); ++it) {
    const int j = it->col;
    if (!num::approx_eq(out.x[j], it->bound, it->bound, num::kOptTol)) {
      continue;  // slack row: y = 0
    }
    double d = sign * original.objective_coef(j);
    for (const auto& [r, a] : col_rows[j]) d -= y[r] * a;
    const double cand = d / it->coef;
    const RowType type = original.row(it->row).type;
    const bool sign_ok =
        type == RowType::Equal ||
        (type == RowType::LessEqual && cand <= num::kFeasTol) ||
        (type == RowType::GreaterEqual && cand >= -num::kFeasTol);
    if (sign_ok) y[it->row] = cand;
  }

  out.duals.resize(original.num_rows());
  for (int r = 0; r < original.num_rows(); ++r) out.duals[r] = sign * y[r];
  return out;
}

Basis PresolveResult::lift_basis(const LinearProblem& original,
                                 const Basis& reduced_basis) const {
  Basis out;
  if (reduced_basis.empty()) return out;
  if (!reduced_basis.compatible(reduced.num_variables(), reduced.num_rows())) {
    return out;
  }
  const int n = original.num_variables();
  const int m = original.num_rows();
  out.status.assign(n + m, BasisStatus::AtLower);
  for (int j = 0; j < n; ++j) {
    if (col_map[j] >= 0) {
      out.status[j] = reduced_basis.status[col_map[j]];
      continue;
    }
    // Eliminated column: rest it at the original bound matching its fixed
    // value.  A value interior to the original bounds (pinned by a folded
    // equality row) has no nonbasic resting status that reproduces it; the
    // nearest bound keeps the snapshot well-formed and the warm-start
    // feasibility check decides whether it is still usable.
    const double lb = original.lower_bound(j);
    const double ub = original.upper_bound(j);
    const double v = fixed_value[j];
    if (std::isfinite(lb) &&
        (!std::isfinite(ub) || std::abs(v - lb) <= std::abs(v - ub))) {
      out.status[j] = BasisStatus::AtLower;
    } else if (std::isfinite(ub)) {
      out.status[j] = BasisStatus::AtUpper;
    } else {
      out.status[j] = BasisStatus::Free;
    }
  }
  for (int r = 0; r < m; ++r) {
    // Slacks of eliminated rows become basic: the basis matrix gains an
    // identity block on those rows, so nonsingularity of the reduced basis
    // carries over, and a folded row is satisfied at the lifted point so
    // its basic slack lands within bounds.
    out.status[n + r] = row_map[r] >= 0
                            ? reduced_basis.status[reduced.num_variables() +
                                                   row_map[r]]
                            : BasisStatus::Basic;
  }
  return out;
}

std::vector<int> PresolveResult::map_columns(
    const std::vector<int>& original_cols) const {
  std::vector<int> out;
  for (int col : original_cols) {
    const int mapped = col_map.at(col);
    if (mapped >= 0) out.push_back(mapped);
  }
  return out;
}

PresolveResult presolve(const LinearProblem& problem) {
  constexpr double tol = num::kPivotTol;
  METIS_SPAN("presolve");
  problem.validate();
  Work w = load(problem);
  PresolveResult result;
  result.col_map.assign(problem.num_variables(), -1);
  result.fixed_value.assign(problem.num_variables(), 0.0);
  result.row_map.assign(problem.num_rows(), -1);

  const double sense_sign = w.sense == Sense::Minimize ? 1.0 : -1.0;
  bool changed = true;
  while (changed) {
    changed = false;
    // Fixed columns.
    for (int j = 0; j < problem.num_variables(); ++j) {
      if (!w.col_alive[j]) continue;
      if (w.lb[j] > w.ub[j] + tol) {
        result.infeasible = true;
        return result;
      }
      if (std::abs(w.ub[j] - w.lb[j]) <= tol) {
        const double value = (w.lb[j] + w.ub[j]) / 2;
        result.fixed_value[j] = value;
        eliminate_fixed(w, j, value);
        changed = true;
      }
    }
    // Column occurrence counts (for empty-column detection).
    std::vector<int> occurrences(problem.num_variables(), 0);
    for (const auto& row : w.rows) {
      if (!row.alive) continue;
      for (const RowEntry& e : row.entries) ++occurrences[e.col];
    }
    // Empty columns: fix at the objective-optimal bound.
    for (int j = 0; j < problem.num_variables(); ++j) {
      if (!w.col_alive[j] || occurrences[j] > 0) continue;
      const double c = sense_sign * w.obj[j];
      double value = 0;
      if (c > 0) {
        if (!std::isfinite(w.lb[j])) {
          result.unbounded = true;
          return result;
        }
        value = w.lb[j];
      } else if (c < 0) {
        if (!std::isfinite(w.ub[j])) {
          result.unbounded = true;
          return result;
        }
        value = w.ub[j];
      } else {
        value = std::isfinite(w.lb[j]) ? w.lb[j]
                : std::isfinite(w.ub[j]) ? w.ub[j]
                                         : 0.0;
      }
      result.fixed_value[j] = value;
      eliminate_fixed(w, j, value);
      changed = true;
    }
    // Rows: empty-row verdicts and singleton-row bound tightening.
    for (int r = 0; r < static_cast<int>(w.rows.size()); ++r) {
      auto& row = w.rows[r];
      if (!row.alive) continue;
      if (row.entries.empty()) {
        if (!empty_row_feasible(row, tol)) {
          result.infeasible = true;
          return result;
        }
        row.alive = false;
        changed = true;
        continue;
      }
      if (row.entries.size() == 1) {
        const int col = row.entries[0].col;
        const double a = row.entries[0].coef;
        const double bound = row.rhs / a;
        result.eliminated_singletons.push_back({r, col, a, bound});
        // a*x <= rhs  =>  x <= bound (a>0) or x >= bound (a<0); etc.
        const bool tighten_upper =
            (row.type == RowType::LessEqual && a > 0) ||
            (row.type == RowType::GreaterEqual && a < 0);
        const bool tighten_lower =
            (row.type == RowType::GreaterEqual && a > 0) ||
            (row.type == RowType::LessEqual && a < 0);
        if (row.type == RowType::Equal) {
          w.lb[col] = std::max(w.lb[col], bound);
          w.ub[col] = std::min(w.ub[col], bound);
        } else if (tighten_upper) {
          w.ub[col] = std::min(w.ub[col], bound);
        } else if (tighten_lower) {
          w.lb[col] = std::max(w.lb[col], bound);
        }
        if (w.lb[col] > w.ub[col] + tol) {
          result.infeasible = true;
          return result;
        }
        row.alive = false;
        changed = true;
      }
    }
  }

  // Assemble the reduced problem.
  result.reduced = LinearProblem(w.sense);
  for (int j = 0; j < problem.num_variables(); ++j) {
    if (!w.col_alive[j]) {
      result.objective_offset += w.obj[j] * result.fixed_value[j];
      ++result.removed_columns;
      continue;
    }
    result.col_map[j] = result.reduced.add_variable(
        w.lb[j], w.ub[j], w.obj[j], problem.variable_name(j));
  }
  for (int r = 0; r < problem.num_rows(); ++r) {
    const auto& row = w.rows[r];
    if (!row.alive) {
      ++result.removed_rows;
      continue;
    }
    std::vector<RowEntry> entries;
    entries.reserve(row.entries.size());
    for (const RowEntry& e : row.entries) {
      entries.push_back({result.col_map[e.col], e.coef});
    }
    result.row_map[r] =
        result.reduced.add_row(row.type, row.rhs, std::move(entries));
  }
  telemetry::count("presolve.runs");
  telemetry::count("presolve.removed_rows", result.removed_rows);
  telemetry::count("presolve.removed_cols", result.removed_columns);
  return result;
}

}  // namespace metis::lp
