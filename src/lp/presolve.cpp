#include "lp/presolve.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/numeric.h"
#include "util/telemetry.h"

namespace metis::lp {

namespace {

/// Working copy of the problem that supports in-place elimination.  The
/// merged rows sit back to back in one packed array: row r's entries are
/// col/coef[row_start[r], row_start[r + 1]), in first-reference order.  An
/// eliminated entry is marked (col = -1) instead of erased, and `live[r]`
/// counts the entries row r still holds.
struct Work {
  Sense sense;
  std::vector<double> obj, lb, ub;
  std::vector<bool> col_alive;
  std::vector<RowType> type;
  std::vector<double> rhs;
  std::vector<bool> row_alive;
  std::vector<int> live;
  std::vector<int> row_start, col;
  std::vector<double> coef;
  /// Column index, built once: the entries of column j are
  /// refs[col_start[j], col_start[j + 1]), rows ascending.
  struct Ref {
    int row;
    int pos;  ///< index into col/coef
  };
  std::vector<int> col_start;
  std::vector<Ref> refs;
  /// Alive rows that hold each alive column.  A row holding an alive
  /// column can die only as a singleton on it, so a fold is the one place
  /// the count drops.
  std::vector<int> occurrences;
};

Work load(const LinearProblem& p) {
  const int n = p.num_variables();
  const int m = p.num_rows();
  Work w;
  w.sense = p.sense();
  w.obj = p.objective();
  w.lb.resize(n);
  w.ub.resize(n);
  for (int j = 0; j < n; ++j) {
    w.lb[j] = p.lower_bound(j);
    w.ub[j] = p.upper_bound(j);
  }
  w.col_alive.assign(n, true);
  w.type.resize(m);
  w.rhs.resize(m);
  w.row_alive.assign(m, true);
  w.live.resize(m);
  std::size_t nnz = 0;
  for (const Row& row : p.rows()) nnz += row.entries.size();
  w.col.reserve(nnz);
  w.coef.reserve(nnz);
  w.row_start.reserve(m + 1);
  w.row_start.push_back(0);
  // slot[j]: position of column j's entry in the row being merged, or -1.
  std::vector<int> slot(n, -1);
  for (int r = 0; r < m; ++r) {
    const Row& row = p.row(r);
    w.type[r] = row.type;
    w.rhs[r] = row.rhs;
    // Merge duplicate column references into the first one, in entry order.
    const int begin = static_cast<int>(w.col.size());
    for (const RowEntry& e : row.entries) {
      if (slot[e.col] >= 0) {
        w.coef[slot[e.col]] += e.coef;
      } else {
        slot[e.col] = static_cast<int>(w.col.size());
        w.col.push_back(e.col);
        w.coef.push_back(e.coef);
      }
    }
    // Drop exact-zero coefficients.
    int out = begin;
    for (int k = begin; k < static_cast<int>(w.col.size()); ++k) {
      slot[w.col[k]] = -1;
      if (w.coef[k] == 0.0) continue;
      w.col[out] = w.col[k];
      w.coef[out] = w.coef[k];
      ++out;
    }
    w.col.resize(out);
    w.coef.resize(out);
    w.row_start.push_back(out);
    w.live[r] = out - begin;
  }
  w.col_start.assign(n + 1, 0);
  for (int j : w.col) ++w.col_start[j + 1];
  for (int j = 0; j < n; ++j) w.col_start[j + 1] += w.col_start[j];
  w.occurrences.resize(n);
  for (int j = 0; j < n; ++j) {
    w.occurrences[j] = w.col_start[j + 1] - w.col_start[j];
  }
  w.refs.resize(w.col.size());
  std::vector<int> fill(w.col_start.begin(), w.col_start.end() - 1);
  for (int r = 0; r < m; ++r) {
    for (int k = w.row_start[r]; k < w.row_start[r + 1]; ++k) {
      w.refs[fill[w.col[k]]++] = {r, k};
    }
  }
  return w;
}

/// Substitutes a fixed column's value into its alive rows and kills the
/// column.
void eliminate_fixed(Work& w, int col, double value) {
  w.col_alive[col] = false;
  for (int k = w.col_start[col]; k < w.col_start[col + 1]; ++k) {
    const Work::Ref ref = w.refs[k];
    if (!w.row_alive[ref.row]) continue;
    w.rhs[ref.row] -= w.coef[ref.pos] * value;
    w.col[ref.pos] = -1;
    --w.live[ref.row];
  }
}

/// Checks an empty row's rhs.  Returns false when infeasible.
bool empty_row_feasible(RowType type, double rhs, double tol) {
  switch (type) {
    case RowType::LessEqual: return rhs >= -tol;
    case RowType::GreaterEqual: return rhs <= tol;
    case RowType::Equal: return std::abs(rhs) <= tol;
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

  // Column view of the original matrix for reduced-cost evaluation, by a
  // counting sort: column j's entries are col_row/col_coef[col_start[j],
  // col_start[j + 1]), rows ascending, each row's in entry order and
  // repeated references unmerged.
  const int n = original.num_variables();
  std::vector<int> col_start(n + 1, 0);
  for (const Row& row : original.rows()) {
    for (const RowEntry& e : row.entries) ++col_start[e.col + 1];
  }
  for (int j = 0; j < n; ++j) col_start[j + 1] += col_start[j];
  std::vector<int> col_row(col_start[n]);
  std::vector<double> col_coef(col_start[n]);
  std::vector<int> fill(col_start.begin(), col_start.end() - 1);
  for (int r = 0; r < original.num_rows(); ++r) {
    for (const RowEntry& e : original.row(r).entries) {
      const int k = fill[e.col]++;
      col_row[k] = r;
      col_coef[k] = e.coef;
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
    for (int k = col_start[j]; k < col_start[j + 1]; ++k) {
      d -= y[col_row[k]] * col_coef[k];
    }
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
    // Empty columns: fix at the objective-optimal bound.
    for (int j = 0; j < problem.num_variables(); ++j) {
      if (!w.col_alive[j] || w.occurrences[j] > 0) continue;
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
    for (int r = 0; r < problem.num_rows(); ++r) {
      if (!w.row_alive[r]) continue;
      if (w.live[r] == 0) {
        if (!empty_row_feasible(w.type[r], w.rhs[r], tol)) {
          result.infeasible = true;
          return result;
        }
        w.row_alive[r] = false;
        changed = true;
        continue;
      }
      if (w.live[r] == 1) {
        int k = w.row_start[r];
        while (w.col[k] < 0) ++k;
        const int col = w.col[k];
        const double a = w.coef[k];
        const RowType type = w.type[r];
        const double bound = w.rhs[r] / a;
        result.eliminated_singletons.push_back({r, col, a, bound});
        // a*x <= rhs  =>  x <= bound (a>0) or x >= bound (a<0); etc.
        const bool tighten_upper =
            (type == RowType::LessEqual && a > 0) ||
            (type == RowType::GreaterEqual && a < 0);
        const bool tighten_lower =
            (type == RowType::GreaterEqual && a > 0) ||
            (type == RowType::LessEqual && a < 0);
        if (type == RowType::Equal) {
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
        w.row_alive[r] = false;
        --w.occurrences[col];
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
    if (!w.row_alive[r]) {
      ++result.removed_rows;
      continue;
    }
    std::vector<RowEntry> entries;
    entries.reserve(w.live[r]);
    for (int k = w.row_start[r]; k < w.row_start[r + 1]; ++k) {
      if (w.col[k] < 0) continue;
      entries.push_back({result.col_map[w.col[k]], w.coef[k]});
    }
    result.row_map[r] =
        result.reduced.add_row(w.type[r], w.rhs[r], std::move(entries));
  }
  telemetry::count("presolve.runs");
  telemetry::count("presolve.removed_rows", result.removed_rows);
  telemetry::count("presolve.removed_cols", result.removed_columns);
  return result;
}

}  // namespace metis::lp
