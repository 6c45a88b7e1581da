#include "lp/problem.h"

#include <cmath>
#include <stdexcept>

namespace metis::lp {

std::string to_string(SolveStatus status) {
  switch (status) {
    case SolveStatus::NotSolved: return "NotSolved";
    case SolveStatus::Optimal: return "Optimal";
    case SolveStatus::Infeasible: return "Infeasible";
    case SolveStatus::Unbounded: return "Unbounded";
    case SolveStatus::IterationLimit: return "IterationLimit";
    case SolveStatus::NodeLimit: return "NodeLimit";
    case SolveStatus::TimeLimit: return "TimeLimit";
  }
  return "Unknown";
}

double MipResult::gap() const {
  if (!has_incumbent) return kInfinity;
  const double denom = std::max(1.0, std::abs(objective));
  return std::abs(objective - best_bound) / denom;
}

int LinearProblem::add_variable(double lower, double upper, double obj,
                                std::string name) {
  if (std::isnan(lower) || std::isnan(upper) || std::isnan(obj)) {
    throw std::invalid_argument("add_variable: NaN input");
  }
  if (!std::isfinite(obj)) {
    throw std::invalid_argument("add_variable: infinite objective coefficient");
  }
  if (lower > upper) {
    throw std::invalid_argument("add_variable: lower > upper for " + name);
  }
  obj_.push_back(obj);
  lower_.push_back(lower);
  upper_.push_back(upper);
  names_.push_back(name.empty() ? "x" + std::to_string(obj_.size() - 1)
                                : std::move(name));
  return static_cast<int>(obj_.size()) - 1;
}

int LinearProblem::add_row(RowType type, double rhs, std::vector<RowEntry> entries,
                           std::string name) {
  if (std::isnan(rhs)) throw std::invalid_argument("add_row: NaN rhs");
  for (const RowEntry& e : entries) {
    if (e.col < 0 || e.col >= num_variables()) {
      throw std::invalid_argument("add_row: entry references unknown column");
    }
    if (!std::isfinite(e.coef)) {
      throw std::invalid_argument("add_row: non-finite coefficient");
    }
  }
  rows_.push_back(Row{type, rhs, std::move(entries), std::move(name)});
  return static_cast<int>(rows_.size()) - 1;
}

void LinearProblem::set_objective_coef(int col, double obj) {
  if (col < 0 || col >= num_variables()) {
    throw std::invalid_argument("set_objective_coef: unknown column");
  }
  if (!std::isfinite(obj)) {
    throw std::invalid_argument("set_objective_coef: non-finite coefficient");
  }
  obj_[col] = obj;
}

void LinearProblem::set_bounds(int col, double lower, double upper) {
  if (col < 0 || col >= num_variables()) {
    throw std::invalid_argument("set_bounds: unknown column");
  }
  if (std::isnan(lower) || std::isnan(upper)) {
    throw std::invalid_argument("set_bounds: NaN bound");
  }
  if (lower > upper) throw std::invalid_argument("set_bounds: lower > upper");
  lower_[col] = lower;
  upper_[col] = upper;
}

double LinearProblem::objective_value(std::span<const double> x) const {
  if (x.size() != obj_.size()) {
    throw std::invalid_argument("objective_value: size mismatch");
  }
  double total = 0;
  for (std::size_t j = 0; j < obj_.size(); ++j) total += obj_[j] * x[j];
  return total;
}

double LinearProblem::row_activity(int r, std::span<const double> x) const {
  const Row& row = rows_.at(r);
  double activity = 0;
  for (const RowEntry& e : row.entries) activity += e.coef * x[e.col];
  return activity;
}

bool LinearProblem::is_feasible(std::span<const double> x, double tol) const {
  if (x.size() != obj_.size()) return false;
  for (std::size_t j = 0; j < obj_.size(); ++j) {
    if (x[j] < lower_[j] - tol || x[j] > upper_[j] + tol) return false;
  }
  for (int r = 0; r < num_rows(); ++r) {
    const double activity = row_activity(r, x);
    const double rhs = rows_[r].rhs;
    switch (rows_[r].type) {
      case RowType::LessEqual:
        if (!num::approx_le(activity, rhs, rhs, tol)) return false;
        break;
      case RowType::GreaterEqual:
        if (!num::approx_ge(activity, rhs, rhs, tol)) return false;
        break;
      case RowType::Equal:
        if (!num::approx_eq(activity, rhs, rhs, tol)) return false;
        break;
    }
  }
  return true;
}

void LinearProblem::validate() const {
  for (int j = 0; j < num_variables(); ++j) {
    if (lower_[j] > upper_[j]) {
      throw std::invalid_argument("validate: lower > upper on column " +
                                  names_[j]);
    }
  }
  for (const Row& row : rows_) {
    for (const RowEntry& e : row.entries) {
      if (e.col < 0 || e.col >= num_variables()) {
        throw std::invalid_argument("validate: bad column index in row " +
                                    row.name);
      }
    }
  }
}

}  // namespace metis::lp
