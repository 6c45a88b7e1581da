#include "core/lp_builder.h"

#include "core/accounting.h"

#include <cmath>
#include <stdexcept>
#include <string>

namespace metis::core {

namespace {

std::vector<bool> resolve_accepted(const SpmInstance& instance,
                                   const std::vector<bool>& accepted) {
  if (accepted.empty()) {
    return std::vector<bool>(instance.num_requests(), true);
  }
  if (static_cast<int>(accepted.size()) != instance.num_requests()) {
    throw std::invalid_argument("accepted mask has wrong size");
  }
  return accepted;
}

/// Adds the x_{i,j} columns for participating requests.
std::vector<std::vector<int>> add_x_columns(const SpmInstance& instance,
                                            const std::vector<bool>& accepted,
                                            double obj_value_factor,
                                            lp::LinearProblem& problem) {
  std::vector<std::vector<int>> x_var(instance.num_requests());
  for (int i = 0; i < instance.num_requests(); ++i) {
    x_var[i].assign(instance.num_paths(i), -1);
    if (!accepted[i]) continue;
    for (int j = 0; j < instance.num_paths(i); ++j) {
      const double obj = obj_value_factor * instance.request(i).value;
      x_var[i][j] = problem.add_variable(
          0.0, 1.0, obj, "x_" + std::to_string(i) + "_" + std::to_string(j));
    }
  }
  return x_var;
}

/// Adds the per-(edge,slot) load rows.  When c_var is non-empty the row is
/// load - c_e <= 0; otherwise load <= capacity[e].  A non-null `pinned`
/// moves committed load onto the right-hand side (and, in the c_var form,
/// forces a row wherever pinned load alone requires purchase); zero pinned
/// entries leave the row byte-identical to the offline build.
///
/// Each participating request's paths are bucketed by (edge, active slot)
/// in (request, path) order, so a row's entries come out in that order and
/// the cost follows the participating requests, not the whole book.
/// Candidate paths are simple, so a path meets each edge at most once, and
/// SpmInstance keeps every request's window inside the cycle.
std::vector<std::vector<int>> add_capacity_rows(
    const SpmInstance& instance, const std::vector<bool>& accepted,
    const std::vector<std::vector<int>>& x_var, const std::vector<int>& c_var,
    const ChargingPlan* capacities, const LoadMatrix* pinned,
    lp::LinearProblem& problem) {
  const int slots = instance.num_slots();
  std::vector<std::vector<lp::RowEntry>> load(instance.num_edges() * slots);
  for (int i = 0; i < instance.num_requests(); ++i) {
    if (!accepted[i]) continue;
    const workload::Request& r = instance.request(i);
    for (int j = 0; j < instance.num_paths(i); ++j) {
      for (net::EdgeId e : instance.paths(i)[j].edges) {
        for (int t = r.start_slot; t <= r.end_slot; ++t) {
          load[e * slots + t].push_back({x_var[i][j], r.rate});
        }
      }
    }
  }
  std::vector<std::vector<int>> cap_row(
      instance.num_edges(), std::vector<int>(slots, -1));
  for (net::EdgeId e = 0; e < instance.num_edges(); ++e) {
    for (int t = 0; t < slots; ++t) {
      std::vector<lp::RowEntry> entries = std::move(load[e * slots + t]);
      const double committed = pinned != nullptr ? pinned->at(e, t) : 0.0;
      // In the c_var form a positive committed load still needs a row (the
      // purchase must cover it even when no free request can add to it);
      // without c columns such a row would be variable-free and vacuous.
      if (entries.empty() && (c_var.empty() || committed <= 0)) {
        continue;  // nothing can load this (e,t)
      }
      double rhs = 0;
      if (c_var.empty()) {
        rhs = capacities->units.at(e);
      } else {
        entries.push_back({c_var[e], -1.0});
      }
      if (committed > 0) {
        rhs -= committed;
        // Fault repair can shrink an edge's capacity below the load already
        // committed on it.  In the capacity-bounded form (no c column) a
        // negative RHS would make the whole LP infeasible even though the
        // free requests add nothing; clamp to 0 so the row only forbids new
        // load and the overload stays the repair machinery's problem.  (In
        // the c-column form a negative RHS is correct — it forces the
        // purchase to cover the committed load.)
        if (c_var.empty() && rhs < 0) rhs = 0;
      }
      cap_row[e][t] = problem.add_row(
          lp::RowType::LessEqual, rhs, std::move(entries),
          "cap_e" + std::to_string(e) + "_t" + std::to_string(t));
    }
  }
  return cap_row;
}

void add_assignment_rows(const SpmInstance& instance,
                         const std::vector<bool>& accepted,
                         const std::vector<std::vector<int>>& x_var,
                         lp::RowType type, lp::LinearProblem& problem) {
  for (int i = 0; i < instance.num_requests(); ++i) {
    if (!accepted[i]) continue;
    std::vector<lp::RowEntry> entries;
    for (int j = 0; j < instance.num_paths(i); ++j) {
      entries.push_back({x_var[i][j], 1.0});
    }
    problem.add_row(type, 1.0, std::move(entries), "asg_" + std::to_string(i));
  }
}

std::vector<int> add_c_columns(const SpmInstance& instance,
                               lp::LinearProblem& problem) {
  std::vector<int> c_var(instance.num_edges());
  for (net::EdgeId e = 0; e < instance.num_edges(); ++e) {
    // In the maximization forms the cost enters as -u_e; in RL-SPM the
    // problem is a minimization so the coefficient is +u_e.  The caller
    // fixes the sign by the problem sense set before calling.
    const double sign =
        problem.sense() == lp::Sense::Minimize ? 1.0 : -1.0;
    c_var[e] = problem.add_variable(0.0, lp::kInfinity,
                                    sign * instance.topology().edge(e).price,
                                    "c_" + std::to_string(e));
  }
  return c_var;
}

}  // namespace

std::vector<int> SpmModel::x_columns() const {
  std::vector<int> cols;
  for (const auto& row : x_var) {
    for (int col : row) {
      if (col >= 0) cols.push_back(col);
    }
  }
  return cols;
}

std::vector<int> SpmModel::integer_columns() const {
  std::vector<int> cols = x_columns();
  for (int col : c_var) {
    if (col >= 0) cols.push_back(col);
  }
  return cols;
}

SpmModel build_rl_spm(const SpmInstance& instance,
                      const std::vector<bool>& accepted_in,
                      const LoadMatrix* pinned,
                      const std::vector<int>* purchase_cap) {
  const std::vector<bool> accepted = resolve_accepted(instance, accepted_in);
  if (purchase_cap != nullptr &&
      static_cast<int>(purchase_cap->size()) != instance.num_edges()) {
    throw std::invalid_argument("build_rl_spm: purchase_cap size mismatch");
  }
  SpmModel model;
  model.problem.set_sense(lp::Sense::Minimize);
  model.x_var = add_x_columns(instance, accepted, /*obj_value_factor=*/0.0,
                              model.problem);
  model.c_var = add_c_columns(instance, model.problem);
  if (purchase_cap != nullptr) {
    for (net::EdgeId e = 0; e < instance.num_edges(); ++e) {
      const int cap = (*purchase_cap)[e];
      if (cap >= 0) model.problem.set_bounds(model.c_var[e], 0.0, cap);
    }
  }
  add_assignment_rows(instance, accepted, model.x_var, lp::RowType::Equal,
                      model.problem);
  model.cap_row = add_capacity_rows(instance, accepted, model.x_var,
                                    model.c_var, /*capacities=*/nullptr,
                                    pinned, model.problem);
  return model;
}

SpmModel build_bl_spm(const SpmInstance& instance, const ChargingPlan& capacities,
                      const std::vector<bool>& accepted_in,
                      const BlSpmOptions& options, const LoadMatrix* pinned) {
  if (static_cast<int>(capacities.units.size()) != instance.num_edges()) {
    throw std::invalid_argument("build_bl_spm: capacity size mismatch");
  }
  if (options.cost_weight < 0) {
    throw std::invalid_argument("build_bl_spm: negative cost_weight");
  }
  const std::vector<bool> accepted = resolve_accepted(instance, accepted_in);
  SpmModel model;
  model.problem.set_sense(lp::Sense::Maximize);
  model.x_var = add_x_columns(instance, accepted, /*obj_value_factor=*/1.0,
                              model.problem);
  if (options.cost_weight > 0) {
    // Internalize an estimated bandwidth footprint per (request, path).
    for (int i = 0; i < instance.num_requests(); ++i) {
      if (!accepted[i]) continue;
      const workload::Request& r = instance.request(i);
      const double share =
          r.rate * static_cast<double>(r.duration()) / instance.num_slots();
      for (int j = 0; j < instance.num_paths(i); ++j) {
        double path_price = 0;
        for (net::EdgeId e : instance.paths(i)[j].edges) {
          path_price += instance.topology().edge(e).price;
        }
        const int col = model.x_var[i][j];
        model.problem.set_objective_coef(
            col, r.value - options.cost_weight * share * path_price);
      }
    }
  }
  add_assignment_rows(instance, accepted, model.x_var, lp::RowType::LessEqual,
                      model.problem);
  model.cap_row = add_capacity_rows(instance, accepted, model.x_var,
                                    /*c_var=*/{}, &capacities, pinned,
                                    model.problem);
  return model;
}

SpmModel build_spm(const SpmInstance& instance) {
  const std::vector<bool> accepted(instance.num_requests(), true);
  SpmModel model;
  model.problem.set_sense(lp::Sense::Maximize);
  model.x_var = add_x_columns(instance, accepted, /*obj_value_factor=*/1.0,
                              model.problem);
  model.c_var = add_c_columns(instance, model.problem);
  add_assignment_rows(instance, accepted, model.x_var, lp::RowType::LessEqual,
                      model.problem);
  model.cap_row = add_capacity_rows(instance, accepted, model.x_var,
                                    model.c_var, /*capacities=*/nullptr,
                                    /*pinned=*/nullptr, model.problem);
  return model;
}

Schedule schedule_from_solution(const SpmInstance& instance, const SpmModel& model,
                                const std::vector<double>& x) {
  Schedule schedule = Schedule::all_declined(instance.num_requests());
  for (int i = 0; i < instance.num_requests(); ++i) {
    for (int j = 0; j < instance.num_paths(i); ++j) {
      const int col = model.x_var[i][j];
      if (col >= 0 && x.at(col) >= 0.5) {
        schedule.path_choice[i] = j;
        break;
      }
    }
  }
  return schedule;
}

ChargingPlan plan_from_solution(const SpmInstance& instance, const SpmModel& model,
                                const std::vector<double>& x) {
  if (model.c_var.empty()) {
    throw std::invalid_argument("plan_from_solution: model has no c variables");
  }
  ChargingPlan plan = ChargingPlan::none(instance.num_edges());
  for (net::EdgeId e = 0; e < instance.num_edges(); ++e) {
    plan.units[e] = static_cast<int>(std::llround(x.at(model.c_var[e])));
  }
  return plan;
}

std::vector<double> columns_from_decision(const SpmInstance& instance,
                                          const SpmModel& model,
                                          const Schedule& schedule) {
  validate_shape(instance, schedule);
  std::vector<double> x(model.problem.num_variables(), 0.0);
  for (int i = 0; i < instance.num_requests(); ++i) {
    const int j = schedule.path_choice[i];
    if (j == kDeclined) continue;
    const int col = model.x_var[i][j];
    if (col < 0) {
      throw std::invalid_argument(
          "columns_from_decision: schedule accepts a request outside the model");
    }
    x[col] = 1.0;
  }
  if (!model.c_var.empty()) {
    const ChargingPlan plan =
        charging_from_loads(compute_loads(instance, schedule));
    for (net::EdgeId e = 0; e < instance.num_edges(); ++e) {
      x[model.c_var[e]] = plan.units[e];
    }
  }
  return x;
}

}  // namespace metis::core
