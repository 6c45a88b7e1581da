#include "core/accounting.h"

#include <cmath>
#include <stdexcept>

namespace metis::core {

LoadMatrix::LoadMatrix(int num_edges, int num_slots)
    : num_edges_(num_edges),
      num_slots_(num_slots),
      data_(static_cast<std::size_t>(num_edges) * num_slots, 0.0) {
  if (num_edges < 0 || num_slots <= 0) {
    throw std::invalid_argument("LoadMatrix: bad dimensions");
  }
}

double LoadMatrix::peak(net::EdgeId e) const {
  double best = 0;
  for (int t = 0; t < num_slots_; ++t) best = std::max(best, at(e, t));
  return best;
}

double LoadMatrix::mean(net::EdgeId e) const {
  double total = 0;
  for (int t = 0; t < num_slots_; ++t) total += at(e, t);
  return total / num_slots_;
}

LoadMatrix compute_loads(const SpmInstance& instance, const Schedule& schedule,
                         const LoadMatrix* base) {
  validate_shape(instance, schedule);
  if (base != nullptr && (base->num_edges() != instance.num_edges() ||
                          base->num_slots() != instance.num_slots())) {
    throw std::invalid_argument("compute_loads: base load shape mismatch");
  }
  LoadMatrix loads = base != nullptr
                         ? *base
                         : LoadMatrix(instance.num_edges(), instance.num_slots());
  for (int i = 0; i < instance.num_requests(); ++i) {
    const int j = schedule.path_choice[i];
    if (j == kDeclined) continue;
    const workload::Request& r = instance.request(i);
    for (net::EdgeId e : instance.paths(i)[j].edges) {
      for (int t = r.start_slot; t <= r.end_slot; ++t) {
        loads.add(e, t, r.rate);
      }
    }
  }
  return loads;
}

ChargingPlan charging_from_loads(const LoadMatrix& loads) {
  ChargingPlan plan = ChargingPlan::none(loads.num_edges());
  for (net::EdgeId e = 0; e < loads.num_edges(); ++e) {
    plan.units[e] = charged_units(loads.peak(e));
  }
  return plan;
}

double revenue(const SpmInstance& instance, const Schedule& schedule,
               double base) {
  validate_shape(instance, schedule);
  double total = base;
  for (int i = 0; i < instance.num_requests(); ++i) {
    if (schedule.accepted(i)) total += instance.request(i).value;
  }
  return total;
}

double cost(const net::Topology& topology, const ChargingPlan& plan) {
  if (static_cast<int>(plan.units.size()) != topology.num_edges()) {
    throw std::invalid_argument("cost: plan size mismatch");
  }
  double total = 0;
  for (net::EdgeId e = 0; e < topology.num_edges(); ++e) {
    total += topology.edge(e).price * plan.units[e];
  }
  return total;
}

ProfitBreakdown evaluate(const SpmInstance& instance, const Schedule& schedule) {
  const ChargingPlan plan = charging_from_loads(compute_loads(instance, schedule));
  return evaluate_with_plan(instance, schedule, plan);
}

ProfitBreakdown evaluate_with_plan(const SpmInstance& instance,
                                   const Schedule& schedule,
                                   const ChargingPlan& plan) {
  ProfitBreakdown out;
  out.revenue = revenue(instance, schedule);
  out.cost = cost(instance.topology(), plan);
  out.profit = out.revenue - out.cost;
  out.accepted = schedule.num_accepted();
  return out;
}

Summary utilization_summary(const SpmInstance& instance, const Schedule& schedule,
                            const ChargingPlan& plan) {
  const LoadMatrix loads = compute_loads(instance, schedule);
  Accumulator acc;
  for (net::EdgeId e = 0; e < instance.num_edges(); ++e) {
    if (plan.units[e] <= 0) continue;
    acc.add(loads.mean(e) / plan.units[e]);
  }
  return acc.summary();
}

}  // namespace metis::core
