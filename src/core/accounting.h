// Accounting: loads, charging, revenue, cost, profit and utilization — the
// quantities every figure of the paper reports.
#pragma once

#include <cmath>
#include <vector>

#include "core/instance.h"
#include "core/schedule.h"
#include "util/numeric.h"
#include "util/stats.h"

namespace metis::core {

/// load(e, t): total reserved rate on edge e during slot t.
class LoadMatrix {
 public:
  LoadMatrix(int num_edges, int num_slots);

  /// Reserved rate on edge e during slot t, in bandwidth units
  /// (1 unit = 10 Gbps).
  double at(net::EdgeId e, int slot) const {
    return data_[static_cast<std::size_t>(e) * num_slots_ + slot];
  }
  /// Adds `rate` units to edge e's load during `slot`.
  void add(net::EdgeId e, int slot, double rate) {
    data_[static_cast<std::size_t>(e) * num_slots_ + slot] += rate;
  }
  /// Peak load of an edge across slots.
  double peak(net::EdgeId e) const;
  /// Mean load of an edge across all T slots.
  double mean(net::EdgeId e) const;

  int num_edges() const { return num_edges_; }
  int num_slots() const { return num_slots_; }

 private:
  int num_edges_;
  int num_slots_;
  std::vector<double> data_;
};

/// Integer charged units for a peak load: the paper's ceiling with a
/// num::kCeilGuard backoff so a numerically-exact integer peak (1 plus a
/// few ulps from float accumulation of exact-looking rates) is not
/// overcharged by one unit.  The single source of truth for this guard —
/// the SP updater's saving/cost estimates (metis.cpp), the billed plan
/// (charging_from_loads) and the EcoFlow baseline's incremental-cost
/// estimate must agree bit-for-bit or one layer optimizes against a
/// different bill than the one charged.
inline int charged_units(double peak) {
  return static_cast<int>(std::ceil(peak - num::kCeilGuard));
}

/// Accumulates the per-edge/per-slot loads of a schedule, request by
/// request in index order.  `base` (optional, num_edges x num_slots) is
/// load held outside the instance, such as online commitments: the
/// schedule's loads are added onto a copy of it.  A base of another shape
/// throws std::invalid_argument.
LoadMatrix compute_loads(const SpmInstance& instance, const Schedule& schedule,
                         const LoadMatrix* base = nullptr);

/// The paper's "ceiling" step: c_e = ceil(max_t load(e, t)).
ChargingPlan charging_from_loads(const LoadMatrix& loads);

/// Sum of v_i over accepted requests, added in index order onto `base`
/// (bids held outside the instance, such as online commitments).
double revenue(const SpmInstance& instance, const Schedule& schedule,
               double base = 0);

/// Sum of u_e * c_e.
double cost(const net::Topology& topology, const ChargingPlan& plan);

/// One decision's bottom line.  Money values share the workload's value
/// scale (a request's bid v_i per cycle); bandwidth enters via cost =
/// Σ u_e · c_e with c_e in integer units (1 unit = 10 Gbps).
struct ProfitBreakdown {
  double revenue = 0;  ///< Σ v_i over accepted requests
  double cost = 0;     ///< Σ u_e · c_e over the charging plan
  double profit = 0;   ///< revenue − cost
  int accepted = 0;    ///< number of accepted requests
};

/// Full evaluation of a schedule: the charging plan is derived from the
/// schedule's own loads (the provider purchases exactly what the schedule
/// needs, rounded up per edge).
ProfitBreakdown evaluate(const SpmInstance& instance, const Schedule& schedule);

/// As above but charging a caller-provided plan (e.g. OPT's c_e variables).
ProfitBreakdown evaluate_with_plan(const SpmInstance& instance,
                                   const Schedule& schedule,
                                   const ChargingPlan& plan);

/// SLA-refund ledger (fault repair, sim/faults.h): a provider that revokes
/// an already-committed acceptance owes the customer a refund proportional
/// to the bid.  Net profit of a faulted cycle = gross profit of the final
/// book − `refunded`.
struct RefundLedger {
  double refunded = 0;  ///< Σ refunds paid out
  int drops = 0;        ///< commitments revoked

  /// Books one revoked commitment; returns the refund paid.
  double charge(double value, double refund_factor) {
    const double refund = refund_factor * value;
    refunded += refund;
    ++drops;
    return refund;
  }
};

/// Link utilization: for each edge with purchased units > 0, the mean over
/// slots of load/units.  Returns the min/avg/max summary across those edges
/// (all zeros when nothing is purchased) — the series of Fig. 3c / Fig. 5c.
Summary utilization_summary(const SpmInstance& instance, const Schedule& schedule,
                            const ChargingPlan& plan);

}  // namespace metis::core
