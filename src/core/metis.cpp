#include "core/metis.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <stdexcept>

#include "util/log.h"
#include "util/numeric.h"
#include "util/telemetry.h"

namespace metis::core {

int trim_min_utilization_link(const SpmInstance& instance, const Schedule& schedule,
                              ChargingPlan& plan, int units,
                              const std::vector<int>* floor) {
  if (units <= 0) throw std::invalid_argument("trim: units must be positive");
  if (floor != nullptr &&
      static_cast<int>(floor->size()) != instance.num_edges()) {
    throw std::invalid_argument("trim: floor size mismatch");
  }
  const LoadMatrix loads = compute_loads(instance, schedule);
  const auto floor_of = [&](net::EdgeId e) {
    return floor != nullptr ? (*floor)[e] : 0;
  };
  int target = -1;
  double lowest = 0;
  for (net::EdgeId e = 0; e < instance.num_edges(); ++e) {
    if (plan.units[e] <= floor_of(e)) continue;
    const double util = loads.mean(e) / plan.units[e];
    if (target == -1 || util < lowest) {
      lowest = util;
      target = e;
    }
  }
  if (target >= 0) {
    plan.units[target] = std::max(floor_of(target), plan.units[target] - units);
  }
  return target;
}

namespace {

/// Range-max over one edge's per-slot loads with point updates.  The prune
/// fixed point queries every accepted request's path edges each round, so
/// the old full slot rescan made a round O(K * |path| * T); the tree makes
/// each query O(log T).  Leaves copy LoadMatrix values verbatim, and
/// correctly-rounded subtraction is monotone, so subtracting the rate from
/// the window's max equals the old per-slot subtract-then-max bit for bit —
/// prune decisions are unchanged (test_metis pins this equivalence).
class PeakTree {
 public:
  PeakTree(const LoadMatrix& loads, net::EdgeId e, int slots)
      : n_(std::max(1, slots)), tree_(2 * static_cast<std::size_t>(n_), kNone) {
    for (int t = 0; t < slots; ++t) tree_[n_ + t] = loads.at(e, t);
    for (int i = n_ - 1; i >= 1; --i) {
      tree_[i] = std::max(tree_[2 * i], tree_[2 * i + 1]);
    }
  }

  void set(int pos, double value) {
    int i = n_ + pos;
    tree_[i] = value;
    for (i /= 2; i >= 1; i /= 2) {
      tree_[i] = std::max(tree_[2 * i], tree_[2 * i + 1]);
    }
  }

  /// Max over slots [lo, hi] (inclusive); -infinity when empty.
  double max_range(int lo, int hi) const {
    double best = kNone;
    for (int l = n_ + lo, r = n_ + hi + 1; l < r; l /= 2, r /= 2) {
      if (l & 1) best = std::max(best, tree_[l++]);
      if (r & 1) best = std::max(best, tree_[--r]);
    }
    return best;
  }

  double max_all() const { return tree_[1]; }

 private:
  static constexpr double kNone = -std::numeric_limits<double>::infinity();
  int n_;
  std::vector<double> tree_;
};

/// Charging saved on edge e if `rate` were removed from slots [start, end],
/// evaluated against the peaks tree of that edge.
double removal_saving(const SpmInstance& instance, const PeakTree& peaks,
                      net::EdgeId e, int start, int end, double rate) {
  const double peak_with = std::max(0.0, peaks.max_all());
  double peak_without = 0;
  if (start > 0) {
    peak_without = std::max(peak_without, peaks.max_range(0, start - 1));
  }
  const int last = instance.num_slots() - 1;
  if (end < last) {
    peak_without = std::max(peak_without, peaks.max_range(end + 1, last));
  }
  peak_without = std::max(peak_without, peaks.max_range(start, end) - rate);
  return instance.topology().edge(e).price *
         (charged_units(peak_with) - charged_units(peak_without));
}

/// Adds (sign = +1) or removes (sign = -1) request i's reservation on its
/// candidate path `path_index` from a load matrix.
void apply_request(const SpmInstance& instance, int i, int path_index,
                   double sign, LoadMatrix& loads) {
  const workload::Request& r = instance.request(i);
  for (net::EdgeId e : instance.paths(i)[path_index].edges) {
    for (int t = r.start_slot; t <= r.end_slot; ++t) {
      loads.add(e, t, sign * r.rate);
    }
  }
}

}  // namespace

int prune_unprofitable(const SpmInstance& instance, Schedule& schedule,
                       int first_mutable) {
  validate_shape(instance, schedule);
  LoadMatrix loads = compute_loads(instance, schedule);
  std::vector<PeakTree> peaks;
  peaks.reserve(instance.num_edges());
  for (net::EdgeId e = 0; e < instance.num_edges(); ++e) {
    peaks.emplace_back(loads, e, instance.num_slots());
  }
  int pruned = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    // Find the accepted request with the most negative (value - saving).
    int worst = -1;
    double worst_margin = -num::kImproveTol;
    for (int i = first_mutable; i < instance.num_requests(); ++i) {
      const int j = schedule.path_choice[i];
      if (j == kDeclined) continue;
      const workload::Request& r = instance.request(i);
      double saving = 0;
      for (net::EdgeId e : instance.paths(i)[j].edges) {
        saving += removal_saving(instance, peaks[e], e, r.start_slot,
                                 r.end_slot, r.rate);
      }
      const double margin = r.value - saving;
      if (margin < worst_margin) {
        worst_margin = margin;
        worst = i;
      }
    }
    if (worst >= 0) {
      const workload::Request& r = instance.request(worst);
      for (net::EdgeId e : instance.paths(worst)[schedule.path_choice[worst]].edges) {
        for (int t = r.start_slot; t <= r.end_slot; ++t) {
          loads.add(e, t, -r.rate);
          peaks[e].set(t, loads.at(e, t));
        }
      }
      schedule.path_choice[worst] = kDeclined;
      ++pruned;
      changed = true;
    }
  }
  return pruned;
}

int reroute_cheaper(const SpmInstance& instance, Schedule& schedule,
                    int first_mutable) {
  validate_shape(instance, schedule);
  LoadMatrix loads = compute_loads(instance, schedule);
  // Charged cost of the edges a move can touch, from current loads.
  const auto cost_of_edges = [&](const std::vector<net::EdgeId>& edges) {
    double total = 0;
    for (net::EdgeId e : edges) {
      total += instance.topology().edge(e).price * charged_units(loads.peak(e));
    }
    return total;
  };
  int moves = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    for (int i = first_mutable; i < instance.num_requests(); ++i) {
      const int current = schedule.path_choice[i];
      if (current == kDeclined || instance.num_paths(i) < 2) continue;
      // Union of edges across all candidate paths of i: only their charges
      // can change when i moves.
      std::vector<net::EdgeId> touched;
      for (int j = 0; j < instance.num_paths(i); ++j) {
        for (net::EdgeId e : instance.paths(i)[j].edges) {
          if (std::find(touched.begin(), touched.end(), e) == touched.end()) {
            touched.push_back(e);
          }
        }
      }
      int best = current;
      double best_cost = cost_of_edges(touched);
      for (int j = 0; j < instance.num_paths(i); ++j) {
        if (j == current) continue;
        apply_request(instance, i, current, -1.0, loads);
        apply_request(instance, i, j, +1.0, loads);
        const double candidate_cost = cost_of_edges(touched);
        apply_request(instance, i, j, -1.0, loads);
        apply_request(instance, i, current, +1.0, loads);
        if (candidate_cost < best_cost - num::kImproveTol) {
          best_cost = candidate_cost;
          best = j;
        }
      }
      if (best != current) {
        apply_request(instance, i, current, -1.0, loads);
        apply_request(instance, i, best, +1.0, loads);
        schedule.path_choice[i] = best;
        ++moves;
        changed = true;
      }
    }
  }
  return moves;
}

int admit_profitable(const SpmInstance& instance, Schedule& schedule,
                     int first_mutable,
                     const std::vector<int>* edge_capacity) {
  validate_shape(instance, schedule);
  LoadMatrix loads = compute_loads(instance, schedule);
  std::vector<double> peak(instance.num_edges());
  for (net::EdgeId e = 0; e < instance.num_edges(); ++e) {
    peak[e] = loads.peak(e);
  }
  int admitted = 0;
  for (;;) {
    int best_i = kDeclined;
    int best_j = kDeclined;
    double best_margin = num::kImproveTol;
    for (int i = first_mutable; i < instance.num_requests(); ++i) {
      if (schedule.accepted(i)) continue;
      const workload::Request& r = instance.request(i);
      for (int j = 0; j < instance.num_paths(i); ++j) {
        double marginal = 0;
        bool feasible = true;
        for (net::EdgeId e : instance.paths(i)[j].edges) {
          double window_max = 0;
          for (int t = r.start_slot; t <= r.end_slot; ++t) {
            window_max = std::max(window_max, loads.at(e, t));
          }
          const double after = std::max(peak[e], window_max + r.rate);
          const int units_after = charged_units(after);
          if (edge_capacity != nullptr && (*edge_capacity)[e] >= 0 &&
              units_after > (*edge_capacity)[e]) {
            feasible = false;
            break;
          }
          marginal += instance.topology().edge(e).price *
                      (units_after - charged_units(peak[e]));
        }
        if (!feasible) continue;
        const double margin = r.value - marginal;
        if (margin > best_margin) {
          best_margin = margin;
          best_i = i;
          best_j = j;
        }
      }
    }
    if (best_i == kDeclined) break;
    schedule.path_choice[best_i] = best_j;
    apply_request(instance, best_i, best_j, +1.0, loads);
    for (net::EdgeId e : instance.paths(best_i)[best_j].edges) {
      peak[e] = loads.peak(e);
    }
    ++admitted;
  }
  return admitted;
}

namespace {

/// Shared body of run_metis / run_metis_incremental.  `state == nullptr`
/// (or an empty committed prefix) is the offline loop:
/// every pinned structure below is then empty / all-zero, and each use
/// reduces bit for bit to the historical behaviour — which is what makes
/// the single-batch online mode reproduce the offline decision exactly.
MetisResult run_metis_impl(const SpmInstance& instance, Rng& rng,
                           const MetisOptions& options,
                           const IncrementalState* state) {
  if (options.theta < 0) throw std::invalid_argument("Metis: theta must be >= 0");
  METIS_SPAN("metis");
  telemetry::count("metis.runs");
  const int K = instance.num_requests();
  const int C = state != nullptr ? static_cast<int>(state->committed.size()) : 0;
  if (C > K) {
    throw std::invalid_argument("Metis: more commitments than requests");
  }
  if (options.edge_capacity != nullptr &&
      static_cast<int>(options.edge_capacity->size()) != instance.num_edges()) {
    throw std::invalid_argument("Metis: edge_capacity size mismatch");
  }

  // Pinned commitments: the first C requests in their final decision.
  Schedule pin = Schedule::all_declined(K);
  for (int i = 0; i < C; ++i) pin.path_choice[i] = state->committed[i];
  validate_shape(instance, pin);
  const LoadMatrix pinned_loads = compute_loads(instance, pin);
  // BW-limiter floor: a trim may never cut an edge below what the pinned
  // requests already consume (their charge is a sunk commitment).
  std::vector<int> floor_units(instance.num_edges(), 0);
  for (net::EdgeId e = 0; e < instance.num_edges(); ++e) {
    floor_units[e] = charged_units(pinned_loads.peak(e));
  }

  // Convergence mode (theta == 0): run the paper's worst-case bound of K
  // loops (Section II.C) — here K free requests — with the usual early
  // exits when the accepted set empties or no bandwidth is left to trim.
  const int max_loops = options.theta == 0 ? K - C : options.theta;
  MetisResult result;
  // SP Updater starts from the pinned-only decision: with no commitments
  // that is the paper's empty decision (no requests, no bandwidth,
  // profit 0, Section II.C).
  result.schedule = pin;
  result.plan = charging_from_loads(pinned_loads);
  result.best = evaluate_with_plan(instance, result.schedule, result.plan);

  // Initialization phase: every *free* request marked "accepted".
  std::vector<bool> accepted(K, false);
  for (int i = C; i < K; ++i) accepted[i] = true;

  const auto record = [&](const Schedule& schedule, const ChargingPlan& plan) {
    ProfitBreakdown pb = evaluate_with_plan(instance, schedule, plan);
    if (pb.profit > result.best.profit) {
      result.best = pb;
      result.schedule = schedule;
      result.plan = plan;
    }
    if (options.prune || options.local_search) {
      // SP-updater guards: also consider the cleaned-up variant of the
      // candidate (reroute onto cheaper paths, drop value-negative
      // requests) — never worse than the candidate itself.  Commitments
      // (the first C requests) are immutable to both guards.
      METIS_SPAN("sp_update");
      Schedule improved = schedule;
      int changes = 0;
      if (options.local_search) changes += reroute_cheaper(instance, improved, C);
      if (options.prune) changes += prune_unprofitable(instance, improved, C);
      if (options.local_search) changes += reroute_cheaper(instance, improved, C);
      if (changes > 0) {
        const ChargingPlan improved_plan =
            charging_from_loads(compute_loads(instance, improved));
        const ProfitBreakdown improved_pb =
            evaluate_with_plan(instance, improved, improved_plan);
        if (improved_pb.profit > result.best.profit) {
          result.best = improved_pb;
          result.schedule = std::move(improved);
          result.plan = improved_plan;
        }
        if (improved_pb.profit > pb.profit) pb = improved_pb;
      }
    }
    return pb;
  };

  // The last RL-SPM relaxation, kept with the accepted set it was built
  // for.  That LP depends on nothing else here: the pinned loads and caps
  // are fixed for the call, and the BW limiter's trim only changes BL-SPM's
  // capacities.  A round that keeps the set therefore rounds from the kept
  // relaxation instead of building and solving it again.
  MaaRelaxation relaxation;
  MaaOptions maa_options = options.maa;
  maa_options.edge_capacity = options.edge_capacity;
  // BL-SPM basis carried across loops.  While the accepted set is stable
  // the LP keeps its shape (lp_builder's column order is a function of the
  // accepted set alone), so each re-solve warm-starts from the previous
  // optimum; when acceptance shrinks the shape changes and the solver
  // silently falls back to a cold start.  The first solve of a call is
  // cold: nothing carries over from an earlier call.
  lp::Basis taa_basis;
  TaaOptions taa_options = options.taa;
  if (options.warm_start) taa_options.warm_basis = &taa_basis;
  IncrementalContext inc;
  if (state != nullptr) {
    inc.committed = &pin;
    inc.committed_loads = &pinned_loads;
    maa_options.incremental = &inc;
    taa_options.incremental = &inc;
  }

  for (int loop = 0; loop < max_loops; ++loop) {
    MetisIteration iter;

    // RL-SPM Solver: minimal-cost routing of the current accepted set.
    const MaaResult maa = [&] {
      METIS_SPAN("maa");
      telemetry::count("maa.solves");
      if (relaxation.ok() && relaxation.accepted == accepted) {
        telemetry::count("maa.relaxations_reused");
      } else {
        relaxation = relax_maa(instance, accepted, maa_options, result.lp_stats);
      }
      return round_maa(instance, relaxation, rng, maa_options);
    }();
    result.maa_status = maa.status;
    if (!maa.ok()) {
      METIS_LOG_WARN << "Metis: MAA failed with status "
                     << lp::to_string(maa.status);
      break;
    }
    iter.profit_after_maa = record(maa.schedule, maa.plan).profit;

    // BW Limiter: trim the least-utilized link (rule tau), never below the
    // pinned floor.
    ChargingPlan limited = maa.plan;
    if (options.edge_capacity != nullptr) {
      // Fault repair: the rounded MAA plan may overshoot a shrunk link's
      // physical capacity; the BL-SPM pass must not offer bandwidth that no
      // longer exists.  Keep the pinned floor even when a fault pushed the
      // cap below it — the TAA fits() guard then simply admits nothing new
      // there, and the overload is the repair shed loop's to resolve.
      for (net::EdgeId e = 0; e < instance.num_edges(); ++e) {
        const int cap = (*options.edge_capacity)[e];
        if (cap >= 0 && limited.units[e] > cap) {
          limited.units[e] = std::max(cap, floor_units[e]);
        }
      }
    }
    iter.trimmed_edge = trim_min_utilization_link(
        instance, maa.schedule, limited, options.trim_units, &floor_units);
    if (iter.trimmed_edge < 0) {
      result.history.push_back(iter);
      ++result.iterations_run;
      break;  // nothing purchased: no bandwidth left to rebalance
    }

    // BL-SPM Solver: best revenue under the limited bandwidth.
    const TaaResult taa = run_taa(instance, limited, accepted, taa_options);
    result.taa_status = taa.status;
    result.lp_stats += taa.lp_stats;
    if (!taa.ok()) {
      METIS_LOG_WARN << "Metis: TAA failed with status "
                     << lp::to_string(taa.status);
      result.history.push_back(iter);
      ++result.iterations_run;
      break;
    }
    // Charge only what the TAA schedule actually needs (<= limited).
    const ChargingPlan taa_plan =
        charging_from_loads(compute_loads(instance, taa.schedule));
    iter.profit_after_taa = record(taa.schedule, taa_plan).profit;
    iter.accepted_after_taa = taa.schedule.num_accepted();
    result.history.push_back(iter);
    ++result.iterations_run;
    // Per-round alternation trajectory: last-value gauges plus a round
    // counter, so a telemetry export shows where the loop settled.
    telemetry::count("metis.rounds");
    telemetry::gauge_set("metis.profit", result.best.profit);
    telemetry::gauge_set("metis.cost", result.best.cost);
    telemetry::gauge_set("metis.accepted", result.best.accepted);

    // The declined *free* requests leave the working set (convergence
    // argument of Section II.C); commitments never re-enter it.
    std::vector<bool> next(K, false);
    int remaining = 0;
    for (int i = C; i < K; ++i) {
      next[i] = taa.schedule.accepted(i);
      remaining += next[i] ? 1 : 0;
    }
    if (remaining == 0) break;
    accepted = std::move(next);
  }
  return result;
}

}  // namespace

MetisResult run_metis(const SpmInstance& instance, Rng& rng,
                      const MetisOptions& options) {
  return run_metis_impl(instance, rng, options, nullptr);
}

MetisResult run_metis_incremental(const SpmInstance& instance,
                                  const IncrementalState& state, Rng& rng,
                                  const MetisOptions& options) {
  return run_metis_impl(instance, rng, options, &state);
}

}  // namespace metis::core
