#include "core/taa.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "core/chernoff.h"
#include "core/estimator.h"
#include "core/lp_builder.h"
#include "util/log.h"
#include "util/numeric.h"
#include "util/telemetry.h"

namespace metis::core {

namespace {

/// mu when inequality (6) has no solution (tiny capacities).
constexpr double kFallbackMu = 0.5;

/// True if routing request i on path j keeps every touched (e,t) within
/// capacity given the loads committed so far.
bool fits(const SpmInstance& instance, const ChargingPlan& capacities,
          const LoadMatrix& loads, int i, int j) {
  const workload::Request& r = instance.request(i);
  for (net::EdgeId e : instance.paths(i)[j].edges) {
    const int cap = capacities.units[e];
    for (int t = r.start_slot; t <= r.end_slot; ++t) {
      // kCeilGuard keeps this consistent with charged_units: a load the
      // billing ceiling would not push over `cap` units also fits here.
      if (loads.at(e, t) + r.rate > cap + num::kCeilGuard) return false;
    }
  }
  return true;
}

void commit(const SpmInstance& instance, LoadMatrix& loads, int i, int j) {
  const workload::Request& r = instance.request(i);
  for (net::EdgeId e : instance.paths(i)[j].edges) {
    for (int t = r.start_slot; t <= r.end_slot; ++t) loads.add(e, t, r.rate);
  }
}

}  // namespace

TaaResult run_taa(const SpmInstance& instance, const ChargingPlan& capacities,
                  const std::vector<bool>& accepted_in,
                  const TaaOptions& options) {
  if (static_cast<int>(capacities.units.size()) != instance.num_edges()) {
    throw std::invalid_argument("run_taa: capacity size mismatch");
  }
  METIS_SPAN("taa");
  telemetry::count("taa.solves");
  std::vector<bool> accepted = accepted_in;
  if (accepted.empty()) accepted.assign(instance.num_requests(), true);

  // Online admission: pinned commitments (all-declined / all-zero when the
  // context is absent, in which case every use below reduces to offline).
  const IncrementalContext* inc = options.incremental;
  const LoadMatrix* pinned = inc != nullptr ? inc->committed_loads : nullptr;

  TaaResult result;
  result.schedule = inc != nullptr && inc->committed != nullptr
                        ? *inc->committed
                        : Schedule::all_declined(instance.num_requests());

  // Step 2: LP relaxation of BL-SPM.
  const SpmModel model = build_bl_spm(instance, capacities, accepted, pinned);
  const lp::SimplexSolver solver(options.lp);
  const lp::LpSolution relaxed =
      solver.solve(model.problem, options.warm_basis);
  result.status = relaxed.status;
  result.lp_stats = relaxed.stats;
  if (!relaxed.ok()) return result;
  result.lp_revenue = relaxed.objective;

  // Step 1 (normalization constants).
  double r_max = 0, v_max = 0;
  for (int i = 0; i < instance.num_requests(); ++i) {
    if (!accepted[i]) continue;
    r_max = std::max(r_max, instance.request(i).rate);
    v_max = std::max(v_max, instance.request(i).value);
  }
  if (r_max <= 0 || v_max <= 0) {
    // Nothing free to schedule; the pinned commitments still earn.
    result.revenue = revenue(instance, result.schedule);
    return result;
  }

  // Step 3: scaling factor mu from inequality (6).
  const int N = instance.num_edges();
  const int T = instance.num_slots();
  const int min_cap = capacities.total_units() > 0
                          ? [&] {
                              int best = 0;
                              for (int c : capacities.units) {
                                if (c > 0 && (best == 0 || c < best)) best = c;
                              }
                              return best;
                            }()
                          : 0;
  if (min_cap == 0) {
    // No bandwidth anywhere: every free request stays declined.
    result.revenue = revenue(instance, result.schedule);
    return result;
  }
  double mu = choose_mu(min_cap / r_max, T, N);
  if (mu <= 0) {
    METIS_LOG_DEBUG << "TAA: inequality (6) unsatisfiable, falling back to mu="
                    << kFallbackMu;
    mu = kFallbackMu;
  }
  result.mu = mu;

  // Pull the fractional solution into [request][path] form.
  std::vector<std::vector<double>> x_hat(instance.num_requests());
  for (int i = 0; i < instance.num_requests(); ++i) {
    x_hat[i].assign(instance.num_paths(i), 0.0);
    if (!accepted[i]) continue;
    for (int j = 0; j < instance.num_paths(i); ++j) {
      x_hat[i][j] = relaxed.x.at(model.x_var[i][j]);
    }
  }

  // Expected scaled revenue I_S (normalized) and the Theorem 6 floor I_B.
  double i_s = 0;
  for (int i = 0; i < instance.num_requests(); ++i) {
    if (!accepted[i]) continue;
    const double mass =
        std::accumulate(x_hat[i].begin(), x_hat[i].end(), 0.0);
    i_s += mu * mass * (instance.request(i).value / v_max);
  }
  PessimisticEstimator::Config config;
  config.mu = mu;
  config.tk = std::log(1.0 / mu);
  config.r_max = r_max;
  config.v_max = v_max;
  if (i_s > 0) {
    result.gamma = chernoff_d(i_s, 1.0 / (N + 1));
    config.t0 = std::log1p(std::min(result.gamma, 1e6));
    config.i_b = std::max(0.0, i_s * (1.0 - result.gamma));
  }
  result.revenue_floor = config.i_b * v_max;

  // Step 4: derandomized walk down the decision tree.  The load ledger
  // starts from the pinned loads so the hard feasibility guard accounts for
  // commitments (the LP already did, via the RHS).
  LoadMatrix loads = pinned != nullptr
                         ? *pinned
                         : LoadMatrix(instance.num_edges(), instance.num_slots());
  {
    METIS_SPAN("walk");
    PessimisticEstimator estimator(instance, capacities, x_hat, accepted,
                                   config);
    for (int i = 0; i < instance.num_requests(); ++i) {
      if (!accepted[i]) continue;
      int best_choice = kDeclined;
      double best_u = estimator.candidate_value(i, kDeclined);
      for (int j = 0; j < instance.num_paths(i); ++j) {
        if (!fits(instance, capacities, loads, i, j)) continue;  // hard guard
        const double u = estimator.candidate_value(i, j);
        if (u < best_u - num::kTieTol) {
          best_u = u;
          best_choice = j;
        }
      }
      estimator.fix(i, best_choice);
      if (best_choice != kDeclined) {
        commit(instance, loads, i, best_choice);
        result.schedule.path_choice[i] = best_choice;
        ++result.walk_accepted;
      }
    }
  }
  telemetry::count("taa.walk_accepted", result.walk_accepted);

  // Optional greedy augmentation: re-admit declined requests that still fit
  // (highest value first) — a pure revenue improvement.
  if (options.augment) {
    METIS_SPAN("augment");
    std::vector<int> declined;
    for (int i = 0; i < instance.num_requests(); ++i) {
      if (accepted[i] && !result.schedule.accepted(i)) declined.push_back(i);
    }
    std::sort(declined.begin(), declined.end(), [&](int a, int b) {
      return instance.request(a).value > instance.request(b).value;
    });
    for (int i : declined) {
      for (int j = 0; j < instance.num_paths(i); ++j) {
        if (fits(instance, capacities, loads, i, j)) {
          commit(instance, loads, i, j);
          result.schedule.path_choice[i] = j;
          ++result.augment_accepted;
          break;
        }
      }
    }
  }

  telemetry::count("taa.augment_accepted", result.augment_accepted);
  result.revenue = revenue(instance, result.schedule);
  return result;
}

SplittableResult run_splittable_bl_spm(const SpmInstance& instance,
                                       const ChargingPlan& capacities,
                                       const std::vector<bool>& accepted_in) {
  std::vector<bool> accepted = accepted_in;
  if (accepted.empty()) accepted.assign(instance.num_requests(), true);
  SplittableResult result;
  const SpmModel model = build_bl_spm(instance, capacities, accepted);
  const lp::LpSolution relaxed = lp::SimplexSolver().solve(model.problem);
  result.status = relaxed.status;
  result.lp_stats = relaxed.stats;
  if (!relaxed.ok()) return result;
  result.revenue = relaxed.objective;
  result.flow.resize(instance.num_requests());
  for (int i = 0; i < instance.num_requests(); ++i) {
    result.flow[i].assign(instance.num_paths(i), 0.0);
    if (!accepted[i]) continue;
    for (int j = 0; j < instance.num_paths(i); ++j) {
      result.flow[i][j] = relaxed.x.at(model.x_var[i][j]);
    }
  }
  return result;
}

}  // namespace metis::core
