#include "core/maa.h"

#include <cmath>
#include <stdexcept>

#include "core/lp_builder.h"
#include "util/numeric.h"
#include "util/parallel.h"
#include "util/telemetry.h"

namespace metis::core {

namespace {

/// Stage 2: one randomized rounding of the fractional solution.  `base`
/// carries the pinned (committed) choices; rounding only writes the
/// participating requests, so commitments pass through verbatim.
Schedule round_once(const SpmInstance& instance, const SpmModel& model,
                    const std::vector<double>& x_hat,
                    const std::vector<bool>& accepted, const Schedule& base,
                    Rng& rng) {
  Schedule schedule = base;
  std::vector<double> weights;
  for (int i = 0; i < instance.num_requests(); ++i) {
    if (!accepted[i]) continue;
    weights.clear();
    for (int j = 0; j < instance.num_paths(i); ++j) {
      weights.push_back(x_hat.at(model.x_var[i][j]));
    }
    schedule.path_choice[i] =
        static_cast<int>(rng.weighted_index(weights));
  }
  return schedule;
}

/// Ablation variant: argmax-probability path per request (no sampling).
Schedule round_argmax(const SpmInstance& instance, const SpmModel& model,
                      const std::vector<double>& x_hat,
                      const std::vector<bool>& accepted, const Schedule& base) {
  Schedule schedule = base;
  for (int i = 0; i < instance.num_requests(); ++i) {
    if (!accepted[i]) continue;
    int best = 0;
    for (int j = 1; j < instance.num_paths(i); ++j) {
      if (x_hat.at(model.x_var[i][j]) > x_hat.at(model.x_var[i][best])) {
        best = j;
      }
    }
    schedule.path_choice[i] = best;
  }
  return schedule;
}

}  // namespace

MaaResult run_maa(const SpmInstance& instance, const std::vector<bool>& accepted_in,
                  Rng& rng, const MaaOptions& options) {
  if (options.rounding_trials < 1) {
    throw std::invalid_argument("MaaOptions: rounding_trials must be >= 1");
  }
  METIS_SPAN("maa");
  telemetry::count("maa.solves");
  std::vector<bool> accepted = accepted_in;
  if (accepted.empty()) accepted.assign(instance.num_requests(), true);

  // Online admission: pinned commitments (all-declined / all-zero when the
  // context is absent, in which case every use below reduces to offline).
  const IncrementalContext* inc = options.incremental;
  const Schedule pin_base =
      inc != nullptr && inc->committed != nullptr
          ? *inc->committed
          : Schedule::all_declined(instance.num_requests());
  const LoadMatrix* pinned = inc != nullptr ? inc->committed_loads : nullptr;

  MaaResult result;
  const SpmModel model =
      build_rl_spm(instance, accepted, pinned, options.edge_capacity);
  const lp::SimplexSolver solver(options.lp);
  const lp::LpSolution relaxed =
      solver.solve(model.problem, options.warm_basis);
  result.status = relaxed.status;
  result.lp_stats = relaxed.stats;
  if (!relaxed.ok()) return result;
  result.lp_cost = relaxed.objective;

  // Fractional ĉ_e and alpha = min positive ĉ_e.
  result.fractional_c.assign(instance.num_edges(), 0.0);
  for (net::EdgeId e = 0; e < instance.num_edges(); ++e) {
    result.fractional_c[e] = relaxed.x.at(model.c_var[e]);
  }
  double alpha = 0;
  for (double c : result.fractional_c) {
    if (c > num::kImproveTol && (alpha == 0 || c < alpha)) alpha = c;
  }
  result.alpha = alpha;

  // Stages 2+3, keeping the cheapest of `rounding_trials` roundings.
  METIS_SPAN("rounding");
  telemetry::count("maa.rounding_trials", options.rounding_trials);
  const auto keep = [&](Schedule candidate) {
    result.plan = charging_from_loads(compute_loads(instance, candidate));
    result.cost = cost(instance.topology(), result.plan);
    result.schedule = std::move(candidate);
  };
  if (options.deterministic) {
    keep(round_argmax(instance, model, relaxed.x, accepted, pin_base));
  } else if (options.rounding_trials == 1) {
    // The paper's Algorithm 1 verbatim: one rounding drawn directly from the
    // caller's generator (bit-identical to the historical serial behaviour,
    // which the multi-cycle simulator and Metis's default path rely on).
    keep(round_once(instance, model, relaxed.x, accepted, pin_base, rng));
  } else {
    // Best-of-N: trial t draws from the index-addressed stream
    // base.split(t), so the set of candidates — and the winner — does not
    // depend on thread count or scheduling order.  The caller's generator
    // advances exactly once (the fork), keeping repeated run_maa calls on
    // one Rng statistically independent.
    struct Candidate {
      Schedule schedule;
      ChargingPlan plan;
      double cost = lp::kInfinity;
    };
    const Rng base = rng.fork();
    std::vector<Candidate> candidates = parallel_map(
        options.rounding_trials,
        [&](int trial) {
          Rng trial_rng = base.split(static_cast<std::uint64_t>(trial));
          Candidate c;
          c.schedule =
              round_once(instance, model, relaxed.x, accepted, pin_base, trial_rng);
          c.plan = charging_from_loads(compute_loads(instance, c.schedule));
          c.cost = cost(instance.topology(), c.plan);
          return c;
        },
        options.threads);
    // Deterministic serial reduction: minimum cost, lowest trial index on
    // ties (strict < while scanning in index order).
    std::size_t best = 0;
    for (std::size_t t = 1; t < candidates.size(); ++t) {
      if (candidates[t].cost < candidates[best].cost) best = t;
    }
    result.schedule = std::move(candidates[best].schedule);
    result.plan = std::move(candidates[best].plan);
    result.cost = candidates[best].cost;
  }
  return result;
}

MaaResult run_maa(const SpmInstance& instance, Rng& rng, const MaaOptions& options) {
  return run_maa(instance, {}, rng, options);
}

}  // namespace metis::core
