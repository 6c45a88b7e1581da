#include "core/maa.h"

#include <cstddef>
#include <span>
#include <stdexcept>

#include "core/lp_builder.h"
#include "util/numeric.h"
#include "util/parallel.h"
#include "util/telemetry.h"

namespace metis::core {

namespace {

/// x̂ of request i: its slice of the relaxation's flat vector, which lists
/// the accepted requests in index order.
std::span<const double> paths_of(const SpmInstance& instance, int i,
                                 const std::vector<double>& x_hat,
                                 std::size_t& offset) {
  const std::size_t n = instance.num_paths(i);
  const std::span<const double> slice(x_hat.data() + offset, n);
  offset += n;
  return slice;
}

/// Stage 2: one randomized rounding of the fractional solution.  `base`
/// carries the pinned (committed) choices; rounding only writes the
/// participating requests, so commitments pass through verbatim.
Schedule round_once(const SpmInstance& instance, const MaaRelaxation& relaxation,
                    const Schedule& base, Rng& rng) {
  Schedule schedule = base;
  std::size_t offset = 0;
  for (int i = 0; i < instance.num_requests(); ++i) {
    if (!relaxation.accepted[i]) continue;
    schedule.path_choice[i] = static_cast<int>(
        rng.weighted_index(paths_of(instance, i, relaxation.x_hat, offset)));
  }
  return schedule;
}

}  // namespace

MaaRelaxation relax_maa(const SpmInstance& instance,
                        const std::vector<bool>& accepted,
                        const MaaOptions& options, lp::SolveStats& stats) {
  MaaRelaxation relaxation;
  relaxation.accepted = accepted;
  if (relaxation.accepted.empty()) {
    relaxation.accepted.assign(instance.num_requests(), true);
  }
  // Sized before the model exists, so that the kept vectors do not land
  // above the model's soon-freed memory; allocated after it, they raised
  // offline-b4's peak RSS (7.78 -> 7.89 MB, median of 10 perfbench runs).
  std::size_t columns = 0;
  for (int i = 0; i < instance.num_requests(); ++i) {
    if (relaxation.accepted[i]) columns += instance.num_paths(i);
  }
  relaxation.x_hat.reserve(columns);
  relaxation.fractional_c.assign(instance.num_edges(), 0.0);
  const IncrementalContext* inc = options.incremental;
  const LoadMatrix* pinned = inc != nullptr ? inc->committed_loads : nullptr;
  const SpmModel model = build_rl_spm(instance, relaxation.accepted, pinned,
                                      options.edge_capacity);
  const lp::LpSolution relaxed =
      lp::SimplexSolver(options.lp).solve(model.problem);
  relaxation.status = relaxed.status;
  stats += relaxed.stats;
  if (!relaxed.ok()) return relaxation;
  relaxation.objective = relaxed.objective;

  // Fractional ĉ_e and alpha = min positive ĉ_e.
  for (net::EdgeId e = 0; e < instance.num_edges(); ++e) {
    relaxation.fractional_c[e] = relaxed.x.at(model.c_var[e]);
  }
  double alpha = 0;
  for (double c : relaxation.fractional_c) {
    if (c > num::kImproveTol && (alpha == 0 || c < alpha)) alpha = c;
  }
  relaxation.alpha = alpha;
  for (int i = 0; i < instance.num_requests(); ++i) {
    if (!relaxation.accepted[i]) continue;
    for (int column : model.x_var[i]) {
      relaxation.x_hat.push_back(relaxed.x.at(column));
    }
  }
  return relaxation;
}

MaaResult round_maa(const SpmInstance& instance,
                    const MaaRelaxation& relaxation, Rng& rng,
                    const MaaOptions& options) {
  if (options.rounding_trials < 1) {
    throw std::invalid_argument("MaaOptions: rounding_trials must be >= 1");
  }
  MaaResult result;
  result.status = relaxation.status;
  if (!relaxation.ok()) return result;
  result.lp_cost = relaxation.objective;
  result.fractional_c = relaxation.fractional_c;
  result.alpha = relaxation.alpha;

  // Online admission: pinned commitments (all-declined when the context is
  // absent, in which case rounding reduces to offline).
  const IncrementalContext* inc = options.incremental;
  const Schedule pin_base =
      inc != nullptr && inc->committed != nullptr
          ? *inc->committed
          : Schedule::all_declined(instance.num_requests());

  // Stages 2+3, keeping the cheapest of `rounding_trials` roundings.
  METIS_SPAN("rounding");
  telemetry::count("maa.rounding_trials", options.rounding_trials);
  const auto keep = [&](Schedule candidate) {
    result.plan = charging_from_loads(compute_loads(instance, candidate));
    result.cost = cost(instance.topology(), result.plan);
    result.schedule = std::move(candidate);
  };
  if (options.rounding_trials == 1) {
    // The paper's Algorithm 1 verbatim: one rounding drawn directly from the
    // caller's generator (bit-identical to the historical serial behaviour,
    // which the multi-cycle simulator and Metis's default path rely on).
    keep(round_once(instance, relaxation, pin_base, rng));
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
          c.schedule = round_once(instance, relaxation, pin_base, trial_rng);
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

MaaResult run_maa(const SpmInstance& instance, const std::vector<bool>& accepted,
                  Rng& rng, const MaaOptions& options) {
  METIS_SPAN("maa");
  telemetry::count("maa.solves");
  lp::SolveStats stats;
  const MaaRelaxation relaxation = relax_maa(instance, accepted, options, stats);
  MaaResult result = round_maa(instance, relaxation, rng, options);
  result.lp_stats = stats;
  return result;
}

MaaResult run_maa(const SpmInstance& instance, Rng& rng, const MaaOptions& options) {
  return run_maa(instance, {}, rng, options);
}

}  // namespace metis::core
