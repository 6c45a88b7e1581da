#include "sim/policy.h"

#include <stdexcept>

#include "baselines/ecoflow.h"
#include "baselines/mincost.h"
#include "baselines/opt.h"
#include "core/accounting.h"

namespace metis::sim {

Decision MetisPolicy::decide(const core::SpmInstance& instance, Rng& rng) const {
  const core::MetisResult result = core::run_metis(instance, rng, options_);
  return Decision{result.schedule, result.plan};
}

Decision AcceptAllPolicy::decide(const core::SpmInstance& instance,
                                 Rng& rng) const {
  const core::MaaResult result = core::run_maa(instance, {}, rng, options_);
  if (!result.ok()) {
    throw std::runtime_error("AcceptAllPolicy: MAA failed with status " +
                             lp::to_string(result.status));
  }
  return Decision{result.schedule, result.plan};
}

Decision MinCostPolicy::decide(const core::SpmInstance& instance,
                               Rng& /*rng*/) const {
  const baselines::MinCostResult result = baselines::run_mincost(instance);
  return Decision{result.schedule, result.plan};
}

Decision EcoFlowPolicy::decide(const core::SpmInstance& instance,
                               Rng& /*rng*/) const {
  const baselines::EcoFlowResult result = baselines::run_ecoflow(instance);
  return Decision{result.schedule, result.plan};
}

Decision OptPolicy::decide(const core::SpmInstance& instance, Rng& rng) const {
  // Warm-start branch & bound from Metis so a budget can only improve.
  const core::MetisResult seed = core::run_metis(instance, rng);
  const baselines::OptResult result =
      baselines::run_opt_spm(instance, options_, &seed.schedule);
  if (!result.ok()) {
    throw std::runtime_error("OptPolicy: no incumbent found");
  }
  return Decision{result.schedule, result.plan};
}

std::vector<std::unique_ptr<Policy>> standard_policies() {
  std::vector<std::unique_ptr<Policy>> policies;
  policies.push_back(std::make_unique<AcceptAllPolicy>());
  policies.push_back(std::make_unique<EcoFlowPolicy>());
  policies.push_back(std::make_unique<MetisPolicy>());
  return policies;
}

}  // namespace metis::sim
