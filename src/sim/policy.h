// Policy: a uniform interface over every scheduling solution in the repo
// (Metis, the baselines, and the exact OPT), so simulators, benches and
// downstream users can treat "a way of deciding a billing cycle" as a value.
//
// A policy consumes one SpmInstance (the cycle's WAN + request book) and
// returns the full decision: acceptance/routing plus the bandwidth purchase.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/instance.h"
#include "core/maa.h"
#include "core/metis.h"
#include "core/schedule.h"
#include "core/taa.h"
#include "lp/mip.h"
#include "util/rng.h"

namespace metis::sim {

struct Decision {
  core::Schedule schedule;   ///< per-request path choice or kDeclined
  core::ChargingPlan plan;   ///< integer units purchased per edge (10 Gbps each)
};

class Policy {
 public:
  virtual ~Policy() = default;
  virtual std::string name() const = 0;
  /// Decides one billing cycle.  `rng` provides all randomness; a policy
  /// must be deterministic given (instance, rng state).
  virtual Decision decide(const core::SpmInstance& instance, Rng& rng) const = 0;
};

/// Metis (the paper's framework).
class MetisPolicy : public Policy {
 public:
  explicit MetisPolicy(core::MetisOptions options = {}) : options_(options) {}
  std::string name() const override { return "Metis"; }
  Decision decide(const core::SpmInstance& instance, Rng& rng) const override;

 private:
  core::MetisOptions options_;
};

/// Today's service mode: accept every request, route with MAA.
class AcceptAllPolicy : public Policy {
 public:
  explicit AcceptAllPolicy(core::MaaOptions options = make_default_options())
      : options_(options) {}
  std::string name() const override { return "accept-all"; }
  Decision decide(const core::SpmInstance& instance, Rng& rng) const override;

 private:
  static core::MaaOptions make_default_options() {
    core::MaaOptions options;
    options.rounding_trials = 8;
    return options;
  }
  core::MaaOptions options_;
};

/// Fixed-rule MinCost (cheapest path per request, accept everything).
class MinCostPolicy : public Policy {
 public:
  std::string name() const override { return "MinCost"; }
  Decision decide(const core::SpmInstance& instance, Rng& rng) const override;
};

/// Greedy EcoFlow-style profit filter.
class EcoFlowPolicy : public Policy {
 public:
  std::string name() const override { return "EcoFlow"; }
  Decision decide(const core::SpmInstance& instance, Rng& rng) const override;
};

/// Exact OPT(SPM) under a branch & bound budget (warm-started from Metis).
class OptPolicy : public Policy {
 public:
  explicit OptPolicy(lp::MipOptions options = {}) : options_(options) {}
  std::string name() const override { return "OPT(SPM)"; }
  Decision decide(const core::SpmInstance& instance, Rng& rng) const override;

 private:
  lp::MipOptions options_;
};

/// The standard comparison set used by the multi-cycle simulator and the
/// examples: accept-all, EcoFlow, Metis (in that order).
std::vector<std::unique_ptr<Policy>> standard_policies();

}  // namespace metis::sim
