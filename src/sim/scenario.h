// Scenario: a named, seeded experiment configuration that deterministically
// expands into an SpmInstance.  Every bench and integration test builds its
// inputs through this one funnel so runs are reproducible and comparable.
#pragma once

#include <cstdint>
#include <string>

#include "core/instance.h"
#include "util/serialize.h"
#include "workload/generator.h"

namespace metis::sim {

enum class Network { B4, SubB4 };

std::string to_string(Network network);

struct Scenario {
  Network network = Network::B4;   ///< topology preset
  int num_requests = 100;          ///< bid-book size K (expected, if Poisson)
  std::uint64_t seed = 1;          ///< workload RNG seed
  core::InstanceConfig instance;   ///< num_slots (T), max_paths (L_i cap)
  workload::GeneratorConfig workload;  ///< rates/values model knobs
  /// If > 0, every link gets this uniform capacity (the Fig. 4c/4d setup);
  /// 0 leaves links uncapacitated.
  int uniform_capacity = 0;
  /// false: exactly num_requests requests with uniform start slots.
  /// true: per-slot arrival counts are Poisson with mean
  /// num_requests / num_slots, so the *expected* total is num_requests
  /// (the paper's "arrivals follow Poisson distribution" form).
  bool poisson_arrivals = false;
};

/// Builds the topology for `network` (with uniform capacity applied).
net::Topology make_network(const Scenario& scenario);

/// Expands the scenario into a ready instance (topology + generated
/// workload + candidate paths).
core::SpmInstance make_instance(const Scenario& scenario);

/// Mixes the 15 fields that decide a scenario's instances into `fp`: the
/// block both simulators' config fingerprints open with.
void mix_scenario(serialize::Fingerprint& fp, const Scenario& scenario);

}  // namespace metis::sim
