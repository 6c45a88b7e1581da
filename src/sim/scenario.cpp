#include "sim/scenario.h"

#include "net/topologies.h"
#include "util/rng.h"

namespace metis::sim {

std::string to_string(Network network) {
  switch (network) {
    case Network::B4: return "B4";
    case Network::SubB4: return "SUB-B4";
  }
  return "Unknown";
}

net::Topology make_network(const Scenario& scenario) {
  net::Topology topo = scenario.network == Network::B4 ? net::make_b4()
                                                       : net::make_sub_b4();
  if (scenario.uniform_capacity > 0) {
    topo.set_uniform_capacity(scenario.uniform_capacity);
  }
  return topo;
}

core::SpmInstance make_instance(const Scenario& scenario) {
  net::Topology topo = make_network(scenario);
  workload::GeneratorConfig config = scenario.workload;
  config.num_slots = scenario.instance.num_slots;
  const workload::RequestGenerator generator(topo, config);
  Rng rng(scenario.seed);
  auto requests =
      scenario.poisson_arrivals
          ? generator.generate_poisson(
                static_cast<double>(scenario.num_requests) / config.num_slots,
                rng)
          : generator.generate(scenario.num_requests, rng);
  return core::SpmInstance(std::move(topo), std::move(requests),
                           scenario.instance);
}

void mix_scenario(serialize::Fingerprint& fp, const Scenario& scenario) {
  fp.mix(to_string(scenario.network));
  fp.mix(scenario.num_requests);
  fp.mix(scenario.seed);
  fp.mix(scenario.instance.num_slots);
  fp.mix(scenario.instance.max_paths);
  fp.mix(scenario.uniform_capacity);
  fp.mix(scenario.poisson_arrivals);
  const workload::GeneratorConfig& w = scenario.workload;
  fp.mix(w.num_slots);
  fp.mix(w.min_rate);
  fp.mix(w.max_rate);
  fp.mix(w.value_per_unit_slot);
  fp.mix(w.value_noise);
  fp.mix(w.low_value_fraction);
  fp.mix(w.low_value_min);
  fp.mix(w.low_value_max);
}

}  // namespace metis::sim
