// Runtime comparison (google-benchmark) backing the Section V.B.1 claim:
// "it takes more than 1000 seconds to get the optimal request schedule while
// Metis uses only several hundreds of milliseconds".
//
// We time Metis, its two inner solvers, and budget-capped OPT(SPM) on
// SUB-B4 instances of growing size.  The absolute numbers differ from the
// paper's Gurobi testbed; the *separation* (OPT orders of magnitude slower,
// exploding with K) is the reproduced result.
#include <benchmark/benchmark.h>

#include "baselines/opt.h"
#include "bench_util.h"
#include "core/maa.h"
#include "core/metis.h"
#include "core/taa.h"
#include "sim/scenario.h"
#include "util/rng.h"

namespace {

using namespace metis;

core::SpmInstance instance_for(int k, sim::Network net) {
  sim::Scenario s;
  s.network = net;
  s.num_requests = k;
  s.seed = 1;
  return sim::make_instance(s);
}

void BM_Metis_SubB4(benchmark::State& state) {
  const auto instance = instance_for(static_cast<int>(state.range(0)),
                                     sim::Network::SubB4);
  core::MetisOptions options;
  options.theta = 24;
  lp::SolveStats stats;
  for (auto _ : state) {
    Rng rng(7);
    const auto result = core::run_metis(instance, rng, options);
    benchmark::DoNotOptimize(result.best.profit);
    stats = result.lp_stats;
  }
  state.counters["simplex_iters"] = static_cast<double>(stats.iterations);
  state.counters["factorizations"] = stats.factorizations;
  state.counters["warm_starts"] = stats.warm_starts;
  state.counters["cold_starts"] = stats.cold_starts;
}
BENCHMARK(BM_Metis_SubB4)->Arg(20)->Arg(40)->Arg(80)->Unit(benchmark::kMillisecond);

void BM_OptSpm_SubB4(benchmark::State& state) {
  const auto instance = instance_for(static_cast<int>(state.range(0)),
                                     sim::Network::SubB4);
  lp::MipOptions options;
  options.max_nodes = 20000;
  options.time_limit_seconds = 10;  // budget cap; the paper's OPT ran 1000s+
  for (auto _ : state) {
    const auto result = baselines::run_opt_spm(instance, options);
    benchmark::DoNotOptimize(result.breakdown.profit);
  }
}
BENCHMARK(BM_OptSpm_SubB4)
    ->Arg(20)
    ->Arg(40)
    ->Arg(80)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

void BM_Maa_B4(benchmark::State& state) {
  const auto instance =
      instance_for(static_cast<int>(state.range(0)), sim::Network::B4);
  lp::SolveStats stats;
  for (auto _ : state) {
    Rng rng(7);
    const auto result = core::run_maa(instance, rng);
    benchmark::DoNotOptimize(result.cost);
    stats = result.lp_stats;
  }
  state.counters["simplex_iters"] = static_cast<double>(stats.iterations);
}
BENCHMARK(BM_Maa_B4)->Arg(100)->Arg(200)->Arg(400)->Unit(benchmark::kMillisecond);

void BM_Taa_B4(benchmark::State& state) {
  const auto instance =
      instance_for(static_cast<int>(state.range(0)), sim::Network::B4);
  core::ChargingPlan caps;
  caps.units.assign(instance.num_edges(), 10);
  lp::SolveStats stats;
  for (auto _ : state) {
    const auto result = core::run_taa(instance, caps);
    benchmark::DoNotOptimize(result.revenue);
    stats = result.lp_stats;
  }
  state.counters["simplex_iters"] = static_cast<double>(stats.iterations);
}
BENCHMARK(BM_Taa_B4)->Arg(100)->Arg(200)->Arg(400)->Unit(benchmark::kMillisecond);

}  // namespace

// Custom main (instead of benchmark_main): `--telemetry-json` must be
// stripped before benchmark::Initialize, which rejects unknown flags.
int main(int argc, char** argv) {
  const std::string telemetry_path =
      metis::bench::take_telemetry_json_arg(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  metis::bench::write_telemetry(telemetry_path);
  return 0;
}
