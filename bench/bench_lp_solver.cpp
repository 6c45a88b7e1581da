// Microbenchmarks of the LP substrate (google-benchmark): the simplex
// solver on the RL-SPM / BL-SPM relaxations that dominate Metis's runtime,
// and the branch & bound solver on small exact instances.  These quantify
// the substitution of Gurobi by our own solver (DESIGN.md section 2).
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench_util.h"
#include "core/lp_builder.h"
#include "core/metis.h"
#include "lp/mip.h"
#include "lp/presolve.h"
#include "lp/simplex.h"
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

void BM_RlSpmRelaxation_B4(benchmark::State& state) {
  const auto instance =
      instance_for(static_cast<int>(state.range(0)), sim::Network::B4);
  const auto model = core::build_rl_spm(instance);
  const lp::SimplexSolver solver;
  lp::SolveStats stats;
  for (auto _ : state) {
    const auto sol = solver.solve(model.problem);
    benchmark::DoNotOptimize(sol.objective);
    stats = sol.stats;
  }
  state.counters["rows"] = model.problem.num_rows();
  state.counters["cols"] = model.problem.num_variables();
  state.counters["simplex_iters"] = static_cast<double>(stats.iterations);
  state.counters["factorizations"] = stats.factorizations;
  state.counters["presolve_rm_rows"] = stats.presolve_removed_rows;
  state.counters["presolve_rm_cols"] = stats.presolve_removed_cols;
}
BENCHMARK(BM_RlSpmRelaxation_B4)
    ->Arg(50)
    ->Arg(100)
    ->Arg(200)
    ->Arg(400)
    ->Unit(benchmark::kMillisecond);

void BM_BlSpmRelaxation_B4(benchmark::State& state) {
  const auto instance =
      instance_for(static_cast<int>(state.range(0)), sim::Network::B4);
  core::ChargingPlan caps;
  caps.units.assign(instance.num_edges(), 10);
  const auto model = core::build_bl_spm(instance, caps);
  const lp::SimplexSolver solver;
  lp::SolveStats stats;
  for (auto _ : state) {
    const auto sol = solver.solve(model.problem);
    benchmark::DoNotOptimize(sol.objective);
    stats = sol.stats;
  }
  state.counters["simplex_iters"] = static_cast<double>(stats.iterations);
  state.counters["factorizations"] = stats.factorizations;
}
BENCHMARK(BM_BlSpmRelaxation_B4)
    ->Arg(50)
    ->Arg(100)
    ->Arg(200)
    ->Arg(400)
    ->Unit(benchmark::kMillisecond);

void BM_ModelBuild_B4(benchmark::State& state) {
  const auto instance =
      instance_for(static_cast<int>(state.range(0)), sim::Network::B4);
  for (auto _ : state) {
    const auto model = core::build_rl_spm(instance);
    benchmark::DoNotOptimize(model.problem.num_rows());
  }
}
BENCHMARK(BM_ModelBuild_B4)->Arg(100)->Arg(400)->Unit(benchmark::kMillisecond);

void BM_Presolve_B4(benchmark::State& state) {
  const auto instance =
      instance_for(static_cast<int>(state.range(0)), sim::Network::B4);
  const auto model = core::build_rl_spm(instance);
  for (auto _ : state) {
    const auto pr = lp::presolve(model.problem);
    benchmark::DoNotOptimize(pr.reduced.num_rows());
  }
  const auto pr = lp::presolve(model.problem);
  state.counters["removed_rows"] = pr.removed_rows;
  state.counters["removed_cols"] = pr.removed_columns;
}
BENCHMARK(BM_Presolve_B4)->Arg(100)->Arg(400)->Unit(benchmark::kMillisecond);

void BM_RlSpmPresolvedSolve_B4(benchmark::State& state) {
  const auto instance =
      instance_for(static_cast<int>(state.range(0)), sim::Network::B4);
  const auto model = core::build_rl_spm(instance);
  const auto pr = lp::presolve(model.problem);
  const lp::SimplexSolver solver;
  for (auto _ : state) {
    const auto sol = solver.solve(pr.reduced);
    benchmark::DoNotOptimize(sol.objective);
  }
}
BENCHMARK(BM_RlSpmPresolvedSolve_B4)
    ->Arg(100)
    ->Arg(200)
    ->Arg(400)
    ->Unit(benchmark::kMillisecond);

void BM_MipExact_SubB4(benchmark::State& state) {
  const auto instance =
      instance_for(static_cast<int>(state.range(0)), sim::Network::SubB4);
  const auto model = core::build_spm(instance);
  lp::MipOptions options;
  options.max_nodes = 20000;
  options.time_limit_seconds = 10;
  const lp::MipSolver solver(options);
  for (auto _ : state) {
    const auto result = solver.solve(model.problem, model.integer_columns());
    benchmark::DoNotOptimize(result.objective);
    state.counters["nodes"] = static_cast<double>(result.nodes);
  }
}
BENCHMARK(BM_MipExact_SubB4)
    ->Arg(10)
    ->Arg(15)
    ->Arg(20)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

// The full Metis alternation LP sequence solved with warm starts +
// presolve (arg1 = 1) against the cold baseline (arg1 = 0: every
// relaxation solved from the slack basis on the unreduced problem).
// Convergence mode (theta = 0) runs the loop until the accepted set is
// stable.  In both arms each accepted set's RL-SPM is solved once, cold;
// the arms differ in the BL-SPM re-solves, which in the accelerated arm
// warm-start while the set keeps its shape, and in presolve.  `profit`
// and `accepted` must agree between the arms; the accelerated arm needs
// 1.06-1.17x fewer `simplex_iters` (see bench/lp_solver_baseline.json
// for the recorded numbers).  The pricing counters ride along, so the
// gate also pins how the devex windows answered each pass.
void BM_MetisAlternation_B4(benchmark::State& state) {
  const bool accelerated = state.range(1) != 0;
  const auto instance =
      instance_for(static_cast<int>(state.range(0)), sim::Network::B4);
  core::MetisOptions options;
  options.theta = 0;
  options.warm_start = accelerated;
  options.maa.lp.presolve = accelerated;
  options.taa.lp.presolve = accelerated;
  core::MetisResult result;
  for (auto _ : state) {
    Rng rng(7);
    result = core::run_metis(instance, rng, options);
    benchmark::ClobberMemory();
  }
  int accepted = 0;
  for (int choice : result.schedule.path_choice) {
    if (choice != core::kDeclined) ++accepted;
  }
  state.counters["simplex_iters"] =
      static_cast<double>(result.lp_stats.iterations);
  state.counters["factorizations"] = result.lp_stats.factorizations;
  state.counters["warm_starts"] = result.lp_stats.warm_starts;
  state.counters["cold_starts"] = result.lp_stats.cold_starts;
  state.counters["pricing_passes"] =
      static_cast<double>(result.lp_stats.pricing_passes);
  state.counters["partial_hits"] =
      static_cast<double>(result.lp_stats.partial_hits);
  state.counters["full_fallbacks"] =
      static_cast<double>(result.lp_stats.full_fallbacks);
  state.counters["profit"] = result.best.profit;
  state.counters["accepted"] = accepted;
}
BENCHMARK(BM_MetisAlternation_B4)
    ->Args({100, 0})
    ->Args({100, 1})
    ->Args({200, 0})
    ->Args({200, 1})
    ->Unit(benchmark::kMillisecond);

}  // namespace

// Custom main (instead of benchmark_main): `--telemetry-json` must be
// stripped before benchmark::Initialize, which rejects unknown flags.
// `--baseline-json <path>`, the flag tools/check_bench_regression.py hands
// every bench driver, becomes Google Benchmark's own JSON output, the
// format of bench/lp_solver_baseline.json.
int main(int argc, char** argv) {
  const std::string telemetry_path =
      metis::bench::take_telemetry_json_arg(argc, argv);
  const std::string baseline_path =
      metis::bench::take_path_arg(argc, argv, "--baseline-json");
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = "--benchmark_out=" + baseline_path;
  std::string format_flag = "--benchmark_out_format=json";
  if (!baseline_path.empty()) {
    args.push_back(out_flag.data());
    args.push_back(format_flag.data());
  }
  int args_count = static_cast<int>(args.size());
  args.push_back(nullptr);
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  metis::bench::write_telemetry(telemetry_path);
  return 0;
}
