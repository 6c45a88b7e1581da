// Determinism suite for the parallel execution layer: every parallelized
// loop must produce bit-identical results for thread counts {1, 2, 8}, and
// the serial defaults must reproduce the historical (seed) behaviour.
// Labeled `concurrency` so a TSan build can run it as a dedicated stage.
#include <gtest/gtest.h>

#include <vector>

#include "core/maa.h"
#include "core/metis.h"
#include "sim/experiments.h"
#include "sim/policy.h"
#include "sim/scenario.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace metis {
namespace {

core::SpmInstance make(sim::Network net, int k, std::uint64_t seed) {
  sim::Scenario s;
  s.network = net;
  s.num_requests = k;
  s.seed = seed;
  return sim::make_instance(s);
}

// ---- MAA best-of-N rounding ---------------------------------------------

TEST(Determinism, MaaTrialsBitIdenticalAcrossThreadCounts) {
  const core::SpmInstance instance = make(sim::Network::SubB4, 20, 3);
  auto run_at = [&](int threads) {
    core::MaaOptions options;
    options.rounding_trials = 16;
    options.threads = threads;
    Rng rng(42);
    return core::run_maa(instance, {}, rng, options);
  };
  const core::MaaResult serial = run_at(1);
  ASSERT_TRUE(serial.ok());
  for (int threads : {2, 8}) {
    const core::MaaResult parallel = run_at(threads);
    ASSERT_TRUE(parallel.ok());
    EXPECT_EQ(parallel.schedule.path_choice, serial.schedule.path_choice)
        << "threads " << threads;
    EXPECT_EQ(parallel.plan.units, serial.plan.units) << "threads " << threads;
    EXPECT_EQ(parallel.cost, serial.cost) << "threads " << threads;
  }
}

TEST(Determinism, MaaTrialSetsNestByIndex) {
  // Trial t always draws from split(t) of the same forked base, so the
  // best-of-16 candidate set is a superset of the best-of-2 set: more
  // trials can never be worse, for any thread count.
  const core::SpmInstance instance = make(sim::Network::B4, 30, 6);
  core::MaaOptions few, many;
  few.rounding_trials = 2;
  many.rounding_trials = 16;
  many.threads = 8;
  Rng rng_few(123), rng_many(123);
  const core::MaaResult a = core::run_maa(instance, {}, rng_few, few);
  const core::MaaResult b = core::run_maa(instance, {}, rng_many, many);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_LE(b.cost, a.cost + 1e-12);
}

TEST(Determinism, MaaParallelAdvancesCallerRngOnce) {
  // The best-of-N path must consume exactly one fork from the caller's
  // generator regardless of N, keeping downstream draws reproducible.
  const core::SpmInstance instance = make(sim::Network::SubB4, 12, 9);
  core::MaaOptions options;
  options.rounding_trials = 4;
  Rng a(7), b(7);
  (void)core::run_maa(instance, {}, a, options);
  options.rounding_trials = 16;
  (void)core::run_maa(instance, {}, b, options);
  EXPECT_EQ(a.engine()(), b.engine()());
}

// ---- Fig. 4b rounding-ratio study ---------------------------------------

TEST(Determinism, Fig4bRowsByteIdenticalAcrossThreadCounts) {
  auto run_at = [](int threads) {
    sim::Fig4bConfig config;
    config.network = sim::Network::SubB4;
    config.request_counts = {12};
    config.trials = 64;
    config.seed = 2;
    config.ilp_reference = false;  // time-budgeted B&B is a wall-clock knob
    config.threads = threads;
    return sim::run_fig4b(config);
  };
  const auto serial = run_at(1);
  ASSERT_EQ(serial.size(), 1u);
  for (int threads : {2, 8}) {
    const auto parallel = run_at(threads);
    ASSERT_EQ(parallel.size(), 1u);
    EXPECT_EQ(parallel[0].lp_bound_cost, serial[0].lp_bound_cost);
    EXPECT_EQ(parallel[0].ratio_mean_vs_lp, serial[0].ratio_mean_vs_lp);
    EXPECT_EQ(parallel[0].ratio_mean_vs_ilp, serial[0].ratio_mean_vs_ilp);
    EXPECT_EQ(parallel[0].ratio_p95_vs_ilp, serial[0].ratio_p95_vs_ilp);
    EXPECT_EQ(parallel[0].ratio_max_vs_ilp, serial[0].ratio_max_vs_ilp);
  }
}

// ---- Experiment sweeps ---------------------------------------------------

TEST(Determinism, Fig5RowsByteIdenticalAcrossThreadCounts) {
  auto run_at = [](int threads) {
    sim::Fig5Config config;
    config.sweep.request_counts = {8};
    config.sweep.repetitions = 2;
    config.sweep.seed = 4;
    config.sweep.threads = threads;
    config.theta = 4;
    return sim::run_fig5(config);
  };
  const auto serial = run_at(1);
  ASSERT_EQ(serial.size(), 1u);
  for (int threads : {2, 8}) {
    const auto parallel = run_at(threads);
    ASSERT_EQ(parallel.size(), 1u);
    EXPECT_EQ(parallel[0].metis.breakdown.profit, serial[0].metis.breakdown.profit);
    EXPECT_EQ(parallel[0].metis.breakdown.cost, serial[0].metis.breakdown.cost);
    EXPECT_EQ(parallel[0].ecoflow.breakdown.profit, serial[0].ecoflow.breakdown.profit);
  }
}

// ---- Multi-cycle simulator ----------------------------------------------

TEST(Determinism, SimulatorByteIdenticalAcrossThreadCounts) {
  auto run_at = [](int threads) {
    sim::SimulationConfig config;
    config.base.network = sim::Network::SubB4;
    config.base.num_requests = 10;
    config.base.seed = 5;
    config.cycles = 3;
    config.threads = threads;
    const sim::BillingCycleSimulator simulator(config);
    return simulator.run(sim::standard_policies());
  };
  const auto serial = run_at(1);
  for (int threads : {2, 8}) {
    const auto parallel = run_at(threads);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t p = 0; p < serial.size(); ++p) {
      EXPECT_EQ(parallel[p].policy, serial[p].policy);
      EXPECT_EQ(parallel[p].total_profit, serial[p].total_profit)
          << serial[p].policy << " threads " << threads;
      EXPECT_EQ(parallel[p].total_revenue, serial[p].total_revenue);
      EXPECT_EQ(parallel[p].total_cost, serial[p].total_cost);
      EXPECT_EQ(parallel[p].total_accepted, serial[p].total_accepted);
      ASSERT_EQ(parallel[p].cycles.size(), serial[p].cycles.size());
      for (std::size_t c = 0; c < serial[p].cycles.size(); ++c) {
        EXPECT_EQ(parallel[p].cycles[c].result.profit,
                  serial[p].cycles[c].result.profit);
        EXPECT_EQ(parallel[p].cycles[c].offered_requests,
                  serial[p].cycles[c].offered_requests);
      }
    }
  }
}

// ---- Seed-behaviour regression ------------------------------------------

TEST(Determinism, MetisEndToEndProfitUnchangedFromSeedBehavior) {
  // Golden values of the default LP configuration with rounding_trials =
  // 1: Algorithm 1 then draws directly from the caller's generator, so the
  // whole pipeline must reproduce these profits bit-for-bit at any
  // `threads` setting.  (The Metis default of 8 trials
  // is pinned separately below: its per-trial streams moved to SplitMix64
  // index addressing as part of the fork() correlation fix.)
  struct Golden {
    sim::Network net;
    int k;
    std::uint64_t scenario_seed, rng_seed;
    double profit, revenue, cost;
    int accepted;
  };
  const Golden goldens[] = {
      {sim::Network::SubB4, 24, 5, 99, 6.6767907866963228,
       27.676790786696323, 21.0, 24},
      {sim::Network::SubB4, 18, 11, 7, 4.1505575145325473,
       14.650557514532547, 10.5, 9},
      {sim::Network::B4, 30, 3, 17, 17.056879213420451, 62.806879213420451,
       45.75, 25},
  };
  for (const Golden& g : goldens) {
    const core::SpmInstance instance = make(g.net, g.k, g.scenario_seed);
    Rng rng(g.rng_seed);
    core::MetisOptions options;
    options.maa.rounding_trials = 1;
    const core::MetisResult result = core::run_metis(instance, rng, options);
    EXPECT_EQ(result.best.profit, g.profit) << "k=" << g.k;
    EXPECT_EQ(result.best.revenue, g.revenue) << "k=" << g.k;
    EXPECT_EQ(result.best.cost, g.cost) << "k=" << g.k;
    EXPECT_EQ(result.best.accepted, g.accepted) << "k=" << g.k;
  }
}

TEST(Determinism, MetisDefaultOptionsStableAcrossThreadCounts) {
  // The default Metis configuration (best-of-8 rounding) goes through the
  // parallel trial loop; its result must not depend on the thread count.
  const core::SpmInstance instance = make(sim::Network::SubB4, 24, 5);
  auto run_at = [&](int threads) {
    core::MetisOptions options;
    options.maa.threads = threads;
    Rng rng(99);
    return core::run_metis(instance, rng, options);
  };
  const core::MetisResult serial = run_at(1);
  for (int threads : {2, 8}) {
    const core::MetisResult parallel = run_at(threads);
    EXPECT_EQ(parallel.best.profit, serial.best.profit)
        << "threads " << threads;
    EXPECT_EQ(parallel.best.cost, serial.best.cost) << "threads " << threads;
    EXPECT_EQ(parallel.best.accepted, serial.best.accepted)
        << "threads " << threads;
  }
}

}  // namespace
}  // namespace metis
