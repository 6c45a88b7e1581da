// Tests for TAA (Algorithm 2): feasibility under capacities (the core
// guarantee), revenue relations to the LP bound, mu selection, augmentation
// behaviour and edge cases.
#include <gtest/gtest.h>

#include "core/instance.h"
#include "core/taa.h"
#include "sim/scenario.h"
#include "sim/validate.h"

namespace metis::core {
namespace {

SpmInstance capped_instance(std::uint64_t seed, int k, int capacity,
                            sim::Network net = sim::Network::B4) {
  sim::Scenario s;
  s.network = net;
  s.num_requests = k;
  s.seed = seed;
  s.uniform_capacity = capacity;
  return sim::make_instance(s);
}

ChargingPlan uniform_caps(const SpmInstance& instance, int units) {
  ChargingPlan caps;
  caps.units.assign(instance.num_edges(), units);
  return caps;
}

class TaaFeasibility : public ::testing::TestWithParam<int> {};

TEST_P(TaaFeasibility, NeverViolatesCapacity) {
  const std::uint64_t seed = GetParam();
  const SpmInstance instance = capped_instance(seed, 60, 3);
  const ChargingPlan caps = uniform_caps(instance, 3);
  const TaaResult result = run_taa(instance, caps);
  ASSERT_TRUE(result.ok()) << "seed " << seed;
  EXPECT_TRUE(sim::check_schedule(instance, result.schedule, caps).empty())
      << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Sweep, TaaFeasibility, ::testing::Range(1, 13));

TEST(Taa, RevenueNeverExceedsLpBound) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const SpmInstance instance = capped_instance(seed, 40, 2);
    const TaaResult result = run_taa(instance, uniform_caps(instance, 2));
    ASSERT_TRUE(result.ok());
    EXPECT_LE(result.revenue, result.lp_revenue + 1e-6) << "seed " << seed;
  }
}

TEST(Taa, AmpleCapacityAcceptsEverything) {
  const SpmInstance instance = capped_instance(3, 30, 100);
  const TaaResult result = run_taa(instance, uniform_caps(instance, 100));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.schedule.num_accepted(), instance.num_requests());
  double total = 0;
  for (const auto& r : instance.requests()) total += r.value;
  EXPECT_NEAR(result.revenue, total, 1e-6);
}

TEST(Taa, ZeroCapacityDeclinesEverything) {
  const SpmInstance instance = capped_instance(4, 20, 1);
  const TaaResult result = run_taa(instance, uniform_caps(instance, 0));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.schedule.num_accepted(), 0);
  EXPECT_DOUBLE_EQ(result.revenue, 0);
}

TEST(Taa, MuWithinUnitInterval) {
  const SpmInstance instance = capped_instance(5, 50, 10);
  const TaaResult result = run_taa(instance, uniform_caps(instance, 10));
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result.mu, 0);
  EXPECT_LT(result.mu, 1);
}

TEST(Taa, LargerCapacityRaisesMu) {
  const SpmInstance tight = capped_instance(6, 50, 2);
  const SpmInstance loose = capped_instance(6, 50, 30);
  const TaaResult r_tight = run_taa(tight, uniform_caps(tight, 2));
  const TaaResult r_loose = run_taa(loose, uniform_caps(loose, 30));
  ASSERT_TRUE(r_tight.ok());
  ASSERT_TRUE(r_loose.ok());
  EXPECT_GT(r_loose.mu, r_tight.mu);
}

TEST(Taa, AugmentOnlyAddsAcceptances) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const SpmInstance instance = capped_instance(seed, 60, 2);
    const ChargingPlan caps = uniform_caps(instance, 2);
    TaaOptions bare;
    bare.augment = false;
    TaaOptions full;
    full.augment = true;
    const TaaResult r_bare = run_taa(instance, caps, {}, bare);
    const TaaResult r_full = run_taa(instance, caps, {}, full);
    ASSERT_TRUE(r_bare.ok());
    ASSERT_TRUE(r_full.ok());
    // Same deterministic walk, so the walk-accepted sets agree and the
    // augmented run accepts a superset.
    EXPECT_EQ(r_bare.walk_accepted, r_full.walk_accepted);
    EXPECT_EQ(r_bare.augment_accepted, 0);
    EXPECT_GE(r_full.revenue, r_bare.revenue - 1e-9);
    for (int i = 0; i < instance.num_requests(); ++i) {
      if (r_bare.schedule.accepted(i)) {
        EXPECT_EQ(r_bare.schedule.path_choice[i], r_full.schedule.path_choice[i]);
      }
    }
  }
}

TEST(Taa, RespectsAcceptedMask) {
  const SpmInstance instance = capped_instance(7, 30, 5);
  std::vector<bool> accepted(instance.num_requests(), true);
  accepted[0] = accepted[1] = false;
  const TaaResult result = run_taa(instance, uniform_caps(instance, 5), accepted);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.schedule.path_choice[0], kDeclined);
  EXPECT_EQ(result.schedule.path_choice[1], kDeclined);
}

TEST(Taa, DeterministicAcrossRuns) {
  const SpmInstance instance = capped_instance(8, 40, 3);
  const ChargingPlan caps = uniform_caps(instance, 3);
  const TaaResult a = run_taa(instance, caps);
  const TaaResult b = run_taa(instance, caps);
  EXPECT_EQ(a.schedule.path_choice, b.schedule.path_choice);
  EXPECT_DOUBLE_EQ(a.revenue, b.revenue);
}

TEST(Taa, RevenueFloorReported) {
  const SpmInstance instance = capped_instance(9, 50, 8);
  const TaaResult result = run_taa(instance, uniform_caps(instance, 8));
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result.revenue_floor, 0);
  // With augmentation the delivered revenue should clear the Theorem 6
  // floor comfortably at this capacity.
  EXPECT_GE(result.revenue, result.revenue_floor - 1e-6);
}

TEST(Taa, TightCapacityDeclinesSome) {
  const SpmInstance instance = capped_instance(10, 120, 1);
  const ChargingPlan caps = uniform_caps(instance, 1);
  const TaaResult result = run_taa(instance, caps);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result.schedule.num_accepted(), instance.num_requests());
  EXPECT_GT(result.schedule.num_accepted(), 0);
  EXPECT_TRUE(sim::check_schedule(instance, result.schedule, caps).empty());
}

TEST(Splittable, UpperBoundsUnsplittableRevenue) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const SpmInstance instance = capped_instance(seed, 60, 2);
    const ChargingPlan caps = uniform_caps(instance, 2);
    const SplittableResult split = run_splittable_bl_spm(instance, caps);
    const TaaResult taa = run_taa(instance, caps);
    ASSERT_TRUE(split.ok());
    ASSERT_TRUE(taa.ok());
    // Splitting can only help; and it matches TAA's LP bound by definition.
    EXPECT_GE(split.revenue, taa.revenue - 1e-6) << "seed " << seed;
    EXPECT_NEAR(split.revenue, taa.lp_revenue, 1e-6);
  }
}

TEST(Splittable, FlowsRespectAssignmentRows) {
  const SpmInstance instance = capped_instance(6, 40, 3);
  const SplittableResult split =
      run_splittable_bl_spm(instance, uniform_caps(instance, 3));
  ASSERT_TRUE(split.ok());
  for (int i = 0; i < instance.num_requests(); ++i) {
    double total = 0;
    for (double f : split.flow[i]) {
      EXPECT_GE(f, -1e-9);
      EXPECT_LE(f, 1 + 1e-9);
      total += f;
    }
    EXPECT_LE(total, 1 + 1e-6);
  }
}

TEST(Splittable, FlowsRespectCapacities) {
  const SpmInstance instance = capped_instance(7, 80, 2);
  const ChargingPlan caps = uniform_caps(instance, 2);
  const SplittableResult split = run_splittable_bl_spm(instance, caps);
  ASSERT_TRUE(split.ok());
  // Accumulate fractional loads and check every (edge, slot).
  std::vector<std::vector<double>> load(
      instance.num_edges(), std::vector<double>(instance.num_slots(), 0.0));
  for (int i = 0; i < instance.num_requests(); ++i) {
    const auto& r = instance.request(i);
    for (int j = 0; j < instance.num_paths(i); ++j) {
      if (split.flow[i][j] <= 0) continue;
      for (net::EdgeId e : instance.paths(i)[j].edges) {
        for (int t = r.start_slot; t <= r.end_slot; ++t) {
          load[e][t] += split.flow[i][j] * r.rate;
        }
      }
    }
  }
  for (net::EdgeId e = 0; e < instance.num_edges(); ++e) {
    for (int t = 0; t < instance.num_slots(); ++t) {
      EXPECT_LE(load[e][t], caps.units[e] + 1e-6);
    }
  }
}

TEST(Taa, CapacityMismatchThrows) {
  const SpmInstance instance = capped_instance(11, 10, 1);
  EXPECT_THROW(run_taa(instance, ChargingPlan{{1, 2}}), std::invalid_argument);
}

TEST(Taa, ReportsIterationLimitDistinctFromInfeasible) {
  const SpmInstance instance = capped_instance(12, 30, 3);
  TaaOptions options;
  options.lp.max_iterations = 1;
  const TaaResult result =
      run_taa(instance, uniform_caps(instance, 3), {}, options);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status, lp::SolveStatus::IterationLimit);
  EXPECT_EQ(result.lp_stats.cold_starts, 1);
}

TEST(Taa, SolveStatsExposeRelaxationWork) {
  const SpmInstance instance = capped_instance(13, 30, 3);
  const TaaResult result = run_taa(instance, uniform_caps(instance, 3));
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result.lp_stats.iterations, 0);
  EXPECT_GE(result.lp_stats.factorizations, 1);
  EXPECT_EQ(result.lp_stats.cold_starts, 1);
}

}  // namespace
}  // namespace metis::core
