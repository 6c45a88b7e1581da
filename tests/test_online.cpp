// Online admission pipeline (sim/online.h + core::run_metis_incremental):
// the streaming regime's contract with the paper's offline algorithm.
//
// The acceptance bar for the whole subsystem:
//   * one batch == offline Metis, bit for bit (same RNG stream, same LP
//     bytes, same control flow),
//   * commitments are final — later batches never flip an earlier decision,
//   * later batches reuse the shared path cache, with and without faults,
//   * no batch buys more of a link than the link holds,
//   * the replay is deterministic for any rounding thread count.
#include <gtest/gtest.h>

#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/metis.h"
#include "sim/online.h"
#include "sim/scenario.h"
#include "sim/validate.h"
#include "util/rng.h"

namespace metis::sim {
namespace {

OnlineConfig small_config(std::uint64_t seed, int batch_size) {
  OnlineConfig config;
  config.base.network = Network::SubB4;
  config.base.num_requests = 24;
  config.base.seed = seed;
  config.batch_size = batch_size;
  return config;
}

void expect_same_decision(const core::Schedule& a, const core::ChargingPlan& pa,
                          double profit_a, const core::Schedule& b,
                          const core::ChargingPlan& pb, double profit_b) {
  EXPECT_EQ(a.path_choice, b.path_choice);
  EXPECT_EQ(pa.units, pb.units);
  EXPECT_EQ(profit_a, profit_b);  // bit-identical, not just close
}

TEST(OnlineAdmission, ConfigValidation) {
  EXPECT_THROW(OnlineAdmissionSimulator{small_config(1, 0)},
               std::invalid_argument);
  OnlineConfig bad_delay = small_config(1, 4);
  bad_delay.max_batch_delay = -0.5;
  EXPECT_THROW(OnlineAdmissionSimulator{bad_delay}, std::invalid_argument);
  OnlineConfig bad_rate = small_config(1, 4);
  bad_rate.arrivals_per_slot = -1.0;
  EXPECT_THROW(OnlineAdmissionSimulator{bad_rate}, std::invalid_argument);
}

TEST(OnlineAdmission, ArrivalStreamIsDeterministicAndInCycle) {
  const OnlineAdmissionSimulator simulator(small_config(3, 4));
  const auto stream = simulator.arrivals();
  ASSERT_FALSE(stream.empty());
  const auto again = simulator.arrivals();
  ASSERT_EQ(stream.size(), again.size());
  const int num_slots = simulator.config().base.instance.num_slots;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    EXPECT_EQ(stream[i].request.value, again[i].request.value);
    EXPECT_EQ(stream[i].arrival_time, again[i].arrival_time);
    EXPECT_GE(stream[i].arrival_time, 0.0);
    EXPECT_LT(stream[i].arrival_time, static_cast<double>(num_slots));
    if (i > 0) {
      EXPECT_LE(stream[i - 1].arrival_time, stream[i].arrival_time);
    }
  }
}

TEST(OnlineAdmission, SingleBatchReproducesOfflineOracleBitIdentically) {
  OnlineConfig capacitated = small_config(9, 10'000);
  capacitated.base.network = Network::B4;
  capacitated.base.num_requests = 48;
  capacitated.base.uniform_capacity = 2;
  for (const OnlineConfig& config : {small_config(7, 10'000), capacitated}) {
    const OnlineAdmissionSimulator simulator(config);
    const OnlineResult online = simulator.run();
    const core::MetisResult offline = simulator.offline_oracle();
    ASSERT_EQ(online.batches.size(), 1u);
    EXPECT_EQ(online.total_arrivals,
              static_cast<int>(simulator.arrivals().size()));
    expect_same_decision(online.schedule, online.plan, online.profit.profit,
                         offline.schedule, offline.plan, offline.best.profit);
    EXPECT_EQ(online.profit.revenue, offline.best.revenue);
    EXPECT_EQ(online.profit.cost, offline.best.cost);
    EXPECT_EQ(online.total_accepted, offline.best.accepted);
    EXPECT_GT(online.total_accepted, 0) << "uniform_capacity "
                                        << config.base.uniform_capacity;
  }
}

TEST(OnlineAdmission, CapacitatedReplayNeverBuysPastLinkCapacity) {
  // BL-SPM holds link capacities fixed: committing batch after batch must
  // not add up to more units than a link has.
  OnlineConfig config;
  config.base.network = Network::B4;
  config.base.num_requests = 96;
  config.base.seed = 1;
  config.base.uniform_capacity = 1;
  config.batch_size = 8;
  const OnlineResult result = OnlineAdmissionSimulator(config).run();
  EXPECT_GT(result.total_accepted, 0);
  EXPECT_EQ(check_plan_within_capacity(make_network(config.base), result.plan),
            std::vector<std::string>{});
  EXPECT_EQ(result.net_profit, result.profit.profit - result.refunds);
}

TEST(OnlineAdmission, CommittedPrefixIsPreservedByLaterBatches) {
  // Core-level statement of "accepted stays accepted": re-running Metis
  // with the first C decisions pinned returns those decisions verbatim.
  const OnlineAdmissionSimulator simulator(small_config(11, 10'000));
  const core::SpmInstance instance = [&] {
    std::vector<workload::Request> book;
    for (const auto& a : simulator.arrivals()) book.push_back(a.request);
    return core::SpmInstance(make_network(simulator.config().base),
                             std::move(book),
                             simulator.config().base.instance);
  }();
  Rng rng = Rng(11).split(0);
  const core::MetisResult full = core::run_metis(instance, rng);

  const int pin = instance.num_requests() / 2;
  core::IncrementalState state;
  state.committed.assign(full.schedule.path_choice.begin(),
                         full.schedule.path_choice.begin() + pin);
  Rng rng2 = Rng(11).split(1);
  const core::MetisResult redo =
      core::run_metis_incremental(instance, state, rng2);
  ASSERT_EQ(redo.schedule.path_choice.size(), full.schedule.path_choice.size());
  for (int i = 0; i < pin; ++i) {
    EXPECT_EQ(redo.schedule.path_choice[i], full.schedule.path_choice[i])
        << "batch re-decide flipped committed request " << i;
  }
}

TEST(OnlineAdmission, EmptyCommitmentsReduceToPlainMetis) {
  const core::SpmInstance instance = make_instance(small_config(5, 1).base);
  Rng rng_a(42);
  const core::MetisResult plain = core::run_metis(instance, rng_a);
  core::IncrementalState state;  // empty committed
  Rng rng_b(42);
  const core::MetisResult incremental =
      core::run_metis_incremental(instance, state, rng_b);
  expect_same_decision(plain.schedule, plain.plan, plain.best.profit,
                       incremental.schedule, incremental.plan,
                       incremental.best.profit);
  EXPECT_EQ(plain.lp_stats.iterations, incremental.lp_stats.iterations);
}

TEST(OnlineAdmission, PathCacheHitsAfterTheFirstBatch) {
  OnlineConfig faulty = small_config(3, 6);
  faulty.base.network = Network::B4;
  faulty.base.num_requests = 48;
  faulty.faults.rate = 0.5;
  for (const OnlineConfig& config : {small_config(13, 5), faulty}) {
    const OnlineResult result = OnlineAdmissionSimulator(config).run();
    const std::string label =
        "fault rate " + std::to_string(config.faults.rate);
    ASSERT_GT(result.batches.size(), 1u) << label;
    EXPECT_EQ(result.fault_events.empty(), config.faults.rate == 0) << label;
    EXPECT_GT(result.path_cache_hits, 0u) << label;
  }
}

TEST(OnlineAdmission, DeterministicForAnyRoundingThreadCount) {
  OnlineConfig serial = small_config(17, 4);
  serial.metis.maa.threads = 1;
  OnlineConfig pooled = serial;
  pooled.metis.maa.threads = 4;
  const OnlineResult a = OnlineAdmissionSimulator(serial).run();
  const OnlineResult b = OnlineAdmissionSimulator(pooled).run();
  expect_same_decision(a.schedule, a.plan, a.profit.profit, b.schedule, b.plan,
                       b.profit.profit);
  ASSERT_EQ(a.batches.size(), b.batches.size());
  for (std::size_t i = 0; i < a.batches.size(); ++i) {
    EXPECT_EQ(a.batches[i].profit, b.batches[i].profit);
  }
}

TEST(OnlineAdmission, DeadlineFlushBoundsQueueingDelay) {
  OnlineConfig config = small_config(19, 10'000);  // count never triggers
  config.max_batch_delay = 0.75;
  const OnlineAdmissionSimulator simulator(config);
  const OnlineResult result = simulator.run();
  const auto stream = simulator.arrivals();
  ASSERT_GT(result.batches.size(), 1u) << "deadline never fired";
  int covered = 0;
  for (std::size_t b = 0; b < result.batches.size(); ++b) {
    const auto& record = result.batches[b];
    ASSERT_GT(record.arrivals, 0);
    const double oldest = stream[covered].arrival_time;
    // Every batch but the cycle-end flush fires exactly at the deadline of
    // its oldest queued request; no request waits longer than the delay.
    if (b + 1 < result.batches.size()) {
      EXPECT_NEAR(record.flush_time, oldest + config.max_batch_delay, 1e-9);
    }
    EXPECT_LE(record.flush_time - oldest,
              config.base.instance.num_slots + 1e-9);
    covered += record.arrivals;
  }
  EXPECT_EQ(covered, result.total_arrivals);
  EXPECT_EQ(covered, static_cast<int>(stream.size()));
}

TEST(OnlineAdmission, ProfitIsEvaluatedOnTheCommittedBook) {
  // The reported breakdown must equal a from-scratch evaluation of the
  // final schedule on the final book (no stale per-batch accounting).
  const OnlineAdmissionSimulator simulator(small_config(23, 3));
  const OnlineResult result = simulator.run();
  std::vector<workload::Request> book;
  for (const auto& a : simulator.arrivals()) book.push_back(a.request);
  const core::SpmInstance instance(make_network(simulator.config().base),
                                   std::move(book),
                                   simulator.config().base.instance);
  const core::ProfitBreakdown check =
      core::evaluate_with_plan(instance, result.schedule, result.plan);
  EXPECT_EQ(result.profit.revenue, check.revenue);
  EXPECT_EQ(result.profit.cost, check.cost);
  EXPECT_EQ(result.profit.profit, check.profit);
  EXPECT_EQ(result.total_accepted, result.schedule.num_accepted());
}

}  // namespace
}  // namespace metis::sim
