// OnlineAdmissionSimulator: event-driven (arrival-ordered) replay of one
// billing cycle for the streaming admission regime.
//
// The paper decides a whole cycle's bid book at once; a production provider
// sees a *stream* of requests and must answer each within a bounded delay,
// with accepted requests staying accepted.  This simulator:
//
//   1. draws a within-cycle arrival stream (workload::Arrival, timestamped),
//   2. queues arrivals into batches — flushed when `batch_size` requests
//      are waiting or the oldest has waited `max_batch_delay` slots,
//   3. decides each batch through a CommittedBook (sim/faults.h): one
//      core::run_metis_incremental call over the queued requests alone,
//      with every accepted request entering as its load on its reserved
//      path, under the network's per-edge capacity caps and sharing one
//      net::PathCache.  A decide carries no LP state from the one before
//      it: its first solves start cold, as offline,
//   4. interleaves the seeded fault stream, if any, with the arrivals: the
//      book repairs the commitments a fault hits.  At fault rate 0 the
//      stream is empty and the same loop sees arrivals only.
//
// batch_size >= the whole stream collapses to a single batch whose decision
// is bit-identical to the offline run_metis over the same book — the
// `offline_oracle()` below; batch_size = 1 is pure online admission.  The
// batch-size sweep between the two measures the price of commitment
// (bench/bench_online_admission.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/metis.h"
#include "sim/faults.h"
#include "sim/scenario.h"
#include "workload/generator.h"

namespace metis::sim {

struct OnlineConfig {
  /// Template for the cycle: network, seed, workload shape, instance
  /// config.  `base.num_requests` sets the *expected* stream length (the
  /// Poisson rate is num_requests / num_slots unless overridden below).
  Scenario base;
  /// Mean arrivals per slot of the Poisson stream; 0 (the default) derives
  /// it from base.num_requests so Scenario presets carry over.
  double arrivals_per_slot = 0;
  /// Flush a batch as soon as this many requests are queued (>= 1).
  int batch_size = 8;
  /// Also flush when the oldest queued request has waited this many slots
  /// (fractional allowed); 0 disables the deadline — count-only batching.
  double max_batch_delay = 0;
  /// Options for every incremental Metis re-decide.
  core::MetisOptions metis;
  /// Fault injection (sim/faults.h).  faults.rate == 0 — the default —
  /// injects nothing.  With a positive rate the replay interleaves the
  /// seeded fault stream with the arrival stream and the book repairs the
  /// commitments each fault hits.
  FaultConfig faults;
  /// Victim disposition of the fault replay (drop vs reroute).
  RepairPolicy repair_policy = RepairPolicy::Reroute;
  /// Refund paid per revoked commitment, as a fraction of its bid.
  double refund_factor = 1.0;
  /// Backoff bound of the infeasible-repair shed loop.
  int max_shed_rounds = 4;

  // --- checkpoint/restore (src/persist/) -------------------------------
  /// Checkpoint cadence in slots: with N > 0 and a checkpoint_path, the
  /// replay writes a checkpoint at every slot boundary that is a positive
  /// multiple of N strictly inside the cycle.  A checkpoint at boundary s
  /// captures the state after every item (arrival or fault event) with
  /// time < s and before any item with time >= s.  0 disables.
  int checkpoint_every = 0;
  /// Target file of the periodic checkpoint (overwritten atomically at
  /// each boundary; the file always holds the latest complete snapshot).
  std::string checkpoint_path;
  /// Also keep every boundary's snapshot as checkpoint_path + ".slot<k>"
  /// (the kill-at-any-boundary test harness; off by default).
  bool checkpoint_keep_all = false;
  /// Resume: restore this snapshot, then replay only the remaining stream.
  /// The snapshot's config fingerprint must match this config exactly.
  std::string resume_path;
};

/// One batch re-decide, in flush order.
struct BatchRecord {
  int batch = 0;          ///< 0-based flush index
  int arrivals = 0;       ///< requests decided in this batch
  double flush_time = 0;  ///< slot time at which the batch was decided
  /// Net change in accepted commitments: this batch's admissions minus
  /// the commitments the decide revoked (negative when it sheds more).
  int accepted = 0;
  double profit = 0;      ///< committed-book net profit after this batch
  double decide_ms = 0;   ///< wall clock of the re-decide (not deterministic)
  lp::SolveStats lp_stats;  ///< simplex work, incl. warm/cold start counts
};

struct OnlineResult {
  std::vector<BatchRecord> batches;
  int total_arrivals = 0;
  int total_accepted = 0;
  /// Final committed decision over the whole book (fault_book order) and
  /// its evaluation — comparable to a MetisResult on the same book.
  /// path_choice[i] indexes request i's candidate paths on the pristine
  /// network with its reserved path fault_paths[i] required (appended when
  /// a reroute left the k shortest); kDeclined otherwise.  Without faults
  /// that is the plain SpmInstance over the arrival stream.
  core::Schedule schedule;
  core::ChargingPlan plan;
  core::ProfitBreakdown profit;
  /// Aggregate LP work of every decide: the batches' lp_stats plus, with
  /// faults, the repairs'.
  lp::SolveStats lp_stats;
  /// Lookups of the book's path cache: one per distinct (src, dst) pair of
  /// each decide's pending requests.  A hit is a pair some decide already
  /// looked up since the last topology change; a miss runs Yen.
  std::size_t path_cache_hits = 0;
  std::size_t path_cache_misses = 0;
  /// Entries flushed by topology mutations (zero without faults).
  std::size_t path_cache_stale = 0;
  // --- faults and refunds (empty / zero at fault rate 0 on an
  //     uncapacitated network) --------------------------------------------
  /// The injected fault stream, in replay order.
  std::vector<FaultEvent> fault_events;
  FaultStats fault_stats;
  /// SLA refunds paid for revoked commitments: by a fault, or by a later
  /// decide that could not fit them under tight capacities.
  double refunds = 0;
  /// profit.profit − refunds: what the provider banks.
  double net_profit = 0;
  /// Every request of the book (arrivals + surge extras, decision order)
  /// and the reserved path of each accepted one (empty = declined), at
  /// every fault rate.
  std::vector<workload::Request> fault_book;
  std::vector<net::Path> fault_paths;
};

class OnlineAdmissionSimulator {
 public:
  explicit OnlineAdmissionSimulator(OnlineConfig config);

  /// Replays the cycle: deterministic in config (thread-count independent —
  /// everything runs on the caller's thread except Metis's own
  /// deterministic rounding pool).  Emits telemetry spans ("online.batch")
  /// and the "online.decide_ms" histogram per batch.  Faults, if any, are
  /// interleaved with the arrivals: they mutate the topology, victims are
  /// repaired per the repair policy, surges add extra arrivals.  The final
  /// book is validated against the (possibly mutated) network — capacities
  /// included — and run() throws on any violation.
  OnlineResult run() const;

  /// The full arrival stream the replay will see (deterministic in
  /// base.seed; exposed for tests and the bench).
  std::vector<workload::Arrival> arrivals() const;

  /// Offline oracle: one run_metis over the entire stream's book under the
  /// network's capacity caps (effective_caps) — the paper's regime, equal
  /// bit for bit to run() with a single batch (batch_size >= stream length,
  /// no deadline, no faults).
  core::MetisResult offline_oracle() const;

  const OnlineConfig& config() const { return config_; }

  /// FNV-1a fingerprint of every determinism-relevant config field.  Stored
  /// in each checkpoint; a resume whose config fingerprint differs is
  /// rejected (replaying a stream the snapshot was not taken from would
  /// silently diverge instead of resuming).
  std::uint64_t config_fingerprint() const;

 private:
  double arrival_rate() const;

  OnlineConfig config_;
};

}  // namespace metis::sim
