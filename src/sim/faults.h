// Fault injection & graceful degradation — the survivability layer.
//
// The paper's evaluation assumes the WAN never fails mid-cycle.  A real
// geo-distributed provider loses links, whole datacenters, and price
// stability while commitments are outstanding, and its realized profit
// depends on how gracefully the committed schedule degrades.  This module
// supplies:
//
//  * a deterministic, seeded fault-event stream (generate_fault_events):
//    link failures, link capacity degradation, DC outages, price shocks and
//    demand surges, drawn from index-addressed Rng::split sub-streams so the
//    same seed always yields the bit-identical stream;
//  * CommittedBook — the repair engine.  It owns the (mutable) topology and
//    the ledger of every request ever admitted, replays fault events against
//    the committed schedule, and repairs via core::run_metis_incremental:
//    survivors keep their reserved paths and enter the re-decide as their
//    load, victims on dead/shrunk edges are rerouted or dropped (policy),
//    drops are refunded
//    (core::RefundLedger), and infeasible repairs retry with bounded
//    exponential backoff, shedding the lowest-value commitments first.
//
// Everything here is deterministic in (seed, config) and independent of
// thread count.  The online replay (sim/online.h) decides every batch
// through a CommittedBook, at any fault rate: with an empty fault stream it
// just never calls inject().  The multi-cycle simulator builds a book only
// to replay a non-empty stream against its offline decision.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/accounting.h"
#include "core/metis.h"
#include "net/paths.h"
#include "net/topology.h"
#include "persist/checkpoint.h"
#include "util/rng.h"
#include "workload/request.h"

namespace metis::sim {

enum class FaultKind {
  LinkFailure,   ///< a directed edge goes down for the rest of the cycle
  LinkDegrade,   ///< an edge's capacity shrinks to a fraction of its base
  NodeOutage,    ///< a DC dies: every incident edge goes down
  PriceShock,    ///< an ISP reprices an edge (affects future purchases)
  DemandSurge,   ///< a burst of extra requests hits the admission queue
};

std::string to_string(FaultKind kind);

struct FaultEvent {
  double time = 0;        ///< cycle time in slot units, in [0, T)
  FaultKind kind = FaultKind::LinkFailure;
  int target = -1;        ///< edge id (node id for NodeOutage; unused: surge)
  /// LinkDegrade: fraction of the base capacity kept (0,1).
  /// PriceShock: price multiplier (> 1).
  double magnitude = 1.0;
  int surge_arrivals = 0;  ///< DemandSurge only: extra requests injected

  bool operator==(const FaultEvent&) const = default;
};

struct FaultConfig {
  /// Mean fault events per slot (Poisson).  0 disables injection entirely:
  /// the event stream is empty.
  double rate = 0;
  /// Relative weights of the five fault kinds (need not sum to 1).
  double weight_link_failure = 0.35;
  double weight_link_degrade = 0.25;
  double weight_node_outage = 0.10;
  double weight_price_shock = 0.20;
  double weight_demand_surge = 0.10;
  /// LinkDegrade keeps U(keep_min, keep_max) of the base capacity.
  double degrade_keep_min = 0.25;
  double degrade_keep_max = 0.75;
  /// PriceShock multiplies the edge price by U(shock_min, shock_max).
  double price_shock_min = 1.25;
  double price_shock_max = 3.0;
  /// Mean extra arrivals of one DemandSurge event (Poisson; 0 = empty surge).
  double surge_mean = 4.0;
  /// Rng::split stream id the event stream draws from — decoupled from the
  /// workload streams so enabling faults never perturbs the arrival draw.
  std::uint64_t stream = 0x0fa1;
};

/// The seeded fault stream for one cycle: slot s's events are drawn from
/// `base.split(config.stream).split(s)`, so the stream is bit-identical for
/// the same (base seed, config, topology shape) regardless of thread count
/// or draw order elsewhere.  Events are returned sorted by time.  Targets
/// are sampled uniformly over edges (nodes for outages).
std::vector<FaultEvent> generate_fault_events(const FaultConfig& config,
                                              const net::Topology& topo,
                                              int num_slots, const Rng& base);

/// Per-edge hard caps of `topo` in MetisOptions::edge_capacity form: 0 on a
/// disabled edge (a dead link sells nothing), capacity_units on a
/// capacitated one, -1 (uncapacitated) otherwise.  Every CommittedBook
/// decide, and OnlineAdmissionSimulator::offline_oracle(), solves under
/// these caps.
std::vector<int> effective_caps(const net::Topology& topo);

/// The index of each reserved path among its request's candidates in
/// `instance` (kDeclined where the path is empty).  Every non-empty path
/// must be a candidate, as it is when `paths` were the instance's
/// require_paths (CommittedBook::validate, OnlineResult::schedule).
core::Schedule reserved_schedule(const core::SpmInstance& instance,
                                 const std::vector<net::Path>& paths);

/// What to do with commitments whose reserved path a fault killed/shrank.
enum class RepairPolicy {
  /// Naive baseline: drop every victim immediately (refund each).
  DropAffected,
  /// Re-enter victims into a repair re-decide (run_metis_incremental
  /// around the survivors' load): rerouted if a profitable live path
  /// exists, dropped with refund otherwise.
  Reroute,
};

std::string to_string(RepairPolicy policy);
/// Parses "drop" / "reroute" (the --repair-policy flag values).
RepairPolicy parse_repair_policy(const std::string& name);

/// Mixes the fault model and the repair settings (15 fields) into `fp`: the
/// block both simulators' config fingerprints share.
void mix_fault_config(serialize::Fingerprint& fp, const FaultConfig& faults,
                      RepairPolicy policy, double refund_factor,
                      int max_shed_rounds);

struct RepairConfig {
  RepairPolicy policy = RepairPolicy::Reroute;
  /// Refund paid for a revoked commitment, as a fraction of its bid.
  double refund_factor = 1.0;
  /// Bound on the exponential-backoff shed loop: an infeasible repair sheds
  /// the 1, 2, 4, ... lowest-value commitments and re-solves, at most this
  /// many rounds.
  int max_shed_rounds = 4;
  /// Options of every repair / batch re-decide (edge_capacity is filled in
  /// by the book from the mutated topology; leave it null here).
  core::MetisOptions metis;
};

struct FaultStats {
  int injected = 0;         ///< fault events replayed
  int network_changes = 0;  ///< events that actually mutated the topology
  int repairs = 0;          ///< repair re-decides run
  int victims = 0;          ///< commitments hit by a fault
  int dropped = 0;          ///< commitments revoked (each refunded)
  int rerouted = 0;         ///< victims saved onto a live path
  int shed_rounds = 0;      ///< backoff rounds forced by infeasible repairs
  int surge_arrivals = 0;   ///< extra requests injected by demand surges
};

/// The fault-aware committed book: every request ever admitted, its current
/// decision (pending / accepted on a concrete reserved path / declined),
/// the mutable topology the cycle is running on, and the refund ledger.
///
/// Lifecycle: add_pending() arrivals, decide_pending() on batch flushes,
/// inject() on fault events (applies the mutation, sheds/reroutes victims,
/// runs the repair re-decide).  All entry points are deterministic in their
/// Rng argument.  The final book is validated by validate(): the accepted
/// schedule must pass sim::check_schedule and the purchase must physically
/// fit the mutated network.
///
/// A book is neither copyable nor movable: its path cache points at its
/// own topology, so a copy or a moved-to book would keep reading the
/// source's.  Construct each book in place.
class CommittedBook {
 public:
  CommittedBook(net::Topology topo, core::InstanceConfig config,
                RepairConfig repair);
  CommittedBook(const CommittedBook&) = delete;
  CommittedBook& operator=(const CommittedBook&) = delete;
  CommittedBook(CommittedBook&&) = delete;
  CommittedBook& operator=(CommittedBook&&) = delete;

  const net::Topology& topology() const { return topo_; }

  /// Queues one arrival; returns its book index.
  int add_pending(const workload::Request& request);
  int pending_count() const;

  /// Adopts a whole-cycle offline decision (multi-cycle simulator): every
  /// accepted request is committed on its concrete path, declined ones are
  /// final.  `schedule` must be feasible for `instance`, whose topology
  /// must equal this book's (same edges, same epoch).
  void adopt(const core::SpmInstance& instance, const core::Schedule& schedule);

  /// Decides every pending request with run_metis_incremental: the
  /// instance holds the pending requests alone, and the accepted ones
  /// enter as their load, bids and count (core::IncrementalState), summed
  /// in book order.  The returned result's schedule covers the pending
  /// requests in book order; its plan and best cover the whole book.
  /// Pending requests whose endpoints the mutated WAN can no longer connect
  /// are auto-declined (refunded if they were previously committed).  An
  /// infeasible solve triggers the bounded exponential-backoff shed loop.
  /// After the solve, a deterministic shed pass enforces the mutated
  /// network's capacities exactly (randomized rounding may overshoot the
  /// LP's caps).  Newly accepted decisions become commitments.
  core::MetisResult decide_pending(Rng& rng);

  /// Replays one fault event: mutates the topology, marks victims
  /// (dropping or re-queuing them per the repair policy) and — when the
  /// network changed and there is anything to re-decide — runs the repair
  /// re-decide.  DemandSurge events only update stats; the caller expands
  /// them into add_pending()+decide_pending() (it owns the generator).
  /// Returns true if the event mutated the network.
  bool inject(const FaultEvent& event, Rng& rng);

  // --- results ---------------------------------------------------------
  int size() const { return static_cast<int>(entries_.size()); }
  int accepted_count() const;
  /// Gross revenue/cost/profit of the current book at current prices (cost
  /// of the ceiled peak loads of the accepted schedule).
  core::ProfitBreakdown evaluate() const;
  /// Gross profit minus refunds paid — the number a provider banks.
  double net_profit() const;
  double refunds() const { return refunds_.refunded; }
  const FaultStats& stats() const { return stats_; }
  const lp::SolveStats& lp_stats() const { return lp_stats_; }
  std::size_t path_cache_hits() const { return cache_.hits(); }
  std::size_t path_cache_misses() const { return cache_.misses(); }
  std::size_t path_cache_stale() const { return cache_.stale(); }

  /// All requests in admission order / their reserved paths (empty path =
  /// pending or declined).
  std::vector<workload::Request> requests() const;
  std::vector<net::Path> reserved_paths() const;
  /// The purchase implied by the accepted schedule (ceiled peak loads).
  core::ChargingPlan plan() const;

  /// Feasibility oracle over the final state: rebuilds the compact accepted
  /// instance (reserved paths required), checks sim::check_schedule, plan
  /// coverage, capacity conformance against the mutated topology, and that
  /// no reservation crosses a disabled edge.  Empty = clean.
  std::vector<std::string> validate() const;

  // --- checkpoint/restore (src/persist/) -------------------------------
  /// Copies the book's full mutable state — entries, mutated topology,
  /// refund ledger, fault/LP counters, path cache — into the checkpoint.
  void export_state(persist::OnlineCheckpoint& ckpt) const;
  /// Rehydrates the book from a checkpoint taken by export_state against
  /// the same pristine topology (shape pinned by the config fingerprint).
  /// The topology is restored through the epoch-preserving setters, so the
  /// reloaded PathCache image stays valid.  The image is validated first:
  /// topology vector sizes and values, each entry's request and status, a
  /// simple src->dst path on every accepted entry and none on the others,
  /// and the path cache image.  A bad image throws std::invalid_argument
  /// and leaves the book unchanged.
  void restore_state(const persist::OnlineCheckpoint& ckpt);

 private:
  enum class Status { Pending, Accepted, Declined };
  struct Entry {
    workload::Request request;
    Status status = Status::Pending;
    net::Path path;              ///< reserved concrete path when Accepted
    bool was_committed = false;  ///< a past decide accepted it (refund on drop)
  };

  core::LoadMatrix accepted_loads() const;
  /// Drops entry `idx` (with refund if it was committed).
  void drop_entry(std::size_t idx);
  /// Sheds up to `count` lowest-value committed acceptances; returns the
  /// number shed.
  int shed_lowest_value(int count);
  /// Post-solve hard guarantee: sheds accepted requests (lowest value
  /// first) from every edge whose charged load exceeds the mutated
  /// capacity or that is disabled, until the book physically fits.
  void enforce_capacity();
  /// One unrepaired solve attempt over the pending requests, around the
  /// accepted ones' load.
  struct Attempt {
    core::MetisResult result;
    std::vector<std::size_t> entry_of;   ///< instance index -> book index
    std::vector<net::Path> chosen_path;  ///< instance index -> decided path
  };
  Attempt attempt_decide(Rng& rng);

  net::Topology topo_;
  core::InstanceConfig config_;
  RepairConfig repair_;
  net::PathCache cache_;
  std::vector<Entry> entries_;
  core::RefundLedger refunds_;
  FaultStats stats_;
  lp::SolveStats lp_stats_;
};

}  // namespace metis::sim
