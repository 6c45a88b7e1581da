// Checkpoint images and their codecs: the plain-data mirrors of everything
// the simulators need to resume bit-identically, plus save/load over the
// sectioned container of persist/snapshot.h.
//
// Layering: persist sits below sim, so the simulators' private state
// (CommittedBook entries, BatchRecord lists) is mirrored here as plain
// structs; sim/online.cpp and sim/simulator.cpp convert through them.
// Types that already live at or below core — workload::Request,
// lp::SolveStats, net::PathCache::Dump, telemetry::MetricsSnapshot — are
// saved as they are.
//
// The codec (checkpoint.cpp) writes each record's wire layout once: one
// field list per record and one section list per checkpoint kind, read by
// both encode and decode.  A field's C++ type picks its wire width.  Adding
// a field is one line in its record's list plus a kSnapshotVersion bump.
//
// What makes a resume byte-identical (the kill/restore contract of
// tests/test_persist.cpp):
//
//  * all RNG streams are index-addressed (Rng::split is keyed off the seed
//    and a stream id, never off draw position), so the "RNG cursors" are
//    just counters: the batch index, the fault-repair index, the surge
//    index, and the arrival/fault-event cursors into their deterministic
//    streams;
//  * the LP warm-start state carried between decides (the book's
//    slack-start flag) is saved, so even simplex iteration counts continue
//    exactly;
//  * the mutated Topology is restored through the epoch-preserving
//    restore_* setters and the PathCache image is reloaded against the
//    identical epoch, so post-resume lookups hit and miss exactly as the
//    uninterrupted run's would.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/accounting.h"
#include "lp/types.h"
#include "net/paths.h"
#include "persist/snapshot.h"
#include "util/telemetry.h"
#include "workload/request.h"

namespace metis::persist {

/// Section ids of the container (strictly increasing in every file).
enum SectionId : std::uint32_t {
  kSectionMeta = 1,         ///< kind, fingerprint, replay cursors
  kSectionBatches = 2,      ///< per-batch records (online)
  kSectionIncremental = 4,  ///< LP warm-start state (the slack-start flag)
  kSectionEntries = 6,      ///< CommittedBook entries (online)
  kSectionTopology = 7,     ///< mutated topology state + epoch
  kSectionFaults = 8,       ///< refund ledger + fault stats + book lp stats
  kSectionPathCache = 9,    ///< PathCache image
  kSectionTelemetry = 10,   ///< metrics registry snapshot
  kSectionCells = 11,       ///< finished (cycle x policy) cells (multi-cycle)
};

/// Checkpoint kinds (the first byte of kSectionMeta).
enum class CheckpointKind : std::uint8_t {
  Online = 1,      ///< OnlineAdmissionSimulator, one cycle
  MultiCycle = 2,  ///< BillingCycleSimulator, cycle-granular
};

std::string section_name(std::uint32_t id);

/// Mirror of sim::BatchRecord.
struct BatchState {
  int batch = 0;
  int arrivals = 0;
  double flush_time = 0;
  int accepted = 0;
  double profit = 0;
  double decide_ms = 0;
  lp::SolveStats lp_stats;
};

/// Mirror of one sim::CommittedBook entry.
struct BookEntryState {
  workload::Request request;
  int status = 0;  ///< 0 = pending, 1 = accepted, 2 = declined
  net::Path path;
  bool was_committed = false;
};

/// Mirror of sim::FaultStats.
struct FaultStatsImage {
  int injected = 0;
  int network_changes = 0;
  int repairs = 0;
  int victims = 0;
  int dropped = 0;
  int rerouted = 0;
  int shed_rounds = 0;
  int surge_arrivals = 0;
};

/// Per-edge/per-node mutable state of a net::Topology (prices, capacities,
/// enable flags) plus the mutation epoch.  The graph *shape* (node count,
/// edge endpoints) is not saved — it is derived from the scenario config,
/// which the fingerprint pins.
struct TopologyState {
  std::vector<double> price;
  std::vector<int> capacity_units;
  std::vector<std::uint8_t> edge_enabled;
  std::vector<std::uint8_t> node_enabled;
  std::uint64_t epoch = 0;
};

/// Full resumable state of one OnlineAdmissionSimulator replay, taken at a
/// slot boundary: every item (arrival or fault event) with time < boundary
/// has been processed, none at or after it has.
struct OnlineCheckpoint {
  // --- meta / replay cursors -------------------------------------------
  std::uint64_t config_fingerprint = 0;  ///< OnlineAdmissionSimulator::config_fingerprint()
  /// Unused and not saved: every fault rate runs the same replay, and the
  /// fingerprint covers faults.rate.  Kept for callers that still set it.
  bool fault_mode = false;
  double boundary_time = 0;              ///< the slot boundary (informational)
  std::uint64_t next_arrival = 0;        ///< arrivals consumed from the stream
  std::uint64_t next_fault_event = 0;    ///< fault events fired
  std::int64_t repair_index = 0;         ///< kRepairStream draws taken
  std::int64_t surge_index = 0;          ///< kSurgeStream draws taken
  double oldest_queued = 0;              ///< deadline clock of the batch queue
  int total_arrivals = 0;
  int total_accepted = 0;

  std::vector<BatchState> batches;

  // --- the committed book -----------------------------------------------
  /// core::IncrementalState::slack_start.  The state's `committed` is not
  /// saved: the book rebuilds it from the entries before every solve.
  bool slack_start = false;
  std::vector<BookEntryState> entries;
  TopologyState topology;
  core::RefundLedger refunds;
  FaultStatsImage fault_stats;
  lp::SolveStats book_lp_stats;

  net::PathCache::Dump cache;
  telemetry::MetricsSnapshot metrics;
};

/// One finished (cycle, policy) cell of a BillingCycleSimulator run —
/// mirror of sim::CycleOutcome plus its policy index.
struct CycleCellState {
  int cycle = 0;
  int policy = 0;
  int offered_requests = 0;
  core::ProfitBreakdown result;
  double decide_ms = 0;
  double refunds = 0;
  double net_profit = 0;
  FaultStatsImage fault_stats;
};

/// Resumable state of a BillingCycleSimulator run: cells of all completed
/// cycle blocks.  Cells are share-nothing (each derives its RNG from its
/// absolute (cycle, policy) index), so cycle granularity loses nothing.
struct MultiCycleCheckpoint {
  std::uint64_t config_fingerprint = 0;
  int cycles_done = 0;  ///< cells cover cycles [0, cycles_done)
  int num_policies = 0;
  std::vector<CycleCellState> cells;
  telemetry::MetricsSnapshot metrics;
};

// --- codecs ---------------------------------------------------------------
// encode_* produce the full container bytes; decode_* parse a validated
// SnapshotReader back (throwing SnapshotError on a kind mismatch or any
// malformed payload).  save_* / load_* add the file I/O, the
// persist.save/persist.load telemetry spans and the persist.bytes /
// persist.save_ms / persist.load_ms metrics.

std::vector<std::uint8_t> encode(const OnlineCheckpoint& ckpt);
OnlineCheckpoint decode_online(const SnapshotReader& reader);
void save(const OnlineCheckpoint& ckpt, const std::string& path);
OnlineCheckpoint load_online(const std::string& path);

std::vector<std::uint8_t> encode(const MultiCycleCheckpoint& ckpt);
MultiCycleCheckpoint decode_multi_cycle(const SnapshotReader& reader);
void save(const MultiCycleCheckpoint& ckpt, const std::string& path);
MultiCycleCheckpoint load_multi_cycle(const std::string& path);

/// Kind of a parsed container (reads the first byte of kSectionMeta).
CheckpointKind kind_of(const SnapshotReader& reader);

/// Human-readable JSON rendering of any checkpoint container: meta fields,
/// section ids/sizes/CRCs and the decoded headline numbers (accepted
/// counts, refunds, profit sums).  The debug export of the format —
/// `ckpt_inspect dump`.
void write_debug_json(const SnapshotReader& reader, std::ostream& os);

}  // namespace metis::persist
