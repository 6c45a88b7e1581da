#include "sim/online.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "persist/checkpoint.h"
#include "util/serialize.h"
#include "util/telemetry.h"

namespace metis::sim {
namespace {

// Rng::split stream ids of the replay's fault-driven draw sequences,
// disjoint from the per-batch decide streams (small indices) and the fault
// event stream (FaultConfig::stream).
constexpr std::uint64_t kRepairStream = 0x0fa2;
constexpr std::uint64_t kSurgeStream = 0x0fa3;

// --- checkpoint plumbing --------------------------------------------------

std::vector<persist::BatchState> to_batch_states(
    const std::vector<BatchRecord>& batches) {
  std::vector<persist::BatchState> states;
  states.reserve(batches.size());
  for (const BatchRecord& b : batches) {
    states.push_back(persist::BatchState{b.batch, b.arrivals, b.flush_time,
                                         b.accepted, b.profit, b.decide_ms,
                                         b.lp_stats});
  }
  return states;
}

std::vector<BatchRecord> from_batch_states(
    const std::vector<persist::BatchState>& states) {
  std::vector<BatchRecord> batches;
  batches.reserve(states.size());
  for (const persist::BatchState& s : states) {
    batches.push_back(BatchRecord{s.batch, s.arrivals, s.flush_time,
                                  s.accepted, s.profit, s.decide_ms,
                                  s.lp_stats});
  }
  return batches;
}

/// Loads and vets a resume snapshot: the config fingerprint must match
/// (the arrival/fault streams are derived from the config, so a different
/// config would silently diverge, not resume).
persist::OnlineCheckpoint load_resume(const std::string& path,
                                      std::uint64_t fingerprint) {
  persist::OnlineCheckpoint ckpt = persist::load_online(path);
  if (ckpt.config_fingerprint != fingerprint) {
    throw std::runtime_error(
        "online resume: config fingerprint mismatch (snapshot " +
        serialize::hex_fingerprint(ckpt.config_fingerprint) +
        ", current config " + serialize::hex_fingerprint(fingerprint) +
        "): '" + path + "' was taken under a different configuration");
  }
  telemetry::Registry::global().restore(ckpt.metrics);
  return ckpt;
}

/// Writes the boundary's snapshot: the latest-complete file, plus the
/// per-boundary copy when keep_all is on (the kill-anywhere test harness).
void write_checkpoint(const OnlineConfig& config,
                      persist::OnlineCheckpoint& ckpt, int boundary) {
  ckpt.boundary_time = boundary;
  // Snapshot the registry last so the image carries everything recorded up
  // to this boundary (the save's own persist.* metrics land after).
  ckpt.metrics = telemetry::Registry::global().snapshot();
  persist::save(ckpt, config.checkpoint_path);
  if (config.checkpoint_keep_all) {
    persist::save(ckpt,
                  config.checkpoint_path + ".slot" + std::to_string(boundary));
  }
}

}  // namespace

std::uint64_t OnlineAdmissionSimulator::config_fingerprint() const {
  serialize::Fingerprint fp;
  mix_scenario(fp, config_.base);
  fp.mix(config_.arrivals_per_slot);
  fp.mix(config_.batch_size);
  fp.mix(config_.max_batch_delay);
  const core::MetisOptions& m = config_.metis;
  fp.mix(m.theta);
  fp.mix(m.trim_units);
  fp.mix(m.prune);
  fp.mix(m.local_search);
  fp.mix(m.warm_start);
  fp.mix(m.maa.rounding_trials);
  fp.mix(m.taa.augment);
  mix_fault_config(fp, config_.faults, config_.repair_policy,
                   config_.refund_factor, config_.max_shed_rounds);
  return fp.value();
}

OnlineAdmissionSimulator::OnlineAdmissionSimulator(OnlineConfig config)
    : config_(std::move(config)) {
  if (config_.batch_size < 1) {
    throw std::invalid_argument("OnlineConfig: batch_size must be >= 1");
  }
  if (config_.max_batch_delay < 0) {
    throw std::invalid_argument("OnlineConfig: max_batch_delay must be >= 0");
  }
  if (config_.arrivals_per_slot < 0) {
    throw std::invalid_argument("OnlineConfig: arrivals_per_slot must be >= 0");
  }
  if (config_.refund_factor < 0) {
    throw std::invalid_argument("OnlineConfig: refund_factor must be >= 0");
  }
}

double OnlineAdmissionSimulator::arrival_rate() const {
  if (config_.arrivals_per_slot > 0) return config_.arrivals_per_slot;
  return static_cast<double>(config_.base.num_requests) /
         config_.base.instance.num_slots;
}

std::vector<workload::Arrival> OnlineAdmissionSimulator::arrivals() const {
  const net::Topology topo = make_network(config_.base);
  workload::GeneratorConfig wconfig = config_.base.workload;
  wconfig.num_slots = config_.base.instance.num_slots;
  const workload::RequestGenerator generator(topo, wconfig);
  Rng rng(config_.base.seed);
  return generator.generate_arrivals(arrival_rate(), rng);
}

core::MetisResult OnlineAdmissionSimulator::offline_oracle() const {
  std::vector<workload::Request> book;
  for (const workload::Arrival& a : arrivals()) book.push_back(a.request);
  core::SpmInstance instance(make_network(config_.base), std::move(book),
                             config_.base.instance);
  // Same caps and the same stream id the replay gives its first batch: with
  // one batch the two runs solve and draw identically, which is what makes
  // them bit-identical.
  const std::vector<int> caps = effective_caps(instance.topology());
  core::MetisOptions options = config_.metis;
  options.edge_capacity = &caps;
  Rng rng = Rng(config_.base.seed).split(0);
  return core::run_metis(instance, rng, options);
}

OnlineResult OnlineAdmissionSimulator::run() const {
  METIS_SPAN("online.run");
  const net::Topology topo = make_network(config_.base);
  const std::vector<workload::Arrival> stream = arrivals();
  const int num_slots = config_.base.instance.num_slots;
  // Empty at rate 0: the merged replay then sees arrivals only.
  const std::vector<FaultEvent> events = generate_fault_events(
      config_.faults, topo, num_slots, Rng(config_.base.seed));

  // Surge arrivals are sampled from the healthy topology's generator (the
  // same endpoint-pair universe as the base stream); requests whose
  // endpoints a fault later killed are auto-declined by the book.
  workload::GeneratorConfig wconfig = config_.base.workload;
  wconfig.num_slots = num_slots;
  const workload::RequestGenerator generator(topo, wconfig);

  RepairConfig repair;
  repair.policy = config_.repair_policy;
  repair.refund_factor = config_.refund_factor;
  repair.max_shed_rounds = config_.max_shed_rounds;
  repair.metis = config_.metis;
  CommittedBook book(topo, config_.base.instance, repair);

  OnlineResult result;
  result.fault_events = events;
  result.total_arrivals = static_cast<int>(stream.size());

  // --- batching ---------------------------------------------------------
  // Deadline clock: arrival time of the oldest queued request.  Together
  // with the queued requests it is all the state a resumed replay needs to
  // refire an owed deadline flush at the identical time and batch index.
  double oldest_queued = 0;
  // Decides everything queued, appending one BatchRecord.
  const auto flush = [&](double flush_time) {
    METIS_SPAN("online.batch");
    BatchRecord rec;
    rec.batch = static_cast<int>(result.batches.size());
    rec.arrivals = book.pending_count();
    rec.flush_time = flush_time;
    const telemetry::Stopwatch decide_timer;
    // Index-addressed per-batch stream: the draw sequence of batch b does
    // not depend on how many batches preceded it, so sweeps over batch
    // sizes stay deterministic for any thread count.
    Rng rng =
        Rng(config_.base.seed).split(static_cast<std::uint64_t>(rec.batch));
    const int accepted_before = book.accepted_count();
    const core::MetisResult decided = book.decide_pending(rng);
    // Net change: a shed inside the decide can make this negative.
    rec.accepted = book.accepted_count() - accepted_before;
    rec.profit = book.net_profit();
    rec.lp_stats = decided.lp_stats;
    rec.decide_ms = decide_timer.ms();
    telemetry::observe("online.decide_ms", rec.decide_ms);
    telemetry::count("online.batches");
    telemetry::gauge_set("online.profit", rec.profit);
    result.batches.push_back(std::move(rec));
  };
  // The flush owed before an item at `time` advances the clock: the oldest
  // queued request must not wait past max_batch_delay.  The clock only
  // advances on items, so the flush fires *before* the item that reveals
  // the deadline passed.
  const auto deadline_flush_before = [&](double time) {
    if (book.pending_count() > 0 && config_.max_batch_delay > 0 &&
        time > oldest_queued + config_.max_batch_delay) {
      flush(oldest_queued + config_.max_batch_delay);
    }
  };
  // Call before queueing an arrival at `time`: a previously empty queue
  // restarts the deadline clock.
  const auto note_arrival = [&](double time) {
    if (book.pending_count() == 0) oldest_queued = time;
  };

  // Merged replay: both arrivals and fault events advance the clock.
  std::size_t next_event = 0;
  int repair_index = 0;
  int surge_index = 0;

  // --- checkpoint/resume ------------------------------------------------
  const std::uint64_t fingerprint = config_fingerprint();
  std::size_t start_arrival = 0;
  double resumed_boundary = 0;
  if (!config_.resume_path.empty()) {
    const persist::OnlineCheckpoint ckpt =
        load_resume(config_.resume_path, fingerprint);
    if (ckpt.next_arrival > stream.size() ||
        ckpt.next_fault_event > events.size()) {
      throw std::runtime_error(
          "online resume: snapshot cursors exceed the derived streams (" +
          std::to_string(ckpt.next_arrival) + "/" +
          std::to_string(stream.size()) + " arrivals, " +
          std::to_string(ckpt.next_fault_event) + "/" +
          std::to_string(events.size()) + " fault events)");
    }
    book.restore_state(ckpt);
    result.batches = from_batch_states(ckpt.batches);
    result.total_arrivals = ckpt.total_arrivals;  // includes surge extras
    next_event = static_cast<std::size_t>(ckpt.next_fault_event);
    repair_index = static_cast<int>(ckpt.repair_index);
    surge_index = static_cast<int>(ckpt.surge_index);
    oldest_queued = ckpt.oldest_queued;
    start_arrival = static_cast<std::size_t>(ckpt.next_arrival);
    resumed_boundary = ckpt.boundary_time;
  }
  const bool checkpointing =
      config_.checkpoint_every > 0 && !config_.checkpoint_path.empty();
  int next_boundary = config_.checkpoint_every;
  while (checkpointing && next_boundary <= resumed_boundary) {
    next_boundary += config_.checkpoint_every;
  }
  std::size_t arrivals_consumed = start_arrival;
  // Writes every boundary <= `upcoming` still owed.  Called *before* the
  // item (arrival or fault event) at `upcoming` fires — and before any
  // deadline flush it reveals — so the snapshot holds exactly the items
  // with time < boundary (an owed flush refires identically after resume:
  // the queue and the deadline clock are both in the snapshot).
  const auto maybe_checkpoint = [&](double upcoming) {
    if (!checkpointing) return;
    while (next_boundary < num_slots && upcoming >= next_boundary) {
      persist::OnlineCheckpoint ckpt;
      ckpt.config_fingerprint = fingerprint;
      ckpt.next_arrival = arrivals_consumed;
      ckpt.next_fault_event = next_event;
      ckpt.repair_index = repair_index;
      ckpt.surge_index = surge_index;
      ckpt.oldest_queued = oldest_queued;
      ckpt.total_arrivals = result.total_arrivals;
      ckpt.total_accepted = book.accepted_count();
      ckpt.batches = to_batch_states(result.batches);
      book.export_state(ckpt);
      write_checkpoint(config_, ckpt, next_boundary);
      next_boundary += config_.checkpoint_every;
    }
  };

  const auto fire = [&](const FaultEvent& event) {
    if (event.kind == FaultKind::DemandSurge) {
      Rng surge_rng = Rng(config_.base.seed)
                          .split(kSurgeStream)
                          .split(static_cast<std::uint64_t>(surge_index++));
      book.inject(event, surge_rng);  // stats only; no topology change
      if (event.surge_arrivals <= 0) return;
      const int slot =
          std::min(static_cast<int>(std::floor(event.time)), num_slots - 1);
      const std::vector<workload::Request> extra =
          generator.generate_at(slot, event.surge_arrivals, surge_rng);
      note_arrival(event.time);
      for (const workload::Request& r : extra) book.add_pending(r);
      result.total_arrivals += static_cast<int>(extra.size());
      if (book.pending_count() >= config_.batch_size) flush(event.time);
      return;
    }
    // One repair stream index per network event whether or not a repair
    // decide runs — index-addressed, so later draws never shift.
    Rng repair_rng = Rng(config_.base.seed)
                         .split(kRepairStream)
                         .split(static_cast<std::uint64_t>(repair_index++));
    book.inject(event, repair_rng);
  };
  const auto advance_to = [&](double time) {
    while (next_event < events.size() && events[next_event].time <= time) {
      maybe_checkpoint(events[next_event].time);
      deadline_flush_before(events[next_event].time);
      fire(events[next_event]);
      ++next_event;
    }
    maybe_checkpoint(time);
    deadline_flush_before(time);
  };

  for (std::size_t i = start_arrival; i < stream.size(); ++i) {
    const workload::Arrival& a = stream[i];
    advance_to(a.arrival_time);
    note_arrival(a.arrival_time);
    book.add_pending(a.request);
    arrivals_consumed = i + 1;
    if (book.pending_count() >= config_.batch_size) flush(a.arrival_time);
  }
  advance_to(static_cast<double>(num_slots));
  // End of cycle: whatever is still queued gets decided at the cycle edge.
  if (book.pending_count() > 0) flush(static_cast<double>(num_slots));

  // The survivability contract: the final book must be feasible on the
  // (possibly mutated) network — reservations only on live edges,
  // purchases within capacities, schedule covered by the plan.
  const std::vector<std::string> violations = book.validate();
  if (!violations.empty()) {
    throw std::runtime_error("online replay: committed book invalid: " +
                             violations.front());
  }

  result.total_accepted = book.accepted_count();
  result.fault_book = book.requests();
  result.fault_paths = book.reserved_paths();
  const core::SpmInstance pristine(topo, result.fault_book,
                                   config_.base.instance, nullptr,
                                   &result.fault_paths);
  result.schedule = reserved_schedule(pristine, result.fault_paths);
  result.plan = book.plan();
  result.profit = book.evaluate();
  result.refunds = book.refunds();
  result.net_profit = book.net_profit();
  result.fault_stats = book.stats();
  result.lp_stats = book.lp_stats();
  result.path_cache_hits = book.path_cache_hits();
  result.path_cache_misses = book.path_cache_misses();
  result.path_cache_stale = book.path_cache_stale();
  telemetry::gauge_set("online.profit", result.net_profit);
  return result;
}

}  // namespace metis::sim
