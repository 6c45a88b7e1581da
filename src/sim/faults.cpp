#include "sim/faults.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "sim/validate.h"
#include "util/telemetry.h"
#include "workload/request.h"

namespace metis::sim {

std::string to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::LinkFailure: return "link_failure";
    case FaultKind::LinkDegrade: return "link_degrade";
    case FaultKind::NodeOutage: return "node_outage";
    case FaultKind::PriceShock: return "price_shock";
    case FaultKind::DemandSurge: return "demand_surge";
  }
  return "unknown";
}

std::string to_string(RepairPolicy policy) {
  switch (policy) {
    case RepairPolicy::DropAffected: return "drop";
    case RepairPolicy::Reroute: return "reroute";
  }
  return "unknown";
}

void mix_fault_config(serialize::Fingerprint& fp, const FaultConfig& faults,
                      RepairPolicy policy, double refund_factor,
                      int max_shed_rounds) {
  fp.mix(faults.rate);
  fp.mix(faults.weight_link_failure);
  fp.mix(faults.weight_link_degrade);
  fp.mix(faults.weight_node_outage);
  fp.mix(faults.weight_price_shock);
  fp.mix(faults.weight_demand_surge);
  fp.mix(faults.degrade_keep_min);
  fp.mix(faults.degrade_keep_max);
  fp.mix(faults.price_shock_min);
  fp.mix(faults.price_shock_max);
  fp.mix(faults.surge_mean);
  fp.mix(faults.stream);
  fp.mix(to_string(policy));
  fp.mix(refund_factor);
  fp.mix(max_shed_rounds);
}

RepairPolicy parse_repair_policy(const std::string& name) {
  if (name == "drop") return RepairPolicy::DropAffected;
  if (name == "reroute") return RepairPolicy::Reroute;
  throw std::invalid_argument("unknown repair policy: " + name +
                              " (expected drop|reroute)");
}

std::vector<FaultEvent> generate_fault_events(const FaultConfig& config,
                                              const net::Topology& topo,
                                              int num_slots, const Rng& base) {
  if (config.rate < 0) {
    throw std::invalid_argument("FaultConfig: rate must be >= 0");
  }
  if (config.weight_link_failure < 0 || config.weight_link_degrade < 0 ||
      config.weight_node_outage < 0 || config.weight_price_shock < 0 ||
      config.weight_demand_surge < 0) {
    throw std::invalid_argument("FaultConfig: negative kind weight");
  }
  if (config.degrade_keep_min <= 0 ||
      config.degrade_keep_min > config.degrade_keep_max ||
      config.degrade_keep_max >= 1) {
    throw std::invalid_argument(
        "FaultConfig: degrade keep range must satisfy 0 < min <= max < 1");
  }
  if (config.price_shock_min < 1 ||
      config.price_shock_min > config.price_shock_max) {
    throw std::invalid_argument(
        "FaultConfig: price shock range must satisfy 1 <= min <= max");
  }
  if (config.surge_mean < 0) {
    throw std::invalid_argument("FaultConfig: surge_mean must be >= 0");
  }
  if (num_slots <= 0) {
    throw std::invalid_argument("generate_fault_events: num_slots must be > 0");
  }
  if (config.rate == 0) return {};
  const double weights[] = {config.weight_link_failure,
                            config.weight_link_degrade,
                            config.weight_node_outage,
                            config.weight_price_shock,
                            config.weight_demand_surge};
  double weight_sum = 0;
  for (double w : weights) weight_sum += w;
  if (weight_sum <= 0) {
    throw std::invalid_argument("FaultConfig: kind weights sum to zero");
  }
  if (topo.num_edges() == 0) {
    throw std::invalid_argument("generate_fault_events: topology has no edges");
  }

  std::vector<FaultEvent> out;
  const Rng stream = base.split(config.stream);
  for (int slot = 0; slot < num_slots; ++slot) {
    // Index-addressed per-slot sub-stream: slot s's events never depend on
    // how many events earlier slots produced.
    Rng slot_rng = stream.split(static_cast<std::uint64_t>(slot));
    const int count = slot_rng.poisson(config.rate);
    for (int i = 0; i < count; ++i) {
      FaultEvent event;
      event.time = slot + slot_rng.uniform(0.0, 1.0);
      event.kind = static_cast<FaultKind>(slot_rng.weighted_index(weights));
      switch (event.kind) {
        case FaultKind::LinkFailure:
          event.target = slot_rng.uniform_int(0, topo.num_edges() - 1);
          break;
        case FaultKind::LinkDegrade:
          event.target = slot_rng.uniform_int(0, topo.num_edges() - 1);
          event.magnitude =
              slot_rng.uniform(config.degrade_keep_min, config.degrade_keep_max);
          break;
        case FaultKind::NodeOutage:
          event.target = slot_rng.uniform_int(0, topo.num_nodes() - 1);
          break;
        case FaultKind::PriceShock:
          event.target = slot_rng.uniform_int(0, topo.num_edges() - 1);
          event.magnitude =
              slot_rng.uniform(config.price_shock_min, config.price_shock_max);
          break;
        case FaultKind::DemandSurge:
          event.surge_arrivals =
              config.surge_mean > 0 ? slot_rng.poisson(config.surge_mean) : 0;
          break;
      }
      out.push_back(event);
    }
  }
  // Within a slot timestamps are i.i.d. uniform; stable_sort keeps the
  // generation order on ties, so the stream is fully deterministic.
  std::stable_sort(out.begin(), out.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.time < b.time;
                   });
  return out;
}

std::vector<int> effective_caps(const net::Topology& topo) {
  std::vector<int> caps(topo.num_edges(), -1);
  for (net::EdgeId e = 0; e < topo.num_edges(); ++e) {
    if (!topo.edge_enabled(e)) {
      caps[e] = 0;  // a dead link sells zero units
    } else if (topo.edge(e).capacity_units > 0) {
      caps[e] = topo.edge(e).capacity_units;
    }
  }
  return caps;
}

core::Schedule reserved_schedule(const core::SpmInstance& instance,
                                 const std::vector<net::Path>& paths) {
  core::Schedule schedule =
      core::Schedule::all_declined(instance.num_requests());
  for (int i = 0; i < instance.num_requests(); ++i) {
    if (paths[i].empty()) continue;
    const std::vector<net::Path>& candidates = instance.paths(i);
    schedule.path_choice[i] = static_cast<int>(
        std::find(candidates.begin(), candidates.end(), paths[i]) -
        candidates.begin());
  }
  return schedule;
}

CommittedBook::CommittedBook(net::Topology topo, core::InstanceConfig config,
                             RepairConfig repair)
    : topo_(std::move(topo)),
      config_(config),
      repair_(std::move(repair)),
      cache_(topo_) {
  if (repair_.refund_factor < 0) {
    throw std::invalid_argument("RepairConfig: refund_factor must be >= 0");
  }
  if (repair_.max_shed_rounds < 0) {
    throw std::invalid_argument("RepairConfig: max_shed_rounds must be >= 0");
  }
  if (repair_.metis.edge_capacity != nullptr) {
    throw std::invalid_argument(
        "RepairConfig: metis.edge_capacity is owned by the book; leave null");
  }
}

int CommittedBook::add_pending(const workload::Request& request) {
  workload::validate_request(request, topo_.num_nodes(), config_.num_slots);
  Entry entry;
  entry.request = request;
  entries_.push_back(std::move(entry));
  return static_cast<int>(entries_.size()) - 1;
}

int CommittedBook::pending_count() const {
  int pending = 0;
  for (const Entry& e : entries_) pending += e.status == Status::Pending;
  return pending;
}

int CommittedBook::accepted_count() const {
  int accepted = 0;
  for (const Entry& e : entries_) accepted += e.status == Status::Accepted;
  return accepted;
}

void CommittedBook::adopt(const core::SpmInstance& instance,
                          const core::Schedule& schedule) {
  if (!entries_.empty()) {
    throw std::logic_error("CommittedBook::adopt: book is not empty");
  }
  core::validate_shape(instance, schedule);
  entries_.reserve(instance.num_requests());
  for (int i = 0; i < instance.num_requests(); ++i) {
    Entry entry;
    entry.request = instance.request(i);
    const int j = schedule.path_choice[i];
    if (j != core::kDeclined) {
      entry.status = Status::Accepted;
      entry.path = instance.paths(i)[j];
      entry.was_committed = true;
    } else {
      entry.status = Status::Declined;
    }
    entries_.push_back(std::move(entry));
  }
}

core::LoadMatrix CommittedBook::accepted_loads() const {
  core::LoadMatrix loads(topo_.num_edges(), config_.num_slots);
  for (const Entry& e : entries_) {
    if (e.status != Status::Accepted) continue;
    for (net::EdgeId edge : e.path.edges) {
      for (int t = e.request.start_slot; t <= e.request.end_slot; ++t) {
        loads.add(edge, t, e.request.rate);
      }
    }
  }
  return loads;
}

void CommittedBook::drop_entry(std::size_t idx) {
  Entry& entry = entries_.at(idx);
  if (entry.status == Status::Declined) return;
  if (entry.was_committed) {
    // Revoking a commitment breaches the SLA: pay the refund.
    refunds_.charge(entry.request.value, repair_.refund_factor);
    ++stats_.dropped;
    telemetry::count("fault.drops");
  }
  entry.status = Status::Declined;
  entry.path.edges.clear();
}

int CommittedBook::shed_lowest_value(int count) {
  int shed = 0;
  while (shed < count) {
    std::size_t worst = entries_.size();
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (entries_[i].status != Status::Accepted) continue;
      if (worst == entries_.size() ||
          entries_[i].request.value < entries_[worst].request.value) {
        worst = i;
      }
    }
    if (worst == entries_.size()) break;  // nothing left to shed
    drop_entry(worst);
    ++shed;
  }
  return shed;
}

void CommittedBook::enforce_capacity() {
  // Hard guarantee behind the LP caps: randomized rounding may overshoot
  // the relaxation's purchase ceilings, so after every decide the book is
  // shed (lowest value first, deterministic index tie-break) until its
  // charged load physically fits the mutated network.
  bool changed = true;
  while (changed) {
    changed = false;
    const core::LoadMatrix loads = accepted_loads();
    for (net::EdgeId e = 0; e < topo_.num_edges() && !changed; ++e) {
      const int charged = core::charged_units(loads.peak(e));
      if (charged <= 0) continue;
      const int cap = topo_.edge(e).capacity_units;
      const bool violated =
          !topo_.edge_enabled(e) || (cap > 0 && charged > cap);
      if (!violated) continue;
      std::size_t worst = entries_.size();
      for (std::size_t i = 0; i < entries_.size(); ++i) {
        const Entry& entry = entries_[i];
        if (entry.status != Status::Accepted) continue;
        if (std::find(entry.path.edges.begin(), entry.path.edges.end(), e) ==
            entry.path.edges.end()) {
          continue;
        }
        if (worst == entries_.size() ||
            entry.request.value < entries_[worst].request.value) {
          worst = i;
        }
      }
      if (worst == entries_.size()) break;  // defensive: no user found
      drop_entry(worst);
      changed = true;  // loads changed; recompute from scratch
    }
  }
}

CommittedBook::Attempt CommittedBook::attempt_decide(Rng& rng) {
  Attempt attempt;
  std::vector<workload::Request> book;
  std::vector<net::Path> require;
  // Pinned prefix: committed survivors, each with its reserved path forced
  // into the candidate set (Yen over the mutated topology may rank — or
  // miss — it).
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].status != Status::Accepted) continue;
    attempt.entry_of.push_back(i);
    book.push_back(entries_[i].request);
    require.push_back(entries_[i].path);
  }
  attempt.num_committed = static_cast<int>(book.size());
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].status != Status::Pending) continue;
    attempt.entry_of.push_back(i);
    book.push_back(entries_[i].request);
    require.emplace_back();
  }

  core::SpmInstance instance(topo_, book, config_, &cache_, &require);
  const std::vector<int> choice =
      reserved_schedule(instance, require).path_choice;
  core::IncrementalState state;
  state.committed.assign(choice.begin(),
                         choice.begin() + attempt.num_committed);

  const std::vector<int> caps = effective_caps(topo_);
  core::MetisOptions options = repair_.metis;
  options.edge_capacity = &caps;
  attempt.result = core::run_metis_incremental(instance, state, rng, options);
  lp_stats_ += attempt.result.lp_stats;

  attempt.chosen_path.resize(book.size());
  for (std::size_t k = 0; k < book.size(); ++k) {
    const int j = attempt.result.schedule.path_choice[k];
    if (j != core::kDeclined) attempt.chosen_path[k] = instance.paths(k)[j];
  }
  return attempt;
}

core::MetisResult CommittedBook::decide_pending(Rng& rng) {
  // Pending requests the mutated WAN can no longer connect are declined
  // up-front (SpmInstance would reject the whole book otherwise); a victim
  // that became unreachable is a drop with refund.
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    Entry& entry = entries_[i];
    if (entry.status != Status::Pending) continue;
    const bool connected =
        topo_.node_enabled(entry.request.src) &&
        topo_.node_enabled(entry.request.dst) &&
        net::shortest_path(topo_, entry.request.src, entry.request.dst)
            .has_value();
    if (!connected) drop_entry(i);
  }

  Attempt attempt = attempt_decide(rng);
  // Infeasible repair: bounded exponential backoff — shed the 1, 2, 4, ...
  // lowest-value commitments and re-solve.  Shedding strictly shrinks the
  // pinned load, so a feasible point is reached (at the latest with an
  // empty pinned set) or the round bound trips.
  int shed = 1;
  for (int round = 0; round < repair_.max_shed_rounds; ++round) {
    const bool infeasible =
        attempt.result.maa_status == lp::SolveStatus::Infeasible ||
        attempt.result.taa_status == lp::SolveStatus::Infeasible;
    if (!infeasible) break;
    if (shed_lowest_value(shed) == 0) break;
    ++stats_.shed_rounds;
    telemetry::count("fault.shed_rounds");
    shed *= 2;
    attempt = attempt_decide(rng);
  }

  // Finalize the free decisions: accepted joins the committed book on its
  // concrete path, declined is final (a declined victim is a drop).
  for (std::size_t k = attempt.num_committed; k < attempt.entry_of.size();
       ++k) {
    Entry& entry = entries_[attempt.entry_of[k]];
    if (!attempt.chosen_path[k].empty()) {
      entry.status = Status::Accepted;
      entry.path = attempt.chosen_path[k];
      if (entry.was_committed) ++stats_.rerouted;
    } else {
      drop_entry(attempt.entry_of[k]);
    }
  }
  enforce_capacity();
  for (Entry& entry : entries_) {
    if (entry.status == Status::Accepted) entry.was_committed = true;
  }
  return std::move(attempt.result);
}

bool CommittedBook::inject(const FaultEvent& event, Rng& rng) {
  METIS_SPAN("fault.inject");
  ++stats_.injected;
  telemetry::count("fault.events");

  if (event.kind == FaultKind::DemandSurge) {
    // The caller owns the workload generator and expands the surge into
    // add_pending() + decide_pending(); the book only keeps score.
    stats_.surge_arrivals += event.surge_arrivals;
    return false;
  }

  const auto require_edge = [&](int target) {
    if (target < 0 || target >= topo_.num_edges()) {
      throw std::invalid_argument("FaultEvent: edge target out of range");
    }
  };

  bool changed = false;
  std::vector<std::size_t> victims;
  const auto users_of = [&](net::EdgeId e, std::vector<std::size_t>& out) {
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Entry& entry = entries_[i];
      if (entry.status != Status::Accepted) continue;
      if (std::find(entry.path.edges.begin(), entry.path.edges.end(), e) !=
          entry.path.edges.end()) {
        if (std::find(out.begin(), out.end(), i) == out.end()) out.push_back(i);
      }
    }
  };

  switch (event.kind) {
    case FaultKind::LinkFailure: {
      require_edge(event.target);
      if (topo_.edge_enabled(event.target)) {
        users_of(event.target, victims);
        topo_.disable_edge(event.target);
        changed = true;
      }
      break;
    }
    case FaultKind::NodeOutage: {
      if (!topo_.valid_node(event.target)) {
        throw std::invalid_argument("FaultEvent: node target out of range");
      }
      if (topo_.node_enabled(event.target)) {
        for (net::EdgeId e = 0; e < topo_.num_edges(); ++e) {
          const net::Edge& edge = topo_.edge(e);
          if (edge.enabled &&
              (edge.src == event.target || edge.dst == event.target)) {
            users_of(e, victims);
          }
        }
        topo_.disable_node(event.target);
        changed = true;
      }
      break;
    }
    case FaultKind::LinkDegrade: {
      require_edge(event.target);
      if (!topo_.edge_enabled(event.target)) break;
      const net::EdgeId e = event.target;
      const int committed =
          core::charged_units(accepted_loads().peak(e));
      // Base for the shrink: the configured link capacity, or — on an
      // uncapacitated link — the capacity the committed load implies.  An
      // idle uncapacitated link has no observable base and nothing to
      // degrade.
      const int base =
          topo_.edge(e).capacity_units > 0 ? topo_.edge(e).capacity_units
                                           : committed;
      if (base <= 0) break;
      const int new_cap = std::max(
          1, static_cast<int>(std::floor(base * event.magnitude)));
      if (topo_.edge(e).capacity_units > 0 &&
          new_cap >= topo_.edge(e).capacity_units) {
        break;  // rounding left nothing to shrink
      }
      topo_.override_capacity(e, new_cap);
      changed = true;
      // Victims: lowest-value users of the shrunk edge until the committed
      // charge fits the new capacity.
      while (core::charged_units(accepted_loads().peak(e)) > new_cap) {
        std::vector<std::size_t> users;
        users_of(e, users);
        if (users.empty()) break;
        std::size_t worst = users.front();
        for (std::size_t i : users) {
          if (entries_[i].request.value < entries_[worst].request.value) {
            worst = i;
          }
        }
        victims.push_back(worst);
        // Take the victim off the edge now so the loop converges; the
        // policy pass below decides drop vs re-queue.
        entries_[worst].status = Status::Pending;
        entries_[worst].path.edges.clear();
      }
      break;
    }
    case FaultKind::PriceShock: {
      require_edge(event.target);
      topo_.set_price(event.target,
                      topo_.edge(event.target).price * event.magnitude);
      changed = true;  // future purchases are repriced; nothing to shed
      break;
    }
    case FaultKind::DemandSurge:
      break;  // handled above
  }

  if (!changed) return false;
  ++stats_.network_changes;

  // Victim disposition: the naive policy refunds everyone immediately; the
  // reroute policy re-queues victims into the repair decide (a victim whose
  // endpoint DC died can never reroute and is dropped either way).
  stats_.victims += static_cast<int>(victims.size());
  for (std::size_t idx : victims) {
    Entry& entry = entries_[idx];
    const bool endpoint_dead = !topo_.node_enabled(entry.request.src) ||
                               !topo_.node_enabled(entry.request.dst);
    if (repair_.policy == RepairPolicy::DropAffected || endpoint_dead) {
      drop_entry(idx);
    } else {
      entry.status = Status::Pending;
      entry.path.edges.clear();
    }
  }

  // Repair re-decide: only needed when something is waiting for a decision
  // (re-queued victims or pending arrivals); pinned survivors and the
  // derived purchase plan adjust by themselves.
  if (pending_count() > 0) {
    METIS_SPAN("fault.repair");
    const telemetry::Stopwatch repair_timer;
    ++stats_.repairs;
    decide_pending(rng);
    telemetry::observe("fault.repair_ms", repair_timer.ms());
  } else {
    enforce_capacity();
  }
  telemetry::gauge_set("fault.refunds", refunds_.refunded);
  telemetry::gauge_set("fault.dropped", stats_.dropped);
  telemetry::gauge_set("fault.rerouted", stats_.rerouted);
  return true;
}

core::ProfitBreakdown CommittedBook::evaluate() const {
  core::ProfitBreakdown pb;
  for (const Entry& entry : entries_) {
    if (entry.status != Status::Accepted) continue;
    pb.revenue += entry.request.value;
    ++pb.accepted;
  }
  pb.cost = core::cost(topo_, plan());
  pb.profit = pb.revenue - pb.cost;
  return pb;
}

double CommittedBook::net_profit() const {
  return evaluate().profit - refunds_.refunded;
}

std::vector<workload::Request> CommittedBook::requests() const {
  std::vector<workload::Request> out;
  out.reserve(entries_.size());
  for (const Entry& entry : entries_) out.push_back(entry.request);
  return out;
}

std::vector<net::Path> CommittedBook::reserved_paths() const {
  std::vector<net::Path> out;
  out.reserve(entries_.size());
  for (const Entry& entry : entries_) {
    out.push_back(entry.status == Status::Accepted ? entry.path : net::Path{});
  }
  return out;
}

core::ChargingPlan CommittedBook::plan() const {
  return core::charging_from_loads(accepted_loads());
}

std::vector<std::string> CommittedBook::validate() const {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& entry = entries_[i];
    if (entry.status != Status::Accepted) continue;
    for (net::EdgeId e : entry.path.edges) {
      if (!topo_.edge_enabled(e)) {
        out.push_back("request " + std::to_string(i) +
                      ": reserved path crosses disabled edge " +
                      std::to_string(e));
      }
    }
  }
  const core::ChargingPlan purchase = plan();
  for (std::string& v : check_plan_within_capacity(topo_, purchase)) {
    out.push_back(std::move(v));
  }
  if (!out.empty()) return out;

  // Rebuild the compact accepted instance and run the standard oracles:
  // the repaired schedule must pass check_schedule under the mutated
  // topology, and the purchase must cover it.
  std::vector<workload::Request> book;
  std::vector<net::Path> require;
  for (const Entry& entry : entries_) {
    if (entry.status != Status::Accepted) continue;
    book.push_back(entry.request);
    require.push_back(entry.path);
  }
  if (book.empty()) return out;
  const core::SpmInstance instance(topo_, book, config_, nullptr, &require);
  const core::Schedule schedule = reserved_schedule(instance, require);
  for (std::string& v : check_schedule(instance, schedule, purchase)) {
    out.push_back(std::move(v));
  }
  for (std::string& v :
       check_plan_covers_schedule(instance, schedule, purchase)) {
    out.push_back(std::move(v));
  }
  return out;
}

void CommittedBook::export_state(persist::OnlineCheckpoint& ckpt) const {
  ckpt.entries.clear();
  ckpt.entries.reserve(entries_.size());
  for (const Entry& e : entries_) {
    persist::BookEntryState image;
    image.request = e.request;
    image.status = static_cast<int>(e.status);
    image.path = e.path;
    image.was_committed = e.was_committed;
    ckpt.entries.push_back(std::move(image));
  }
  persist::TopologyState& t = ckpt.topology;
  t.price.clear();
  t.capacity_units.clear();
  t.edge_enabled.clear();
  for (const net::Edge& edge : topo_.edges()) {
    t.price.push_back(edge.price);
    t.capacity_units.push_back(edge.capacity_units);
    t.edge_enabled.push_back(edge.enabled ? 1 : 0);
  }
  t.node_enabled.clear();
  for (net::NodeId node = 0; node < topo_.num_nodes(); ++node) {
    t.node_enabled.push_back(topo_.node_enabled(node) ? 1 : 0);
  }
  t.epoch = topo_.epoch();
  ckpt.refunds = refunds_;
  ckpt.fault_stats = {stats_.injected,  stats_.network_changes,
                      stats_.repairs,   stats_.victims,
                      stats_.dropped,   stats_.rerouted,
                      stats_.shed_rounds, stats_.surge_arrivals};
  ckpt.book_lp_stats = lp_stats_;
  ckpt.cache = cache_.dump();
}

void CommittedBook::restore_state(const persist::OnlineCheckpoint& ckpt) {
  // Check the image against this book's topology before changing anything:
  // a bad image throws std::invalid_argument and leaves the book as it was.
  const auto reject = [](const std::string& why) {
    throw std::invalid_argument("CommittedBook::restore_state: " + why);
  };
  const persist::TopologyState& t = ckpt.topology;
  const std::size_t num_edges = topo_.edges().size();
  if (t.price.size() != num_edges || t.capacity_units.size() != num_edges ||
      t.edge_enabled.size() != num_edges ||
      t.node_enabled.size() != static_cast<std::size_t>(topo_.num_nodes())) {
    reject("topology image does not fit the book's " +
           std::to_string(num_edges) + " edges and " +
           std::to_string(topo_.num_nodes()) + " nodes");
  }
  for (std::size_t i = 0; i < ckpt.entries.size(); ++i) {
    const persist::BookEntryState& image = ckpt.entries[i];
    workload::validate_request(image.request, topo_.num_nodes(),
                               config_.num_slots);
    if (image.status < 0 || image.status > 2) {
      reject("entry " + std::to_string(i) + " status out of range");
    }
    const bool accepted = image.status == static_cast<int>(Status::Accepted);
    if (accepted ? !net::is_simple_path(topo_, image.path, image.request.src,
                                        image.request.dst)
                 : !image.path.empty()) {
      reject("entry " + std::to_string(i) +
             (accepted ? " is accepted without a simple src->dst path"
                       : " holds a path but is not accepted"));
    }
  }

  // The topology setters reject negative prices and capacities, and the
  // cache rejects a future epoch or a bad cached path; undo the topology if
  // either throws.
  const net::Topology pristine = topo_;
  try {
    for (net::EdgeId e = 0; e < topo_.num_edges(); ++e) {
      topo_.restore_edge_state(e, t.price[e], t.capacity_units[e],
                               t.edge_enabled[e] != 0);
    }
    for (net::NodeId node = 0; node < topo_.num_nodes(); ++node) {
      topo_.restore_node_state(node, t.node_enabled[node] != 0);
    }
    topo_.restore_epoch(t.epoch);
    cache_.restore(ckpt.cache);
  } catch (...) {
    topo_ = pristine;
    throw;
  }

  entries_.clear();
  entries_.reserve(ckpt.entries.size());
  for (const persist::BookEntryState& image : ckpt.entries) {
    entries_.push_back(Entry{image.request, static_cast<Status>(image.status),
                             image.path, image.was_committed});
  }
  refunds_ = ckpt.refunds;
  stats_ = FaultStats{ckpt.fault_stats.injected,
                      ckpt.fault_stats.network_changes,
                      ckpt.fault_stats.repairs,
                      ckpt.fault_stats.victims,
                      ckpt.fault_stats.dropped,
                      ckpt.fault_stats.rerouted,
                      ckpt.fault_stats.shed_rounds,
                      ckpt.fault_stats.surge_arrivals};
  lp_stats_ = ckpt.book_lp_stats;
}

}  // namespace metis::sim
