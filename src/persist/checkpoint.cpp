#include "persist/checkpoint.h"

#include <concepts>
#include <ostream>
#include <type_traits>
#include <utility>

#include "util/json.h"

namespace metis::persist {

namespace {

using serialize::ByteReader;
using serialize::ByteWriter;

// --- one field list per record --------------------------------------------
// Each record's wire layout is written once, as a `fields(io, record)`
// overload that names its fields in wire order.  `io` is an Encoder, which
// appends each field, or a Decoder, which fills it, so the two directions
// cannot drift apart.  A field's C++ type picks its wire width (see
// Encoder::put).

/// Matches R and const R: one field list serves the encoder's const
/// records and the decoder's mutable ones.
template <typename T, typename R>
concept Is = std::same_as<std::remove_const_t<T>, R>;

void fields(auto& io, Is<workload::Request> auto& q) {
  io(q.src, q.dst, q.start_slot, q.end_slot, q.rate, q.value);
}

void fields(auto& io, Is<net::Path> auto& p) { io(p.edges); }

void fields(auto& io, Is<lp::SolveStats> auto& s) {
  io(s.iterations, s.factorizations, s.presolve_removed_rows,
     s.presolve_removed_cols, s.warm_starts, s.cold_starts, s.pricing_passes,
     s.partial_hits, s.full_fallbacks, s.basis_repairs, s.solve_seconds);
}

void fields(auto& io, Is<core::ProfitBreakdown> auto& p) {
  io(p.revenue, p.cost, p.profit, p.accepted);
}

void fields(auto& io, Is<core::RefundLedger> auto& r) {
  io(r.refunded, r.drops);
}

void fields(auto& io, Is<FaultStatsImage> auto& s) {
  io(s.injected, s.network_changes, s.repairs, s.victims, s.dropped,
     s.rerouted, s.shed_rounds, s.surge_arrivals);
}

void fields(auto& io, Is<telemetry::SpanStats> auto& s) {
  io(s.count, s.total_seconds, s.min_seconds, s.max_seconds);
}

void fields(auto& io,
            Is<telemetry::MetricsSnapshot::HistogramImage> auto& h) {
  io(h.name, h.bounds, h.samples);
}

void fields(auto& io, Is<telemetry::MetricsSnapshot> auto& m) {
  io(m.counters, m.gauges, m.histograms, m.spans);
}

void fields(auto& io, Is<net::PathCache::Dump::Entry> auto& e) {
  io(e.src, e.dst, e.k, e.metric, e.paths);
}

void fields(auto& io, Is<net::PathCache::Dump> auto& d) {
  io(d.entries, d.epoch, d.hits, d.misses, d.stale);
}

void fields(auto& io, Is<TopologyState> auto& t) {
  io(t.price, t.capacity_units, t.edge_enabled, t.node_enabled, t.epoch);
}

void fields(auto& io, Is<BatchState> auto& b) {
  io(b.batch, b.arrivals, b.flush_time, b.accepted, b.profit, b.decide_ms,
     b.lp_stats);
}

void fields(auto& io, Is<BookEntryState> auto& e) {
  io(e.request);
  io.enum_byte(e.status, 2, "book entry status");
  io(e.path, e.was_committed);
}

void fields(auto& io, Is<CycleCellState> auto& c) {
  io(c.cycle, c.policy, c.offered_requests, c.result, c.decide_ms, c.refunds,
     c.net_profit, c.fault_stats);
}

// --- one section list per checkpoint kind ---------------------------------
// The kind byte leads the meta section; a decode checks it (require_kind)
// before it reads any section.

void sections(auto& io, Is<OnlineCheckpoint> auto& c) {
  io.section(kSectionMeta, CheckpointKind::Online, c.config_fingerprint,
             c.boundary_time, c.next_arrival, c.next_fault_event,
             c.repair_index, c.surge_index, c.oldest_queued, c.total_arrivals,
             c.total_accepted);
  io.section(kSectionBatches, c.batches);
  io.section(kSectionIncremental, c.slack_start);
  io.section(kSectionEntries, c.entries);
  io.section(kSectionTopology, c.topology);
  io.section(kSectionFaults, c.refunds, c.fault_stats, c.book_lp_stats);
  io.section(kSectionPathCache, c.cache);
  io.section(kSectionTelemetry, c.metrics);
}

void sections(auto& io, Is<MultiCycleCheckpoint> auto& c) {
  io.section(kSectionMeta, CheckpointKind::MultiCycle, c.config_fingerprint,
             c.cycles_done, c.num_policies);
  io.section(kSectionTelemetry, c.metrics);
  io.section(kSectionCells, c.cells);
}

// --- the two directions ---------------------------------------------------

/// Appends each field in list order: int -> i32, long -> i64, uint64 ->
/// u64, double -> f64, uint8 and the enums -> u8, bool -> boolean,
/// string -> str; a vector is a u64 count followed by its elements.
class Encoder {
 public:
  void section(std::uint32_t id, const auto&... values) {
    (*this)(values...);
    writer_.section(id, std::exchange(w_, ByteWriter{}).take());
  }
  void operator()(const auto&... values) { (put(values), ...); }
  void enum_byte(auto v, auto /*max*/, const char* /*what*/) {
    w_.u8(static_cast<std::uint8_t>(v));
  }
  std::vector<std::uint8_t> bytes() const { return writer_.to_bytes(); }

 private:
  void put(int v) { w_.i32(v); }
  void put(std::int64_t v) { w_.i64(v); }
  void put(std::uint64_t v) { w_.u64(v); }
  void put(double v) { w_.f64(v); }
  void put(std::uint8_t v) { w_.u8(v); }
  void put(bool v) { w_.boolean(v); }
  void put(const std::string& v) { w_.str(v); }
  void put(CheckpointKind v) { w_.u8(static_cast<std::uint8_t>(v)); }
  template <typename T>
  void put(const std::vector<T>& v) {
    w_.u64(v.size());
    for (const T& x : v) put(x);
  }
  template <typename A, typename B>
  void put(const std::pair<A, B>& p) {
    put(p.first);
    put(p.second);
  }
  void put(const auto& record) { fields(*this, record); }

  SnapshotWriter writer_;
  ByteWriter w_;  ///< the section being written
};

ByteReader section_reader(const SnapshotReader& reader, std::uint32_t id) {
  const std::vector<std::uint8_t>& payload = reader.section(id);
  return ByteReader(payload.data(), payload.size(),
                    "section " + std::to_string(id) + " (" + section_name(id) +
                        ")");
}

/// Fills each field in list order, the inverse of Encoder.  A vector's
/// count is checked against the bytes left before anything is allocated
/// (ByteReader::length), and every section must be consumed exactly.
class Decoder {
 public:
  explicit Decoder(const SnapshotReader& reader) : reader_(reader) {}

  void section(std::uint32_t id, auto&&... values) {
    r_ = section_reader(reader_, id);
    (*this)(values...);
    r_.expect_done();
  }
  void operator()(auto&... values) { (get(values), ...); }
  template <typename E>
  void enum_byte(E& v, E max, const char* what) {
    const std::uint8_t b = r_.u8();
    if (b > static_cast<std::uint8_t>(max)) {
      r_.fail(std::string(what) + " byte " + std::to_string(b) +
              " out of range");
    }
    v = static_cast<E>(b);
  }

 private:
  void get(int& v) { v = r_.i32(); }
  void get(std::int64_t& v) { v = r_.i64(); }
  void get(std::uint64_t& v) { v = r_.u64(); }
  void get(double& v) { v = r_.f64(); }
  void get(std::uint8_t& v) { v = r_.u8(); }
  void get(bool& v) { v = r_.boolean(); }
  void get(std::string& v) { v = r_.str(); }
  void get(CheckpointKind&) { r_.u8(); }  // checked by require_kind
  template <typename T>
  void get(std::vector<T>& v) {
    const std::uint64_t n = r_.length(r_.u64());
    v.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) get(v.emplace_back());
  }
  template <typename A, typename B>
  void get(std::pair<A, B>& p) {
    get(p.first);
    get(p.second);
  }
  void get(auto& record) { fields(*this, record); }

  const SnapshotReader& reader_;
  ByteReader r_{nullptr, 0};  ///< the section being read
};

CheckpointKind meta_kind(const SnapshotReader& reader) {
  ByteReader r = section_reader(reader, kSectionMeta);
  const std::uint8_t kind = r.u8();
  if (kind != static_cast<std::uint8_t>(CheckpointKind::Online) &&
      kind != static_cast<std::uint8_t>(CheckpointKind::MultiCycle)) {
    throw SnapshotError("snapshot '" + reader.source() +
                        "': unknown checkpoint kind " + std::to_string(kind));
  }
  return static_cast<CheckpointKind>(kind);
}

void require_kind(const SnapshotReader& reader, CheckpointKind expected) {
  const CheckpointKind kind = meta_kind(reader);
  if (kind != expected) {
    const auto name = [](CheckpointKind k) {
      return k == CheckpointKind::Online ? "online" : "multi-cycle";
    };
    throw SnapshotError("snapshot '" + reader.source() + "' is a " +
                        name(kind) + " checkpoint, expected " +
                        name(expected));
  }
}

template <typename Checkpoint>
std::vector<std::uint8_t> encode_sections(const Checkpoint& ckpt) {
  Encoder io;
  sections(io, ckpt);
  return io.bytes();
}

template <typename Checkpoint>
Checkpoint decode_sections(const SnapshotReader& reader, CheckpointKind kind) {
  require_kind(reader, kind);
  Checkpoint ckpt;
  Decoder io(reader);
  sections(io, ckpt);
  return ckpt;
}

template <typename Checkpoint>
void save_impl(const Checkpoint& ckpt, const std::string& path) {
  METIS_SPAN("persist.save");
  const telemetry::Stopwatch timer;
  const std::vector<std::uint8_t> bytes = encode(ckpt);
  write_bytes_atomic(bytes, path);
  telemetry::count("persist.saves");
  telemetry::count("persist.bytes", static_cast<std::int64_t>(bytes.size()));
  telemetry::observe("persist.save_ms", timer.ms());
}

template <typename Decode>
auto load_impl(const std::string& path, Decode decode) {
  METIS_SPAN("persist.load");
  const telemetry::Stopwatch timer;
  auto ckpt = decode(SnapshotReader::from_file(path));
  telemetry::count("persist.loads");
  telemetry::observe("persist.load_ms", timer.ms());
  return ckpt;
}

}  // namespace

std::string section_name(std::uint32_t id) {
  switch (id) {
    case kSectionMeta: return "meta";
    case kSectionBatches: return "batches";
    case kSectionIncremental: return "incremental";
    case kSectionEntries: return "entries";
    case kSectionTopology: return "topology";
    case kSectionFaults: return "faults";
    case kSectionPathCache: return "path_cache";
    case kSectionTelemetry: return "telemetry";
    case kSectionCells: return "cells";
    default: return "unknown";
  }
}

std::vector<std::uint8_t> encode(const OnlineCheckpoint& ckpt) {
  return encode_sections(ckpt);
}

OnlineCheckpoint decode_online(const SnapshotReader& reader) {
  return decode_sections<OnlineCheckpoint>(reader, CheckpointKind::Online);
}

std::vector<std::uint8_t> encode(const MultiCycleCheckpoint& ckpt) {
  return encode_sections(ckpt);
}

MultiCycleCheckpoint decode_multi_cycle(const SnapshotReader& reader) {
  return decode_sections<MultiCycleCheckpoint>(reader,
                                               CheckpointKind::MultiCycle);
}

void save(const OnlineCheckpoint& ckpt, const std::string& path) {
  save_impl(ckpt, path);
}

void save(const MultiCycleCheckpoint& ckpt, const std::string& path) {
  save_impl(ckpt, path);
}

OnlineCheckpoint load_online(const std::string& path) {
  return load_impl(path, decode_online);
}

MultiCycleCheckpoint load_multi_cycle(const std::string& path) {
  return load_impl(path, decode_multi_cycle);
}

CheckpointKind kind_of(const SnapshotReader& reader) {
  return meta_kind(reader);
}

void write_debug_json(const SnapshotReader& reader, std::ostream& os) {
  const CheckpointKind kind = meta_kind(reader);
  os << "{\"kind\":"
     << (kind == CheckpointKind::Online ? "\"online\"" : "\"multi_cycle\"")
     << ",\"version\":" << kSnapshotVersion << ",\"sections\":[";
  bool first = true;
  for (std::uint32_t id : reader.section_ids()) {
    if (!first) os << ',';
    first = false;
    const std::vector<std::uint8_t>& payload = reader.section(id);
    os << "{\"id\":" << id << ",\"name\":";
    json::write_escaped(os, section_name(id));
    os << ",\"bytes\":" << payload.size() << ",\"crc32\":"
       << serialize::crc32(payload) << '}';
  }
  os << "],";
  if (kind == CheckpointKind::Online) {
    const OnlineCheckpoint ckpt = decode_online(reader);
    os << "\"meta\":{\"config_fingerprint\":\""
       << serialize::hex_fingerprint(ckpt.config_fingerprint)
       << "\",\"boundary_time\":";
    json::write_number(os, ckpt.boundary_time);
    os << ",\"next_arrival\":" << ckpt.next_arrival
       << ",\"next_fault_event\":" << ckpt.next_fault_event
       << ",\"repair_index\":" << ckpt.repair_index
       << ",\"surge_index\":" << ckpt.surge_index << ",\"oldest_queued\":";
    json::write_number(os, ckpt.oldest_queued);
    os << ",\"total_arrivals\":" << ckpt.total_arrivals
       << ",\"total_accepted\":" << ckpt.total_accepted << '}';
    os << ",\"batches\":" << ckpt.batches.size()
       << ",\"entries\":" << ckpt.entries.size() << ",\"refunds\":";
    json::write_number(os, ckpt.refunds.refunded);
    os << ",\"lp_iterations\":" << ckpt.book_lp_stats.iterations
       << ",\"cache_entries\":" << ckpt.cache.entries.size()
       << ",\"topology_epoch\":" << ckpt.topology.epoch
       << ",\"telemetry_counters\":" << ckpt.metrics.counters.size();
  } else {
    const MultiCycleCheckpoint ckpt = decode_multi_cycle(reader);
    double net = 0;
    for (const CycleCellState& c : ckpt.cells) net += c.net_profit;
    os << "\"meta\":{\"config_fingerprint\":\""
       << serialize::hex_fingerprint(ckpt.config_fingerprint)
       << "\",\"cycles_done\":" << ckpt.cycles_done
       << ",\"num_policies\":" << ckpt.num_policies << '}'
       << ",\"cells\":" << ckpt.cells.size() << ",\"net_profit_sum\":";
    json::write_number(os, net);
    os << ",\"telemetry_counters\":" << ckpt.metrics.counters.size();
  }
  os << '}';
}

}  // namespace metis::persist
