// The persistence subsystem (src/persist/): serialization primitives, the
// sectioned container format, checkpoint codecs, and the kill/restore
// contract — interrupt a replay at any slot boundary, restore from the
// snapshot, and the finished run must equal the uninterrupted one byte for
// byte (profit, schedule, LP iteration counts, telemetry decision
// counters), with and without fault injection, for any thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "net/paths.h"
#include "net/topologies.h"
#include "persist/checkpoint.h"
#include "persist/snapshot.h"
#include "sim/online.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "util/serialize.h"
#include "util/telemetry.h"

namespace metis {
namespace {

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

// --- serialization primitives --------------------------------------------

TEST(Serialize, PrimitiveRoundTrip) {
  serialize::ByteWriter w;
  w.u8(0xab);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefULL);
  w.i32(-42);
  w.i64(-1234567890123LL);
  w.f64(-0.1);
  w.boolean(true);
  w.boolean(false);
  w.str("hello\0world");  // string_view stops at the NUL here, and that's fine
  w.str("");

  serialize::ByteReader r(w.bytes(), "test");
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.i32(), -42);
  EXPECT_EQ(r.i64(), -1234567890123LL);
  EXPECT_EQ(r.f64(), -0.1);
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.str(), "");
  EXPECT_NO_THROW(r.expect_done());
}

TEST(Serialize, DoubleBitExactness) {
  // The byte-identity contract rests on doubles round-tripping through
  // their bit pattern: denormals, infinities and NaN payloads included.
  const double values[] = {0.0, -0.0, 1e-308, 1e308, 0.1,
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()};
  for (double v : values) {
    serialize::ByteWriter w;
    w.f64(v);
    serialize::ByteReader r(w.bytes(), "test");
    EXPECT_EQ(std::bit_cast<std::uint64_t>(r.f64()),
              std::bit_cast<std::uint64_t>(v));
  }
}

TEST(Serialize, TruncationThrows) {
  serialize::ByteWriter w;
  w.u64(7);
  const std::vector<std::uint8_t>& full = w.bytes();
  for (std::size_t keep = 0; keep < full.size(); ++keep) {
    std::vector<std::uint8_t> cut(full.begin(), full.begin() + keep);
    serialize::ByteReader r(cut, "test");
    EXPECT_THROW(r.u64(), serialize::SerializeError) << "kept " << keep;
  }
}

TEST(Serialize, BadBooleanThrows) {
  const std::vector<std::uint8_t> bytes = {2};
  serialize::ByteReader r(bytes, "test");
  EXPECT_THROW(r.boolean(), serialize::SerializeError);
}

TEST(Serialize, OversizedLengthPrefixThrows) {
  // A corrupted length prefix must be caught before any allocation.
  serialize::ByteWriter w;
  w.u64(~0ULL);
  serialize::ByteReader r(w.bytes(), "test");
  EXPECT_THROW(r.str(), serialize::SerializeError);
}

TEST(Serialize, TrailingBytesThrow) {
  serialize::ByteWriter w;
  w.u32(1);
  w.u8(0);
  serialize::ByteReader r(w.bytes(), "test");
  r.u32();
  EXPECT_THROW(r.expect_done(), serialize::SerializeError);
}

TEST(Serialize, Crc32CheckVector) {
  const std::string check = "123456789";
  EXPECT_EQ(serialize::crc32(
                reinterpret_cast<const std::uint8_t*>(check.data()),
                check.size()),
            0xCBF43926u);
}

TEST(Serialize, FingerprintIsOrderSensitive) {
  serialize::Fingerprint a;
  a.mix(1).mix(2);
  serialize::Fingerprint b;
  b.mix(2).mix(1);
  EXPECT_NE(a.value(), b.value());
}

// --- the sectioned container ---------------------------------------------

std::vector<std::uint8_t> sample_container() {
  persist::SnapshotWriter w;
  w.section(1, {1, 2, 3});
  w.section(5, {});
  w.section(9, {42});
  return w.to_bytes();
}

TEST(Snapshot, RoundTrip) {
  const persist::SnapshotReader r(sample_container(), "test");
  EXPECT_EQ(r.section_ids(), (std::vector<std::uint32_t>{1, 5, 9}));
  EXPECT_EQ(r.section(1), (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_TRUE(r.section(5).empty());
  EXPECT_EQ(r.section(9), (std::vector<std::uint8_t>{42}));
  EXPECT_TRUE(r.has_section(5));
  EXPECT_FALSE(r.has_section(2));
  EXPECT_THROW(r.section(2), persist::SnapshotError);
}

TEST(Snapshot, WriterRejectsOutOfOrderSections) {
  persist::SnapshotWriter w;
  w.section(5, {});
  EXPECT_THROW(w.section(3, {}), persist::SnapshotError);
  EXPECT_THROW(w.section(5, {}), persist::SnapshotError);  // duplicates too
}

TEST(Snapshot, TruncationAtEveryLengthThrows) {
  const std::vector<std::uint8_t> full = sample_container();
  for (std::size_t keep = 0; keep < full.size(); ++keep) {
    std::vector<std::uint8_t> cut(full.begin(), full.begin() + keep);
    EXPECT_THROW(persist::SnapshotReader(std::move(cut), "test"),
                 persist::SnapshotError)
        << "kept " << keep;
  }
}

TEST(Snapshot, EveryFlippedByteIsDetected) {
  // Every byte of the container is covered by a checksum or a structural
  // invariant: flipping any single byte must fail validation.  (A flip in
  // a section id that keeps the ordering valid is caught by its absence
  // from the expected id set — here ids are part of the CRC'd framing
  // check below, so we just require *parse-or-differ*.)
  const std::vector<std::uint8_t> full = sample_container();
  for (std::size_t pos = 0; pos < full.size(); ++pos) {
    std::vector<std::uint8_t> bad = full;
    bad[pos] ^= 0x01;
    bool failed = false;
    try {
      const persist::SnapshotReader r(std::move(bad), "test");
      // Parsed despite the flip: the mutated byte must be a section id that
      // still satisfies the ordering invariant; the payload set then
      // differs from the original (the flip cannot be silent).
      failed = r.section_ids() != (std::vector<std::uint32_t>{1, 5, 9});
    } catch (const persist::SnapshotError&) {
      failed = true;
    }
    EXPECT_TRUE(failed) << "silent corruption at byte " << pos;
  }
}

TEST(Snapshot, WrongVersionRejected) {
  // An older and a newer version.  Rewrite the version field (offset 8)
  // and fix the header CRC up so only the version check can reject it.
  for (const std::uint32_t version :
       {persist::kSnapshotVersion - 1, persist::kSnapshotVersion + 1}) {
    std::vector<std::uint8_t> bytes = sample_container();
    bytes[8] = static_cast<std::uint8_t>(version);
    const std::uint32_t crc = serialize::crc32(bytes.data(), 16);
    for (int i = 0; i < 4; ++i) {
      bytes[16 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
    }
    try {
      const persist::SnapshotReader r(std::move(bytes), "test");
      FAIL() << "unsupported version " << version << " parsed";
    } catch (const persist::SnapshotError& e) {
      EXPECT_NE(std::string(e.what()).find("unsupported snapshot version " +
                                           std::to_string(version)),
                std::string::npos);
    }
  }
}

TEST(Snapshot, BadMagicRejected) {
  std::vector<std::uint8_t> bytes = sample_container();
  bytes[0] = 'X';
  EXPECT_THROW(persist::SnapshotReader(std::move(bytes), "test"),
               persist::SnapshotError);
}

TEST(Snapshot, TrailingBytesRejected) {
  std::vector<std::uint8_t> bytes = sample_container();
  bytes.push_back(0);
  EXPECT_THROW(persist::SnapshotReader(std::move(bytes), "test"),
               persist::SnapshotError);
}

TEST(Snapshot, DiagnosticNamesTheSource) {
  std::vector<std::uint8_t> bytes = sample_container();
  bytes[0] = 'X';
  try {
    const persist::SnapshotReader r(std::move(bytes), "ckpt.bin");
    FAIL() << "bad magic parsed";
  } catch (const persist::SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("ckpt.bin"), std::string::npos);
  }
}

TEST(Snapshot, MissingFileThrows) {
  EXPECT_THROW(persist::SnapshotReader::from_file(tmp_path("no_such.ckpt")),
               persist::SnapshotError);
}

TEST(Snapshot, AtomicFileRoundTrip) {
  const std::string path = tmp_path("snapshot_roundtrip.ckpt");
  persist::SnapshotWriter w;
  w.section(3, {9, 8, 7});
  w.write_file(path);
  const persist::SnapshotReader r = persist::SnapshotReader::from_file(path);
  EXPECT_EQ(r.section(3), (std::vector<std::uint8_t>{9, 8, 7}));
  EXPECT_EQ(r.source(), path);
}

// --- subsystem restore units ---------------------------------------------

TEST(TopologyRestore, SettersPreserveEpoch) {
  net::Topology topo = net::make_b4();
  const std::uint64_t before = topo.epoch();
  topo.restore_edge_state(0, 3.5, 7, false);
  topo.restore_node_state(0, false);
  EXPECT_EQ(topo.epoch(), before);
  EXPECT_EQ(topo.edge(0).price, 3.5);
  EXPECT_EQ(topo.edge(0).capacity_units, 7);
  EXPECT_FALSE(topo.edge_enabled(0));
  EXPECT_FALSE(topo.node_enabled(0));
  topo.restore_epoch(before + 100);
  EXPECT_EQ(topo.epoch(), before + 100);
}

TEST(PathCacheRestore, RoundTripPreservesCountersAndEntries) {
  net::Topology topo = net::make_b4();
  net::PathCache cache(topo);
  (void)cache.paths(0, 5, 3);
  (void)cache.paths(0, 5, 3);  // hit
  (void)cache.paths(2, 7, 3);
  const net::PathCache::Dump dump = cache.dump();

  net::PathCache fresh(topo);
  fresh.restore(dump);
  EXPECT_EQ(fresh.hits(), cache.hits());
  EXPECT_EQ(fresh.misses(), cache.misses());
  // Restored entries serve lookups without new misses.
  const std::size_t misses_before = fresh.misses();
  EXPECT_EQ(fresh.paths(0, 5, 3), cache.paths(0, 5, 3));
  EXPECT_EQ(fresh.misses(), misses_before);
}

TEST(PathCacheRestore, FutureEpochRejected) {
  net::Topology topo = net::make_b4();
  net::PathCache cache(topo);
  (void)cache.paths(0, 5, 3);
  net::PathCache::Dump dump = cache.dump();
  dump.epoch += 1;  // an image "from the future" cannot be a snapshot of topo
  net::PathCache fresh(topo);
  EXPECT_THROW(fresh.restore(dump), std::invalid_argument);
}

TEST(PathCacheRestore, NonSimplePathRejected) {
  net::Topology topo = net::make_b4();
  net::PathCache cache(topo);
  (void)cache.paths(0, 5, 3);
  const net::PathCache::Dump before = cache.dump();
  net::PathCache::Dump bad = before;
  // The 0->5 entry's first path, reversed: same edges, not a 0->5 walk.
  std::vector<net::EdgeId>& edges = bad.entries[0].paths[0].edges;
  std::reverse(edges.begin(), edges.end());
  ASSERT_GT(edges.size(), 1u);
  EXPECT_THROW(cache.restore(bad), std::invalid_argument);
  bad = before;
  bad.entries[0].paths.push_back(net::Path{{-1}});
  EXPECT_THROW(cache.restore(bad), std::invalid_argument);
  const net::PathCache::Dump after = cache.dump();
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
  ASSERT_EQ(after.entries.size(), before.entries.size());
  EXPECT_EQ(after.entries[0].paths, before.entries[0].paths);
}

TEST(PathCacheRestore, LaggingEpochFlushesOnFirstLookup) {
  // A snapshot taken between a topology mutation and the next lookup holds
  // the pre-mutation epoch; restoring it must reproduce the live cache's
  // lazy flush (stale counter included), not fail.
  net::Topology topo = net::make_b4();
  net::PathCache cache(topo);
  (void)cache.paths(0, 5, 3);
  const net::PathCache::Dump dump = cache.dump();
  topo.disable_edge(0);  // bumps the epoch past the image's

  net::PathCache restored(topo);
  restored.restore(dump);
  (void)restored.paths(0, 5, 3);
  (void)cache.paths(0, 5, 3);
  EXPECT_EQ(restored.stale(), cache.stale());
  EXPECT_EQ(restored.misses(), cache.misses());
}

TEST(MetricsRestore, SnapshotRestoreRoundTrip) {
  telemetry::Registry& reg = telemetry::Registry::global();
  reg.restore(telemetry::MetricsSnapshot{});
  telemetry::count("persist_test.counter", 3);
  telemetry::gauge_set("persist_test.gauge", 2.5);
  telemetry::observe("persist_test.histogram", 1.25);
  const telemetry::MetricsSnapshot snap = reg.snapshot();

  telemetry::count("persist_test.counter", 10);  // diverge
  reg.restore(snap);
  const telemetry::MetricsSnapshot again = reg.snapshot();
  EXPECT_EQ(again.counters, snap.counters);
  EXPECT_EQ(again.gauges, snap.gauges);
  ASSERT_EQ(again.histograms.size(), snap.histograms.size());
  for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
    EXPECT_EQ(again.histograms[i].name, snap.histograms[i].name);
    EXPECT_EQ(again.histograms[i].samples, snap.histograms[i].samples);
  }
  reg.restore(telemetry::MetricsSnapshot{});
}

// --- checkpoint codecs ----------------------------------------------------

persist::OnlineCheckpoint sample_online_checkpoint() {
  persist::OnlineCheckpoint ckpt;
  ckpt.config_fingerprint = 0x1122334455667788ULL;
  ckpt.boundary_time = 4;
  ckpt.next_arrival = 17;
  ckpt.next_fault_event = 3;
  ckpt.repair_index = 2;
  ckpt.surge_index = 1;
  ckpt.oldest_queued = 3.75;
  ckpt.total_arrivals = 21;
  ckpt.total_accepted = 9;
  persist::BatchState batch;
  batch.batch = 0;
  batch.arrivals = 4;
  batch.flush_time = 1.5;
  batch.accepted = 3;
  batch.profit = 123.5;
  batch.lp_stats.iterations = 77;
  batch.lp_stats.warm_starts = 2;
  ckpt.batches.push_back(batch);
  workload::Request req;
  req.src = 1;
  req.dst = 5;
  req.start_slot = 0;
  req.end_slot = 3;
  req.rate = 2.5;
  req.value = 40;
  persist::BookEntryState entry;
  entry.request = req;
  entry.status = 1;
  entry.path = net::Path{{0, 2, 5}};
  entry.was_committed = true;
  ckpt.entries.push_back(entry);
  ckpt.topology.price = {1.0, 2.0};
  ckpt.topology.capacity_units = {0, 3};
  ckpt.topology.edge_enabled = {1, 0};
  ckpt.topology.node_enabled = {1, 1, 0};
  ckpt.topology.epoch = 12;
  ckpt.refunds.refunded = 5.5;
  ckpt.fault_stats.injected = 4;
  ckpt.fault_stats.dropped = 1;
  ckpt.book_lp_stats.iterations = 200;
  return ckpt;
}

TEST(CheckpointCodec, OnlineRoundTrip) {
  const persist::OnlineCheckpoint ckpt = sample_online_checkpoint();
  const std::vector<std::uint8_t> bytes = persist::encode(ckpt);
  const persist::SnapshotReader reader(bytes, "test");
  EXPECT_EQ(persist::kind_of(reader), persist::CheckpointKind::Online);
  const persist::OnlineCheckpoint back = persist::decode_online(reader);

  EXPECT_EQ(back.config_fingerprint, ckpt.config_fingerprint);
  EXPECT_EQ(back.boundary_time, ckpt.boundary_time);
  EXPECT_EQ(back.next_arrival, ckpt.next_arrival);
  EXPECT_EQ(back.next_fault_event, ckpt.next_fault_event);
  EXPECT_EQ(back.repair_index, ckpt.repair_index);
  EXPECT_EQ(back.surge_index, ckpt.surge_index);
  EXPECT_EQ(back.oldest_queued, ckpt.oldest_queued);
  ASSERT_EQ(back.batches.size(), 1u);
  EXPECT_EQ(back.batches[0].profit, 123.5);
  EXPECT_EQ(back.batches[0].lp_stats.iterations, 77);
  ASSERT_EQ(back.entries.size(), 1u);
  EXPECT_EQ(back.entries[0].request.rate, 2.5);
  EXPECT_EQ(back.entries[0].status, 1);
  EXPECT_EQ(back.entries[0].path, (net::Path{{0, 2, 5}}));
  EXPECT_TRUE(back.entries[0].was_committed);
  EXPECT_EQ(back.topology.price, ckpt.topology.price);
  EXPECT_EQ(back.topology.epoch, 12u);
  EXPECT_EQ(back.refunds.refunded, 5.5);
  EXPECT_EQ(back.fault_stats.injected, 4);
  EXPECT_EQ(back.book_lp_stats.iterations, 200);

  // Re-encoding the decoded image is byte-identical: the codec is
  // canonical, which is what lets ckpt_inspect diff files bit for bit.
  EXPECT_EQ(persist::encode(back), bytes);
}

TEST(CheckpointCodec, KindMismatchRejected) {
  persist::MultiCycleCheckpoint mc;
  mc.config_fingerprint = 1;
  mc.num_policies = 2;
  const std::vector<std::uint8_t> bytes = persist::encode(mc);
  const persist::SnapshotReader reader(bytes, "test");
  EXPECT_EQ(persist::kind_of(reader), persist::CheckpointKind::MultiCycle);
  EXPECT_THROW(persist::decode_online(reader), persist::SnapshotError);
}

TEST(CheckpointCodec, MultiCycleRoundTrip) {
  persist::MultiCycleCheckpoint ckpt;
  ckpt.config_fingerprint = 99;
  ckpt.cycles_done = 2;
  ckpt.num_policies = 1;
  persist::CycleCellState cell;
  cell.cycle = 1;
  cell.policy = 0;
  cell.offered_requests = 50;
  cell.result.profit = 77.25;
  cell.net_profit = 70.25;
  cell.refunds = 7;
  cell.fault_stats.victims = 3;
  ckpt.cells.push_back(cell);
  const std::vector<std::uint8_t> bytes = persist::encode(ckpt);
  const persist::MultiCycleCheckpoint back =
      persist::decode_multi_cycle(persist::SnapshotReader(bytes, "test"));
  EXPECT_EQ(back.cycles_done, 2);
  ASSERT_EQ(back.cells.size(), 1u);
  EXPECT_EQ(back.cells[0].result.profit, 77.25);
  EXPECT_EQ(back.cells[0].fault_stats.victims, 3);
  EXPECT_EQ(persist::encode(back), bytes);
}

// --- pinned wire format ---------------------------------------------------
// Images in which every record type carries non-default values, so a codec
// that drops, reorders or re-widths any field changes the bytes.  Their
// sizes and CRCs, and the config fingerprints, are pinned: a build that
// writes different bytes must also bump kSnapshotVersion, which moves the
// pins too, so that it refuses the checkpoints earlier builds wrote.

lp::SolveStats full_solve_stats(long base) {
  lp::SolveStats s;
  s.iterations = base + 1;
  s.factorizations = static_cast<int>(base) + 2;
  s.presolve_removed_rows = 3;
  s.presolve_removed_cols = 4;
  s.warm_starts = 5;
  s.cold_starts = 6;
  s.pricing_passes = base + 7;
  s.partial_hits = base + 8;
  s.full_fallbacks = 9;
  s.basis_repairs = 10;
  s.solve_seconds = 0.125 * static_cast<double>(base);
  return s;
}

persist::FaultStatsImage full_fault_stats(int base) {
  return persist::FaultStatsImage{base + 1, base + 2, base + 3, base + 4,
                                  base + 5, base + 6, base + 7, base + 8};
}

telemetry::MetricsSnapshot full_metrics() {
  telemetry::MetricsSnapshot m;
  m.counters = {{"lp.iterations", 4242}, {"persist.saves", -3}};
  m.gauges = {{"fault.refunds", 12.75}};
  m.histograms.push_back({"online.decide_ms", {0.5, 1, 2}, {0.25, 3.5}});
  telemetry::SpanStats span;
  span.count = 7;
  span.total_seconds = 1.5;
  span.min_seconds = 0.0625;
  span.max_seconds = 0.75;
  m.spans = {{"online.run/online.batch", span}};
  return m;
}

persist::OnlineCheckpoint full_online_checkpoint() {
  persist::OnlineCheckpoint ckpt = sample_online_checkpoint();
  ckpt.batches[0].decide_ms = 2.25;
  ckpt.batches[0].lp_stats = full_solve_stats(70);
  persist::BatchState second = ckpt.batches[0];
  second.batch = 1;
  second.lp_stats = full_solve_stats(90);
  ckpt.batches.push_back(second);
  persist::BookEntryState pending = ckpt.entries[0];
  pending.status = 0;
  pending.path = net::Path{};
  pending.was_committed = false;
  ckpt.entries.push_back(pending);
  persist::BookEntryState declined = pending;
  declined.status = 2;
  declined.was_committed = true;
  ckpt.entries.push_back(declined);
  ckpt.refunds.drops = 2;
  ckpt.fault_stats = full_fault_stats(10);
  ckpt.book_lp_stats = full_solve_stats(200);
  net::PathCache::Dump::Entry cached;
  cached.src = 1;
  cached.dst = 5;
  cached.k = 4;
  cached.metric = 1;
  cached.paths = {net::Path{{0, 2, 5}}, net::Path{{1, 6}}};
  ckpt.cache.entries.push_back(cached);
  ckpt.cache.epoch = 11;
  ckpt.cache.hits = 30;
  ckpt.cache.misses = 8;
  ckpt.cache.stale = 2;
  ckpt.metrics = full_metrics();
  return ckpt;
}

persist::MultiCycleCheckpoint full_multi_cycle_checkpoint() {
  persist::MultiCycleCheckpoint ckpt;
  ckpt.config_fingerprint = 0x8877665544332211ULL;
  ckpt.cycles_done = 2;
  ckpt.num_policies = 2;
  for (int i = 0; i < 4; ++i) {
    persist::CycleCellState cell;
    cell.cycle = i / 2;
    cell.policy = i % 2;
    cell.offered_requests = 40 + i;
    cell.result.revenue = 100.5 + i;
    cell.result.cost = 20.25;
    cell.result.profit = 80.25 + i;
    cell.result.accepted = 30 + i;
    cell.decide_ms = 1.5 * i;
    cell.refunds = 0.5 * i;
    cell.net_profit = 79.75;
    cell.fault_stats = full_fault_stats(i);
    ckpt.cells.push_back(cell);
  }
  ckpt.metrics = full_metrics();
  return ckpt;
}

/// CRC-32 of a container image without its header_crc field (bytes
/// 16..19).  The CRC-32 of a run followed by that run's own CRC-32 is a
/// fixed residue, whatever the run holds, so a CRC over the whole image
/// would not see the prologue (magic, version, section count) at all.
std::uint32_t image_crc(const std::vector<std::uint8_t>& bytes) {
  std::vector<std::uint8_t> skipped(bytes.begin(), bytes.begin() + 16);
  skipped.insert(skipped.end(), bytes.begin() + 20, bytes.end());
  return serialize::crc32(skipped);
}

TEST(CheckpointFormat, OnlineImageBytesArePinned) {
  const std::vector<std::uint8_t> bytes =
      persist::encode(full_online_checkpoint());
  EXPECT_EQ(bytes.size(), 1090u);
  EXPECT_EQ(image_crc(bytes), 0x1185f8e7u);
  const persist::OnlineCheckpoint back =
      persist::decode_online(persist::SnapshotReader(bytes, "test"));
  EXPECT_EQ(persist::encode(back), bytes);
}

TEST(CheckpointFormat, MultiCycleImageBytesArePinned) {
  const std::vector<std::uint8_t> bytes =
      persist::encode(full_multi_cycle_checkpoint());
  EXPECT_EQ(bytes.size(), 739u);
  EXPECT_EQ(image_crc(bytes), 0xdb9bac2cu);
  const persist::MultiCycleCheckpoint back =
      persist::decode_multi_cycle(persist::SnapshotReader(bytes, "test"));
  EXPECT_EQ(persist::encode(back), bytes);
}

TEST(CheckpointCodec, DebugJsonRenders) {
  const std::vector<std::uint8_t> bytes =
      persist::encode(sample_online_checkpoint());
  std::ostringstream os;
  persist::write_debug_json(persist::SnapshotReader(bytes, "test"), os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"kind\":\"online\""), std::string::npos);
  EXPECT_NE(json.find("\"sections\""), std::string::npos);
  EXPECT_NE(json.find("0x1122334455667788"), std::string::npos);
}

// --- payload fuzz ---------------------------------------------------------
// Damage inside one section payload, re-wrapped with SnapshotWriter so every
// CRC is valid, reaches the payload decoder itself.  It must either reject
// the image with SerializeError / SnapshotError or decode it into an image
// that re-encodes to the same bytes; never crash or over-allocate.  Under
// -DMETIS_SANITIZE=address|undefined this is the memory-safety witness of
// the decoder.

template <typename Decode>
void fuzz_payloads(const std::vector<std::uint8_t>& image, Decode decode,
                   std::uint64_t seed) {
  const persist::SnapshotReader original(image, "fuzz");
  const std::vector<std::uint32_t> ids = original.section_ids();
  Rng rng(seed);
  int rejected = 0;
  for (int round = 0; round < 600; ++round) {
    const std::uint32_t victim = ids[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(ids.size()) - 1))];
    std::vector<std::uint8_t> payload = original.section(victim);
    const int size = static_cast<int>(payload.size());
    switch (rng.uniform_int(0, 2)) {
      case 0:  // flip up to four bytes
        for (int f = rng.uniform_int(1, 4); f > 0 && size > 0; --f) {
          payload[static_cast<std::size_t>(rng.uniform_int(0, size - 1))] ^=
              static_cast<std::uint8_t>(rng.uniform_int(1, 255));
        }
        break;
      case 1:  // truncate
        payload.resize(static_cast<std::size_t>(
            rng.uniform_int(0, std::max(0, size - 1))));
        break;
      default: {  // extend with random bytes at a random offset
        std::vector<std::uint8_t> chunk(
            static_cast<std::size_t>(rng.uniform_int(1, 16)));
        for (auto& b : chunk) {
          b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
        }
        payload.insert(payload.begin() + rng.uniform_int(0, size),
                       chunk.begin(), chunk.end());
      }
    }
    persist::SnapshotWriter writer;
    for (std::uint32_t id : ids) {
      writer.section(id, id == victim ? payload : original.section(id));
    }
    const std::vector<std::uint8_t> bytes = writer.to_bytes();
    try {
      const auto decoded = decode(persist::SnapshotReader(bytes, "fuzz"));
      EXPECT_EQ(persist::encode(decoded), bytes) << "round " << round;
    } catch (const serialize::SerializeError&) {
      ++rejected;
    } catch (const persist::SnapshotError&) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 300);
}

TEST(PayloadFuzz, OnlineDecoderRejectsOrRoundTrips) {
  fuzz_payloads(persist::encode(full_online_checkpoint()),
                persist::decode_online, 11);
}

TEST(PayloadFuzz, MultiCycleDecoderRejectsOrRoundTrips) {
  fuzz_payloads(persist::encode(full_multi_cycle_checkpoint()),
                persist::decode_multi_cycle, 13);
}

// --- restore validation ---------------------------------------------------
// CommittedBook::restore_state checks a decoded image against the book's
// topology before it changes anything: a bad image throws
// std::invalid_argument and the book stays as it was (compared through the
// encoding of its own export).

const core::SpmInstance& restore_instance() {
  static const core::SpmInstance instance = [] {
    sim::Scenario scenario;
    scenario.network = sim::Network::B4;
    scenario.num_requests = 30;
    scenario.seed = 7;
    return sim::make_instance(scenario);
  }();
  return instance;
}

/// `ckpt` as a resume reads it back: encoded, then decoded.
persist::OnlineCheckpoint through_codec(const persist::OnlineCheckpoint& ckpt) {
  return persist::decode_online(
      persist::SnapshotReader(persist::encode(ckpt), "test"));
}

/// The export of a book with accepted and declined entries, a failed link,
/// a warm path cache and one pending request, through the codec.
const persist::OnlineCheckpoint& valid_book_image() {
  static const persist::OnlineCheckpoint image = [] {
    const core::SpmInstance& instance = restore_instance();
    sim::CommittedBook book(instance.topology(), instance.config(),
                            sim::RepairConfig{});
    Rng rng(3);
    book.adopt(instance, core::run_metis(instance, rng).schedule);
    sim::FaultEvent failure;
    failure.time = 1.5;
    failure.target = book.reserved_paths()[0].empty()
                         ? 0
                         : book.reserved_paths()[0].edges.front();
    book.inject(failure, rng);
    book.add_pending(instance.requests().front());
    book.decide_pending(rng);
    book.add_pending(instance.requests().back());
    persist::OnlineCheckpoint ckpt;
    book.export_state(ckpt);
    return through_codec(ckpt);
  }();
  return image;
}

std::vector<std::uint8_t> book_bytes(const sim::CommittedBook& book) {
  persist::OnlineCheckpoint ckpt;
  book.export_state(ckpt);
  return persist::encode(ckpt);
}

/// Index of the first entry with `status` (0 pending, 1 accepted, 2
/// declined).
std::size_t entry_with(const persist::OnlineCheckpoint& ckpt, int status) {
  for (std::size_t i = 0; i < ckpt.entries.size(); ++i) {
    if (ckpt.entries[i].status == status) return i;
  }
  ADD_FAILURE() << "no entry with status " << status;
  return 0;
}

/// Restores a valid image into a fresh book, then `bad`: the second
/// restore must throw and leave the book unchanged.
void expect_rejected(const persist::OnlineCheckpoint& bad) {
  const core::SpmInstance& instance = restore_instance();
  sim::CommittedBook book(instance.topology(), instance.config(),
                          sim::RepairConfig{});
  book.restore_state(valid_book_image());
  const std::vector<std::uint8_t> before = book_bytes(book);
  EXPECT_THROW(book.restore_state(bad), std::invalid_argument);
  EXPECT_EQ(book_bytes(book), before);
}

TEST(RestoreValidation, ValidImageRestoresExactly) {
  const persist::OnlineCheckpoint image = valid_book_image();
  const core::SpmInstance& instance = restore_instance();
  sim::CommittedBook book(instance.topology(), instance.config(),
                          sim::RepairConfig{});
  book.restore_state(image);
  EXPECT_EQ(book_bytes(book), persist::encode(image));
  EXPECT_TRUE(book.validate().empty());
}

TEST(RestoreValidation, ShortTopologyVectorsRejected) {
  persist::OnlineCheckpoint bad = valid_book_image();
  bad.topology.capacity_units.resize(1);
  bad.topology.edge_enabled.resize(1);
  expect_rejected(through_codec(bad));
}

TEST(RestoreValidation, AcceptedPathOffTheTopologyRejected) {
  persist::OnlineCheckpoint bad = valid_book_image();
  bad.entries[entry_with(bad, 1)].path = net::Path{{100000}};
  expect_rejected(through_codec(bad));
}

TEST(RestoreValidation, AcceptedPathWithWrongEndpointsRejected) {
  persist::OnlineCheckpoint bad = valid_book_image();
  persist::BookEntryState& entry = bad.entries[entry_with(bad, 1)];
  const net::Topology& topo = restore_instance().topology();
  for (net::EdgeId e : topo.out_edges(entry.request.src)) {
    if (topo.edge(e).dst != entry.request.dst) {
      entry.path = net::Path{{e}};  // leaves src, never reaches dst
      break;
    }
  }
  expect_rejected(through_codec(bad));
}

TEST(RestoreValidation, PathOnUnacceptedEntryRejected) {
  for (int status : {0, 2}) {
    persist::OnlineCheckpoint bad = valid_book_image();
    bad.entries[entry_with(bad, status)].path =
        bad.entries[entry_with(bad, 1)].path;
    expect_rejected(through_codec(bad));
  }
}

TEST(RestoreValidation, MalformedRequestRejected) {
  persist::OnlineCheckpoint bad = valid_book_image();
  bad.entries[entry_with(bad, 2)].request.end_slot =
      restore_instance().num_slots();
  expect_rejected(through_codec(bad));
}

TEST(RestoreValidation, StatusOutOfRangeRejected) {
  // The codec cannot carry this status byte; restore_state checks it too.
  persist::OnlineCheckpoint bad = valid_book_image();
  bad.entries[0].status = 3;
  EXPECT_THROW(through_codec(bad), serialize::SerializeError);
  expect_rejected(bad);
}

TEST(RestoreValidation, BadCacheImageLeavesTheBookUnchanged) {
  persist::OnlineCheckpoint bad = valid_book_image();
  ASSERT_FALSE(bad.cache.entries.empty());
  bad.cache.entries[0].paths.push_back(net::Path{{100000}});
  expect_rejected(through_codec(bad));
}

// --- the kill/restore contract -------------------------------------------

bool same_lp_stats(const lp::SolveStats& a, const lp::SolveStats& b) {
  return a.iterations == b.iterations && a.factorizations == b.factorizations &&
         a.warm_starts == b.warm_starts && a.cold_starts == b.cold_starts &&
         a.pricing_passes == b.pricing_passes &&
         a.partial_hits == b.partial_hits &&
         a.full_fallbacks == b.full_fallbacks &&
         a.basis_repairs == b.basis_repairs;
}

void expect_identical(const sim::OnlineResult& a, const sim::OnlineResult& b,
                      const std::string& label) {
  EXPECT_EQ(a.total_arrivals, b.total_arrivals) << label;
  EXPECT_EQ(a.total_accepted, b.total_accepted) << label;
  EXPECT_EQ(a.profit.profit, b.profit.profit) << label;
  EXPECT_EQ(a.refunds, b.refunds) << label;
  EXPECT_EQ(a.net_profit, b.net_profit) << label;
  EXPECT_EQ(a.schedule.path_choice, b.schedule.path_choice) << label;
  EXPECT_EQ(a.plan.units, b.plan.units) << label;
  EXPECT_TRUE(same_lp_stats(a.lp_stats, b.lp_stats)) << label;
  ASSERT_EQ(a.batches.size(), b.batches.size()) << label;
  for (std::size_t i = 0; i < a.batches.size(); ++i) {
    EXPECT_EQ(a.batches[i].batch, b.batches[i].batch) << label;
    EXPECT_EQ(a.batches[i].arrivals, b.batches[i].arrivals) << label;
    EXPECT_EQ(a.batches[i].flush_time, b.batches[i].flush_time) << label;
    EXPECT_EQ(a.batches[i].accepted, b.batches[i].accepted) << label;
    EXPECT_EQ(a.batches[i].profit, b.batches[i].profit) << label;
    EXPECT_TRUE(same_lp_stats(a.batches[i].lp_stats, b.batches[i].lp_stats))
        << label << " batch " << i;
  }
  EXPECT_EQ(a.fault_paths, b.fault_paths) << label;
  EXPECT_EQ(a.fault_stats.injected, b.fault_stats.injected) << label;
  EXPECT_EQ(a.fault_stats.dropped, b.fault_stats.dropped) << label;
  EXPECT_EQ(a.fault_stats.rerouted, b.fault_stats.rerouted) << label;
  EXPECT_EQ(a.fault_stats.surge_arrivals, b.fault_stats.surge_arrivals)
      << label;
}

/// Decision counters: every counter except persist.* (checkpointing runs
/// record extra save/load events by design).
std::vector<std::pair<std::string, std::int64_t>> decision_counters() {
  std::vector<std::pair<std::string, std::int64_t>> out;
  for (const auto& [name, value] :
       telemetry::Registry::global().snapshot().counters) {
    if (name.rfind("persist.", 0) != 0) out.emplace_back(name, value);
  }
  return out;
}

void reset_registry() {
  telemetry::Registry::global().restore(telemetry::MetricsSnapshot{});
}

sim::OnlineConfig small_online_config(double fault_rate) {
  sim::OnlineConfig config;
  config.base.network = sim::Network::B4;
  config.base.num_requests = 18;
  config.base.seed = 11;
  config.batch_size = 4;
  config.max_batch_delay = 0.75;
  config.faults.rate = fault_rate;
  return config;
}

TEST(CheckpointFormat, ConfigFingerprintsArePinned) {
  EXPECT_EQ(sim::OnlineAdmissionSimulator(sim::OnlineConfig{})
                .config_fingerprint(),
            0x4b853b17af7d8964ULL);
  EXPECT_EQ(sim::OnlineAdmissionSimulator(small_online_config(0.6))
                .config_fingerprint(),
            0x9430ca2f6f5dbbfbULL);
  const auto policies = sim::standard_policies();
  EXPECT_EQ(sim::BillingCycleSimulator(sim::SimulationConfig{})
                .config_fingerprint(policies),
            0xaced1cacae00ae23ULL);
  sim::SimulationConfig grown;
  grown.base.network = sim::Network::B4;
  grown.base.num_requests = 30;
  grown.base.seed = 5;
  grown.cycles = 3;
  grown.demand_growth = 0.2;
  grown.faults.rate = 0.4;
  grown.repair_policy = sim::RepairPolicy::DropAffected;
  EXPECT_EQ(sim::BillingCycleSimulator(grown).config_fingerprint(policies),
            0x641b181736f1c3acULL);
}

void check_kill_restore(double fault_rate, const std::string& tag) {
  sim::OnlineConfig config = small_online_config(fault_rate);

  reset_registry();
  const sim::OnlineResult reference =
      sim::OnlineAdmissionSimulator(config).run();
  const auto ref_counters = decision_counters();

  sim::OnlineConfig writer = config;
  writer.checkpoint_every = 1;
  writer.checkpoint_path = tmp_path("kill_restore_" + tag + ".ckpt");
  writer.checkpoint_keep_all = true;
  reset_registry();
  const sim::OnlineResult uninterrupted =
      sim::OnlineAdmissionSimulator(writer).run();
  expect_identical(reference, uninterrupted, tag + " checkpointing run");
  EXPECT_EQ(decision_counters(), ref_counters) << tag;

  const int num_slots = config.base.instance.num_slots;
  for (int boundary = 1; boundary < num_slots; ++boundary) {
    sim::OnlineConfig resumed = config;
    resumed.resume_path =
        writer.checkpoint_path + ".slot" + std::to_string(boundary);
    reset_registry();
    const sim::OnlineResult result =
        sim::OnlineAdmissionSimulator(resumed).run();
    expect_identical(reference, result,
                     tag + " resume from slot " + std::to_string(boundary));
    EXPECT_EQ(decision_counters(), ref_counters)
        << tag << " resume from slot " << boundary;
  }
  reset_registry();
}

TEST(KillRestore, FaultFreeEveryBoundaryIsByteIdentical) {
  check_kill_restore(0, "fault_free");
}

TEST(KillRestore, FaultModeEveryBoundaryIsByteIdentical) {
  check_kill_restore(0.6, "faults");
}

TEST(KillRestore, ThreadCountInvariant) {
  // Checkpoint under one thread count, resume under others: the restored
  // replay must reproduce the serial reference bit for bit.
  sim::OnlineConfig config = small_online_config(0.4);
  config.metis.maa.threads = 1;
  const sim::OnlineResult reference =
      sim::OnlineAdmissionSimulator(config).run();

  sim::OnlineConfig writer = config;
  writer.metis.maa.threads = 2;
  writer.checkpoint_every = 4;
  writer.checkpoint_path = tmp_path("kill_restore_threads.ckpt");
  writer.checkpoint_keep_all = true;
  (void)sim::OnlineAdmissionSimulator(writer).run();

  for (int threads : {1, 3}) {
    sim::OnlineConfig resumed = config;
    resumed.metis.maa.threads = threads;
    resumed.resume_path = writer.checkpoint_path + ".slot4";
    const sim::OnlineResult result =
        sim::OnlineAdmissionSimulator(resumed).run();
    expect_identical(reference, result,
                     "threads=" + std::to_string(threads));
  }
  reset_registry();
}

TEST(KillRestore, FingerprintMismatchRejected) {
  sim::OnlineConfig config = small_online_config(0);
  config.checkpoint_every = 4;
  config.checkpoint_path = tmp_path("fingerprint.ckpt");
  (void)sim::OnlineAdmissionSimulator(config).run();

  sim::OnlineConfig other = config;
  other.checkpoint_every = 0;
  other.checkpoint_path.clear();
  other.base.seed += 1;  // different arrival stream
  other.resume_path = config.checkpoint_path;
  try {
    (void)sim::OnlineAdmissionSimulator(other).run();
    FAIL() << "resume under a different config was not rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("fingerprint"), std::string::npos);
  }
  reset_registry();
}

TEST(KillRestore, FaultRateMismatchRejected) {
  sim::OnlineConfig config = small_online_config(0);
  config.checkpoint_every = 4;
  config.checkpoint_path = tmp_path("rate_mismatch.ckpt");
  (void)sim::OnlineAdmissionSimulator(config).run();

  // Every fault rate runs the same replay, but resuming a rate-0 snapshot
  // under a positive rate would replay a fault stream the snapshot never
  // saw: faults.rate is fingerprinted.
  sim::OnlineConfig faulty = config;
  faulty.checkpoint_every = 0;
  faulty.checkpoint_path.clear();
  faulty.faults.rate = 0.5;
  faulty.resume_path = config.checkpoint_path;
  try {
    (void)sim::OnlineAdmissionSimulator(faulty).run();
    FAIL() << "resume under a different fault rate was not rejected";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("fingerprint"), std::string::npos);
  }
  reset_registry();
}

TEST(KillRestore, MultiCycleResumeMatchesUninterrupted) {
  sim::SimulationConfig config;
  config.base.network = sim::Network::B4;
  config.base.num_requests = 30;
  config.base.seed = 5;
  config.cycles = 3;
  config.demand_growth = 0.2;

  const sim::BillingCycleSimulator simulator(config);
  const std::vector<sim::PolicyOutcome> reference =
      simulator.run(sim::standard_policies());

  sim::SimulationConfig writer_config = config;
  writer_config.checkpoint_every = 1;
  writer_config.checkpoint_path = tmp_path("multi_cycle.ckpt");
  writer_config.checkpoint_keep_all = true;
  const std::vector<sim::PolicyOutcome> uninterrupted =
      sim::BillingCycleSimulator(writer_config).run(sim::standard_policies());

  const auto expect_same = [&](const std::vector<sim::PolicyOutcome>& got,
                               const std::string& label) {
    ASSERT_EQ(got.size(), reference.size()) << label;
    for (std::size_t p = 0; p < reference.size(); ++p) {
      EXPECT_EQ(got[p].policy, reference[p].policy) << label;
      EXPECT_EQ(got[p].total_profit, reference[p].total_profit) << label;
      EXPECT_EQ(got[p].total_net_profit, reference[p].total_net_profit)
          << label;
      EXPECT_EQ(got[p].total_accepted, reference[p].total_accepted) << label;
      ASSERT_EQ(got[p].cycles.size(), reference[p].cycles.size()) << label;
      for (std::size_t c = 0; c < reference[p].cycles.size(); ++c) {
        EXPECT_EQ(got[p].cycles[c].result.profit,
                  reference[p].cycles[c].result.profit)
            << label << " cycle " << c;
        EXPECT_EQ(got[p].cycles[c].offered_requests,
                  reference[p].cycles[c].offered_requests)
            << label << " cycle " << c;
      }
    }
  };
  expect_same(uninterrupted, "checkpointing run");

  for (int done = 1; done < config.cycles; ++done) {
    sim::SimulationConfig resumed = config;
    resumed.resume_path =
        writer_config.checkpoint_path + ".cycle" + std::to_string(done);
    expect_same(
        sim::BillingCycleSimulator(resumed).run(sim::standard_policies()),
        "resume after cycle " + std::to_string(done));
  }
  reset_registry();
}

TEST(KillRestore, MultiCycleFingerprintCoversPolicyRoster) {
  sim::SimulationConfig config;
  config.base.num_requests = 20;
  config.cycles = 2;
  config.checkpoint_every = 1;
  config.checkpoint_path = tmp_path("multi_cycle_roster.ckpt");
  (void)sim::BillingCycleSimulator(config).run(sim::standard_policies());

  sim::SimulationConfig resumed = config;
  resumed.checkpoint_every = 0;
  resumed.checkpoint_path.clear();
  resumed.resume_path = config.checkpoint_path;
  // A different roster (fewer policies) must be rejected even though the
  // SimulationConfig itself is identical.
  std::vector<std::unique_ptr<sim::Policy>> fewer;
  fewer.push_back(std::move(sim::standard_policies().front()));
  EXPECT_THROW((void)sim::BillingCycleSimulator(resumed).run(fewer),
               std::runtime_error);
  reset_registry();
}

}  // namespace
}  // namespace metis
