// Robustness fuzzing of the serialization surfaces: arbitrary garbage and
// mutated near-valid inputs must either parse or throw — never crash, hang,
// or return a half-built object that violates invariants.  Covers the text
// parsers (topology/workload) and the binary snapshot container
// (persist/snapshot.h): truncations, bit flips, version/section mutations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "net/topologies.h"
#include "net/topology_io.h"
#include "persist/snapshot.h"
#include "util/rng.h"
#include "workload/generator.h"
#include "workload/workload_io.h"

namespace metis {
namespace {

std::string random_garbage(Rng& rng, int length) {
  static const std::string alphabet =
      "abcdefghijklmnopqrstuvwxyz0123456789 .-#\n\t";
  std::string out;
  out.reserve(length);
  for (int i = 0; i < length; ++i) {
    out += alphabet[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(alphabet.size()) - 1))];
  }
  return out;
}

/// Applies one random mutation (byte flip, deletion, duplication of a line).
std::string mutate(const std::string& input, Rng& rng) {
  if (input.empty()) return input;
  std::string out = input;
  switch (rng.uniform_int(0, 2)) {
    case 0: {  // flip one byte to a random printable char
      const int pos = rng.uniform_int(0, static_cast<int>(out.size()) - 1);
      out[pos] = static_cast<char>(rng.uniform_int(32, 126));
      break;
    }
    case 1: {  // delete a random span
      const int pos = rng.uniform_int(0, static_cast<int>(out.size()) - 1);
      const int len = rng.uniform_int(1, 10);
      out.erase(pos, len);
      break;
    }
    default: {  // duplicate a random chunk
      const int pos = rng.uniform_int(0, static_cast<int>(out.size()) - 1);
      const int len = rng.uniform_int(1, 20);
      out.insert(pos, out.substr(pos, len));
      break;
    }
  }
  return out;
}

class TopologyFuzz : public ::testing::TestWithParam<int> {};

TEST_P(TopologyFuzz, GarbageNeverCrashes) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 1299709u + 31);
  for (int round = 0; round < 50; ++round) {
    std::stringstream in(random_garbage(rng, rng.uniform_int(0, 200)));
    try {
      const net::Topology topo = net::read_topology(in);
      // If it parsed, the object must be sane.
      EXPECT_GT(topo.num_nodes(), 0);
    } catch (const std::runtime_error&) {
      // expected for malformed input
    }
  }
}

TEST_P(TopologyFuzz, MutatedValidInputNeverCrashes) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104651u + 7);
  std::stringstream valid;
  net::write_topology(valid, net::make_b4());
  const std::string base = valid.str();
  for (int round = 0; round < 50; ++round) {
    std::string input = base;
    const int mutations = rng.uniform_int(1, 5);
    for (int m = 0; m < mutations; ++m) input = mutate(input, rng);
    std::stringstream in(input);
    try {
      const net::Topology topo = net::read_topology(in);
      EXPECT_GT(topo.num_nodes(), 0);
      for (net::EdgeId e = 0; e < topo.num_edges(); ++e) {
        EXPECT_GE(topo.edge(e).price, 0);
        EXPECT_TRUE(topo.valid_node(topo.edge(e).src));
        EXPECT_TRUE(topo.valid_node(topo.edge(e).dst));
      }
    } catch (const std::runtime_error&) {
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, TopologyFuzz, ::testing::Range(0, 8));

// Regression: the optional capacity column was read with `ss >> int`, so
// "edge 0 1 1.0 4x" parsed the prefix 4 and dropped the "x", "edge 0 1 1.0
// -2" built a topology with negative capacity, and a fifth token was
// ignored outright.  Strict parsing must reject all three.
TEST(TopologyCapacityParsing, TrailingGarbageRejected) {
  std::stringstream in("nodes 2\nedge 0 1 1.0 4x\n");
  EXPECT_THROW(net::read_topology(in), std::runtime_error);
}

TEST(TopologyCapacityParsing, NonNumericRejected) {
  std::stringstream in("nodes 2\nedge 0 1 1.0 lots\n");
  EXPECT_THROW(net::read_topology(in), std::runtime_error);
}

TEST(TopologyCapacityParsing, NegativeRejected) {
  std::stringstream in("nodes 2\nedge 0 1 1.0 -2\n");
  EXPECT_THROW(net::read_topology(in), std::runtime_error);
}

TEST(TopologyCapacityParsing, ExtraTokenRejected) {
  std::stringstream in("nodes 2\nedge 0 1 1.0 4 9\n");
  EXPECT_THROW(net::read_topology(in), std::runtime_error);
}

TEST(TopologyCapacityParsing, ValidCapacityStillParses) {
  std::stringstream in("nodes 2\nedge 0 1 1.0 4\nedge 1 0 1.0\n");
  const net::Topology topo = net::read_topology(in);
  EXPECT_EQ(topo.edge(0).capacity_units, 4);
  EXPECT_EQ(topo.edge(1).capacity_units, 0);  // optional column absent
}

class WorkloadFuzz : public ::testing::TestWithParam<int> {};

TEST_P(WorkloadFuzz, GarbageNeverCrashes) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 15485863u + 3);
  for (int round = 0; round < 50; ++round) {
    std::stringstream in(random_garbage(rng, rng.uniform_int(0, 200)));
    try {
      const workload::Workload w = workload::read_workload(in);
      EXPECT_GT(w.num_slots, 0);
    } catch (const std::runtime_error&) {
    }
  }
}

TEST_P(WorkloadFuzz, MutatedValidInputNeverCrashes) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 32452843u + 11);
  const net::Topology topo = net::make_b4();
  const workload::RequestGenerator gen(topo, {});
  Rng wl_rng(5);
  workload::Workload original;
  original.requests = gen.generate(30, wl_rng);
  std::stringstream valid;
  workload::write_workload(valid, original);
  const std::string base = valid.str();
  for (int round = 0; round < 50; ++round) {
    std::string input = base;
    const int mutations = rng.uniform_int(1, 5);
    for (int m = 0; m < mutations; ++m) input = mutate(input, rng);
    std::stringstream in(input);
    try {
      const workload::Workload w = workload::read_workload(in);
      // Parsed requests must respect the invariants the parser promises.
      for (const auto& r : w.requests) {
        EXPECT_LE(r.start_slot, r.end_slot);
        EXPECT_LT(r.end_slot, w.num_slots);
        EXPECT_GT(r.rate, 0);
        EXPECT_GE(r.value, 0);
      }
    } catch (const std::runtime_error&) {
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, WorkloadFuzz, ::testing::Range(0, 8));

// --- parser diagnostics name their source --------------------------------
// Every parse error must carry "<source>:<line>" so a failing file in a
// multi-file experiment config is locatable from the message alone.

TEST(ParserDiagnostics, TopologyStreamErrorsNameSourceAndLine) {
  std::stringstream in("nodes 2\nedge 0 1 oops\n");
  try {
    (void)net::read_topology(in);
    FAIL() << "malformed edge parsed";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("at <input>:2:"), std::string::npos)
        << e.what();
  }
}

TEST(ParserDiagnostics, TopologyCustomSourceNamePropagates) {
  std::stringstream in("nodes 2\nbogus\n");
  try {
    (void)net::read_topology(in, "wan.topo");
    FAIL() << "unknown keyword parsed";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("at wan.topo:2:"), std::string::npos)
        << e.what();
  }
}

TEST(ParserDiagnostics, WorkloadStreamErrorsNameSourceAndLine) {
  std::stringstream in("slots 4\n\nrequest 0 1 0 9 1.0 5\n");
  try {
    (void)workload::read_workload(in);
    FAIL() << "out-of-range request parsed";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("at <input>:3:"), std::string::npos)
        << e.what();
  }
}

TEST(ParserDiagnostics, FileErrorsNameThePath) {
  const std::string topo_path = ::testing::TempDir() + "diag.topo";
  const std::string wl_path = ::testing::TempDir() + "diag.workload";
  {
    std::ofstream out(topo_path);
    out << "nodes 2\nedge 0 1 bad\n";
  }
  {
    std::ofstream out(wl_path);
    out << "slots 3\nrequest 0 1 2 1 1.0 5\n";
  }
  try {
    (void)net::read_topology_file(topo_path);
    FAIL() << "malformed topology file parsed";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(topo_path + ":2:"),
              std::string::npos)
        << e.what();
  }
  try {
    (void)workload::read_workload_file(wl_path);
    FAIL() << "malformed workload file parsed";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(wl_path + ":2:"), std::string::npos)
        << e.what();
  }
}

// --- snapshot container fuzz ----------------------------------------------
// The binary container carries checkpoints; a damaged file must fail with a
// clean SnapshotError naming the source — never crash, never yield a
// half-parsed reader (under ASan/UBSan this is the memory-safety witness
// for the restore path).  Damage inside a payload whose CRCs are valid
// reaches the checkpoint decoder instead: PayloadFuzz in test_persist.cpp.

std::vector<std::uint8_t> fuzz_container(Rng& rng) {
  persist::SnapshotWriter w;
  std::uint32_t id = 0;
  const int sections = rng.uniform_int(1, 5);
  for (int s = 0; s < sections; ++s) {
    id += static_cast<std::uint32_t>(rng.uniform_int(1, 3));
    std::vector<std::uint8_t> payload(
        static_cast<std::size_t>(rng.uniform_int(0, 64)));
    for (auto& b : payload) {
      b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    w.section(id, payload);
  }
  return w.to_bytes();
}

class SnapshotFuzz : public ::testing::TestWithParam<int> {};

TEST_P(SnapshotFuzz, TruncationAtEveryLengthFailsCleanly) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7368787u + 13);
  const std::vector<std::uint8_t> full = fuzz_container(rng);
  for (std::size_t keep = 0; keep < full.size(); ++keep) {
    std::vector<std::uint8_t> cut(full.begin(), full.begin() + keep);
    try {
      const persist::SnapshotReader r(std::move(cut), "fuzz");
      FAIL() << "truncated container parsed at " << keep << "/"
             << full.size() << " bytes";
    } catch (const persist::SnapshotError& e) {
      EXPECT_NE(std::string(e.what()).find("fuzz"), std::string::npos);
    }
  }
}

TEST_P(SnapshotFuzz, RandomByteFlipsNeverCrashOrPassSilently) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 49979687u + 17);
  const std::vector<std::uint8_t> full = fuzz_container(rng);
  const persist::SnapshotReader original(full, "fuzz");
  for (int round = 0; round < 200; ++round) {
    std::vector<std::uint8_t> bad = full;
    const int flips = rng.uniform_int(1, 4);
    for (int f = 0; f < flips; ++f) {
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(bad.size()) - 1));
      bad[pos] ^= static_cast<std::uint8_t>(rng.uniform_int(1, 255));
    }
    try {
      const persist::SnapshotReader r(std::move(bad), "fuzz");
      // Parsed: the flips must have hit section ids only (every other byte
      // is CRC-covered), so the damage is visible as a different id set.
      EXPECT_NE(r.section_ids(), original.section_ids())
          << "silent corruption in round " << round;
    } catch (const persist::SnapshotError&) {
      // expected for nearly all mutations
    }
  }
}

TEST_P(SnapshotFuzz, RandomGrowthAndShrinkageNeverCrashes) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 86028121u + 19);
  const std::vector<std::uint8_t> full = fuzz_container(rng);
  for (int round = 0; round < 100; ++round) {
    std::vector<std::uint8_t> bad = full;
    if (rng.uniform_int(0, 1) == 0) {  // splice a random chunk in
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(bad.size())));
      const int extra = rng.uniform_int(1, 32);
      std::vector<std::uint8_t> chunk(static_cast<std::size_t>(extra));
      for (auto& b : chunk) {
        b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
      }
      bad.insert(bad.begin() + static_cast<std::ptrdiff_t>(pos),
                 chunk.begin(), chunk.end());
    } else {  // excise a random span
      const auto pos = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(bad.size()) - 1));
      const auto len = static_cast<std::size_t>(rng.uniform_int(1, 32));
      bad.erase(bad.begin() + static_cast<std::ptrdiff_t>(pos),
                bad.begin() + static_cast<std::ptrdiff_t>(
                                  std::min(pos + len, bad.size())));
    }
    EXPECT_THROW(persist::SnapshotReader(std::move(bad), "fuzz"),
                 persist::SnapshotError)
        << "resized container parsed in round " << round;
  }
}

TEST(SnapshotFuzz, SectionReorderingRejected) {
  // Swap the two section headers+payloads of a hand-laid-out container:
  // ids then arrive out of order, which the reader must reject even though
  // both sections' CRCs are individually intact.
  persist::SnapshotWriter w;
  w.section(1, {0xaa});
  w.section(2, {0xbb});
  std::vector<std::uint8_t> bytes = w.to_bytes();
  // Layout: 20-byte header, then two 17-byte sections (4 id + 8 length +
  // 4 crc + 1 payload).
  ASSERT_EQ(bytes.size(), 20u + 17u + 17u);
  std::vector<std::uint8_t> swapped(bytes.begin(), bytes.begin() + 20);
  swapped.insert(swapped.end(), bytes.begin() + 37, bytes.end());
  swapped.insert(swapped.end(), bytes.begin() + 20, bytes.begin() + 37);
  EXPECT_THROW(persist::SnapshotReader(std::move(swapped), "fuzz"),
               persist::SnapshotError);
}

INSTANTIATE_TEST_SUITE_P(Sweep, SnapshotFuzz, ::testing::Range(0, 8));

}  // namespace
}  // namespace metis
