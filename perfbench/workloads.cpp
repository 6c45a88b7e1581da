#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <utility>

#include "core/accounting.h"
#include "core/chernoff.h"
#include "core/lp_builder.h"
#include "core/maa.h"
#include "core/metis.h"
#include "net/paths.h"
#include "persist/checkpoint.h"
#include "persist/snapshot.h"
#include "sim/faults.h"
#include "sim/online.h"
#include "sim/scenario.h"
#include "sim/validate.h"
#include "trace.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/telemetry.h"

namespace perfbench {
namespace {

namespace core = metis::core;
namespace net = metis::net;
namespace persist = metis::persist;
namespace sim = metis::sim;
namespace telemetry = metis::telemetry;
using metis::Rng;
using telemetry::Stopwatch;

/// Calls in one batch of a timing point (see PointTimings).
constexpr int kPointSetups = 5;
constexpr int kPointCheckpoints = 5;
constexpr int kProbeRepeats = 5;
/// Fewest passes of a timed window: every piece of work keeps the fastest
/// of at least this many repeats.
constexpr int kMinPasses = 5;
/// Rounding threads of the traced run's ThreadPool probe: the library's
/// default multi-thread rounding path, which the timed calls leave out.
constexpr unsigned kProbePoolThreads = 2;
/// Fault events per slot of faults-b4's cycles: about 12 per 12-slot cycle.
constexpr double kFaultRate = 1.0;
/// Fault events per slot of the post-decision fault replay of offline-b4.
/// Higher than kFaultRate: only events that hit a committed path cause a
/// repair, and the repair percentiles need samples.
constexpr double kOfflineReplayFaultRate = 4.0;
/// ... and of online-b4, whose 1210-request book is hit by most events and
/// makes every repair a re-decide over ~4x as many commitments.
constexpr double kOnlineReplayFaultRate = 1.0;
/// Replays of the stream per unit: each repair keeps its fastest of
/// passes x kReplayRepeats.  On online-b4 twice the rate gave 11 repairs
/// instead of 10; replaying twice gives each twice the repeats.
constexpr int kReplayRepeats = 2;
/// Rng::split stream of the per-event repair draws of that replay.
constexpr std::uint64_t kReplayRepairStream = 0xbe7c;

core::MetisOptions metis_options() {
  core::MetisOptions options;
  options.maa.threads = kRoundingThreads;
  return options;
}


/// Linear-interpolation percentile (p in [0, 100]); 0 for no samples.
double pct(const std::vector<double>& v, double p) {
  return v.empty() ? 0.0 : metis::percentile(v, p);
}

double median(const std::vector<double>& v) { return pct(v, 50); }

template <typename Fn>
double median_seconds(int repeats, Fn&& fn) {
  std::vector<double> seconds;
  for (int i = 0; i < repeats; ++i) {
    const Stopwatch timer;
    fn();
    seconds.push_back(timer.seconds());
  }
  return median(seconds);
}

/// Sum of every "metis" span total in the global registry: the time spent
/// inside run_metis / run_metis_incremental since the last reset.
double metis_seconds() {
  const telemetry::Registry& registry = telemetry::Registry::global();
  double total = 0;
  for (const std::string& path : registry.span_paths()) {
    if (path == "metis" || path.ends_with("/metis")) {
      total += registry.span(path).total_seconds;
    }
  }
  return total;
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// What one workload unit (one run_metis call, one replay, one fault
/// cycle) produced.
struct UnitResult {
  double solve_s = 0;  ///< wall clock of the unit's main public call
  int decided = 0;     ///< requests that call decided
  std::vector<double> decide_ms;
  std::vector<double> repair_ms;
  /// The main call's wall clock cut into the pieces the program times on
  /// its own, in call order (every LP solve of run_metis; every decide and
  /// repair of a replay), then the rest: the wall clock minus those.
  std::vector<double> call_parts_s;
  /// Registry image right after the main call: the traced run's layer
  /// figures describe that call alone, not the checks and probes after it.
  telemetry::MetricsSnapshot main_call;
  double replay_s = 0;        ///< time inside simulator replays
  double replay_metis_s = 0;  ///< ... of which inside Metis
  double ckpt_bytes = 0;
  double net_profit = 0;
  int accepted = 0;
  long lp_iterations = 0;
  sim::FaultStats faults;
  double refunds = 0;
  std::vector<std::string> failures;

  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
  void check_clean(const std::vector<std::string>& violations,
                   const std::string& what) {
    check(violations.empty(),
          what + (violations.empty() ? "" : ": " + violations.front()));
  }

  /// Fills call_parts_s from the pieces' milliseconds.
  void set_call_parts(const std::vector<double>& pieces_ms) {
    double inside_s = 0;
    for (double t : pieces_ms) {
      call_parts_s.push_back(t / 1e3);
      inside_s += t / 1e3;
    }
    call_parts_s.push_back(std::max(0.0, solve_s - inside_s));
  }
};

/// Per-layer probe measurements summed over the probed units.
struct ProbeSums {
  int units = 0;
  double instance_build_ms = 0;
  double yen_ms = 0;
  double build_rl_ms = 0;
  double build_bl_ms = 0;
  double rl_rows = 0;
  double rl_cols = 0;
  double choose_mu_us = 0;
  double trim_us = 0;
  double compute_loads_us = 0;
  double reroute_moves = 0;
  double prune_declines = 0;
  double encode_ms = 0;
  double decode_ms = 0;
  double write_ms = 0;
  double bytes = 0;
  double pool_tasks = 0;
  double pool_runs = 0;
  double pool_inline_runs = 0;
};

/// Short timings taken at many points of a run: after every unit, and
/// between the events of a post-decision fault replay.  A batch of set-ups
/// or checkpoint calls lasts milliseconds, inside one speed spell of the
/// host, so a batch taken once per unit reports the spell it fell in.  Each
/// metric is the fastest point's batch median: the host's fast speed, as
/// long as one point finds it, and no single lucky call.
class PointTimings {
 public:
  /// `setup` builds a workload's inputs into a spare copy of the workload,
  /// never into the one whose unit is running.
  explicit PointTimings(std::function<void()> setup)
      : setup_(std::move(setup)) {}

  /// One point: a batch of set-ups, then, once the checkpoint file at
  /// `path` exists, a batch of persist::load_online of it and one of
  /// persist::save of the loaded image to a new file next to it.
  void take(const std::string& path) {
    setup_s_.push_back(median_seconds(kPointSetups, setup_));
    if (!std::filesystem::exists(path)) return;
    persist::OnlineCheckpoint loaded;
    load_ms_.push_back(1e3 * median_seconds(kPointCheckpoints, [&] {
      loaded = persist::load_online(path);
    }));
    // Each save makes a new file.  A rename over an existing one makes
    // ext4 start writing the data back inside the timed call, and that
    // time follows the shared disk, not the program (spread 0.16-0.19 over
    // ten runs).
    const std::string target = path + ".timed";
    std::vector<double> save_s;
    for (int i = 0; i < kPointCheckpoints; ++i) {
      std::filesystem::remove(target);
      const Stopwatch timer;
      persist::save(loaded, target);
      save_s.push_back(timer.seconds());
    }
    save_ms_.push_back(1e3 * median(save_s));
  }

  double setup_s() const { return pct(setup_s_, 0); }
  double load_ms() const { return pct(load_ms_, 0); }
  double save_ms() const { return pct(save_ms_, 0); }
  std::size_t points() const { return setup_s_.size(); }

 private:
  std::function<void()> setup_;
  std::vector<double> setup_s_, load_ms_, save_ms_;
};

/// Replays a seeded fault stream against a committed decision, the way the
/// multi-cycle simulator repairs an offline decision: adopt it into a
/// CommittedBook, inject every event, validate the final book.  Fills the
/// unit's repair samples and fault stats and exports the book's checkpoint
/// image into `image`.  `between` runs after every event (timing points;
/// the traced run, which reads the replay time, passes a no-op).  The
/// replay runs kReplayRepeats times from the adoption, and each repair
/// keeps its fastest repeat.
void fault_replay(const core::SpmInstance& instance,
                  const core::Schedule& schedule, double rate,
                  std::uint64_t seed, const std::function<void()>& between,
                  UnitResult& out, persist::OnlineCheckpoint& image) {
  sim::FaultConfig faults;
  faults.rate = rate;
  const std::vector<sim::FaultEvent> events = sim::generate_fault_events(
      faults, instance.topology(), instance.num_slots(), Rng(seed));
  sim::RepairConfig repair;
  repair.metis = metis_options();
  telemetry::Histogram& repair_ms =
      telemetry::Registry::global().histogram("fault.repair_ms");

  for (int r = 0; r < kReplayRepeats; ++r) {
    const std::size_t before = repair_ms.samples().size();
    const double metis_before = metis_seconds();
    const Stopwatch timer;
    sim::CommittedBook book(instance.topology(), instance.config(), repair);
    book.adopt(instance, schedule);
    for (std::size_t k = 0; k < events.size(); ++k) {
      Rng rng = Rng(seed).split(kReplayRepairStream).split(k);
      book.inject(events[k], rng);
      between();
    }
    out.check_clean(book.validate(), "fault replay book");
    out.replay_s += timer.seconds();
    out.replay_metis_s += metis_seconds() - metis_before;

    const std::vector<double> all = repair_ms.samples();
    const std::vector<double> these(all.begin() + before, all.end());
    if (r == 0) {
      out.repair_ms = these;
    } else if (these.size() == out.repair_ms.size()) {
      for (std::size_t i = 0; i < these.size(); ++i) {
        out.repair_ms[i] = std::min(out.repair_ms[i], these[i]);
      }
    } else {
      out.check(false, "repeated fault replay made another number of repairs");
    }
    out.faults = book.stats();
    out.refunds = book.refunds();
    image = persist::OnlineCheckpoint{};
    image.fault_mode = true;
    book.export_state(image);
  }
}

/// Loads the checkpoint file at `path`, saves the image back to disk and
/// checks that it re-encodes, and re-saves, to the identical bytes.
/// Returns the loaded image.
persist::OnlineCheckpoint checkpoint_round_trip(const std::string& path,
                                                UnitResult& out) {
  const std::vector<std::uint8_t> original = read_file(path);
  const std::string resaved = path + ".resave";
  const persist::OnlineCheckpoint loaded = persist::load_online(path);
  persist::save(loaded, resaved);
  out.ckpt_bytes = static_cast<double>(original.size());
  out.check(persist::encode(loaded) == original,
            "loaded checkpoint does not re-encode to the same bytes");
  out.check(read_file(resaved) == original, "re-saved checkpoint differs");
  return loaded;
}

/// The per-layer calls of the traced run, on one unit's inputs and
/// decision: candidate-path and instance construction, the LP builders,
/// the Chernoff mu search, the BW limiter, the SP updater's guards on a
/// fresh MAA rounding, load accounting and the checkpoint codec.
void probe_layers(const core::SpmInstance& instance,
                  const core::Schedule& schedule,
                  const core::ChargingPlan& plan,
                  const persist::OnlineCheckpoint& image,
                  const std::string& work_dir, std::uint64_t seed,
                  Tracer& tracer, ProbeSums& sums) {
  const net::Topology& topo = instance.topology();
  const int n = instance.num_requests();
  ++sums.units;
  {
    auto span = tracer.span("core.instance");
    net::PathCache cache(topo);
    const core::SpmInstance warm(topo, instance.requests(), instance.config(),
                                 &cache);
    sums.instance_build_ms += 1e3 * median_seconds(kProbeRepeats, [&] {
      const core::SpmInstance again(topo, instance.requests(),
                                    instance.config(), &cache);
    });
  }
  {
    auto span = tracer.span("net.k_shortest_paths");
    std::set<std::pair<net::NodeId, net::NodeId>> pairs;
    for (const auto& r : instance.requests()) pairs.insert({r.src, r.dst});
    sums.yen_ms += 1e3 * median_seconds(kProbeRepeats, [&] {
      for (const auto& [src, dst] : pairs) {
        net::k_shortest_paths(topo, src, dst, instance.config().max_paths);
      }
    });
  }
  std::vector<bool> accepted(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) accepted[i] = schedule.accepted(i);
  {
    auto span = tracer.span("core.build_rl_spm");
    std::optional<core::SpmModel> model;
    sums.build_rl_ms += 1e3 * median_seconds(kProbeRepeats, [&] {
      model = core::build_rl_spm(instance, accepted);
    });
    sums.rl_rows += model->problem.num_rows();
    sums.rl_cols += model->problem.num_variables();
  }
  {
    auto span = tracer.span("core.build_bl_spm");
    sums.build_bl_ms += 1e3 * median_seconds(kProbeRepeats, [&] {
      const core::SpmModel model = core::build_bl_spm(instance, plan);
    });
  }
  {
    // TAA's own arguments: min positive purchase over the max free rate.
    auto span = tracer.span("core.choose_mu");
    int min_cap = 0;
    for (int c : plan.units) {
      if (c > 0 && (min_cap == 0 || c < min_cap)) min_cap = c;
    }
    double r_max = 0;
    for (const auto& r : instance.requests()) r_max = std::max(r_max, r.rate);
    constexpr int kCalls = 200;
    volatile double sink = 0;
    sums.choose_mu_us += 1e6 / kCalls * median_seconds(kProbeRepeats, [&] {
      for (int i = 0; i < kCalls; ++i) {
        sink = sink + core::choose_mu((min_cap + i % 2) / r_max,
                                      instance.num_slots(), instance.num_edges());
      }
    });
  }
  {
    auto span = tracer.span("core.compute_loads");
    sums.compute_loads_us += 1e6 * median_seconds(kProbeRepeats, [&] {
      const core::LoadMatrix loads = core::compute_loads(instance, schedule);
    });
  }
  {
    auto span = tracer.span("core.trim_min_utilization_link");
    sums.trim_us += 1e6 * median_seconds(kProbeRepeats, [&] {
      core::ChargingPlan trimmed = plan;
      core::trim_min_utilization_link(instance, schedule, trimmed);
    });
  }
  {
    // The SP updater's guards, in run_metis's order, on what it sees: an
    // MAA rounding of the accepted set.
    auto span = tracer.span("core.sp_update");
    core::MaaOptions maa = metis_options().maa;
    Rng rng = Rng(seed).split(0x5e);
    core::Schedule rounded = core::run_maa(instance, accepted, rng, maa).schedule;
    sums.reroute_moves += core::reroute_cheaper(instance, rounded);
    sums.prune_declines += core::prune_unprofitable(instance, rounded);
    sums.reroute_moves += core::reroute_cheaper(instance, rounded);
  }
  {
    // The same MAA call on the rounding ThreadPool, counted by its own
    // counters (the timed calls run on kRoundingThreads).
    auto span = tracer.span("util.ThreadPool");
    telemetry::Registry& registry = telemetry::Registry::global();
    const auto count = [&](std::string_view name) {
      return static_cast<double>(registry.counter(name).value());
    };
    const double tasks = count("pool.tasks"), runs = count("pool.runs"),
                 inline_runs = count("pool.inline_runs");
    core::MaaOptions maa = metis_options().maa;
    maa.threads = static_cast<int>(std::min(
        kProbePoolThreads, std::max(1u, std::thread::hardware_concurrency())));
    Rng rng = Rng(seed).split(0x5e);
    core::run_maa(instance, accepted, rng, maa);
    sums.pool_tasks += count("pool.tasks") - tasks;
    sums.pool_runs += count("pool.runs") - runs;
    sums.pool_inline_runs += count("pool.inline_runs") - inline_runs;
  }
  {
    auto span = tracer.span("persist");
    std::vector<std::uint8_t> bytes;
    sums.encode_ms += 1e3 * median_seconds(kProbeRepeats, [&] {
      bytes = persist::encode(image);
    });
    sums.decode_ms += 1e3 * median_seconds(kProbeRepeats, [&] {
      const persist::SnapshotReader reader(bytes, "probe");
      const persist::OnlineCheckpoint decoded = persist::decode_online(reader);
    });
    const std::string path = work_dir + "/probe.ckpt";
    sums.write_ms += 1e3 * median_seconds(kProbeRepeats, [&] {
      persist::write_bytes_atomic(bytes, path);
    });
    sums.bytes += static_cast<double>(bytes.size());
  }
}

class Workload {
 public:
  /// A fault replay's `between` callback: a timing point on the checkpoint
  /// file of the unit before, or nothing.
  std::function<void()> between(PointTimings* points) const {
    if (!points) return [] {};
    return [this, points] { points->take(checkpoint_path()); };
  }

  virtual ~Workload() = default;
  /// Builds every input from the seed, from scratch (timed as setup_s).
  virtual void setup() = 0;
  virtual int num_units() const = 0;
  /// Seconds one pass over the units takes on a quiet host, a constant: the
  /// window's pass count follows from it and --seconds alone, so every
  /// commit repeats each piece of work as often as its parent did.
  virtual double pass_seconds() const = 0;
  /// Runs unit u: its main public call (timed), the correctness checks,
  /// and the checkpoint round trip.  `points`, when set, takes a timing
  /// point after every event of a post-decision fault replay.
  virtual UnitResult run_unit(int u, Tracer& tracer, PointTimings* points) = 0;
  /// The checkpoint file the last unit left (it may not exist yet).
  virtual std::string checkpoint_path() const = 0;
  /// The per-layer probe calls on the state the last run_unit left.
  virtual void probe(Tracer& tracer, ProbeSums& sums) = 0;
};

// offline-b4: the paper's regime at the top of its Fig. 5 range.  One
// fixed book, decided again and again: solve time varies ~2x between books
// and ~10 % between rounding streams, more than a regression bound.
class OfflineB4 final : public Workload {
 public:
  explicit OfflineB4(const RunOptions& options) : work_dir_(options.work_dir) {}

  void setup() override {
    sim::Scenario scenario;
    scenario.network = sim::Network::B4;
    scenario.num_requests = 300;
    scenario.seed = kBookSeed;
    instance_.emplace(sim::make_instance(scenario));
  }

  int num_units() const override { return 1; }
  double pass_seconds() const override { return 5.2; }

  std::string checkpoint_path() const override {
    return work_dir_ + "/offline.ckpt";
  }

  UnitResult run_unit(int, Tracer& tracer, PointTimings* points) override {
    const core::SpmInstance& instance = *instance_;
    UnitResult out;
    Rng rng = Rng(kBookSeed).split(kRoundingStream);
    const Stopwatch timer;
    {
      auto span = tracer.span("core::run_metis");
      last_ = core::run_metis(instance, rng, metis_options());
    }
    out.solve_s = timer.seconds();
    out.main_call = telemetry::Registry::global().snapshot();
    out.decided = instance.num_requests();
    out.set_call_parts(
        telemetry::Registry::global().histogram("lp.solve_ms").samples());
    out.net_profit = last_.best.profit;
    out.accepted = last_.best.accepted;
    out.lp_iterations = last_.lp_stats.iterations;
    {
      auto span = tracer.span("sim::check_schedule");
      out.check_clean(sim::check_schedule(instance, last_.schedule, last_.plan),
                      "check_schedule");
      out.check_clean(sim::check_plan_covers_schedule(instance, last_.schedule,
                                                      last_.plan),
                      "check_plan_covers_schedule");
      const double profit =
          core::evaluate_with_plan(instance, last_.schedule, last_.plan).profit;
      out.check(std::abs(profit - last_.best.profit) <=
                    1e-9 * std::max(1.0, std::abs(profit)),
                "reported profit differs from the evaluated schedule");
    }
    {
      auto span = tracer.span("sim::CommittedBook fault replay");
      fault_replay(instance, last_.schedule, kOfflineReplayFaultRate,
                   kBookSeed, between(points), out, book_);
    }
    {
      auto span = tracer.span("persist round trip");
      const std::string path = checkpoint_path();
      persist::save(book_, path);
      book_ = checkpoint_round_trip(path, out);
    }
    return out;
  }

  void probe(Tracer& tracer, ProbeSums& sums) override {
    probe_layers(*instance_, last_.schedule, last_.plan, book_, work_dir_,
                 kBookSeed, tracer, sums);
  }

 private:
  static constexpr std::uint64_t kBookSeed = 1;
  static constexpr std::uint64_t kRoundingStream = 1;
  std::string work_dir_;
  std::optional<core::SpmInstance> instance_;
  core::MetisResult last_;
  persist::OnlineCheckpoint book_;
};

// online-b4: one caller in a closed loop, batch size 1, one fixed stream
// of 1210 arrivals (~1200 expected).
class OnlineB4 final : public Workload {
 public:
  explicit OnlineB4(const RunOptions& options) : work_dir_(options.work_dir) {}

  void setup() override {
    config_ = sim::OnlineConfig{};
    config_.base.network = sim::Network::B4;
    config_.base.num_requests = 1200;
    config_.base.seed = kStreamSeed;
    config_.batch_size = 1;
    config_.max_batch_delay = 0;
    config_.metis = metis_options();
    config_.checkpoint_every = 6;
    config_.checkpoint_path = work_dir_ + "/online.ckpt";
    const sim::OnlineAdmissionSimulator simulator(config_);
    std::vector<metis::workload::Request> book;
    for (const auto& arrival : simulator.arrivals()) {
      book.push_back(arrival.request);
    }
    book_instance_.emplace(sim::make_network(config_.base), std::move(book),
                           config_.base.instance);
  }

  int num_units() const override { return 1; }
  double pass_seconds() const override { return 7.0; }

  std::string checkpoint_path() const override {
    return config_.checkpoint_path;
  }

  UnitResult run_unit(int, Tracer& tracer, PointTimings* points) override {
    const core::SpmInstance& instance = *book_instance_;
    UnitResult out;
    const sim::OnlineAdmissionSimulator simulator(config_);
    const double metis_before = metis_seconds();
    const Stopwatch timer;
    {
      auto span = tracer.span("sim::OnlineAdmissionSimulator::run");
      last_ = simulator.run();
    }
    out.solve_s = timer.seconds();
    out.main_call = telemetry::Registry::global().snapshot();
    out.replay_s = out.solve_s;
    out.replay_metis_s = metis_seconds() - metis_before;
    out.decided = last_.total_arrivals;
    for (const sim::BatchRecord& b : last_.batches) {
      out.decide_ms.push_back(b.decide_ms);
    }
    out.set_call_parts(out.decide_ms);
    out.net_profit = last_.net_profit;
    out.accepted = last_.total_accepted;
    out.lp_iterations = last_.lp_stats.iterations;
    {
      auto span = tracer.span("sim::check_schedule");
      out.check(last_.total_arrivals == instance.num_requests(),
                "replay saw a different stream than set-up generated");
      out.check_clean(sim::check_schedule(instance, last_.schedule, last_.plan),
                      "check_schedule");
      out.check_clean(sim::check_plan_covers_schedule(instance, last_.schedule,
                                                      last_.plan),
                      "check_plan_covers_schedule");
      out.check(last_.net_profit == last_.profit.profit,
                "fault-free replay reports refunds");
    }
    {
      auto span = tracer.span("sim::CommittedBook fault replay");
      persist::OnlineCheckpoint unused;
      fault_replay(instance, last_.schedule, kOnlineReplayFaultRate,
                   kStreamSeed, between(points), out, unused);
    }
    {
      auto span = tracer.span("persist round trip");
      image_ = checkpoint_round_trip(config_.checkpoint_path, out);
    }
    return out;
  }

  void probe(Tracer& tracer, ProbeSums& sums) override {
    probe_layers(*book_instance_, last_.schedule, last_.plan, image_, work_dir_,
                 kStreamSeed, tracer, sums);
  }

 private:
  static constexpr std::uint64_t kStreamSeed = 1;
  std::string work_dir_;
  sim::OnlineConfig config_;
  std::optional<core::SpmInstance> book_instance_;
  sim::OnlineResult last_;
  persist::OnlineCheckpoint image_;
};

// faults-b4: six seeded fault cycles (~600 arrivals, batch size 8, ~12
// faults each), repaired by rerouting; one mid-cycle checkpoint per cycle.
class FaultsB4 final : public Workload {
 public:
  explicit FaultsB4(const RunOptions& options) : work_dir_(options.work_dir) {}

  void setup() override {
    configs_.clear();
    events_.clear();
    arrivals_.clear();
    for (int c = 0; c < kCycles; ++c) {
      sim::OnlineConfig config;
      config.base.network = sim::Network::B4;
      config.base.num_requests = 600;
      // Cycle seeds as the multi-cycle simulator derives them from seed 1.
      config.base.seed = 1 + static_cast<std::uint64_t>(c) * 7919;
      config.batch_size = 8;
      config.max_batch_delay = 0;
      config.metis = metis_options();
      config.faults.rate = kFaultRate;
      config.repair_policy = sim::RepairPolicy::Reroute;
      config.refund_factor = 1.0;
      config.checkpoint_every = 6;
      config.checkpoint_path = checkpoint_path();
      const sim::OnlineAdmissionSimulator simulator(config);
      arrivals_.push_back(static_cast<int>(simulator.arrivals().size()));
      events_.push_back(sim::generate_fault_events(
          config.faults, sim::make_network(config.base),
          config.base.instance.num_slots, Rng(config.base.seed)));
      configs_.push_back(std::move(config));
    }
  }

  int num_units() const override { return kCycles; }
  double pass_seconds() const override { return 3.3; }

  std::string checkpoint_path() const override {
    return work_dir_ + "/faults.ckpt";
  }

  UnitResult run_unit(int c, Tracer& tracer, PointTimings*) override {
    UnitResult out;
    const sim::OnlineAdmissionSimulator simulator(configs_[c]);
    const double metis_before = metis_seconds();
    const Stopwatch timer;
    {
      // Validates the final book against the mutated WAN (throws).
      auto span = tracer.span("sim::OnlineAdmissionSimulator::run");
      last_ = simulator.run();
    }
    out.solve_s = timer.seconds();
    out.main_call = telemetry::Registry::global().snapshot();
    out.replay_s = out.solve_s;
    out.replay_metis_s = metis_seconds() - metis_before;
    out.decided = last_.total_arrivals;
    for (const sim::BatchRecord& b : last_.batches) {
      out.decide_ms.push_back(b.decide_ms);
    }
    out.repair_ms =
        telemetry::Registry::global().histogram("fault.repair_ms").samples();
    std::vector<double> pieces_ms = out.decide_ms;
    pieces_ms.insert(pieces_ms.end(), out.repair_ms.begin(), out.repair_ms.end());
    out.set_call_parts(pieces_ms);
    out.net_profit = last_.net_profit;
    out.accepted = last_.total_accepted;
    out.lp_iterations = last_.lp_stats.iterations;
    out.faults = last_.fault_stats;
    out.refunds = last_.refunds;
    out.check(last_.fault_events == events_[c],
              "replay saw a different fault stream than set-up generated");
    out.check(last_.total_arrivals >= arrivals_[c],
              "replay decided fewer arrivals than the stream holds");
    out.check(std::abs(last_.net_profit - (last_.profit.profit - last_.refunds)) <=
                  1e-9 * std::max(1.0, std::abs(last_.profit.profit)),
              "net profit is not profit minus refunds");
    {
      auto span = tracer.span("persist round trip");
      image_ = checkpoint_round_trip(configs_[c].checkpoint_path, out);
    }
    unit_ = c;
    return out;
  }

  void probe(Tracer& tracer, ProbeSums& sums) override {
    // The final book on the pristine WAN, each accepted request on its
    // reserved path (a required candidate of its path set).
    const sim::OnlineConfig& config = configs_[unit_];
    const core::SpmInstance instance(sim::make_network(config.base),
                                     last_.fault_book, config.base.instance,
                                     nullptr, &last_.fault_paths);
    core::Schedule schedule =
        core::Schedule::all_declined(instance.num_requests());
    for (int i = 0; i < instance.num_requests(); ++i) {
      const net::Path& reserved = last_.fault_paths[i];
      if (reserved.empty()) continue;
      const auto& paths = instance.paths(i);
      schedule.path_choice[i] = static_cast<int>(
          std::find(paths.begin(), paths.end(), reserved) - paths.begin());
    }
    probe_layers(instance, schedule, last_.plan, image_, work_dir_,
                 config.base.seed, tracer, sums);
  }

 private:
  static constexpr int kCycles = 3;
  std::string work_dir_;
  std::vector<sim::OnlineConfig> configs_;
  std::vector<std::vector<sim::FaultEvent>> events_;
  std::vector<int> arrivals_;
  sim::OnlineResult last_;
  persist::OnlineCheckpoint image_;
  int unit_ = 0;
};

std::unique_ptr<Workload> make_workload(const RunOptions& options) {
  if (options.workload == "offline-b4") return std::make_unique<OfflineB4>(options);
  if (options.workload == "online-b4") return std::make_unique<OnlineB4>(options);
  if (options.workload == "faults-b4") return std::make_unique<FaultsB4>(options);
  throw std::invalid_argument("unknown workload '" + options.workload + "'");
}

struct Signature {
  double net_profit = 0;
  int accepted = 0;
  long lp_iterations = 0;
  bool operator==(const Signature&) const = default;
};

/// Runs units, counts each as one attempted operation and any failed check
/// or exception as one failure, and checks that a repeated unit reproduces
/// its first run exactly.
class UnitRunner {
 public:
  UnitRunner(Workload& workload, RunReport& report)
      : workload_(workload),
        report_(report),
        first_(static_cast<std::size_t>(workload.num_units())) {}

  std::optional<UnitResult> run(int u, Tracer& tracer,
                                PointTimings* points = nullptr) {
    ++report_.attempted;
    telemetry::Registry::global().reset();
    UnitResult out;
    try {
      out = workload_.run_unit(u, tracer, points);
    } catch (const std::exception& e) {
      out.failures.push_back(std::string("threw: ") + e.what());
    }
    const Signature sig{out.net_profit, out.accepted, out.lp_iterations};
    if (out.failures.empty()) {
      auto& first = first_[static_cast<std::size_t>(u)];
      if (!first) first = sig;
      out.check(*first == sig, "repeated unit gave a different decision");
    }
    if (!out.failures.empty()) {
      ++report_.failed;
      report_.notes.push_back("unit " + std::to_string(u) +
                              " failed: " + out.failures.front());
      return std::nullopt;
    }
    return out;
  }

 private:
  Workload& workload_;
  RunReport& report_;
  std::vector<std::optional<Signature>> first_;
};

/// Timings of the window: one row per pass, holding the pass's units (or
/// decides, or repairs) in the order it made them.
struct Samples {
  using Rows = std::vector<std::vector<double>>;
  Rows solve_s, call_parts_s, decide_ms, repair_ms;
  std::vector<double> decided;     ///< per unit, first pass
  std::vector<double> bytes;       ///< per unit, last pass
  std::vector<std::size_t> parts;  ///< call parts per unit, first pass
  double pass_profit = 0;          ///< net profit summed over the first pass

  void begin_pass() {
    for (Rows* rows : {&solve_s, &call_parts_s, &decide_ms, &repair_ms}) {
      rows->emplace_back();
    }
    bytes.clear();
  }

  void add(const UnitResult& u) {
    solve_s.back().push_back(u.solve_s);
    call_parts_s.back().insert(call_parts_s.back().end(),
                               u.call_parts_s.begin(), u.call_parts_s.end());
    decide_ms.back().insert(decide_ms.back().end(), u.decide_ms.begin(),
                            u.decide_ms.end());
    repair_ms.back().insert(repair_ms.back().end(), u.repair_ms.begin(),
                            u.repair_ms.end());
    // A checkpoint image carries the telemetry registry, whose names
    // register lazily: the first pass's images are smaller.
    bytes.push_back(u.ckpt_bytes);
    if (solve_s.size() == 1) {
      decided.push_back(u.decided);
      parts.push_back(u.call_parts_s.size());
      pass_profit += u.net_profit;
    }
  }
};

/// Each piece of work's fastest repeat over the passes.  The inputs are
/// fixed, so every pass makes the same units, decides and repairs in the
/// same order.  The host is a shared VM with two speeds: fixed work takes
/// 1.3-1.6x as long in its slow spells, which last from a second to
/// minutes.  A median over a run then reports how long the host was slow
/// (offline_solve_s spread 0.35 over ten runs); the fastest repeat reports
/// the program (0.11 on the same runs).  A row that lost a failed unit's
/// samples does not line up and is left out.
std::vector<double> fastest(const Samples::Rows& passes) {
  if (passes.empty()) return {};
  std::vector<double> best(passes.front().size());
  for (std::size_t i = 0; i < best.size(); ++i) {
    best[i] = passes.front()[i];
    for (const std::vector<double>& pass : passes) {
      if (pass.size() == best.size()) best[i] = std::min(best[i], pass[i]);
    }
  }
  return best;
}

std::size_t total_size(const Samples::Rows& passes) {
  std::size_t n = 0;
  for (const std::vector<double>& pass : passes) n += pass.size();
  return n;
}

/// Peak resident set of this process image, from /proc/self/status VmHWM.
/// getrusage's ru_maxrss would not do: Linux carries it across exec, so it
/// reports the launching Python process's peak when that one is larger.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.starts_with("VmHWM:")) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

std::string fmt(double v) {
  std::ostringstream os;
  os.precision(4);
  os << v;
  return os.str();
}

/// Each unit's main-call time composed from its call parts' fastest
/// repeats.  A run_metis call is 32 LP solves and a replay thousands of
/// short decides: composed, each keeps its own fastest repeat, where the
/// whole call's fastest repeat still holds every slow spell of the host
/// that the call ran through.
std::vector<double> composed_call_s(const Samples& s) {
  const std::vector<double> parts = fastest(s.call_parts_s);
  std::vector<double> call_s;
  std::size_t at = 0;
  for (std::size_t n : s.parts) {
    double sum = 0;
    for (std::size_t i = 0; i < n && at < parts.size(); ++i) sum += parts[at++];
    call_s.push_back(sum);
  }
  return call_s;
}

void end_to_end_metrics(const Samples& s, const PointTimings& points,
                        RunReport& report) {
  const std::vector<double> solve_s = composed_call_s(s);
  // offline-b4 decides its whole book in one call: that call is its decide.
  std::vector<double> decide_ms = fastest(s.decide_ms);
  if (decide_ms.empty()) {
    for (double t : solve_s) decide_ms.push_back(t * 1e3);
  }
  const std::vector<double> repair_ms = fastest(s.repair_ms);
  std::vector<double> decisions_per_s;
  for (std::size_t i = 0; i < solve_s.size() && i < s.decided.size(); ++i) {
    decisions_per_s.push_back(s.decided[i] / solve_s[i]);
  }
  auto& m = report.metrics;
  m.push_back({"setup_s", points.setup_s(), "s"});
  m.push_back({"offline_solve_s", median(solve_s), "s"});
  m.push_back({"net_profit", s.pass_profit, "profit"});
  m.push_back({"decide_p50_ms", median(decide_ms), "ms"});
  m.push_back({"decide_p99_ms", pct(decide_ms, 99), "ms"});
  m.push_back({"decisions_per_s", median(decisions_per_s), "1/s"});
  m.push_back({"repair_p50_ms", median(repair_ms), "ms"});
  m.push_back({"repair_p90_ms", pct(repair_ms, 90), "ms"});
  m.push_back({"ckpt_save_ms", points.save_ms(), "ms"});
  m.push_back({"ckpt_load_ms", points.load_ms(), "ms"});
  m.push_back({"ckpt_bytes", median(s.bytes), "bytes"});
  m.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
  report.notes.push_back(
      "samples: passes=" + std::to_string(s.solve_s.size()) +
      " solve=" + std::to_string(total_size(s.solve_s)) +
      " decide=" + std::to_string(total_size(s.decide_ms)) +
      " repair=" + std::to_string(total_size(s.repair_ms)) +
      " timing_points=" + std::to_string(points.points()));
  std::ostringstream solves;
  solves << "solve_s samples:";
  for (const std::vector<double>& pass : s.solve_s) {
    for (double t : pass) solves << " " << fmt(t);
  }
  solves << "; composed:";
  for (double t : solve_s) solves << " " << fmt(t);
  report.notes.push_back(solves.str());
}

void per_layer_metrics(const LayerTotals& t, const ProbeSums& p,
                       const std::vector<UnitResult>& units,
                       double overhead_ms, RunReport& report) {
  const double n = static_cast<double>(units.size());
  const double probes = std::max(1, p.units);
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  const auto per_unit_ms = [&](double seconds) { return seconds * 1e3 / n; };
  const auto per_unit = [&](std::string_view counter) {
    return static_cast<double>(t.counter(counter)) / n;
  };
  double replay_self_s = 0, repairs = 0, victims = 0, rerouted = 0,
         shed = 0, refunds = 0;
  for (const UnitResult& u : units) {
    replay_self_s += u.replay_s - u.replay_metis_s;
    repairs += u.faults.repairs;
    victims += u.faults.victims;
    rerouted += u.faults.rerouted;
    shed += u.faults.shed_rounds;
    refunds += u.refunds;
  }
  const double warm = t.counter("lp.warm_starts");
  const double cold = t.counter("lp.cold_starts");
  auto& m = report.metrics;
  // lp
  m.push_back({"lp.solve_ms", per_unit_ms(t.total_of("lp_solve")), "ms"});
  m.push_back({"lp.phase1_ms", per_unit_ms(t.total_of("phase1")), "ms"});
  m.push_back({"lp.phase2_ms", per_unit_ms(t.total_of("phase2")), "ms"});
  m.push_back({"lp.presolve_ms", per_unit_ms(t.total_of("presolve")), "ms"});
  m.push_back({"lp.iterations", per_unit("lp.iterations"), "count"});
  m.push_back({"lp.iters_per_solve",
               ratio(t.counter("lp.iterations"), t.counter("lp.solves")),
               "count"});
  m.push_back({"lp.factorizations", per_unit("lp.factorizations"), "count"});
  m.push_back({"lp.cold_starts", cold / n, "count"});
  m.push_back({"lp.warm_starts", warm / n, "count"});
  m.push_back({"lp.warm_start_ratio", ratio(warm, warm + cold), "ratio"});
  m.push_back({"lp.partial_hit_ratio",
               ratio(t.counter("lp.partial_hits"), t.counter("lp.pricing_passes")),
               "ratio"});
  m.push_back({"lp.basis_repairs", per_unit("lp.basis_repairs"), "count"});
  m.push_back({"lp.basis_lift_ratio",
               ratio(t.counter("maa.basis_lifts") + t.counter("taa.basis_lifts"),
                     t.counter("maa.solves") + t.counter("taa.solves")),
               "ratio"});
  // core.lp_builder
  m.push_back({"core.build_rl_ms", p.build_rl_ms / probes, "ms"});
  m.push_back({"core.build_bl_ms", p.build_bl_ms / probes, "ms"});
  m.push_back({"core.rl_rows", p.rl_rows / probes, "count"});
  m.push_back({"core.rl_cols", p.rl_cols / probes, "count"});
  // core.instance + net
  m.push_back({"core.instance_build_ms", p.instance_build_ms / probes, "ms"});
  m.push_back({"net.yen_ms", p.yen_ms / probes, "ms"});
  m.push_back({"net.path_cache_hit_ratio",
               ratio(t.counter("net.path_cache_hits"),
                     t.counter("net.path_cache_hits") +
                         t.counter("net.path_cache_misses")),
               "ratio"});
  m.push_back({"net.path_cache_stale", per_unit("net.path_cache_stale"), "count"});
  // core.maa / core.taa
  m.push_back({"core.maa_self_ms", per_unit_ms(t.self_of("maa")), "ms"});
  m.push_back({"core.rounding_ms", per_unit_ms(t.total_of("rounding")), "ms"});
  m.push_back({"core.taa_self_ms", per_unit_ms(t.self_of("taa")), "ms"});
  m.push_back({"core.walk_ms", per_unit_ms(t.total_of("walk")), "ms"});
  m.push_back({"core.augment_ms", per_unit_ms(t.total_of("augment")), "ms"});
  m.push_back({"core.choose_mu_us", p.choose_mu_us / probes, "us"});
  // core.metis
  m.push_back({"core.metis_rounds", per_unit("metis.rounds"), "count"});
  m.push_back({"core.trim_us", p.trim_us / probes, "us"});
  m.push_back({"core.sp_update_ms", per_unit_ms(t.total_of("sp_update")), "ms"});
  m.push_back({"core.reroute_moves", p.reroute_moves / probes, "count"});
  m.push_back({"core.prune_declines", p.prune_declines / probes, "count"});
  m.push_back({"core.compute_loads_us", p.compute_loads_us / probes, "us"});
  // sim
  m.push_back({"sim.batches", per_unit("online.batches"), "count"});
  m.push_back({"sim.replay_self_ms", per_unit_ms(replay_self_s), "ms"});
  m.push_back({"sim.repairs", repairs / n, "count"});
  m.push_back({"sim.victims", victims / n, "count"});
  m.push_back({"sim.reroute_ratio", ratio(rerouted, victims), "ratio"});
  m.push_back({"sim.shed_rounds", shed / n, "count"});
  m.push_back({"sim.refunds", refunds / n, "profit"});
  // persist
  m.push_back({"persist.encode_ms", p.encode_ms / probes, "ms"});
  m.push_back({"persist.decode_ms", p.decode_ms / probes, "ms"});
  m.push_back({"persist.write_ms", p.write_ms / probes, "ms"});
  m.push_back({"persist.bytes", p.bytes / probes, "bytes"});
  // util
  m.push_back({"util.pool_tasks", p.pool_tasks / probes, "count"});
  m.push_back({"util.pool_inline_ratio",
               ratio(p.pool_inline_runs, p.pool_inline_runs + p.pool_runs),
               "ratio"});
  m.push_back({"trace.overhead_ms", overhead_ms, "ms"});
}

}  // namespace

RunReport run_workload(const RunOptions& options) {
  std::unique_ptr<Workload> workload = make_workload(options);
  RunReport report;
  Tracer untraced(false);

  workload->setup();
  UnitRunner runner(*workload, report);
  const int units = workload->num_units();
  // The inputs are fixed; the run seed orders the units of every pass.
  Rng order_rng(options.seed);
  const std::vector<std::size_t> order =
      order_rng.permutation(static_cast<std::size_t>(units));
  // Set-up is timed at the timing points of the window, on a spare copy of
  // the workload: timed once, first thing in the process, it spread 0.3-0.5
  // between runs.
  const std::unique_ptr<Workload> spare = make_workload(options);
  PointTimings points([&] { spare->setup(); });
  PointTimings* const timed_points = options.trace ? nullptr : &points;
  Samples samples;
  // Whole passes only, so every unit has as many repeats as the others.  The
  // count depends on --seconds and the workload, never on how fast this
  // commit runs: a slower change gets as many repeats to take the fastest
  // of as its parent.  There is no separate warm-up: the first pass is the
  // reference of the repetition check, and its cold start only loses to
  // the other passes' fastest repeats.  The traced run makes two untraced
  // passes, the second to compare the traced pass against.
  const int passes =
      options.trace ? 2
                    : std::max(kMinPasses, static_cast<int>(options.seconds /
                                                            workload->pass_seconds()));
  const Stopwatch window;
  for (int p = 0; p < passes; ++p) {
    samples.begin_pass();
    for (std::size_t u : order) {
      if (auto out = runner.run(static_cast<int>(u), untraced, timed_points)) {
        samples.add(*out);
      }
      if (timed_points) timed_points->take(workload->checkpoint_path());
    }
  }
  report.notes.push_back("window: " + std::to_string(passes) + " passes in " +
                         fmt(window.seconds()) + " s");

  if (!options.trace) {
    end_to_end_metrics(samples, points, report);
    return report;
  }

  Tracer tracer(true);
  LayerTotals totals;
  ProbeSums probes;
  std::vector<UnitResult> traced;
  {
    auto span = tracer.span(options.workload);
    for (std::size_t u : order) {
      auto out = runner.run(static_cast<int>(u), tracer);
      if (!out) continue;
      totals.add(out->main_call);
      traced.push_back(std::move(*out));
      auto probe_span = tracer.span("probe");
      workload->probe(tracer, probes);
    }
  }
  double untraced_s = 0, traced_s = 0;
  for (double s : samples.solve_s.back()) untraced_s += s;
  for (const UnitResult& u : traced) traced_s += u.solve_s;
  const double overhead_ms =
      traced.empty() ? 0.0 : (traced_s - untraced_s) * 1e3 / traced.size();
  report.notes.push_back("tracing overhead: " + fmt(overhead_ms) +
                         " ms per unit (" +
                         fmt(100.0 * (traced_s - untraced_s) /
                             std::max(untraced_s, 1e-12)) +
                         "% of untraced)");
  if (traced.empty()) return report;
  per_layer_metrics(totals, probes, traced, overhead_ms, report);

  if (!options.trace_out.empty()) {
    std::ofstream out(options.trace_out);
    out << "{\"workload\":";
    metis::json::write_escaped(out, options.workload);
    out << ",\"seed\":" << options.seed << ",\"benchmark\":";
    tracer.write_json(out);
    out << ",\"program\":";
    totals.write_json(out);
    out << "}\n";
  }
  return report;
}

}  // namespace perfbench
