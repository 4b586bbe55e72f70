// One repetition of one end-to-end benchmark workload, in its own process.
//
//   e2e_bench --workload market_brokered|grid_1000|replay_swf --seed N
//             --root <repo checkout> --work <scratch dir>
//             [--traced 0|1] [--scale F] [--spans FILE]
//
// The repetition sets the scenario up several times (the median is
// setup_s) and runs it once through core::Scenario -> GridSystem::run on the
// classic single-threaded executor. It then exports the report JSON, trace
// JSONL and Prometheus text into memory, checks the output, and prints one
// JSON object on stdout. With --traced 1 the strategies, bid generators, client
// evaluator and workload source are wrapped in timing decorators
// (probes.hpp), the host-time profiler is on, and the object carries the
// per-layer split. e2ebench/run.py runs many repetitions and reports
// medians; see e2ebench/README.md.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "probes.hpp"
#include "src/core/scenario.hpp"
#include "src/faucets/central_store.hpp"
#include "src/obs/exporters.hpp"
#include "src/obs/profiler.hpp"
#include "src/store/store.hpp"

using namespace faucets;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct ClusterDef {
  std::string name;
  int procs = 0;
  double cost = 0.0;
  std::string strategy;
  std::string bidgen;
};

struct Workload {
  std::string ini;
  std::vector<std::string> strategies;  // per cluster, scenario keys
  std::uint64_t expected_jobs = 0;
  bool durable = false;  // has a [store] section
};

std::string clusters_ini(const std::vector<ClusterDef>& clusters,
                         double credits) {
  std::ostringstream ini;
  for (const ClusterDef& c : clusters) {
    ini << "[cluster]\nname = " << c.name << "\nprocs = " << c.procs
        << "\ncost = " << c.cost << "\nstrategy = " << c.strategy
        << "\nbidgen = " << c.bidgen << "\n";
    if (credits > 0.0) ini << "credits = " << credits << "\n";
    ini << "\n";
  }
  return ini.str();
}

std::vector<std::string> keys(const std::vector<ClusterDef>& clusters) {
  std::vector<std::string> out;
  for (const ClusterDef& c : clusters) out.push_back(c.strategy);
  return out;
}

std::uint64_t scaled(std::uint64_t n, double scale) {
  return std::max<std::uint64_t>(
      40, static_cast<std::uint64_t>(std::llround(static_cast<double>(n) * scale)));
}

// The CI chaos grid of ci/run.sh without its faults, at load 0.9: deep
// queues behind brokered admission on two payoff clusters.
Workload market_brokered(std::uint64_t seed, double scale) {
  const std::vector<ClusterDef> clusters = {
      {"turing", 256, 0.0008, "payoff", "utilization"},
      {"hopper", 256, 0.0005, "equipartition", "baseline"},
      {"lovelace", 512, 0.0012, "payoff", "baseline"},
  };
  Workload w;
  w.expected_jobs = scaled(20000, scale);
  std::ostringstream ini;
  ini << "[grid]\nusers = 6\nbrokered = true\nwatchdog = 600\nseed = " << seed
      << "\n\n"
      << clusters_ini(clusters, 0.0) << "[workload]\njobs = " << w.expected_jobs
      << "\nload = 0.9\n";
  w.ini = ini.str();
  w.strategies = keys(clusters);
  return w;
}

// The E13 grid of bench/bench_shard.cpp: ten 64-proc payoff servers do the
// work, 990 4-proc fcfs servers load the Central Server's directory filter.
Workload grid_1000(std::uint64_t seed, double scale) {
  std::vector<ClusterDef> clusters;
  for (int i = 0; i < 1000; ++i) {
    const bool big = i % 100 == 0;
    clusters.push_back({"c" + std::to_string(i), big ? 64 : 4,
                        0.0005 + (i % 7) * 0.0001, big ? "payoff" : "fcfs",
                        "baseline"});
  }
  Workload w;
  w.expected_jobs = scaled(10000, scale);
  std::ostringstream ini;
  ini << "[grid]\nbilling = dollars\nusers = 100\nevaluator = least-cost\n"
         "brokered = false\nseed = "
      << seed << "\n\n"
      << clusters_ini(clusters, 0.0) << "[workload]\njobs = " << w.expected_jobs
      << "\nload = 0.7\nmin_procs_lo = 32\nmin_procs_hi = 48\n";
  w.ini = ini.str();
  w.strategies = keys(clusters);
  return w;
}

// The committed SWF fixture, cloned 64x per user and replayed at twice its
// speed over three non-payoff clusters with barter billing and, when
// `store_dir` is set, a durable store there.
Workload replay_swf(std::uint64_t seed, double scale, const std::string& root,
                    const std::string& store_dir) {
  const std::vector<ClusterDef> clusters = {
      {"babbage", 128, 0.0006, "fcfs", "market"},
      {"noether", 128, 0.0008, "backfill", "utilization"},
      {"hamilton", 256, 0.0005, "equipartition", "baseline"},
  };
  constexpr std::uint64_t kFixtureJobs = 240 * 64;
  Workload w;
  w.expected_jobs = std::min(kFixtureJobs, scaled(kFixtureJobs, scale));
  std::ostringstream ini;
  ini << "[grid]\nbilling = barter\nusers = 8\nevaluator = earliest-completion\n"
         "seed = "
      << seed << "\n\n"
      << clusters_ini(clusters, 1e6) << "[trace]\nfile = " << root
      << "/ci/replay_fixture.swf\nuser_multiplier = 64\ntime_compression = 2\n"
         "jitter = 40\nmalleability = 0.5\ndeadline_fraction = 0.5\nmax_jobs = "
      << w.expected_jobs << "\n";
  if (!store_dir.empty()) {
    ini << "\n[store]\ndir = " << store_dir
        << "\nsync = batch\nsnapshot_every = 500\n";
  }
  w.ini = ini.str();
  w.strategies = keys(clusters);
  w.durable = !store_dir.empty();
  return w;
}

Workload make_workload(const std::string& name, std::uint64_t seed, double scale,
                       const std::string& root, const std::string& store_dir) {
  if (name == "market_brokered") return market_brokered(seed, scale);
  if (name == "grid_1000") return grid_1000(seed, scale);
  if (name == "replay_swf") return replay_swf(seed, scale, root, store_dir);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank quantile of a sorted sample.
double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size() - 1, rank == 0 ? 0 : rank - 1)];
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  std::string root = ".";
  std::string work = ".";
  bool traced = false;
  double scale = 1.0;
  std::string spans_path;
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
      have_seed = true;
    } else if (key == "--root") {
      a.root = value;
    } else if (key == "--work") {
      a.work = value;
    } else if (key == "--traced") {
      a.traced = value == "1";
    } else if (key == "--scale") {
      a.scale = std::stod(value);
    } else if (key == "--spans") {
      a.spans_path = value;
    } else {
      throw std::invalid_argument("unknown argument '" + key + "'");
    }
  }
  if (!have_workload || !have_seed || argc % 2 == 0) {
    throw std::invalid_argument(
        "usage: e2e_bench --workload NAME --seed N [--root DIR] [--work DIR] "
        "[--traced 0|1] [--scale F] [--spans FILE]");
  }
  return a;
}

/// Ordered name -> value map, printed as one JSON object.
using Values = std::vector<std::pair<std::string, double>>;

void write_values(std::ostream& os, const Values& values) {
  os << "{";
  for (std::size_t i = 0; i < values.size(); ++i) {
    os << (i == 0 ? "" : ",") << "\"" << values[i].first << "\":"
       << std::setprecision(17) << values[i].second;
  }
  os << "}";
}

struct Built {
  std::unique_ptr<core::GridSystem> grid;
  std::unique_ptr<job::WorkloadSource> source;
  double parse_s = 0.0;
  double build_s = 0.0;
};

/// Parse + make_grid + make_source once, timed as one setup.
Built set_up(const Workload& w, bool traced,
             const std::shared_ptr<e2e::Recorder>& rec) {
  Built b;
  const auto t0 = Clock::now();
  core::Scenario scenario = core::Scenario::parse_string(w.ini);
  b.parse_s = seconds_since(t0);
  if (traced) {
    scenario.grid.profile.enabled = true;
    e2e::decorate_factories(scenario.clusters, w.strategies, scenario.grid, rec);
  }
  const auto t1 = Clock::now();
  b.grid = scenario.make_grid();
  b.source = scenario.make_source();
  if (traced) b.source = e2e::decorate_source(std::move(b.source), rec);
  b.build_s = seconds_since(t1);
  return b;
}

// setup_s is the median of at least kMinSetups set-ups, repeated until
// kSetupBudgetS has passed (cheap set-ups get more samples).
constexpr int kMinSetups = 5;
constexpr int kMaxSetups = 200;
constexpr double kSetupBudgetS = 0.25;
// Traced repetitions time kExports exports after the untimed one that every
// repetition makes (it sizes the buffers and feeds the digests); the
// per-layer export times are their medians.
constexpr int kExports = 3;

/// A buffered ostream target that appends to a caller-owned string, so
/// repeated exports reuse its capacity and time formatting rather than
/// page faults.
class StringSink final : public std::streambuf {
 public:
  explicit StringSink(std::string& out) : out_(out) { reset(); }

 protected:
  int_type overflow(int_type c) override {
    drain();
    if (!traits_type::eq_int_type(c, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(c);
      pbump(1);
    }
    return traits_type::not_eof(c);
  }
  int sync() override {
    drain();
    return 0;
  }

 private:
  void reset() { setp(buf_.data(), buf_.data() + buf_.size()); }
  void drain() {
    out_.append(pbase(), static_cast<std::size_t>(pptr() - pbase()));
    reset();
  }

  std::string& out_;
  std::array<char, 1 << 16> buf_{};
};

/// Time one export into `buf` (cleared first, capacity kept).
template <typename Fn>
double timed_export(std::string& buf, Fn&& write) {
  buf.clear();
  StringSink sink(buf);
  std::ostream os(&sink);
  const auto t0 = Clock::now();
  write(os);
  os.flush();
  return seconds_since(t0);
}

/// The traced per-layer split: decorator spans by layer and strategy, the
/// profiler's entity-class and message-kind times, and the dispatch
/// residual. Appends to `layers`; a negative part, or a profiled wall
/// longer than the run, appends to `errors`.
void add_layer_split(core::GridSystem& grid, const e2e::Recorder& rec,
                     const core::GridReport& report, double run_s, Values& layers,
                     std::vector<std::string>& errors) {
  const obs::Profiler* prof = grid.profiler();
  if (prof == nullptr) {
    errors.push_back("profiler missing (built with FAUCETS_PROFILE=0?)");
    return;
  }
  const double ns = obs::HostClock::ns_per_tick();
  const auto sec = [ns](std::uint64_t ticks) {
    return static_cast<double>(ticks) * ns * 1e-9;
  };
  const obs::ProfilerLane& lane = prof->lane(0);
  const double wall = prof->wall_seconds();

  // Decorator time by layer/strategy and by enclosing profiler class.
  struct Acc {
    std::uint64_t calls = 0;
    std::uint64_t ticks = 0;
    std::vector<double> us;
  };
  const std::size_t nstrat = rec.strategies().size();
  std::vector<Acc> admit(nstrat), schedule(nstrat);
  Acc bid, select, source;
  std::array<std::uint64_t, obs::kProfClassCount> nested{};
  for (const e2e::Span& s : rec.spans()) {
    const std::uint64_t d = s.end - s.start;
    Acc* acc = nullptr;
    switch (s.layer) {
      case e2e::Layer::kAdmit: acc = &admit[s.strategy]; break;
      case e2e::Layer::kSchedule: acc = &schedule[s.strategy]; break;
      case e2e::Layer::kBid: acc = &bid; break;
      case e2e::Layer::kSelect: acc = &select; break;
      case e2e::Layer::kSource: acc = &source; break;
    }
    ++acc->calls;
    acc->ticks += d;
    if (s.layer == e2e::Layer::kAdmit || s.layer == e2e::Layer::kSchedule) {
      acc->us.push_back(static_cast<double>(d) * ns * 1e-3);
    }
    if (s.event > 0) nested[s.cls] += d;
  }

  const std::array<std::string, 4> kStrategies = {"payoff", "fcfs", "backfill",
                                                  "equipartition"};
  double queued = 0.0, running = 0.0, admits = 0.0;
  for (const std::string& key : kStrategies) {
    const std::string p = "sched." + key + ".";
    Acc a, sch;
    double accepted = 0.0;
    for (std::size_t i = 0; i < nstrat; ++i) {
      if (rec.strategies()[i] != key) continue;
      a = std::move(admit[i]);
      sch = std::move(schedule[i]);
      const e2e::StrategyCounts& c = rec.counts()[i];
      accepted = static_cast<double>(c.accepted);
      queued += static_cast<double>(c.queued_sum);
      running += static_cast<double>(c.running_sum);
      admits += static_cast<double>(a.calls);
    }
    std::sort(a.us.begin(), a.us.end());
    std::sort(sch.us.begin(), sch.us.end());
    const double ac = static_cast<double>(a.calls);
    layers.insert(layers.end(), {
        {p + "admit_calls", ac},
        {p + "admit_s", sec(a.ticks)},
        {p + "admit_us_p50", quantile(a.us, 0.50)},
        {p + "admit_us_p99", quantile(a.us, 0.99)},
        {p + "admit_accept_ratio", ac > 0 ? accepted / ac : 0.0},
        {p + "schedule_calls", static_cast<double>(sch.calls)},
        {p + "schedule_s", sec(sch.ticks)},
        {p + "schedule_us_p99", quantile(sch.us, 0.99)},
    });
  }
  layers.insert(layers.end(), {
      {"cluster.queue_depth_mean", admits > 0 ? queued / admits : 0.0},
      {"cluster.running_mean", admits > 0 ? running / admits : 0.0},
      {"market.bid_calls", static_cast<double>(bid.calls)},
      {"market.bid_s", sec(bid.ticks)},
      {"market.bid_decline_ratio",
       bid.calls > 0 ? static_cast<double>(rec.bid_declines) /
                           static_cast<double>(bid.calls)
                     : 0.0},
      {"market.select_calls", static_cast<double>(select.calls)},
      {"market.select_s", sec(select.ticks)},
      {"market.bids_per_select",
       select.calls > 0 ? static_cast<double>(rec.bids_offered) /
                              static_cast<double>(select.calls)
                        : 0.0},
  });

  // Profiler: per entity class, per hot message kind, and the residual.
  std::uint64_t class_total = 0;
  std::uint64_t kind_total = 0;
  std::array<double, obs::kProfClassCount> self{};
  for (std::size_t c = 0; c < obs::kProfClassCount; ++c) {
    class_total += lane.by_class(c).total;
    self[c] = sec(lane.by_class(c).total) - sec(nested[c]);
    layers.push_back(
        {std::string("faucets.") +
             obs::to_string(static_cast<obs::ProfClass>(c)) + "_s",
         sec(lane.by_class(c).total)});
  }
  for (std::size_t k = 0; k < obs::ProfilerLane::kKindSlots; ++k) {
    kind_total += lane.by_kind(k).total;
  }
  layers.push_back(
      {"faucets.daemon_self_s",
       self[static_cast<std::size_t>(obs::ProfClass::kDaemon)]});
  const std::vector<std::pair<std::string, std::string>> kHotKinds = {
      {"auth_ack", "AUTH_ACK"}, {"commit", "COMMIT"}, {"reserve", "RESERVE"},
      {"poll", "POLL"}, {"dir_req", "DIR_REQ"}};
  for (const auto& [metric, tag] : kHotKinds) {
    obs::ProfStats stats;
    for (std::size_t k = 0; k < sim::kMessageKindCount; ++k) {
      if (sim::to_string(static_cast<sim::MessageKind>(k)) == tag) {
        stats = lane.by_kind(1 + k);
      }
    }
    layers.push_back({"faucets." + metric + "_s", sec(stats.total)});
    layers.push_back({"faucets." + metric + "_count",
                      static_cast<double>(stats.count)});
  }
  const double dispatch_s = wall - sec(class_total);
  const double events = static_cast<double>(grid.engine().executed());
  layers.insert(layers.end(), {
      {"sim.events", events},
      {"sim.messages", static_cast<double>(report.messages)},
      {"sim.ns_per_event", events > 0 ? wall * 1e9 / events : 0.0},
      {"sim.timer_s", sec(lane.by_kind(0).total)},
      {"sim.dispatch_s", dispatch_s},
      {"job.next_calls", static_cast<double>(rec.jobs_pulled)},
      {"job.next_s", sec(source.ticks)},
      {"job.high_water", static_cast<double>(grid.workload_high_water())},
  });

  // sim.dispatch_s is the residual, so handler self time, decorator time
  // inside the loop and dispatch sum to the profiled wall by definition.
  // What can fail: a part below zero by more than the profiler's 5%
  // tolerance (decorator time counted outside the event it ran in), kind
  // and class attributions that disagree, and a profiled wall longer than
  // the run it lies in. The run's wall also holds work after the loop, such
  // as the durable store's final snapshot, whose fsync latency is the
  // host's, so the profiled wall has no lower bound.
  const double tol = std::max(0.05 * wall, 0.005);
  for (std::size_t c = 0; c < obs::kProfClassCount; ++c) {
    if (self[c] < -tol) {
      errors.push_back(std::string("negative self time for class ") +
                       obs::to_string(static_cast<obs::ProfClass>(c)));
    }
  }
  if (dispatch_s < -tol) errors.push_back("negative sim.dispatch_s");
  if (class_total != kind_total) {
    errors.push_back("profiler kind and class totals disagree");
  }
  if (wall > run_s) errors.push_back("profiled wall exceeds the run's wall");
}

int run(const Args& args) {
  Values e2e_values;
  Values layers;
  std::vector<std::string> errors;

  fs::create_directories(args.work);
  const std::string store_dir =
      (fs::path(args.work) / ("store-" + args.workload + "-" + std::to_string(args.seed)))
          .string();

  // --- setup, several times ------------------------------------------------
  // setup_s times the scenario without its [store] section: opening a
  // durable store is fsync-bound file-system work whose latency on a shared
  // host doubles from one minute to the next. The grid that runs is the
  // last timed one, or for a durable workload one set up again, untimed,
  // with its store.
  std::vector<double> setup_s;
  std::vector<double> parse_s;
  std::vector<double> build_s;
  Built built;
  std::shared_ptr<e2e::Recorder> rec;
  Workload w = make_workload(args.workload, args.seed, args.scale, args.root, "");
  const auto setups_t0 = Clock::now();
  for (int k = 0; k < kMaxSetups; ++k) {
    if (k >= kMinSetups && seconds_since(setups_t0) >= kSetupBudgetS) break;
    built = Built{};  // tear the previous grid down outside the timed span
    rec = std::make_shared<e2e::Recorder>();
    const auto t0 = Clock::now();
    Built b = set_up(w, args.traced, rec);
    setup_s.push_back(seconds_since(t0));
    parse_s.push_back(b.parse_s);
    build_s.push_back(b.build_s);
    built = std::move(b);
  }
  const Workload stored =
      make_workload(args.workload, args.seed, args.scale, args.root, store_dir);
  if (stored.durable) {
    built = Built{};
    fs::remove_all(store_dir);
    w = stored;
    rec = std::make_shared<e2e::Recorder>();
    built = set_up(w, args.traced, rec);
  }
  core::GridSystem& grid = *built.grid;
  rec->attach(grid);

  // --- the run -------------------------------------------------------------
  const auto run_t0 = Clock::now();
  const core::GridReport report = grid.run(*built.source);
  const double run_s = seconds_since(run_t0);

  // --- export into memory ----------------------------------------------------
  std::vector<double> report_s;
  std::vector<double> trace_s;
  std::vector<double> metrics_s;
  std::string report_json;
  std::string trace_jsonl;
  std::string prometheus;
  const auto write_report = [&](std::ostream& os) { core::write_report_json(os, report); };
  const auto write_trace = [&](std::ostream& os) {
    obs::write_trace_jsonl(os, grid.merged_trace());
  };
  const auto write_metrics = [&](std::ostream& os) {
    obs::write_prometheus(os, grid.merged_metrics());
  };
  for (int k = 0; k <= (args.traced ? kExports : 0); ++k) {
    const double r = timed_export(report_json, write_report);
    const double t = timed_export(trace_jsonl, write_trace);
    const double m = timed_export(prometheus, write_metrics);
    if (k == 0) continue;
    report_s.push_back(r);
    trace_s.push_back(t);
    metrics_s.push_back(m);
  }
  const std::size_t trace_bytes = trace_jsonl.size();

  // --- output check -------------------------------------------------------------
  if (report.jobs_submitted != w.expected_jobs) {
    errors.push_back("submitted " + std::to_string(report.jobs_submitted) +
                     " jobs, expected " + std::to_string(w.expected_jobs));
  }
  if (report.jobs_submitted != report.jobs_completed + report.jobs_unplaced) {
    errors.push_back("submitted != completed + unplaced");
  }
  if (!(std::fabs(report.ledger.conservation_residual) <= 1e-9)) {
    errors.push_back("ledger conservation residual exceeds 1e-9");
  }
  if (report.total_spent <= 0.0 || trace_bytes == 0) {
    errors.push_back("run produced no spending or no trace");
  }

  const double submitted = static_cast<double>(report.jobs_submitted);
  e2e_values = {
      {"jobs_per_s", submitted / run_s},
      {"setup_s", median(setup_s)},
      {"unplaced_frac", static_cast<double>(report.jobs_unplaced) / submitted},
      {"grid_utilization", report.grid_utilization_weighted()},
      {"award_latency_s", report.mean_award_latency},
      {"payoff_per_dollar", report.total_client_payoff / report.total_spent},
  };

  // --- traced: the per-layer split -------------------------------------------
  if (args.traced) {
    add_layer_split(grid, *rec, report, run_s, layers, errors);

    // Observability and core.
    const auto t0 = Clock::now();
    const core::GridTelemetry tel = grid.telemetry();
    const double telemetry_s = seconds_since(t0);
    if (tel.users.empty()) errors.push_back("telemetry has no user rows");
    layers.insert(layers.end(), {
        {"obs.trace_events", static_cast<double>(grid.trace().total_recorded())},
        {"obs.trace_dropped", static_cast<double>(grid.trace().dropped())},
        {"obs.export_trace_s", median(trace_s)},
        {"obs.export_metrics_s", median(metrics_s)},
        {"obs.report_json_s", median(report_s)},
        {"obs.telemetry_s", telemetry_s},
        {"core.parse_s", median(parse_s)},
        {"core.build_s", median(build_s)},
        {"core.run_s", run_s},
    });
  }

  // --- store: durable state must recover to the live state -----------------
  double snapshots = 0.0, snapshot_bytes = 0.0, wal_bytes = 0.0, recover_s = 0.0;
  if (w.durable) {
    const std::string live_image = encode_central_state(grid.central());
    if (const auto* ds = dynamic_cast<const store::DurableStore*>(grid.store())) {
      snapshots = static_cast<double>(ds->generation());
      wal_bytes = static_cast<double>(rec->wal_bytes());
      std::error_code ec;
      snapshot_bytes = static_cast<double>(
          fs::file_size(ds->snapshot_path(ds->generation()), ec));
    } else {
      errors.push_back("durable workload has no DurableStore");
    }
    built = Built{};  // close the grid's store before reopening the directory
    const auto t0 = Clock::now();
    const store::DurableStore reopened(store_dir);
    const CentralState recovered = recover_central_state(reopened);
    recover_s = seconds_since(t0);
    if (encode_central_state(recovered) != live_image) {
      errors.push_back("recovered central state differs from the live state");
    }
  }
  built = Built{};
  fs::remove_all(store_dir);
  if (args.traced) {
    layers.insert(layers.end(), {
        {"store.snapshots", snapshots},
        {"store.snapshot_bytes", snapshot_bytes},
        {"store.wal_bytes", wal_bytes},
        {"store.recover_s", recover_s},
    });
    if (!args.spans_path.empty()) {
      std::ofstream out{args.spans_path};
      rec->write_spans(out);
      if (!out.good()) errors.push_back("could not write spans");
    }
  }

  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  e2e_values.push_back({"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0});

  const auto hex = [](std::uint64_t v) {
    std::ostringstream os;
    os << std::hex << std::setw(16) << std::setfill('0') << v;
    return os.str();
  };
  std::cout << "{\"workload\":\"" << args.workload << "\",\"seed\":" << args.seed
            << ",\"traced\":" << (args.traced ? "true" : "false")
            << ",\"report_digest\":\"" << hex(fnv1a(report_json))
            << "\",\"trace_digest\":\"" << hex(fnv1a(trace_jsonl))
            << "\",\"jobs_submitted\":" << report.jobs_submitted
            << ",\"jobs_completed\":" << report.jobs_completed
            << ",\"jobs_unplaced\":" << report.jobs_unplaced
            << ",\"run_s\":" << std::setprecision(17) << run_s << ",\"errors\":[";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    std::cout << (i == 0 ? "" : ",") << "\"" << errors[i] << "\"";
  }
  std::cout << "],\"end_to_end\":";
  write_values(std::cout, e2e_values);
  std::cout << ",\"layers\":";
  write_values(std::cout, layers);
  std::cout << "}\n";
  return errors.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "e2e_bench: " << e.what() << "\n";
    return 2;
  }
}
