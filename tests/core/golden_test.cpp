// Determinism goldens for the single-engine run loop. Four scenarios — the
// E13 1000-cluster grid (scaled down), a brokered grid under message loss, a
// partition and a mid-run crash, a user-multiplied SWF replay, and a
// brokered market with deep payoff queues — must
//
//  1. reach the accounting invariant: every submission terminal, no pending
//     outcome, no live reservation lease, no open lifecycle span;
//  2. export exactly the pinned bytes: FNV-1a digests of the report JSON,
//     trace JSONL, Prometheus text and Chrome trace;
//  3. keep those bytes with the host-time profiler on and with the live
//     operations plane on: both observe the run, neither may perturb it.
//
// A digest changes only when a change alters simulated behaviour or an
// export format on purpose; re-pin it then, and say why in the change.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/core/scenario.hpp"
#include "src/market/bidgen.hpp"
#include "src/obs/exporters.hpp"
#include "src/sched/equipartition.hpp"

namespace faucets::core {
namespace {

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

struct Digests {
  std::uint64_t report = 0;
  std::uint64_t trace = 0;
  std::uint64_t prometheus = 0;
  std::uint64_t chrome = 0;
};

/// What one run produced: artifact digests plus the invariant tallies.
struct Outcome {
  Digests digests;
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t unplaced = 0;
  std::uint64_t pending = 0;
  std::size_t open_spans = 0;
  std::size_t live_leases = 0;
  std::uint64_t executed = 0;
  std::uint64_t alerts = 0;
};

enum class Observer { kNone, kProfiler, kLivePlane };

/// Turn `observer` on. The live plane publishes every `publish_interval`
/// host seconds; 0 publishes after every engine step.
void observe(GridConfig& config, Observer observer, double publish_interval) {
  switch (observer) {
    case Observer::kNone:
      break;
    case Observer::kProfiler:
      config.profile.enabled = true;
      break;
    case Observer::kLivePlane:
      config.live.serve = true;  // ephemeral port
      config.live.publish_interval = publish_interval;
      break;
  }
}

Outcome collect(GridSystem& grid, const GridReport& report) {
  Outcome out;
  {
    std::ostringstream os;
    write_report_json(os, report);
    out.digests.report = fnv1a(os.str());
  }
  {
    std::ostringstream os;
    obs::write_trace_jsonl(os, grid.merged_trace());
    out.digests.trace = fnv1a(os.str());
  }
  {
    std::ostringstream os;
    obs::write_prometheus(os, grid.merged_metrics());
    out.digests.prometheus = fnv1a(os.str());
  }
  {
    std::ostringstream os;
    obs::write_chrome_trace(os, grid.merged_spans(), grid.merged_trace(), {});
    out.digests.chrome = fnv1a(os.str());
  }
  out.submitted = report.jobs_submitted;
  for (std::size_t c = 0; c < grid.client_count(); ++c) {
    for (const auto& o : grid.client(c).outcomes()) {
      switch (o.status) {
        case SubmissionOutcome::Status::kCompleted:
          ++out.completed;
          break;
        case SubmissionOutcome::Status::kNoServers:
        case SubmissionOutcome::Status::kNoBids:
        case SubmissionOutcome::Status::kAllRefused:
        case SubmissionOutcome::Status::kTimedOut:
          ++out.unplaced;
          break;
        case SubmissionOutcome::Status::kPending:
        case SubmissionOutcome::Status::kPlaced:
          ++out.pending;
          break;
      }
    }
  }
  for (const obs::Span& sp : grid.merged_spans().spans()) {
    if (sp.open()) ++out.open_spans;
  }
  for (std::size_t d = 0; d < grid.cluster_count(); ++d) {
    out.live_leases += grid.daemon(d).cm().active_reservations();
  }
  out.executed = grid.engine().executed();
  if (grid.live() != nullptr) out.alerts = grid.live()->alerts_total();
  return out;
}

Outcome run_scenario(const std::string& ini, Observer observer,
                     double publish_interval) {
  Scenario scenario = Scenario::parse_string(ini);
  observe(scenario.grid, observer, publish_interval);
  auto grid = scenario.make_grid();
  auto source = scenario.make_source();
  const GridReport report = grid->run(*source, /*until=*/1e9);
  return collect(*grid, report);
}

/// Run `make` once per observer and check every run against the pins.
void expect_golden(const std::function<Outcome(Observer)>& make,
                   std::uint64_t expected_jobs, const Digests& pinned) {
  std::uint64_t executed = 0;
  for (const Observer observer :
       {Observer::kNone, Observer::kProfiler, Observer::kLivePlane}) {
    SCOPED_TRACE("observer " + std::to_string(static_cast<int>(observer)));
    const Outcome out = make(observer);
    EXPECT_EQ(out.submitted, expected_jobs);
    EXPECT_EQ(out.pending, 0u) << "every submission must reach a terminal state";
    EXPECT_EQ(out.completed + out.unplaced, out.submitted);
    EXPECT_EQ(out.live_leases, 0u);
    EXPECT_EQ(out.open_spans, 0u);
    EXPECT_EQ(out.alerts, 0u) << "a clean run raises no monitor alert";
    EXPECT_EQ(out.digests.report, pinned.report) << "report JSON";
    EXPECT_EQ(out.digests.trace, pinned.trace) << "trace JSONL";
    EXPECT_EQ(out.digests.prometheus, pinned.prometheus) << "Prometheus text";
    EXPECT_EQ(out.digests.chrome, pinned.chrome) << "Chrome trace";
    if (observer == Observer::kNone) {
      executed = out.executed;
    } else {
      EXPECT_EQ(out.executed, executed)
          << "an observer must not add, drop, or reorder an event";
    }
  }
}

// --- E13, scaled down ------------------------------------------------------

/// 1000 Compute Servers: ten 64-proc payoff servers able to run the
/// workload's 32..48-proc jobs, and 990 4-proc fcfs servers the Central
/// Server's static §5.1 filter screens out of every RFB round.
std::string thousand_cluster_ini() {
  std::ostringstream ini;
  ini << "[grid]\nbilling = dollars\nusers = 100\nevaluator = least-cost\n"
         "brokered = false\nseed = 2004\n\n";
  for (int i = 0; i < 1000; ++i) {
    const bool big = i % 100 == 0;
    ini << "[cluster]\nname = c" << i << "\nprocs = " << (big ? 64 : 4)
        << "\ncost = " << 0.0005 + (i % 7) * 0.0001
        << "\nstrategy = " << (big ? "payoff" : "fcfs")
        << "\nbidgen = baseline\n\n";
  }
  ini << "[workload]\njobs = 1000\nload = 0.7\nmin_procs_lo = 32\n"
         "min_procs_hi = 48\n";
  return ini.str();
}

TEST(GoldenRun, ThousandClusterGrid) {
  // A publish re-reads every instrument of 1000 clusters, so this grid
  // publishes at the plane's default pace rather than after every step.
  const std::string ini = thousand_cluster_ini();
  const double pace = obs::live::LiveConfig{}.publish_interval;
  expect_golden([&](Observer o) { return run_scenario(ini, o, pace); }, 1000,
                {.report = 0xfadb844fb46861e1ULL,
                 .trace = 0xbc46a77835f1b130ULL,
                 .prometheus = 0xa536d271600d71f2ULL,
                 .chrome = 0xef9e4fb517e239a3ULL});
}

// --- chaos: loss + partition + crash on a brokered grid ---------------------

ClusterSetup chaos_cluster(const std::string& name, double cost) {
  ClusterSetup setup;
  setup.machine.name = name;
  setup.machine.total_procs = 64;
  setup.machine.cost_per_cpu_second = cost;
  setup.strategy = [] { return std::make_unique<sched::EquipartitionStrategy>(); };
  setup.bid_generator = [] { return std::make_unique<market::BaselineBidGenerator>(); };
  setup.costs = job::AdaptiveCosts{.reconfig_seconds = 0.0,
                                   .checkpoint_seconds = 0.0,
                                   .restart_seconds = 0.0};
  return setup;
}

std::vector<job::JobRequest> chaos_workload(std::size_t n) {
  std::vector<job::JobRequest> reqs;
  for (std::size_t i = 0; i < n; ++i) {
    job::JobRequest req;
    req.submit_time = 5.0 + static_cast<double>(i) * 25.0;
    req.user_index = i % 6;
    req.contract = qos::make_contract(4, 64, 3200.0, 1.0, 1.0);
    req.contract.payoff = qos::PayoffFunction::flat(10.0);
    reqs.push_back(std::move(req));
  }
  return reqs;
}

Outcome run_chaos(Observer observer) {
  GridBuilder builder;
  for (int i = 0; i < 8; ++i) {
    builder.cluster(
        chaos_cluster("chaos" + std::to_string(i), 0.0002 + i * 0.0001));
  }
  builder.users(6)
      .watchdog(120.0)
      .brokered()
      .loss(0.05)
      .fault_seed(0xfa11)
      .partition(2, 100.0, 300.0)
      .crash(0, 200.0, /*restart_at=*/700.0);
  if (observer == Observer::kProfiler) builder.profile();
  if (observer == Observer::kLivePlane) {
    builder.live({.serve = true, .publish_interval = 0.0});
  }
  auto grid = builder.build();
  const GridReport report = grid->run(chaos_workload(30), /*until=*/1e6);
  Outcome out = collect(*grid, report);
  EXPECT_GE(out.completed, 15u) << "the surviving clusters carry the load";
  return out;
}

TEST(GoldenRun, LossPartitionAndCrashGrid) {
  expect_golden(run_chaos, 30,
                {.report = 0x92c011893225e74aULL,
                 .trace = 0x690e764ebafa782fULL,
                 .prometheus = 0x4ffc43be48c1ab8bULL,
                 .chrome = 0xc5c89f19af8390a8ULL});
}

// --- user-multiplied SWF replay --------------------------------------------

/// A sorted, deterministic 150-record SWF trace: 9 users, mixed sizes and
/// runtimes, arrivals every 20 s.
const std::string& swf_path() {
  static const std::string path = [] {
    const std::string p = testing::TempDir() + "faucets_golden_fixture.swf";
    std::ofstream f(p);
    f << "; synthetic replay fixture\n";
    for (int i = 0; i < 150; ++i) {
      f << i + 1 << ' ' << i * 20 << " 0 " << 300 + (i % 5) * 120
        << " -1 -1 -1 " << (4 << (i % 4)) << ' ' << 600 + (i % 7) * 300
        << " -1 1 " << 1 + i % 9 << " 1 1 1 1 -1 -1\n";
    }
    return p;
  }();
  return path;
}

std::string replay_ini() {
  std::ostringstream ini;
  ini << "[grid]\nusers = 12\nseed = 42\nevaluator = least-cost\n\n";
  for (int i = 0; i < 4; ++i) {
    ini << "[cluster]\nname = r" << i << "\nprocs = 64\ncost = "
        << 0.0006 + i * 0.0002
        << "\nstrategy = " << (i % 2 == 0 ? "payoff" : "fcfs")
        << "\nbidgen = baseline\n\n";
  }
  ini << "[trace]\nfile = " << swf_path()
      << "\nmalleability = 0.5\ndeadline_fraction = 0.6\njitter = 40\n"
         "user_multiplier = 4\n";
  return ini.str();
}

TEST(GoldenRun, MultipliedSwfReplay) {
  const std::string ini = replay_ini();
  expect_golden([&](Observer o) { return run_scenario(ini, o, 0.0); }, 600,
                {.report = 0xf9615bb23dc7f256ULL,
                 .trace = 0xbefdff3c97cf4cc9ULL,
                 .prometheus = 0xe8a7706c47a82469ULL,
                 .chrome = 0xc1cb29c9e66d7c80ULL});
}

// --- deep payoff queues behind a brokered market ---------------------------

/// The e2ebench `market_brokered` grid at 2,000 jobs: two payoff clusters
/// and an equipartition one under load 0.9, so payoff admission and
/// scheduling see queues hundreds of jobs deep.
std::string deep_queue_market_ini() {
  std::ostringstream ini;
  ini << "[grid]\nusers = 6\nbrokered = true\nwatchdog = 600\nseed = 2004\n\n"
         "[cluster]\nname = turing\nprocs = 256\ncost = 0.0008\n"
         "strategy = payoff\nbidgen = utilization\n\n"
         "[cluster]\nname = hopper\nprocs = 256\ncost = 0.0005\n"
         "strategy = equipartition\nbidgen = baseline\n\n"
         "[cluster]\nname = lovelace\nprocs = 512\ncost = 0.0012\n"
         "strategy = payoff\nbidgen = baseline\n\n"
         "[workload]\njobs = 2000\nload = 0.9\n";
  return ini.str();
}

TEST(GoldenRun, DeepQueuePayoffMarket) {
  const std::string ini = deep_queue_market_ini();
  const double pace = obs::live::LiveConfig{}.publish_interval;
  expect_golden([&](Observer o) { return run_scenario(ini, o, pace); }, 2000,
                {.report = 0xe79dfd7c86b6bb19ULL,
                 .trace = 0xa9d06a1a5a22231bULL,
                 .prometheus = 0xde96583253e6c886ULL,
                 .chrome = 0x543f98d9e257eac6ULL});
}

}  // namespace
}  // namespace faucets::core
