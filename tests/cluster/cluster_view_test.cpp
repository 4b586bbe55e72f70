// Differential test of the Cluster Manager's live scheduler view.
//
// The CM edits its SchedulerContext in place on every submit, start,
// vacate, completion, eviction and halt, and keeps one QueuedJob record
// (min procs, remaining work, min-procs runtime) per queued job. Seeded
// random sequences of those operations run on an equipartition cluster
// (which shrinks, expands and vacates on its own as jobs come and go);
// after every step the view must equal a brute-force rebuild from the job
// table, every queued record must equal, bit for bit, one rebuilt from its
// job, and projected_utilization must equal, bit for bit, the loop that
// recomputes every queued job's runtime.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "src/cluster/server.hpp"
#include "src/sched/equipartition.hpp"

namespace faucets::cluster {
namespace {

constexpr double kInf = 1e300;

/// Every reservation uses this contract, so the reserved share of the
/// utilization does not depend on the CM's lease-table iteration order.
const qos::QosContract& lease_contract() {
  static const qos::QosContract c = qos::make_contract(6, 24, 1800.0, 0.7, 1.0);
  return c;
}

struct Harness {
  sim::SimContext ctx;
  ClusterManager cm;
  std::vector<JobId> ids;  // every id the CM ever issued
  std::vector<ReservationId> leases;  // reserved, maybe expired since

  explicit Harness(int procs, double speed)
      : cm(ctx, machine(procs, speed), std::make_unique<sched::EquipartitionStrategy>(),
           job::AdaptiveCosts{.reconfig_seconds = 2.0, .checkpoint_seconds = 5.0,
                              .restart_seconds = 5.0}) {}

  static MachineSpec machine(int procs, double speed) {
    MachineSpec m;
    m.name = "view";
    m.total_procs = procs;
    m.speed_factor = speed;
    return m;
  }

  [[nodiscard]] double now() const { return ctx.engine().now(); }
};

/// The live jobs of the job table, sorted by id: state kRunning or kQueued.
std::vector<const job::Job*> rebuild(const Harness& h, job::JobState state) {
  std::vector<const job::Job*> out;
  for (const JobId id : h.ids) {
    const job::Job* j = h.cm.find_job(id);
    if (j != nullptr && j->state() == state) out.push_back(j);
  }
  std::sort(out.begin(), out.end(),
            [](const job::Job* a, const job::Job* b) { return a->id() < b->id(); });
  return out;
}

/// projected_utilization as it was computed before the view: every queued
/// job's runtime is recomputed from the job itself.
double reference_utilization(const Harness& h, double from, double to) {
  const MachineSpec& machine = h.cm.machine();
  if (to <= from || machine.total_procs <= 0) return 0.0;
  double proc_seconds = 0.0;
  for (const job::Job* j : rebuild(h, job::JobState::kRunning)) {
    const double finish = std::min(j->projected_finish(from), to);
    if (finish > from) proc_seconds += j->procs() * (finish - from);
  }
  for (const job::Job* j : rebuild(h, job::JobState::kQueued)) {
    const double runtime = j->time_to_finish_on(j->contract().min_procs);
    const double span = std::min(runtime, to - from);
    if (span > 0.0 && runtime < kInf) proc_seconds += j->contract().min_procs * span;
  }
  const qos::QosContract& r = lease_contract();
  for (std::size_t i = 0; i < h.cm.active_reservations(); ++i) {
    const double runtime = r.estimated_runtime(r.min_procs, machine.speed_factor);
    const double span = std::min(runtime, to - from);
    if (span > 0.0) proc_seconds += r.min_procs * span;
  }
  const double capacity = static_cast<double>(machine.total_procs) * (to - from);
  return std::min(1.0, proc_seconds / capacity);
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void check_view(const Harness& h) {
  const sched::SchedulerContext& view = h.cm.context();
  EXPECT_EQ(view.now, h.now());
  ASSERT_EQ(view.running, rebuild(h, job::JobState::kRunning));
  const auto queued = rebuild(h, job::JobState::kQueued);
  ASSERT_EQ(view.queued.size(), queued.size());
  for (std::size_t i = 0; i < queued.size(); ++i) {
    const sched::QueuedJob& q = view.queued[i];
    const job::Job& j = *queued[i];
    const int lo = j.contract().min_procs;
    ASSERT_EQ(q.job, &j) << "position " << i;
    ASSERT_EQ(q.min_procs, lo) << "job " << j.id();
    ASSERT_EQ(bits(q.remaining_work), bits(j.remaining_work())) << "job " << j.id();
    ASSERT_EQ(bits(q.min_runtime), bits(j.time_to_finish_on(lo))) << "job " << j.id();
  }
  ASSERT_EQ(h.cm.running_count(), view.running.size());
  ASSERT_EQ(h.cm.queued_count(), view.queued.size());
  int busy = 0;
  for (const job::Job* j : view.running) busy += j->procs();
  ASSERT_EQ(h.cm.busy_procs(), busy);
  const double from = h.now();
  for (const double window : {0.0, 30.0, 400.0, 3000.0, 40000.0, 1e7}) {
    ASSERT_EQ(h.cm.projected_utilization(from, from + window),
              reference_utilization(h, from, from + window))
        << "window " << window;
  }
}

qos::QosContract random_contract(std::mt19937_64& rng, int procs) {
  std::uniform_int_distribution<int> lo_dist(1, procs / 2);
  const int lo = lo_dist(rng);
  const int hi = std::uniform_int_distribution<int>(lo, procs)(rng);
  const double work = std::uniform_real_distribution<double>(50.0, 20000.0)(rng);
  const double eff = std::uniform_real_distribution<double>(0.5, 1.0)(rng);
  return qos::make_contract(lo, hi, work, eff, 1.0);
}

/// One live job picked at random, or an id the CM never issued.
JobId pick_job(Harness& h, std::mt19937_64& rng) {
  if (h.ids.empty() || rng() % 8 == 0) return JobId{1u << 30};
  return h.ids[rng() % h.ids.size()];
}

/// How often each lifecycle transition happened, summed over sequences.
struct Coverage {
  std::size_t started = 0, vacated = 0, resumed = 0, shrunk = 0, expanded = 0,
              completed = 0, evicted = 0, failed = 0, expired = 0;

  void add(const obs::TraceBuffer& trace) {
    using K = obs::TraceEventKind;
    ASSERT_EQ(trace.dropped(), 0u);
    started += trace.filter(K::kJobStarted).size();
    vacated += trace.filter(K::kJobVacated).size();
    resumed += trace.filter(K::kJobResumed).size();
    shrunk += trace.filter(K::kJobShrunk).size();
    expanded += trace.filter(K::kJobExpanded).size();
    completed += trace.filter(K::kJobCompleted).size();
    evicted += trace.filter(K::kJobEvicted).size();
    failed += trace.filter(K::kJobFailed).size();
    expired += trace.filter(K::kLeaseExpired).size();
  }
};

void run_sequence(std::uint64_t seed, int steps, Coverage& coverage) {
  SCOPED_TRACE("seed " + std::to_string(seed));
  std::mt19937_64 rng(seed);
  const int procs = seed % 2 == 0 ? 64 : 128;
  Harness h(procs, seed % 3 == 0 ? 1.5 : 1.0);
  check_view(h);
  for (int step = 0; step < steps; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const unsigned op = static_cast<unsigned>(rng() % 100);
    if (op < 40) {
      if (auto id = h.cm.submit(UserId{1}, random_contract(rng, procs))) {
        h.ids.push_back(*id);
      }
    } else if (op < 50) {
      const double lease = std::uniform_real_distribution<double>(1.0, 300.0)(rng);
      if (auto r = h.cm.reserve(lease_contract(), h.now() + lease)) {
        h.leases.push_back(*r);
      }
    } else if (op < 58) {
      if (!h.leases.empty()) {
        const std::size_t k = rng() % h.leases.size();
        (void)h.cm.release_reservation(h.leases[k]);
        h.leases.erase(h.leases.begin() + static_cast<std::ptrdiff_t>(k));
      }
    } else if (op < 66) {
      if (!h.leases.empty()) {
        if (auto id = h.cm.commit_reservation(h.leases.back(), UserId{2})) {
          h.ids.push_back(*id);
        }
        h.leases.pop_back();
      }
    } else if (op < 88) {
      // Completions, lease expiries and the equipartition shrinks,
      // expansions and vacates they trigger.
      const double dt = std::uniform_real_distribution<double>(1.0, 2000.0)(rng);
      h.ctx.engine().run(h.now() + dt);
    } else if (op < 97) {
      (void)h.cm.evict_job(pick_job(h, rng));
    } else if (op < 99) {
      (void)h.cm.evict_all();
    } else {
      h.cm.halt();
      h.leases.clear();
    }
    check_view(h);
    if (testing::Test::HasFatalFailure()) return;
  }
  coverage.add(h.ctx.trace());
}

TEST(ClusterView, MatchesBruteForceRebuildOverRandomSequences) {
  Coverage coverage;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    run_sequence(seed, 300, coverage);
    if (testing::Test::HasFatalFailure()) return;
  }
  // The sequences reach every edit of the view.
  EXPECT_GT(coverage.started, 0u);
  EXPECT_GT(coverage.vacated, 0u);
  EXPECT_GT(coverage.resumed, 0u);
  EXPECT_GT(coverage.shrunk, 0u);
  EXPECT_GT(coverage.expanded, 0u);
  EXPECT_GT(coverage.completed, 0u);
  EXPECT_GT(coverage.evicted, 0u);
  EXPECT_GT(coverage.failed, 0u);
  EXPECT_GT(coverage.expired, 0u);
}

TEST(ClusterView, VacatedJobRequeuesWithItsRemainingRuntime) {
  // Equipartition vacates job 2 when job 0 finishes and the older job 1
  // needs room. Job 2's queued runtime must then reflect the work it did
  // while running, not its runtime at submission.
  sim::SimContext ctx;
  ClusterManager cm{ctx, Harness::machine(64, 1.0),
                    std::make_unique<sched::EquipartitionStrategy>(),
                    job::AdaptiveCosts{.reconfig_seconds = 0.0,
                                       .checkpoint_seconds = 0.0,
                                       .restart_seconds = 0.0}};
  const auto a = cm.submit(UserId{1}, qos::make_contract(30, 30, 3000.0));
  const auto b = cm.submit(UserId{1}, qos::make_contract(40, 40, 4000.0));
  const auto c = cm.submit(UserId{1}, qos::make_contract(30, 30, 30000.0));
  ASSERT_TRUE(a && b && c);
  ASSERT_EQ(cm.running_count(), 2u);  // a and c; b waits
  ctx.engine().run(150.0);            // a finishes at 100 s
  const job::Job* vacated = cm.find_job(*c);
  ASSERT_NE(vacated, nullptr);
  ASSERT_EQ(vacated->state(), job::JobState::kQueued);
  ASSERT_LT(vacated->remaining_work(), 30000.0);
  const double from = ctx.engine().now();
  // Only b runs (40 procs until it ends); c waits on 30 procs for the
  // rest of its work.
  const double b_left = cm.find_job(*b)->projected_finish(from) - from;
  const double c_left = vacated->remaining_work() / 30.0;
  const double expected = (40.0 * b_left + 30.0 * c_left) / (64.0 * 10000.0);
  EXPECT_NEAR(cm.projected_utilization(from, from + 10000.0), expected, 1e-12);
}

}  // namespace
}  // namespace faucets::cluster
