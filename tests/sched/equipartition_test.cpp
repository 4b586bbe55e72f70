#include "src/sched/equipartition.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <random>
#include <string>

#include "src/cluster/server.hpp"

namespace faucets::sched {
namespace {

using Bounds = std::vector<std::pair<int, int>>;

int total(const std::vector<int>& v) {
  return std::accumulate(v.begin(), v.end(), 0);
}

TEST(Equipartition, EqualSharesWithinBounds) {
  const auto alloc = EquipartitionStrategy::equipartition(
      Bounds{{4, 64}, {4, 64}, {4, 64}, {4, 64}}, 64);
  EXPECT_EQ(alloc, (std::vector<int>{16, 16, 16, 16}));
}

TEST(Equipartition, RespectsMaxima) {
  const auto alloc =
      EquipartitionStrategy::equipartition(Bounds{{1, 8}, {1, 100}}, 64);
  EXPECT_EQ(alloc[0], 8);
  EXPECT_EQ(alloc[1], 56);
}

TEST(Equipartition, RespectsMinimaOrLeavesOut) {
  // Third job's minimum no longer fits: it gets 0.
  const auto alloc = EquipartitionStrategy::equipartition(
      Bounds{{30, 100}, {30, 100}, {30, 100}}, 64);
  EXPECT_EQ(alloc[0], 32);
  EXPECT_EQ(alloc[1], 32);
  EXPECT_EQ(alloc[2], 0);
}

TEST(Equipartition, NeverExceedsCapacity) {
  const auto alloc = EquipartitionStrategy::equipartition(
      Bounds{{10, 20}, {5, 40}, {1, 64}, {8, 8}}, 48);
  EXPECT_LE(total(alloc), 48);
}

TEST(Equipartition, SingleJobGetsUpToMax) {
  const auto alloc = EquipartitionStrategy::equipartition(Bounds{{2, 32}}, 64);
  EXPECT_EQ(alloc[0], 32);
}

TEST(Equipartition, EmptyInput) {
  EXPECT_TRUE(EquipartitionStrategy::equipartition(Bounds{}, 64).empty());
}

TEST(Equipartition, LeftoverGoesToUnsaturated) {
  const auto alloc =
      EquipartitionStrategy::equipartition(Bounds{{4, 6}, {4, 100}}, 64);
  EXPECT_EQ(alloc[0], 6);
  EXPECT_EQ(alloc[1], 58);
  EXPECT_EQ(total(alloc), 64);
}

TEST(Equipartition, PropertyAllocationsWithinBoundsOrZero) {
  // Sweep job counts and capacities; every allocation must be 0 or within
  // the job's bounds, and the total within capacity.
  for (int cap = 1; cap <= 257; cap += 16) {
    for (int jobs = 1; jobs <= 9; ++jobs) {
      Bounds bounds;
      for (int i = 0; i < jobs; ++i) {
        const int lo = 1 + (i * 7) % 13;
        bounds.emplace_back(lo, lo + (i * 11) % 40);
      }
      const auto alloc = EquipartitionStrategy::equipartition(bounds, cap);
      ASSERT_EQ(alloc.size(), bounds.size());
      int sum = 0;
      for (std::size_t i = 0; i < alloc.size(); ++i) {
        if (alloc[i] != 0) {
          EXPECT_GE(alloc[i], bounds[i].first);
          EXPECT_LE(alloc[i], bounds[i].second);
        }
        sum += alloc[i];
      }
      EXPECT_LE(sum, cap);
    }
  }
}

TEST(Equipartition, WorkConservingWhenJobsCanAbsorb) {
  // If the sum of maxima exceeds capacity and every min fits, the machine
  // must be fully used.
  const auto alloc = EquipartitionStrategy::equipartition(
      Bounds{{2, 40}, {2, 40}, {2, 40}}, 96);
  EXPECT_EQ(total(alloc), 96);
}

// --- admit() and schedule() against the full water-fill --------------------

/// Every live job, running and queued, in id order.
std::vector<const job::Job*> live_by_id(const SchedulerContext& ctx) {
  std::vector<const job::Job*> all{ctx.running.begin(), ctx.running.end()};
  for (const auto& q : ctx.queued) all.push_back(q.job);
  std::sort(all.begin(), all.end(),
            [](const job::Job* a, const job::Job* b) { return a->id() < b->id(); });
  return all;
}

/// schedule() as it was before it dropped the no-op entries: the whole
/// water-fill, one allocation per live job in id order.
std::vector<Allocation> reference_schedule(const SchedulerContext& ctx) {
  const auto jobs = live_by_id(ctx);
  Bounds bounds;
  for (const auto* j : jobs) {
    bounds.emplace_back(j->contract().min_procs,
                        std::min(j->contract().max_procs, ctx.total_procs()));
  }
  const auto alloc = EquipartitionStrategy::equipartition(bounds, ctx.total_procs());
  std::vector<Allocation> out;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    out.push_back(Allocation{jobs[i]->id(), alloc[i]});
  }
  return out;
}

/// The candidate's share of the whole water-fill, appended after every live
/// job.
int reference_share(const SchedulerContext& ctx, const qos::QosContract& contract) {
  Bounds bounds;
  for (const auto* j : ctx.running) {
    bounds.emplace_back(j->contract().min_procs,
                        std::min(j->contract().max_procs, ctx.total_procs()));
  }
  for (const auto& q : ctx.queued) {
    bounds.emplace_back(q.job->contract().min_procs,
                        std::min(q.job->contract().max_procs, ctx.total_procs()));
  }
  bounds.emplace_back(contract.min_procs,
                      std::min(contract.max_procs, ctx.total_procs()));
  return EquipartitionStrategy::equipartition(bounds, ctx.total_procs()).back();
}

/// admit() without the pass-1 early exit or the queued records: always run
/// the whole water-fill and sum the backlog through the jobs.
AdmissionDecision reference_admit(const SchedulerContext& ctx,
                                  const qos::QosContract& contract) {
  if (contract.min_procs > ctx.total_procs()) {
    return AdmissionDecision::rejected(RejectReason::kLargerThanMachine);
  }
  const double speed = ctx.machine != nullptr ? ctx.machine->speed_factor : 1.0;
  const int share = reference_share(ctx, contract);
  if (share > 0) {
    return AdmissionDecision::accepted(ctx.now +
                                       contract.estimated_runtime(share, speed));
  }
  double backlog = 0.0;
  for (const auto* j : ctx.running) backlog += j->remaining_work();
  for (const auto& q : ctx.queued) backlog += q.job->remaining_work();
  const double drain = backlog / (static_cast<double>(ctx.total_procs()) * speed);
  const int procs = std::min(contract.max_procs, ctx.total_procs());
  return AdmissionDecision::accepted(ctx.now + drain +
                                     contract.estimated_runtime(procs, speed));
}

TEST(Equipartition, AdmitMatchesFullWaterFill) {
  std::size_t with_share = 0;
  std::size_t without_share = 0;
  std::size_t no_ops = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    std::mt19937_64 rng(seed);
    cluster::MachineSpec machine;
    machine.total_procs = 16 << (seed % 4);
    machine.speed_factor = seed % 3 == 0 ? 1.25 : 1.0;
    auto lo_of = [&] {
      return std::uniform_int_distribution<int>(1, machine.total_procs / 2)(rng);
    };
    auto contract_of = [&] {
      const int lo = lo_of();
      const int hi = std::uniform_int_distribution<int>(lo, machine.total_procs * 2)(rng);
      const double work = std::uniform_real_distribution<double>(10.0, 5e4)(rng);
      return qos::make_contract(lo, hi, work, 0.8, 1.0);
    };
    // Live jobs: some run (on their minimum or above), the rest wait.
    std::vector<std::unique_ptr<job::Job>> jobs;
    SchedulerContext ctx;
    ctx.machine = &machine;
    ctx.now = static_cast<double>(seed);
    const int live = std::uniform_int_distribution<int>(0, 24)(rng);
    int free_procs = machine.total_procs;
    for (int i = 0; i < live; ++i) {
      jobs.push_back(std::make_unique<job::Job>(JobId{static_cast<std::uint64_t>(i)},
                                                UserId{1}, contract_of(), 0.0));
      job::Job& j = *jobs.back();
      j.mark_queued();
      const int lo = j.contract().min_procs;
      if (lo <= free_procs && rng() % 2 == 0) {
        const int procs = std::uniform_int_distribution<int>(
            lo, std::min(free_procs, std::min(j.contract().max_procs, lo + 8)))(rng);
        j.start(0.0, procs, machine.speed_factor);
        j.advance_to(ctx.now);
        free_procs -= procs;
        ctx.running.push_back(&j);
      } else {
        ctx.queued.push_back(QueuedJob::of(j));
      }
    }
    EquipartitionStrategy strategy;
    // schedule() returns the full water-fill minus the entries that leave a
    // job as it is, in id order.
    std::vector<Allocation> changed;
    for (const Allocation& a : reference_schedule(ctx)) {
      if (a.procs != jobs[a.job.value()]->procs()) {  // job i has id i
        changed.push_back(a);
      } else {
        ++no_ops;
      }
    }
    const auto allocations = strategy.schedule(ctx);
    ASSERT_EQ(allocations.size(), changed.size()) << "seed " << seed;
    for (std::size_t i = 0; i < changed.size(); ++i) {
      ASSERT_EQ(allocations[i].job, changed[i].job) << "seed " << seed;
      ASSERT_EQ(allocations[i].procs, changed[i].procs) << "seed " << seed;
    }
    for (int k = 0; k < 8; ++k) {
      const qos::QosContract candidate = contract_of();
      (reference_share(ctx, candidate) > 0 ? with_share : without_share) += 1;
      const AdmissionDecision got = strategy.admit(ctx, candidate);
      const AdmissionDecision want = reference_admit(ctx, candidate);
      ASSERT_EQ(got.accept, want.accept) << "seed " << seed;
      ASSERT_EQ(got.estimated_completion, want.estimated_completion) << "seed " << seed;
    }
  }
  EXPECT_GT(with_share, 100u);
  EXPECT_GT(without_share, 100u);
  EXPECT_GT(no_ops, 100u);
}

/// A 64-processor machine with one running job (min 16) and five queued
/// jobs (mins 16, 16, 8, 16, 4). Pass 1 leaves 48, 32, 16, 8, 8, 4
/// processors after each of them.
struct FixedQueue {
  cluster::MachineSpec machine;
  std::vector<std::unique_ptr<job::Job>> jobs;
  SchedulerContext ctx;

  FixedQueue() {
    machine.total_procs = 64;
    ctx.machine = &machine;
    ctx.now = 50.0;
    std::uint64_t id = 0;
    for (const int lo : {16, 16, 16, 8, 16, 4}) {
      jobs.push_back(std::make_unique<job::Job>(
          JobId{id++}, UserId{1}, qos::make_contract(lo, 2 * lo, 1000.0 * lo, 0.9), 0.0));
      job::Job& j = *jobs.back();
      j.mark_queued();
      if (ctx.running.empty()) {
        j.start(0.0, 20, 1.0);
        j.advance_to(ctx.now);
        ctx.running.push_back(&j);
      } else {
        ctx.queued.push_back(QueuedJob::of(j));
      }
    }
  }

  /// The backlog estimate admit() falls back to when the share is 0.
  [[nodiscard]] double backlog_estimate(const qos::QosContract& c) const {
    double backlog = 0.0;
    for (const auto& j : jobs) backlog += j->remaining_work();
    return ctx.now + backlog / 64.0 + c.estimated_runtime(std::min(c.max_procs, 64), 1.0);
  }
};

TEST(Equipartition, AdmitStopsAtTheFirstRunningJob) {
  // 64 - 16 = 48 < 50: the candidate is out after the running job.
  FixedQueue f;
  const auto c = qos::make_contract(50, 60, 5000.0);
  ASSERT_EQ(reference_share(f.ctx, c), 0);
  const auto got = EquipartitionStrategy{}.admit(f.ctx, c);
  EXPECT_TRUE(got.accept);
  EXPECT_EQ(got.estimated_completion, reference_admit(f.ctx, c).estimated_completion);
  EXPECT_EQ(got.estimated_completion, f.backlog_estimate(c));
}

TEST(Equipartition, AdmitStopsMidQueue) {
  // 16 processors are left before the third queued job and 8 after it.
  FixedQueue f;
  const auto c = qos::make_contract(12, 40, 5000.0);
  ASSERT_EQ(reference_share(f.ctx, c), 0);
  const auto got = EquipartitionStrategy{}.admit(f.ctx, c);
  EXPECT_TRUE(got.accept);
  EXPECT_EQ(got.estimated_completion, reference_admit(f.ctx, c).estimated_completion);
  EXPECT_EQ(got.estimated_completion, f.backlog_estimate(c));
}

TEST(Equipartition, AdmitNeverStopsWhenTheCandidateFitsTheLastProcessors) {
  // Exactly 4 processors are left after the queue: the candidate is
  // selected and gets a share of the water-fill.
  FixedQueue f;
  const auto c = qos::make_contract(4, 8, 5000.0);
  const int share = reference_share(f.ctx, c);
  ASSERT_GE(share, 4);
  const auto got = EquipartitionStrategy{}.admit(f.ctx, c);
  EXPECT_TRUE(got.accept);
  EXPECT_EQ(got.estimated_completion, reference_admit(f.ctx, c).estimated_completion);
  EXPECT_EQ(got.estimated_completion, f.ctx.now + c.estimated_runtime(share, 1.0));
  // One processor more and it no longer fits.
  const auto wider = qos::make_contract(5, 8, 5000.0);
  ASSERT_EQ(reference_share(f.ctx, wider), 0);
  EXPECT_EQ(EquipartitionStrategy{}.admit(f.ctx, wider).estimated_completion,
            f.backlog_estimate(wider));
}

/// Equipartition as it was before schedule() dropped the no-op entries.
class FullWaterFill final : public Strategy {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "full"; }
  [[nodiscard]] bool adaptive() const noexcept override { return true; }
  [[nodiscard]] AdmissionDecision admit(const SchedulerContext& ctx,
                                        const qos::QosContract& contract) override {
    return inner_.admit(ctx, contract);
  }
  [[nodiscard]] std::vector<Allocation> schedule(const SchedulerContext& ctx) override {
    return reference_schedule(ctx);
  }

 private:
  EquipartitionStrategy inner_;
};

TEST(Equipartition, ChangedAllocationsApplyLikeTheFullWaterFill) {
  // Two CMs take the same random submits, evictions and engine advances;
  // one applies only the changed allocations, the other the whole
  // water-fill. Every job's state and the traces must stay identical.
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    std::mt19937_64 rng(seed);
    cluster::MachineSpec machine;
    machine.name = "eq";
    machine.total_procs = seed % 2 == 0 ? 64 : 128;
    const job::AdaptiveCosts costs{.reconfig_seconds = 2.0, .checkpoint_seconds = 5.0,
                                   .restart_seconds = 5.0};
    sim::SimContext ctx_a;
    sim::SimContext ctx_b;
    cluster::ClusterManager changed{ctx_a, machine,
                                    std::make_unique<EquipartitionStrategy>(), costs};
    cluster::ClusterManager full{ctx_b, machine, std::make_unique<FullWaterFill>(), costs};
    std::vector<JobId> ids;
    for (int step = 0; step < 200; ++step) {
      const unsigned op = static_cast<unsigned>(rng() % 10);
      if (op < 5) {
        const int lo = std::uniform_int_distribution<int>(1, machine.total_procs / 2)(rng);
        const int hi = std::uniform_int_distribution<int>(lo, machine.total_procs)(rng);
        const double work = std::uniform_real_distribution<double>(50.0, 2e4)(rng);
        const auto c = qos::make_contract(lo, hi, work, 0.8, 1.0);
        const auto a = changed.submit(UserId{1}, c);
        const auto b = full.submit(UserId{1}, c);
        ASSERT_EQ(a, b);
        if (a) ids.push_back(*a);
      } else if (op < 9) {
        const double until =
            ctx_a.engine().now() + std::uniform_real_distribution<double>(1.0, 2000.0)(rng);
        ctx_a.engine().run(until);
        ctx_b.engine().run(until);
      } else if (!ids.empty()) {
        const JobId id = ids[rng() % ids.size()];
        ASSERT_EQ(changed.evict_job(id).has_value(), full.evict_job(id).has_value());
      }
      for (const JobId id : ids) {
        const job::Job* a = changed.find_job(id);
        const job::Job* b = full.find_job(id);
        ASSERT_EQ(a == nullptr, b == nullptr);
        if (a == nullptr) continue;
        ASSERT_EQ(a->state(), b->state()) << "job " << id;
        ASSERT_EQ(a->procs(), b->procs()) << "job " << id;
        ASSERT_EQ(a->remaining_work(), b->remaining_work()) << "job " << id;
        ASSERT_EQ(a->history().size(), b->history().size()) << "job " << id;
      }
    }
    const auto& ta = ctx_a.trace();
    const auto& tb = ctx_b.trace();
    ASSERT_EQ(ta.dropped(), 0u);
    ASSERT_EQ(ta.size(), tb.size());
    // A CM without leases records job events only.
    for (std::size_t i = 0; i < ta.size(); ++i) {
      ASSERT_EQ(ta.at(i).time, tb.at(i).time) << "event " << i;
      ASSERT_EQ(ta.at(i).kind, tb.at(i).kind) << "event " << i;
      ASSERT_EQ(ta.at(i).payload.job.job, tb.at(i).payload.job.job) << "event " << i;
      ASSERT_EQ(ta.at(i).payload.job.procs, tb.at(i).payload.job.procs) << "event " << i;
    }
  }
}

}  // namespace
}  // namespace faucets::sched
