// Differential tests of the rigid strategies against reference copies that
// read every queued job through its Job pointer. On seeded random deep
// states, FCFS and EASY backfill must promise bit-identical completions
// when they sum the backlog from the view's QueuedJob records, and
// backfill's head-blocked pass, which stops once no processor is free, must
// make exactly the allocations of the full scan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "src/sched/backfill.hpp"
#include "src/sched/fcfs.hpp"
#include "src/util/rng.hpp"

namespace faucets::sched {
namespace {

double speed_of(const SchedulerContext& ctx) {
  return ctx.machine != nullptr ? ctx.machine->speed_factor : 1.0;
}

/// One random cluster state: up to 48 running jobs and up to 1,500 queued
/// ones, a quarter of which ran before and were vacated with part of their
/// work done. Both lists are in id order, as the CM keeps them.
struct DeepCluster {
  cluster::MachineSpec machine;
  std::deque<job::Job> jobs;  // stable addresses
  SchedulerContext ctx;

  explicit DeepCluster(Rng& rng) {
    const int sizes[] = {32, 64, 128, 512};
    machine.total_procs = sizes[rng.uniform_int(0, 3)];
    const double speeds[] = {0.75, 1.0, 1.5};
    machine.speed_factor = speeds[rng.uniform_int(0, 2)];
    ctx.machine = &machine;
    ctx.now = rng.uniform(1e3, 1e5);

    int idle = machine.total_procs;
    const auto running = rng.uniform_int(0, 48);
    for (std::int64_t i = 0; i < running; ++i) {
      const auto c = contract(rng);
      if (c.min_procs > idle) continue;
      auto& j = jobs.emplace_back(JobId{jobs.size() + 1}, UserId{1}, c, 0.0);
      const int procs =
          static_cast<int>(rng.uniform_int(c.min_procs, std::min(idle, c.max_procs)));
      j.start(ctx.now - rng.uniform(0.0, 3e3), procs, machine.speed_factor);
      j.advance_to(ctx.now);
      idle -= j.procs();
      ctx.running.push_back(&j);
    }
    const auto queued = rng.uniform_int(0, 1500);
    for (std::int64_t i = 0; i < queued; ++i) {
      const auto c = contract(rng);
      auto& j = jobs.emplace_back(JobId{jobs.size() + 1}, UserId{1}, c, 0.0);
      j.mark_queued();
      if (rng.bernoulli(0.25)) {
        const double began = ctx.now - rng.uniform(10.0, 3e3);
        j.start(began, c.min_procs, machine.speed_factor);
        j.reallocate(rng.uniform(began, ctx.now), 0);
      }
      ctx.queued.push_back(QueuedJob::of(j));
    }
  }

  /// Mostly small jobs so the free processors run out part-way through the
  /// queue; one in eight asks for up to the whole machine.
  qos::QosContract contract(Rng& rng) const {
    const int top = rng.bernoulli(0.125) ? machine.total_procs : machine.total_procs / 8;
    const int lo = static_cast<int>(rng.uniform_int(1, std::max(1, top)));
    const int hi = static_cast<int>(rng.uniform_int(lo, lo * 4));
    return qos::make_contract(lo, hi, rng.uniform(100.0, 4e5), 1.0,
                              rng.uniform(0.4, 1.0));
  }
};

constexpr RigidRequest kRequests[] = {RigidRequest::kMin, RigidRequest::kMedian,
                                      RigidRequest::kMax};

/// FCFS admission summing the backlog through the jobs.
AdmissionDecision reference_fcfs_admit(const SchedulerContext& ctx,
                                       const qos::QosContract& contract,
                                       RigidRequest request) {
  if (contract.min_procs > ctx.total_procs()) {
    return AdmissionDecision::rejected(RejectReason::kLargerThanMachine);
  }
  const int size = rigid_request_size(contract, request, ctx.total_procs());
  double backlog = 0.0;
  for (const auto* j : ctx.running) backlog += j->remaining_work();
  for (const auto& q : ctx.queued) backlog += q.job->remaining_work();
  const double speed = speed_of(ctx);
  const double drain = backlog / (static_cast<double>(ctx.total_procs()) * speed);
  return AdmissionDecision::accepted(ctx.now + drain +
                                     contract.estimated_runtime(size, speed));
}

/// Earliest time `head_size` processors are free, and the spare then.
std::pair<double, int> reference_shadow(const SchedulerContext& ctx, int head_size) {
  std::vector<std::pair<double, int>> finishes;
  for (const auto* j : ctx.running) {
    finishes.emplace_back(j->projected_finish(ctx.now), j->procs());
  }
  std::sort(finishes.begin(), finishes.end());
  int free_procs = ctx.free_procs();
  if (free_procs >= head_size) return {ctx.now, free_procs - head_size};
  for (const auto& [t, p] : finishes) {
    free_procs += p;
    if (free_procs >= head_size) return {t, free_procs - head_size};
  }
  return {1e300, 0};
}

/// Backfill admission summing the queued backlog through the jobs.
AdmissionDecision reference_backfill_admit(const SchedulerContext& ctx,
                                           const qos::QosContract& contract,
                                           RigidRequest request) {
  if (contract.min_procs > ctx.total_procs()) {
    return AdmissionDecision::rejected(RejectReason::kLargerThanMachine);
  }
  const int size = rigid_request_size(contract, request, ctx.total_procs());
  const double speed = speed_of(ctx);
  double backlog = 0.0;
  for (const auto& q : ctx.queued) backlog += q.job->remaining_work();
  const double shadow = reference_shadow(ctx, size).first;
  const double queue_drain = backlog / (static_cast<double>(ctx.total_procs()) * speed);
  return AdmissionDecision::accepted(std::max(shadow, ctx.now + queue_drain) +
                                     contract.estimated_runtime(size, speed));
}

/// Backfill's head-blocked pass scanning the whole queue, however many
/// processors are left. Sets `ran_out` when the free processors reached 0
/// with queued jobs still to scan.
std::vector<Allocation> reference_head_blocked(const SchedulerContext& ctx,
                                               RigidRequest request, bool& ran_out) {
  std::vector<Allocation> out;
  const int total = ctx.total_procs();
  const double speed = speed_of(ctx);
  int free_procs = ctx.free_procs();
  const int head_size = rigid_request_size(ctx.queued.front().job->contract(), request, total);
  const auto [shadow_time, spare] = reference_shadow(ctx, head_size);
  int spare_at_shadow = spare;
  for (std::size_t i = 1; i < ctx.queued.size(); ++i) {
    if (free_procs == 0) ran_out = true;
    const job::Job* j = ctx.queued[i].job;
    const int size = rigid_request_size(j->contract(), request, total);
    if (size > free_procs) continue;
    const double finish =
        ctx.now + j->contract().efficiency.time_to_complete(j->remaining_work(), size) / speed;
    const bool before_shadow = finish <= shadow_time;
    const bool within_spare = size <= spare_at_shadow;
    if (before_shadow || within_spare) {
      out.push_back(Allocation{j->id(), size});
      free_procs -= size;
      if (!before_shadow) spare_at_shadow -= size;
    }
  }
  return out;
}

TEST(Fcfs, AdmitMatchesPointerWalk) {
  Rng rng{20041};
  std::size_t deep = 0;
  for (int round = 0; round < 60; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const DeepCluster cluster{rng};
    if (cluster.ctx.queued.size() >= 1000) ++deep;
    for (const RigidRequest request : kRequests) {
      FcfsStrategy strategy{request};
      for (int q = 0; q < 4; ++q) {
        const auto contract = cluster.contract(rng);
        const auto got = strategy.admit(cluster.ctx, contract);
        const auto want = reference_fcfs_admit(cluster.ctx, contract, request);
        ASSERT_EQ(got.accept, want.accept);
        ASSERT_EQ(got.estimated_completion, want.estimated_completion);
        ASSERT_EQ(got.reason, want.reason);
      }
    }
  }
  EXPECT_GT(deep, 10u);
}

TEST(Backfill, AdmitMatchesPointerWalk) {
  Rng rng{20042};
  std::size_t deep = 0;
  for (int round = 0; round < 60; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const DeepCluster cluster{rng};
    if (cluster.ctx.queued.size() >= 1000) ++deep;
    for (const RigidRequest request : kRequests) {
      BackfillStrategy strategy{request};
      for (int q = 0; q < 4; ++q) {
        const auto contract = cluster.contract(rng);
        const auto got = strategy.admit(cluster.ctx, contract);
        const auto want = reference_backfill_admit(cluster.ctx, contract, request);
        ASSERT_EQ(got.accept, want.accept);
        ASSERT_EQ(got.estimated_completion, want.estimated_completion);
        ASSERT_EQ(got.reason, want.reason);
      }
    }
  }
  EXPECT_GT(deep, 10u);
}

TEST(Backfill, HeadBlockedPassStopsOnlyWhenNothingIsFree) {
  Rng rng{20043};
  std::size_t blocked = 0;
  std::size_t ran_out = 0;
  for (int round = 0; round < 200; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const DeepCluster cluster{rng};
    const SchedulerContext& ctx = cluster.ctx;
    if (ctx.queued.empty()) continue;
    for (const RigidRequest request : kRequests) {
      const int head_size =
          rigid_request_size(ctx.queued.front().job->contract(), request, ctx.total_procs());
      if (head_size <= ctx.free_procs()) continue;  // the head starts: not this pass
      ++blocked;
      bool emptied = false;
      const auto want = reference_head_blocked(ctx, request, emptied);
      if (emptied) ++ran_out;
      const auto got = BackfillStrategy{request}.schedule(ctx);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].job, want[i].job) << "position " << i;
        ASSERT_EQ(got[i].procs, want[i].procs) << "position " << i;
      }
    }
  }
  // The states reach the early exit often, and the full pass too.
  EXPECT_GT(ran_out, 50u);
  EXPECT_GT(blocked - ran_out, 10u);
}

}  // namespace
}  // namespace faucets::sched
