#include "src/sched/equipartition.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <random>

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

// --- admit() against the full water-fill ------------------------------------

/// The candidate's share of the whole water-fill, appended after every live
/// job.
int reference_share(const SchedulerContext& ctx, const qos::QosContract& contract) {
  Bounds bounds;
  for (const auto* j : ctx.running) {
    bounds.emplace_back(j->contract().min_procs,
                        std::min(j->contract().max_procs, ctx.total_procs()));
  }
  for (const auto* j : ctx.queued) {
    bounds.emplace_back(j->contract().min_procs,
                        std::min(j->contract().max_procs, ctx.total_procs()));
  }
  bounds.emplace_back(contract.min_procs,
                      std::min(contract.max_procs, ctx.total_procs()));
  return EquipartitionStrategy::equipartition(bounds, ctx.total_procs()).back();
}

/// admit() as it was before the pass-1 short-circuit: always run the whole
/// water-fill.
AdmissionDecision reference_admit(const SchedulerContext& ctx,
                                  const qos::QosContract& contract) {
  if (contract.min_procs > ctx.total_procs()) {
    return AdmissionDecision::rejected("job larger than machine");
  }
  const double speed = ctx.machine != nullptr ? ctx.machine->speed_factor : 1.0;
  const int share = reference_share(ctx, contract);
  if (share > 0) {
    return AdmissionDecision::accepted(ctx.now +
                                       contract.estimated_runtime(share, speed));
  }
  double backlog = 0.0;
  for (const auto* j : ctx.running) backlog += j->remaining_work();
  for (const auto* j : ctx.queued) backlog += j->remaining_work();
  const double drain = backlog / (static_cast<double>(ctx.total_procs()) * speed);
  const int procs = std::min(contract.max_procs, ctx.total_procs());
  return AdmissionDecision::accepted(ctx.now + drain +
                                     contract.estimated_runtime(procs, speed));
}

TEST(Equipartition, AdmitMatchesFullWaterFill) {
  std::size_t with_share = 0;
  std::size_t without_share = 0;
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
    // Live jobs: the first few run on their minimums, the rest wait.
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
      if (j.contract().min_procs <= free_procs && rng() % 2 == 0) {
        j.start(0.0, j.contract().min_procs, machine.speed_factor);
        j.advance_to(ctx.now);
        free_procs -= j.contract().min_procs;
        ctx.running.push_back(&j);
      } else {
        ctx.queued.push_back(&j);
      }
    }
    EquipartitionStrategy strategy;
    // schedule() merges the two id-sorted lists; the water-fill order is
    // the sorted union.
    std::vector<const job::Job*> all{ctx.running.begin(), ctx.running.end()};
    all.insert(all.end(), ctx.queued.begin(), ctx.queued.end());
    std::sort(all.begin(), all.end(),
              [](const job::Job* a, const job::Job* b) { return a->id() < b->id(); });
    const auto allocations = strategy.schedule(ctx);
    ASSERT_EQ(allocations.size(), all.size());
    for (std::size_t i = 0; i < all.size(); ++i) {
      ASSERT_EQ(allocations[i].job, all[i]->id());
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
}

}  // namespace
}  // namespace faucets::sched
