#include "src/sched/equipartition.hpp"

#include <algorithm>

namespace faucets::sched {

std::vector<int> EquipartitionStrategy::equipartition(
    const std::vector<std::pair<int, int>>& bounds, int capacity) {
  std::vector<int> alloc(bounds.size(), 0);

  // Pass 1: guarantee minimums in priority order while capacity lasts.
  // Every minimum is at least 1, so nothing is selected once cap is 0.
  int cap = capacity;
  std::vector<std::size_t> selected;
  for (std::size_t i = 0; i < bounds.size() && cap > 0; ++i) {
    const int lo = bounds[i].first;
    if (lo <= cap) {
      alloc[i] = lo;
      cap -= lo;
      selected.push_back(i);
    }
  }

  // Pass 2: water-fill the remaining capacity equally, clamped to maxima.
  while (cap > 0) {
    std::size_t unsaturated = 0;
    for (std::size_t i : selected) {
      if (alloc[i] < bounds[i].second) ++unsaturated;
    }
    if (unsaturated == 0) break;
    const int inc = std::max(1, cap / static_cast<int>(unsaturated));
    bool gave = false;
    for (std::size_t i : selected) {
      if (cap == 0) break;
      const int room = bounds[i].second - alloc[i];
      if (room <= 0) continue;
      const int give = std::min({inc, room, cap});
      alloc[i] += give;
      cap -= give;
      gave = gave || give > 0;
    }
    if (!gave) break;
  }
  return alloc;
}

AdmissionDecision EquipartitionStrategy::admit(const SchedulerContext& ctx,
                                               const qos::QosContract& contract) {
  if (contract.min_procs > ctx.total_procs()) {
    return AdmissionDecision::rejected(RejectReason::kLargerThanMachine);
  }
  const double speed = ctx.machine != nullptr ? ctx.machine->speed_factor : 1.0;

  // Estimate by running the actual water-filling with the candidate
  // appended after every live job. Pass 1 alone settles the common deep-
  // queue case: its capacity never grows and the candidate comes last, so
  // once the capacity left is below the candidate's minimum the candidate
  // is never selected and its share is 0.
  const int total = ctx.total_procs();
  int cap = total;
  for (const auto* j : ctx.running) {
    if (cap < contract.min_procs) break;
    if (j->contract().min_procs <= cap) cap -= j->contract().min_procs;
  }
  for (const auto& q : ctx.queued) {
    if (cap < contract.min_procs) break;
    if (q.min_procs <= cap) cap -= q.min_procs;
  }
  if (contract.min_procs <= cap) {
    std::vector<std::pair<int, int>> bounds;
    bounds.reserve(ctx.running.size() + ctx.queued.size() + 1);
    for (const auto* j : ctx.running) {
      bounds.emplace_back(j->contract().min_procs, std::min(j->contract().max_procs, total));
    }
    for (const auto& q : ctx.queued) {
      bounds.emplace_back(q.min_procs, std::min(q.job->contract().max_procs, total));
    }
    bounds.emplace_back(contract.min_procs, std::min(contract.max_procs, total));
    const int share = equipartition(bounds, total).back();
    if (share > 0) {
      return AdmissionDecision::accepted(ctx.now +
                                         contract.estimated_runtime(share, speed));
    }
  }
  // No share right now: the candidate waits roughly while the current
  // backlog drains at full machine rate, then runs. The sum runs over the
  // running jobs, then the queued ones, with one accumulator: that order
  // fixes the estimate's bits.
  double backlog = 0.0;
  for (const auto* j : ctx.running) backlog += j->remaining_work();
  for (const auto& q : ctx.queued) backlog += q.remaining_work;
  const double drain = backlog / (static_cast<double>(total) * speed);
  const int procs = std::min(contract.max_procs, total);
  return AdmissionDecision::accepted(ctx.now + drain +
                                     contract.estimated_runtime(procs, speed));
}

std::vector<Allocation> EquipartitionStrategy::schedule(const SchedulerContext& ctx) {
  const int total = ctx.total_procs();
  // Priority order: submission order, running and queued interleaved by id
  // (ids are monotone in submission time on one cluster; both lists are
  // already sorted by id). Pass 1 of the water-fill selects no job once
  // its capacity is 0, so every queued job past that point would get 0,
  // which is what it holds: the merge stops taking queued jobs there.
  // Running jobs are all taken, since a 0 vacates them.
  std::vector<const job::Job*> jobs;
  std::vector<std::pair<int, int>> bounds;
  jobs.reserve(ctx.running.size() + ctx.queued.size());
  bounds.reserve(ctx.running.size() + ctx.queued.size());
  int cap = total;  // pass 1's capacity after the jobs taken so far
  auto take = [&](const job::Job* j) {
    const int lo = j->contract().min_procs;
    jobs.push_back(j);
    bounds.emplace_back(lo, std::min(j->contract().max_procs, total));
    if (lo <= cap) cap -= lo;
  };
  auto next = ctx.queued.begin();
  for (const auto* r : ctx.running) {
    for (; cap > 0 && next != ctx.queued.end() && next->job->id() < r->id(); ++next) {
      take(next->job);
    }
    take(r);
  }
  for (; cap > 0 && next != ctx.queued.end(); ++next) take(next->job);
  const auto alloc = equipartition(bounds, total);

  // Only the allocations that change: the CM leaves omitted jobs as they are.
  std::vector<Allocation> out;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (alloc[i] != jobs[i]->procs()) out.push_back(Allocation{jobs[i]->id(), alloc[i]});
  }
  return out;
}

}  // namespace faucets::sched
