#include "src/sched/priority_sched.hpp"

#include <algorithm>

namespace faucets::sched {

double PriorityStrategy::effective_priority(const job::Job& job) const {
  double priority = job.contract().priority;
  if (params_.fair_usage_weight > 0.0) {
    auto it = usage_.find(job.owner());
    if (it != usage_.end()) {
      const double over = std::max(0.0, it->second - params_.fair_usage_grace);
      priority -= over / params_.fair_usage_weight;
    }
  }
  return priority;
}

void PriorityStrategy::charge_usage(UserId user, double proc_seconds) {
  usage_[user] += proc_seconds;
}

double PriorityStrategy::usage_of(UserId user) const {
  auto it = usage_.find(user);
  return it == usage_.end() ? 0.0 : it->second;
}

AdmissionDecision PriorityStrategy::admit(const SchedulerContext& ctx,
                                          const qos::QosContract& contract) {
  if (contract.min_procs > ctx.total_procs()) {
    return AdmissionDecision::rejected(RejectReason::kLargerThanMachine);
  }
  // Intranet pools accept everything; priorities settle who runs when.
  // Completion estimate: equal share among live jobs of this or higher
  // priority plus the newcomer.
  int competitors = 1;
  for (const auto* j : ctx.running) {
    if (j->contract().priority >= contract.priority) ++competitors;
  }
  for (const auto& q : ctx.queued) {
    if (q.job->contract().priority >= contract.priority) ++competitors;
  }
  const int share = std::clamp(ctx.total_procs() / competitors, contract.min_procs,
                               std::min(contract.max_procs, ctx.total_procs()));
  const double speed = ctx.machine != nullptr ? ctx.machine->speed_factor : 1.0;
  return AdmissionDecision::accepted(ctx.now +
                                     contract.estimated_runtime(share, speed));
}

std::vector<Allocation> PriorityStrategy::schedule(const SchedulerContext& ctx) {
  std::vector<const job::Job*> jobs;
  jobs.reserve(ctx.running.size() + ctx.queued.size());
  jobs.insert(jobs.end(), ctx.running.begin(), ctx.running.end());
  if (params_.allow_preemption) {
    for (const auto& q : ctx.queued) jobs.push_back(q.job);
  }
  // Order by effective priority, then submission order (job id).
  std::stable_sort(jobs.begin(), jobs.end(),
                   [this](const job::Job* a, const job::Job* b) {
                     const double pa = effective_priority(*a);
                     const double pb = effective_priority(*b);
                     if (pa != pb) return pa > pb;
                     return a->id() < b->id();
                   });

  const int total = ctx.total_procs();
  int cap = total;
  std::vector<Allocation> out;
  out.reserve(jobs.size() + ctx.queued.size());

  // Pass 1: minimums in priority order; jobs that no longer fit are
  // preempted (vacated to the queue, restartable later — the model's
  // checkpoint is free within one machine).
  std::vector<int> grant(jobs.size(), 0);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto& c = jobs[i]->contract();
    if (c.min_procs <= cap) {
      grant[i] = c.min_procs;
      cap -= grant[i];
    } else if (jobs[i]->procs() > 0) {
      ++preemptions_;
    }
  }
  // Pass 2: leftover capacity expands jobs, highest priority first.
  for (std::size_t i = 0; i < jobs.size() && cap > 0; ++i) {
    if (grant[i] == 0) continue;
    const int max_here = std::min(jobs[i]->contract().max_procs, total);
    const int extra = std::min(cap, max_here - grant[i]);
    grant[i] += extra;
    cap -= extra;
  }
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    out.push_back(Allocation{jobs[i]->id(), grant[i]});
  }

  if (!params_.allow_preemption) {
    // Without preemption, queued jobs only start into leftover capacity in
    // priority order.
    std::vector<const job::Job*> waiting;
    waiting.reserve(ctx.queued.size());
    for (const auto& q : ctx.queued) waiting.push_back(q.job);
    std::stable_sort(waiting.begin(), waiting.end(),
                     [this](const job::Job* a, const job::Job* b) {
                       const double pa = effective_priority(*a);
                       const double pb = effective_priority(*b);
                       if (pa != pb) return pa > pb;
                       return a->id() < b->id();
                     });
    for (const auto* j : waiting) {
      const auto& c = j->contract();
      if (c.min_procs > cap) continue;
      const int granted = std::min(std::min(c.max_procs, total), cap);
      out.push_back(Allocation{j->id(), granted});
      cap -= granted;
    }
  }
  return out;
}

}  // namespace faucets::sched
