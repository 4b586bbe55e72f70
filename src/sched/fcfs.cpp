#include "src/sched/fcfs.hpp"

#include <algorithm>
#include <cmath>

namespace faucets::sched {

int rigid_request_size(const qos::QosContract& contract, RigidRequest policy,
                       int machine_procs) {
  int size = contract.min_procs;
  switch (policy) {
    case RigidRequest::kMin:
      size = contract.min_procs;
      break;
    case RigidRequest::kMedian:
      size = static_cast<int>(std::lround(std::sqrt(
          static_cast<double>(contract.min_procs) * contract.max_procs)));
      break;
    case RigidRequest::kMax:
      size = contract.max_procs;
      break;
  }
  const int hi =
      std::max(contract.min_procs, std::min(contract.max_procs, std::max(machine_procs, 1)));
  return std::clamp(size, contract.min_procs, hi);
}

int FcfsStrategy::request_size(const SchedulerContext& ctx,
                               const qos::QosContract& contract) const {
  return rigid_request_size(contract, request_, ctx.total_procs());
}

AdmissionDecision FcfsStrategy::admit(const SchedulerContext& ctx,
                                      const qos::QosContract& contract) {
  if (contract.min_procs > ctx.total_procs()) {
    return AdmissionDecision::rejected(RejectReason::kLargerThanMachine);
  }
  const int size = request_size(ctx, contract);
  // Completion estimate: all queued work drains at full machine rate, then
  // this job runs at its fixed size. Crude, as a real FCFS queue estimate is.
  double backlog = 0.0;
  for (const auto* j : ctx.running) backlog += j->remaining_work();
  for (const auto& q : ctx.queued) backlog += q.remaining_work;
  const double drain =
      backlog / (static_cast<double>(ctx.total_procs()) *
                 (ctx.machine != nullptr ? ctx.machine->speed_factor : 1.0));
  const double speed = ctx.machine != nullptr ? ctx.machine->speed_factor : 1.0;
  const double run = contract.estimated_runtime(size, speed);
  return AdmissionDecision::accepted(ctx.now + drain + run);
}

std::vector<Allocation> FcfsStrategy::schedule(const SchedulerContext& ctx) {
  std::vector<Allocation> out;
  int free_procs = ctx.free_procs();
  // Strict FCFS: start queued jobs in order while they fit; stop at the
  // first that does not.
  for (const auto& q : ctx.queued) {
    const int size = request_size(ctx, q.job->contract());
    if (size > free_procs) break;
    out.push_back(Allocation{q.job->id(), size});
    free_procs -= size;
  }
  return out;
}

}  // namespace faucets::sched
