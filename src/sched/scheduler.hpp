// Strategy interface for job schedulers ("Adaptive Queueing System aka
// Scheduler aka Cluster Manager" in the paper's component list).
//
// Decisions on allocating processors to jobs are taken by a strategy that
// can be plugged into the Cluster Manager (§4.1). A strategy answers two
// questions: should this job be admitted (and what completion can we
// promise, which backs the bid), and how many processors should every
// current job hold right now.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "src/cluster/machine.hpp"
#include "src/job/job.hpp"
#include "src/qos/contract.hpp"

namespace faucets::sim {
class SimContext;
}  // namespace faucets::sim

namespace faucets::sched {

/// Desired processor count for one job; 0 means vacate to the queue.
struct Allocation {
  JobId job;
  int procs = 0;
};

/// One queued job as strategies read it: the job plus the values admission
/// sums, stored flat so a deep queue is scanned without touching the jobs.
/// A queued job holds no processors and does no work, so every field is
/// exact for as long as the job stays queued.
struct QueuedJob {
  const job::Job* job = nullptr;
  int min_procs = 0;            // contract().min_procs
  double remaining_work = 0.0;  // remaining_work()
  double min_runtime = 0.0;     // time_to_finish_on(min_procs)

  [[nodiscard]] static QueuedJob of(const job::Job& j) {
    const int lo = j.contract().min_procs;
    return QueuedJob{&j, lo, j.remaining_work(), j.time_to_finish_on(lo)};
  }
};

/// Read-only view of the cluster state handed to strategies. `running`
/// jobs hold processors and are read through their pointers; `queued` jobs
/// wait and are read from their QueuedJob records. Both lists are sorted
/// by job id, which is submission order on one cluster. The Cluster
/// Manager owns the view and edits it in place as jobs arrive, start,
/// vacate and leave, so it is valid only until the CM's next mutation: a
/// strategy reads it during admit() or schedule() and must not keep it, or
/// any pointer from it, past the call.
struct SchedulerContext {
  double now = 0.0;
  /// The run's simulation context (trace sink, RNG, network counters).
  /// Null when a strategy is exercised standalone in unit tests.
  sim::SimContext* sim = nullptr;
  const cluster::MachineSpec* machine = nullptr;
  std::vector<const job::Job*> running;
  std::vector<QueuedJob> queued;

  [[nodiscard]] int total_procs() const noexcept {
    return machine != nullptr ? machine->total_procs : 0;
  }
  [[nodiscard]] int busy_procs() const noexcept {
    int n = 0;
    for (const auto* j : running) n += j->procs();
    return n;
  }
  [[nodiscard]] int free_procs() const noexcept { return total_procs() - busy_procs(); }
};

/// Why an admission query refused a contract.
enum class RejectReason : std::uint8_t {
  kNone,                // accepted
  kInvalidContract,     // the contract fails QosContract::valid()
  kMachineCannotRun,    // MachineSpec::can_ever_run() refuses it
  kLargerThanMachine,   // min_procs exceeds the machine
  kNoWindow,            // payoff: no start within the lookahead
  kUnprofitable,        // payoff: nothing earned at the promised completion
  kLossNotCompensated,  // payoff: less than the loss inflicted on others
};

[[nodiscard]] constexpr std::string_view name(RejectReason reason) noexcept {
  switch (reason) {
    case RejectReason::kNone: return "none";
    case RejectReason::kInvalidContract: return "invalid contract";
    case RejectReason::kMachineCannotRun: return "machine cannot run this contract";
    case RejectReason::kLargerThanMachine: return "job larger than machine";
    case RejectReason::kNoWindow: return "no window within lookahead";
    case RejectReason::kUnprofitable: return "unprofitable at projected completion";
    case RejectReason::kLossNotCompensated:
      return "payoff does not compensate inflicted loss";
  }
  return "?";
}

/// Outcome of an admission query. `estimated_completion` (absolute sim
/// time) is the promise a bid is built on.
struct AdmissionDecision {
  bool accept = false;
  double estimated_completion = 1e300;
  RejectReason reason = RejectReason::kNone;

  static AdmissionDecision rejected(RejectReason why) {
    return AdmissionDecision{false, 1e300, why};
  }
  static AdmissionDecision accepted(double completion) {
    return AdmissionDecision{true, completion, RejectReason::kNone};
  }
};

/// How a non-adaptive strategy chooses the fixed size of a malleable job.
enum class RigidRequest {
  kMin,     // conservative: the contract minimum
  kMedian,  // geometric middle of the range
  kMax,     // aggressive: the contract maximum (clamped to the machine)
};

[[nodiscard]] int rigid_request_size(const qos::QosContract& contract,
                                     RigidRequest policy, int machine_procs);

class Strategy {
 public:
  virtual ~Strategy() = default;

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// True if the strategy exploits malleable jobs.
  [[nodiscard]] virtual bool adaptive() const noexcept = 0;

  /// Decide whether to admit `contract` given the current state. Must not
  /// mutate anything; called both for bids and for actual submission.
  [[nodiscard]] virtual AdmissionDecision admit(const SchedulerContext& ctx,
                                                const qos::QosContract& contract) = 0;

  /// Produce target allocations for the jobs in `ctx.running` and
  /// `ctx.queued`. Jobs omitted from the result keep their current
  /// allocation, so a strategy may return only the allocations that
  /// change (equipartition does). Called whenever the job set changes.
  [[nodiscard]] virtual std::vector<Allocation> schedule(const SchedulerContext& ctx) = 0;
};

}  // namespace faucets::sched
