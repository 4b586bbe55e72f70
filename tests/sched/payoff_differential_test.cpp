// Differential test of the payoff strategy's hot paths. A reference copy
// of admission builds its commitment profile on the map-of-deltas oracle
// chart, sweeping the map on every query, and a reference copy of
// scheduling recomputes each job's priority inside the sort comparator.
// On seeded random cluster states both must make exactly the strategy's
// decisions: same accept flag, bit-identical promised completion, same
// reason, same allocation vector.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "src/sched/payoff_sched.hpp"
#include "src/util/rng.hpp"
#include "tests/cluster/brute_force_chart.hpp"

namespace faucets::sched {
namespace {

using cluster::BruteForceChart;

double speed_of(const SchedulerContext& ctx) {
  return ctx.machine != nullptr ? ctx.machine->speed_factor : 1.0;
}

BruteForceChart reference_commitments(const SchedulerContext& ctx, double horizon) {
  BruteForceChart gantt{std::max(1, ctx.total_procs())};
  for (const auto* j : ctx.running) {
    const double finish = std::min(j->projected_finish(ctx.now), horizon);
    const int floor_procs = std::min(j->procs(), j->contract().min_procs);
    if (finish > ctx.now) gantt.reserve(ctx.now, finish, floor_procs);
  }
  const double speed = speed_of(ctx);
  for (const auto* j : ctx.queued) {
    const int procs = std::min(j->contract().min_procs, gantt.capacity);
    const double runtime =
        j->contract().efficiency.time_to_complete(j->remaining_work(), procs) / speed;
    const double start = gantt.earliest_fit(ctx.now, runtime, procs, horizon);
    if (start < horizon) gantt.reserve(start, start + runtime, procs);
  }
  return gantt;
}

double reference_displacement_loss(const PayoffStrategyParams& params,
                                   const SchedulerContext& ctx,
                                   const qos::QosContract& contract, double start,
                                   double duration) {
  if (!params.charge_displacement_loss) return 0.0;
  const int total = std::max(1, ctx.total_procs());
  const double capacity_fraction =
      static_cast<double>(std::min(contract.min_procs, total)) / total;
  double loss = 0.0;
  for (const auto* j : ctx.running) {
    const auto& payoff = j->contract().payoff;
    if (!payoff.has_deadline()) continue;
    const double finish = j->projected_finish(ctx.now);
    if (finish >= 1e300 || finish <= start) continue;
    const double overlap = std::min(finish, start + duration) - start;
    if (overlap <= 0.0) continue;
    const double delay = overlap * capacity_fraction / (1.0 - capacity_fraction + 1e-9);
    const double before = payoff.value_at(finish);
    const double after = payoff.value_at(finish + delay);
    if (after < before) loss += before - after;
  }
  return loss;
}

AdmissionDecision reference_admit(const PayoffStrategyParams& params,
                                  const SchedulerContext& ctx,
                                  const qos::QosContract& contract) {
  if (contract.min_procs > ctx.total_procs()) {
    return AdmissionDecision::rejected("job larger than machine");
  }
  const double speed = speed_of(ctx);
  const double horizon = ctx.now + std::max(params.lookahead, 0.0) +
                         contract.estimated_runtime(contract.min_procs, speed);
  const auto gantt = reference_commitments(ctx, horizon);
  const double runtime_min = contract.estimated_runtime(contract.min_procs, speed);
  const double window_end = ctx.now + std::max(params.lookahead, 0.0);
  const double start =
      gantt.earliest_fit(ctx.now, runtime_min, contract.min_procs, horizon);
  if (start > window_end) {
    return AdmissionDecision::rejected("no window within lookahead");
  }
  const int spare = gantt.capacity - gantt.peak_committed(start, start + runtime_min);
  const int procs = std::clamp(contract.min_procs + std::max(0, spare),
                               contract.min_procs,
                               std::min(contract.max_procs, ctx.total_procs()));
  const double runtime = contract.estimated_runtime(procs, speed);
  const double completion = start + runtime;
  const double payoff = contract.payoff.value_at(completion);
  if (payoff <= 0.0) {
    return AdmissionDecision::rejected("unprofitable at projected completion");
  }
  const double loss = reference_displacement_loss(params, ctx, contract, start, runtime);
  if (payoff < loss + params.admission_threshold) {
    return AdmissionDecision::rejected("payoff does not compensate inflicted loss");
  }
  return AdmissionDecision::accepted(completion);
}

std::vector<Allocation> reference_schedule(const SchedulerContext& ctx) {
  const double speed = speed_of(ctx);
  std::vector<const job::Job*> jobs;
  jobs.insert(jobs.end(), ctx.running.begin(), ctx.running.end());
  jobs.insert(jobs.end(), ctx.queued.begin(), ctx.queued.end());
  std::stable_sort(jobs.begin(), jobs.end(), [&](const job::Job* a, const job::Job* b) {
    return PayoffStrategy::priority(*a, ctx.now) > PayoffStrategy::priority(*b, ctx.now);
  });
  const int total = ctx.total_procs();
  std::vector<int> granted(jobs.size(), 0);
  int cap = total;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const job::Job& j = *jobs[i];
    const auto& c = j.contract();
    const int max_here = std::min(c.max_procs, total);
    int desired = c.min_procs;
    if (c.payoff.has_deadline()) {
      desired = max_here;
      for (int p = c.min_procs; p <= max_here; ++p) {
        const double finish =
            ctx.now + c.efficiency.time_to_complete(j.remaining_work(), p) / speed;
        if (finish <= c.payoff.soft_deadline()) {
          desired = p;
          break;
        }
      }
    }
    if (c.min_procs > cap) continue;
    granted[i] = std::min(desired, cap);
    if (granted[i] < c.min_procs) granted[i] = c.min_procs;
    cap -= granted[i];
  }
  for (std::size_t i = 0; i < jobs.size() && cap > 0; ++i) {
    if (granted[i] == 0) continue;
    const int max_here = std::min(jobs[i]->contract().max_procs, total);
    const int extra = std::min(cap, max_here - granted[i]);
    granted[i] += extra;
    cap -= extra;
  }
  std::vector<Allocation> out;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    out.push_back(Allocation{jobs[i]->id(), granted[i]});
  }
  return out;
}

/// A random contract: rigid or malleable, flat or deadline payoff, sized
/// against a `procs`-processor machine with occasional oversized requests.
qos::QosContract random_contract(Rng& rng, int procs, double now) {
  const int min_procs = static_cast<int>(rng.uniform_int(1, procs / 4));
  const int max_procs =
      rng.bernoulli(0.3) ? min_procs
                         : static_cast<int>(rng.uniform_int(min_procs, procs + procs / 4));
  auto c = qos::make_contract(min_procs, max_procs, rng.uniform(100.0, 4e5),
                              1.0, rng.uniform(0.4, 1.0));
  if (rng.bernoulli(0.5)) {
    const double soft = now + rng.uniform(-500.0, 2e4);
    c.payoff = qos::PayoffFunction::deadline(soft, soft + rng.uniform(0.0, 2e4),
                                             rng.uniform(1.0, 500.0),
                                             rng.uniform(0.0, 50.0), rng.uniform(0.0, 20.0));
  } else {
    c.payoff = qos::PayoffFunction::flat(rng.uniform(0.0, 300.0));
  }
  return c;
}

/// One random cluster state: up to 64 running and 200 queued jobs. About a
/// third of the jobs reuse an earlier job's contract, so queued clones tie
/// on priority and the stable order decides.
struct RandomCluster {
  cluster::MachineSpec machine;
  std::deque<job::Job> jobs;  // stable addresses
  SchedulerContext ctx;

  explicit RandomCluster(Rng& rng) {
    const int sizes[] = {32, 64, 256, 512};
    machine.total_procs = sizes[rng.uniform_int(0, 3)];
    const double speeds[] = {0.75, 1.0, 1.5};
    machine.speed_factor = speeds[rng.uniform_int(0, 2)];
    ctx.machine = &machine;
    ctx.now = rng.uniform(1e3, 1e5);

    std::vector<qos::QosContract> contracts;
    auto next_contract = [&] {
      if (!contracts.empty() && rng.bernoulli(0.35)) {
        return contracts[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(contracts.size()) - 1))];
      }
      contracts.push_back(random_contract(rng, machine.total_procs, ctx.now));
      return contracts.back();
    };
    const auto running = rng.uniform_int(0, 64);
    const auto queued = rng.uniform_int(0, 200);
    int idle = machine.total_procs;
    for (std::int64_t i = 0; i < running; ++i) {
      const auto c = next_contract();
      if (c.min_procs > idle) continue;
      auto& j = jobs.emplace_back(JobId{jobs.size() + 1}, UserId{1}, c, 0.0);
      const int procs = static_cast<int>(
          rng.uniform_int(c.min_procs, std::min(idle, c.max_procs)));
      j.start(ctx.now - rng.uniform(0.0, 3e3), procs, machine.speed_factor);
      j.advance_to(ctx.now);
      idle -= j.procs();
      ctx.running.push_back(&j);
    }
    for (std::int64_t i = 0; i < queued; ++i) {
      auto& j = jobs.emplace_back(JobId{jobs.size() + 1}, UserId{1}, next_contract(), 0.0);
      j.mark_queued();
      ctx.queued.push_back(&j);
    }
  }
};

class PayoffDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PayoffDifferential, MatchesReferenceAdmissionAndSchedule) {
  Rng rng{GetParam() * 7919 + 5};
  PayoffStrategyParams no_lookahead;
  no_lookahead.lookahead = 0.0;
  std::map<std::string, int> outcomes;  // reason ("" = accepted) -> count
  for (int round = 0; round < 40; ++round) {
    SCOPED_TRACE("seed " + std::to_string(GetParam()) + " round " +
                 std::to_string(round));
    const RandomCluster cluster{rng};
    const SchedulerContext& ctx = cluster.ctx;
    for (const PayoffStrategyParams& params : {PayoffStrategyParams{}, no_lookahead}) {
      PayoffStrategy strategy{params};
      for (int q = 0; q < 4; ++q) {
        const auto contract =
            random_contract(rng, ctx.total_procs() * (q == 0 ? 8 : 1), ctx.now);
        const AdmissionDecision got = strategy.admit(ctx, contract);
        const AdmissionDecision want = reference_admit(params, ctx, contract);
        ASSERT_EQ(got.accept, want.accept) << want.reason;
        ASSERT_EQ(got.estimated_completion, want.estimated_completion);
        ASSERT_EQ(got.reason, want.reason);
        ++outcomes[got.reason];
      }
      const auto got = strategy.schedule(ctx);
      const auto want = reference_schedule(ctx);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].job, want[i].job) << "position " << i;
        ASSERT_EQ(got[i].procs, want[i].procs) << "position " << i;
      }
    }
  }
  // The random states reach every admission outcome but the rare
  // displacement-loss rejection.
  for (const char* reason : {"", "job larger than machine", "no window within lookahead",
                             "unprofitable at projected completion"}) {
    EXPECT_GT(outcomes[reason], 0) << "never saw '" << reason << "'";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PayoffDifferential,
                         ::testing::Values<std::uint64_t>(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace faucets::sched
