// Experiment E9b (DESIGN.md): allocator and Gantt-chart microbenchmarks —
// the inner loops of admission control — and the Cluster Manager's bid-time
// query against a deep queue. google-benchmark.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <string>

#include "src/cluster/allocator.hpp"
#include "src/cluster/gantt.hpp"
#include "src/cluster/server.hpp"
#include "src/sched/backfill.hpp"
#include "src/sched/equipartition.hpp"
#include "src/sched/fcfs.hpp"
#include "src/util/rng.hpp"

namespace {

using namespace faucets;
using namespace faucets::cluster;

void BM_AllocatorChurn(benchmark::State& state) {
  const bool contiguous = state.range(0) == 1;
  Rng rng{7};
  ContiguousAllocator alloc{4096};
  std::vector<std::vector<ProcRange>> held;
  for (auto _ : state) {
    if (rng.bernoulli(0.55) || held.empty()) {
      const int n = static_cast<int>(rng.uniform_int(8, 256));
      if (contiguous) {
        if (auto r = alloc.allocate(n)) held.push_back({*r});
      } else {
        auto pieces = alloc.allocate_scattered(n);
        if (!pieces.empty()) held.push_back(std::move(pieces));
      }
    } else {
      const auto idx = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(held.size()) - 1));
      for (const auto& r : held[idx]) alloc.release(r);
      held.erase(held.begin() + static_cast<std::ptrdiff_t>(idx));
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AllocatorChurn)->Arg(1)->Arg(0)->ArgName("contiguous");

void BM_GanttReserve(benchmark::State& state) {
  Rng rng{11};
  for (auto _ : state) {
    state.PauseTiming();
    GanttChart gantt{1024};
    state.ResumeTiming();
    for (int i = 0; i < 256; ++i) {
      const double start = rng.uniform(0.0, 1e5);
      gantt.reserve(start, start + rng.uniform(10.0, 5000.0),
                    static_cast<int>(rng.uniform_int(1, 256)));
    }
    benchmark::DoNotOptimize(gantt.committed_at(5e4));
  }
  state.SetItemsProcessed(256 * state.iterations());
}
BENCHMARK(BM_GanttReserve);

void BM_GanttEarliestFit(benchmark::State& state) {
  const auto reservations = static_cast<int>(state.range(0));
  Rng rng{13};
  GanttChart gantt{1024};
  for (int i = 0; i < reservations; ++i) {
    const double start = rng.uniform(0.0, 1e5);
    gantt.reserve(start, start + rng.uniform(10.0, 5000.0),
                  static_cast<int>(rng.uniform_int(1, 200)));
  }
  for (auto _ : state) {
    const double t = gantt.earliest_fit(rng.uniform(0.0, 1e5), 600.0, 512, 2e5);
    benchmark::DoNotOptimize(t);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GanttEarliestFit)->Arg(64)->Arg(256)->Arg(1024);

// What one RFB answer asks of a Cluster Manager: the admission query and the
// projected utilization the utilization bidders price from. 128 procs with
// `depth` jobs queued behind the running ones, under equipartition (0),
// FCFS (1) or EASY backfill (2); the engine never runs, so the state is the
// same on every iteration. Explains the replay_swf end-to-end result, whose
// clusters average ~1,300 queued jobs.
std::unique_ptr<sched::Strategy> query_strategy(std::int64_t kind) {
  switch (kind) {
    case 1: return std::make_unique<sched::FcfsStrategy>();
    case 2: return std::make_unique<sched::BackfillStrategy>();
    default: return std::make_unique<sched::EquipartitionStrategy>();
  }
}

void BM_ClusterQuery(benchmark::State& state) {
  const auto depth = static_cast<int>(state.range(1));
  sim::SimContext ctx;
  MachineSpec machine;
  machine.name = "bench";
  machine.total_procs = 128;
  ClusterManager cm{ctx, machine, query_strategy(state.range(0))};
  Rng rng{17};
  for (int i = 0; cm.queued_count() < static_cast<std::size_t>(depth); ++i) {
    (void)cm.submit(UserId{1}, qos::make_contract(16, 64, rng.uniform(1e3, 1e5), 0.8, 1.0));
  }
  const auto candidate = qos::make_contract(16, 64, 2e4, 0.8, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cm.query(candidate));
    benchmark::DoNotOptimize(cm.projected_utilization(0.0, 3600.0));
  }
  state.SetLabel(std::string(cm.strategy().name()));
  state.counters["queued"] = static_cast<double>(cm.queued_count());
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ClusterQuery)
    ->Args({0, 64})
    ->Args({0, 1024})
    ->Args({1, 1024})
    ->Args({2, 1024})
    ->ArgNames({"strategy", "depth"});

}  // namespace

BENCHMARK_MAIN();
