// One event-ordering rule: the engine runs events by (time, insertion
// sequence), and the trace artifacts and /traces/recent list records in that
// execution order. Two records at one sim time keep the order their events
// ran in, whichever entities created those events.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "src/core/grid_system.hpp"
#include "src/obs/exporters.hpp"
#include "src/obs/live/plane.hpp"
#include "src/sched/equipartition.hpp"

namespace faucets::core {
namespace {

std::unique_ptr<GridSystem> make_grid(bool live) {
  ClusterSetup setup;
  setup.machine.name = "a";
  setup.machine.total_procs = 64;
  setup.strategy = [] { return std::make_unique<sched::EquipartitionStrategy>(); };
  setup.bid_generator = [] { return std::make_unique<market::BaselineBidGenerator>(); };
  GridBuilder builder;
  builder.cluster(std::move(setup)).users(1);
  if (live) builder.live({.serve = true, .publish_interval = 0.0});
  return builder.build();
}

/// Entity 9, then entity 2, arms an event for t = 3; each event records one
/// RFB_ISSUED trace record naming its creator.
void record_same_time_pair(GridSystem& grid) {
  sim::Engine& engine = grid.engine();
  for (const std::uint64_t creator : {std::uint64_t{9}, std::uint64_t{2}}) {
    engine.set_current_entity(creator);
    engine.schedule_at(3.0, [&grid, creator] {
      grid.obs().trace().record(obs::market_event(
          3.0, EntityId{creator}, obs::TraceEventKind::kRfbIssued,
          RequestId{creator}, BidId{}, 0.0));
    });
  }
  (void)engine.run(3.0);
}

/// Entity 9's record comes before entity 2's in `jsonl`.
void expect_nine_before_two(const std::string& jsonl) {
  const auto nine = jsonl.find("\"entity\":9,\"kind\":\"RFB_ISSUED\"");
  const auto two = jsonl.find("\"entity\":2,\"kind\":\"RFB_ISSUED\"");
  ASSERT_NE(nine, std::string::npos) << jsonl;
  ASSERT_NE(two, std::string::npos) << jsonl;
  EXPECT_LT(nine, two) << jsonl;
}

TEST(TraceOrder, JsonlExportKeepsExecutionOrderAtEqualTimes) {
  auto grid = make_grid(/*live=*/false);
  record_same_time_pair(*grid);
  std::ostringstream os;
  obs::write_trace_jsonl(os, grid->merged_trace());
  expect_nine_before_two(os.str());
}

TEST(TraceOrder, TracesRecentKeepsExecutionOrderAtEqualTimes) {
  auto grid = make_grid(/*live=*/true);
  record_same_time_pair(*grid);
  grid->live()->publish(grid->engine().now(), /*final_check=*/false);
  expect_nine_before_two(grid->live()->handle("/traces/recent").body);
}

}  // namespace
}  // namespace faucets::core
