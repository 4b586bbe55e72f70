// Market regulation (§5.5.1): "limits on how far the bids can be from some
// notion of 'normal' price can be one such mechanism" to avoid misuse of
// markets.
#include <gtest/gtest.h>

#include "src/core/grid_system.hpp"
#include "src/sched/equipartition.hpp"

namespace faucets::core {
namespace {

/// A bid generator that always gouges: multiplier 50x.
class GougingBidGenerator final : public market::BidGenerator {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "gouger"; }
  [[nodiscard]] std::optional<double> multiplier(const market::BidContext& ctx) override {
    if (ctx.admission == nullptr || !ctx.admission->accept) return std::nullopt;
    return 50.0;
  }
};

ClusterSetup make_cluster(const std::string& name, bool gouger) {
  ClusterSetup setup;
  setup.machine.name = name;
  setup.machine.total_procs = 64;
  setup.machine.cost_per_cpu_second = 0.0008;
  setup.strategy = [] { return std::make_unique<sched::EquipartitionStrategy>(); };
  if (gouger) {
    setup.bid_generator = [] { return std::make_unique<GougingBidGenerator>(); };
  } else {
    setup.bid_generator = [] {
      return std::make_unique<market::BaselineBidGenerator>();
    };
  }
  return setup;
}

std::vector<job::JobRequest> jobs(std::size_t n) {
  std::vector<job::JobRequest> out;
  for (std::size_t i = 0; i < n; ++i) {
    job::JobRequest req;
    req.submit_time = static_cast<double>(i) * 200.0;
    req.contract = qos::make_contract(4, 64, 6400.0, 1.0, 1.0);
    req.contract.payoff = qos::PayoffFunction::flat(100.0);
    out.push_back(std::move(req));
  }
  return out;
}

TEST(Regulation, GougerWinsNothingOnceNormalPriceExists) {
  CentralServerConfig central;
  central.price_band = 3.0;
  // Earliest-completion would otherwise happily pick the gouger when it is
  // idle; regulation throws its bids out.
  auto grid_ptr =
      GridBuilder()
          .central(central)
          .evaluator([] {
            return std::make_unique<market::EarliestCompletionEvaluator>();
          })
          .cluster(make_cluster("honest", false))
          .cluster(make_cluster("gouger", true))
          .users(1)
          .build();
  GridSystem& grid = *grid_ptr;

  const auto report = grid.run(jobs(6));
  EXPECT_EQ(report.jobs_completed, 6u);
  // The first job has no price history -> no regulation; afterwards the
  // gouger's 50x bids are outside the 3x band and never win.
  EXPECT_LE(report.clusters[1].completed, 1u);
  EXPECT_GT(grid.client(0).regulated_out(), 0u);
}

TEST(Regulation, GougerWinsNothingOnceNormalPriceExistsBrokered) {
  // The broker runs the client's market cycle, so it applies the directory's
  // price band too. The first job fits only the honest cluster and sets the
  // normal price; afterwards earliest-completion would pick the faster
  // gouger every time, were its bids not outside the band.
  CentralServerConfig central;
  central.price_band = 3.0;
  auto honest = make_cluster("honest", false);
  honest.machine.total_procs = 128;
  auto gouger = make_cluster("gouger", true);
  gouger.machine.speed_factor = 2.0;
  auto grid_ptr = GridBuilder()
                      .central(central)
                      .brokered(proto::SelectionCriteria::kEarliestCompletion)
                      .cluster(std::move(honest))
                      .cluster(std::move(gouger))
                      .users(1)
                      .build();
  GridSystem& grid = *grid_ptr;

  auto reqs = jobs(6);
  reqs[0].contract = qos::make_contract(128, 128, 12800.0, 1.0, 1.0);
  reqs[0].contract.payoff = qos::PayoffFunction::flat(100.0);
  const auto report = grid.run(std::move(reqs));
  EXPECT_EQ(report.jobs_completed, 6u);
  EXPECT_EQ(report.clusters[1].completed, 0u);
  EXPECT_GT(grid.broker()->regulated_out(), 0u);
}

TEST(Regulation, DisabledBandLetsAnyPriceWin) {
  // price_band left disengaged: no regulation.
  auto grid_ptr =
      GridBuilder()
          .evaluator([] {
            return std::make_unique<market::EarliestCompletionEvaluator>();
          })
          .cluster(make_cluster("honest", false))
          .cluster(make_cluster("gouger", true))
          .users(1)
          .build();
  GridSystem& grid = *grid_ptr;
  const auto report = grid.run(jobs(6));
  EXPECT_EQ(report.jobs_completed, 6u);
  EXPECT_EQ(grid.client(0).regulated_out(), 0u);
  // With earliest-completion and both idle, ties are broken arbitrarily but
  // the gouger is never excluded on price grounds.
}

}  // namespace
}  // namespace faucets::core
