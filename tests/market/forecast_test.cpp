// Grid weather trends and the futures bidder (§1, §5.2.1).
#include <gtest/gtest.h>

#include "src/market/bidgen.hpp"
#include "src/market/price_history.hpp"
#include "src/sched/equipartition.hpp"

namespace faucets::market {
namespace {

ContractRecord rec(double time, double unit_price) {
  return ContractRecord{time, ClusterId{0}, 8, 100.0, unit_price * 100.0};
}

TEST(Trend, NeedsTwoPoints) {
  PriceHistory h;
  EXPECT_FALSE(h.unit_price_trend(0.0).has_value());
  h.record(rec(0.0, 1.0));
  EXPECT_FALSE(h.unit_price_trend(10.0).has_value());
}

TEST(Trend, FlatPrices) {
  PriceHistory h;
  for (int i = 0; i < 10; ++i) h.record(rec(i * 10.0, 2.0));
  const auto trend = h.unit_price_trend(100.0);
  ASSERT_TRUE(trend.has_value());
  EXPECT_NEAR(trend->first, 2.0, 1e-9);
  EXPECT_NEAR(trend->second, 0.0, 1e-12);
}

TEST(Trend, RisingPricesHavePositiveSlope) {
  PriceHistory h;
  // Unit price rises 0.01 per second.
  for (int i = 0; i <= 10; ++i) h.record(rec(i * 10.0, 1.0 + 0.01 * i * 10.0));
  const auto trend = h.unit_price_trend(100.0);
  ASSERT_TRUE(trend.has_value());
  EXPECT_NEAR(trend->second, 0.01, 1e-9);
  EXPECT_NEAR(trend->first, 2.0, 1e-9);  // value at now=100
}

TEST(Trend, CoincidentTimesRejected) {
  PriceHistory h;
  h.record(rec(5.0, 1.0));
  h.record(rec(5.0, 3.0));
  EXPECT_FALSE(h.unit_price_trend(10.0).has_value());
}

TEST(Forecast, ExtrapolatesAndClamps) {
  PriceHistory h;
  for (int i = 0; i <= 10; ++i) h.record(rec(i * 10.0, 2.0 - 0.015 * i * 10.0));
  const auto soon = h.forecast_unit_price(100.0, 10.0);
  ASSERT_TRUE(soon.has_value());
  EXPECT_NEAR(*soon, 0.5 - 0.15, 1e-9);
  // Far enough out the falling trend would go negative: clamp to 0.
  const auto far = h.forecast_unit_price(100.0, 1000.0);
  ASSERT_TRUE(far.has_value());
  EXPECT_DOUBLE_EQ(*far, 0.0);
}

TEST(FuturesBid, RisingMarketRaisesBid) {
  sim::SimContext ctx;
  cluster::MachineSpec machine;
  machine.total_procs = 100;
  cluster::ClusterManager cm{ctx, machine,
                             std::make_unique<sched::EquipartitionStrategy>()};
  auto contract = qos::make_contract(4, 32, 1000.0);
  contract.payoff = qos::PayoffFunction::deadline(3600.0, 7200.0, 10.0, 5.0, 0.0);
  const auto admission = cm.query(contract);

  PriceHistory rising;
  for (int i = 0; i <= 20; ++i) rising.record(rec(i * 5.0, 1.0 + 0.05 * i));
  PriceHistory falling;
  for (int i = 0; i <= 20; ++i) falling.record(rec(i * 5.0, 2.0 - 0.05 * i));

  auto make_ctx = [&](const PriceHistory* h) {
    BidContext bid;
    bid.now = 100.0;
    bid.cm = &cm;
    bid.contract = &contract;
    bid.admission = &admission;
    bid.grid_history = h;
    return bid;
  };

  FuturesBidGenerator gen;
  auto up_ctx = make_ctx(&rising);
  auto down_ctx = make_ctx(&falling);
  auto none_ctx = make_ctx(nullptr);
  const auto up = gen.multiplier(up_ctx);
  const auto down = gen.multiplier(down_ctx);
  const auto base = gen.multiplier(none_ctx);
  ASSERT_TRUE(up && down && base);
  EXPECT_GT(*up, *base);
  EXPECT_LT(*down, *base);
  // Scaling is bounded.
  EXPECT_LE(*up, *base * 2.0 + 1e-9);
  EXPECT_GE(*down, *base * 0.5 - 1e-9);
}

TEST(FuturesBid, DeclinesWhenLocalDeclines) {
  FuturesBidGenerator gen;
  const auto rejected = sched::AdmissionDecision::rejected(sched::RejectReason::kLargerThanMachine);
  BidContext ctx;
  ctx.admission = &rejected;
  EXPECT_FALSE(gen.multiplier(ctx).has_value());
}

}  // namespace
}  // namespace faucets::market
