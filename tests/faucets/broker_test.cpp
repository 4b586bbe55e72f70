// Brokered submission (§5.3): the client agent performs directory lookup,
// RFB fan-out, evaluation, and two-phase award on the client's behalf.
#include <gtest/gtest.h>

#include "src/core/grid_system.hpp"
#include "src/faucets/market_cycle.hpp"
#include "src/sched/equipartition.hpp"
#include "src/sched/payoff_sched.hpp"

namespace faucets {
namespace {

core::ClusterSetup make_cluster(const std::string& name, double cost) {
  core::ClusterSetup setup;
  setup.machine.name = name;
  setup.machine.total_procs = 64;
  setup.machine.cost_per_cpu_second = cost;
  setup.strategy = [] { return std::make_unique<sched::EquipartitionStrategy>(); };
  setup.bid_generator = [] { return std::make_unique<market::BaselineBidGenerator>(); };
  setup.costs = job::AdaptiveCosts{.reconfig_seconds = 0.0,
                                   .checkpoint_seconds = 0.0,
                                   .restart_seconds = 0.0};
  return setup;
}

/// A Compute Server that declines every request for bids.
class DecliningBidGenerator final : public market::BidGenerator {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "decliner"; }
  [[nodiscard]] std::optional<double> multiplier(const market::BidContext&) override {
    return std::nullopt;
  }
};

/// A client that speaks the brokered protocol by hand, so a test can resend
/// one SubmitJobRequest at a time of its choosing.
class ResendingClient final : public sim::Entity {
 public:
  ResendingClient(sim::SimContext& ctx, EntityId central, EntityId broker)
      : sim::Entity("resender", ctx), central_(central), broker_(broker) {
    network().attach(*this);
  }

  void on_message(const sim::Message& msg) override {
    if (msg.kind() == sim::MessageKind::kLoginAck) {
      const auto& reply = sim::message_cast<proto::LoginReply>(msg);
      session_ = reply.session;
      user_ = reply.user;
    } else if (msg.kind() == sim::MessageKind::kSubmitAck) {
      replies.push_back(sim::message_cast<proto::SubmitJobReply>(msg));
    }
  }

  void login() {
    auto msg = std::make_unique<proto::LoginRequest>();
    msg->username = "user0";
    msg->password = "pw-13";  // GridSystem's password for user 0
    network().send(*this, central_, std::move(msg));
  }

  /// Send attempt 0 of client request `request`; a repeat is a resend.
  void submit(std::uint64_t request) {
    auto msg = std::make_unique<proto::SubmitJobRequest>();
    msg->request = RequestId{request};
    msg->session = session_;
    msg->username = "user0";
    msg->password = "pw-13";
    msg->user = user_;
    msg->contract = qos::make_contract(4, 64, 6400.0, 1.0, 1.0);
    msg->contract.payoff = qos::PayoffFunction::flat(10.0);
    network().send(*this, broker_, std::move(msg));
  }

  std::vector<proto::SubmitJobReply> replies;

 private:
  sim::Network& network() { return context().network(); }

  EntityId central_;
  EntityId broker_;
  SessionId session_;
  UserId user_;
};

job::JobRequest simple_job(double t = 0.0) {
  job::JobRequest req;
  req.submit_time = t;
  req.contract = qos::make_contract(4, 64, 6400.0, 1.0, 1.0);
  req.contract.payoff = qos::PayoffFunction::flat(10.0);
  return req;
}

TEST(Broker, PlacesJobEndToEnd) {
  auto grid_ptr = core::GridBuilder()
                      .brokered()
                      .cluster(make_cluster("a", 0.0008))
                      .cluster(make_cluster("b", 0.0002))
                      .users(1)
                      .build();
  core::GridSystem& grid = *grid_ptr;

  const auto report = grid.run({simple_job()});
  EXPECT_EQ(report.jobs_completed, 1u);
  ASSERT_NE(grid.broker(), nullptr);
  EXPECT_EQ(grid.broker()->submissions(), 1u);
  EXPECT_EQ(grid.broker()->placed(), 1u);
  // Least-cost criteria: the cheap cluster wins.
  EXPECT_EQ(report.clusters[1].completed, 1u);
  EXPECT_GT(report.total_spent, 0.0);
}

TEST(Broker, ClientTrafficIsConstantInServerCount) {
  auto run_with = [](bool brokered, int servers) {
    core::GridBuilder builder;
    if (brokered) builder.brokered();
    for (int i = 0; i < servers; ++i) {
      builder.cluster(make_cluster("c" + std::to_string(i), 0.0008));
    }
    auto grid = builder.users(1).build();
    (void)grid->run({simple_job()});
    return grid->network().traffic_of(grid->client(0).id());
  };

  // Direct mode: client traffic grows with server count (broadcast RFB).
  const auto direct_4 = run_with(false, 4);
  const auto direct_16 = run_with(false, 16);
  EXPECT_GT(direct_16, direct_4 + 8) << "broadcast should scale with servers";

  // Brokered: the client exchanges a constant number of messages.
  const auto brokered_4 = run_with(true, 4);
  const auto brokered_16 = run_with(true, 16);
  EXPECT_EQ(brokered_4, brokered_16);
  EXPECT_LT(brokered_16, direct_16);
}

TEST(Broker, CriteriaRespected) {
  auto fast = make_cluster("fast", 0.01);
  fast.machine.speed_factor = 4.0;
  auto grid_ptr = core::GridBuilder()
                      .brokered(proto::SelectionCriteria::kEarliestCompletion)
                      .cluster(make_cluster("slow", 0.0001))
                      .cluster(std::move(fast))
                      .users(1)
                      .build();
  core::GridSystem& grid = *grid_ptr;
  const auto report = grid.run({simple_job()});
  EXPECT_EQ(report.clusters[1].completed, 1u)
      << "earliest-completion must pick the fast machine despite its price";
}

TEST(Broker, NoServersReportsFailure) {
  auto tiny = make_cluster("tiny", 0.0008);
  tiny.machine.total_procs = 8;
  auto grid_ptr =
      core::GridBuilder().brokered().cluster(std::move(tiny)).users(1).build();
  core::GridSystem& grid = *grid_ptr;
  job::JobRequest req;
  req.submit_time = 0.0;
  req.contract = qos::make_contract(64, 128, 1000.0);
  const auto report = grid.run({req});
  EXPECT_EQ(report.jobs_unplaced, 1u);
  EXPECT_EQ(grid.broker()->failed(), 1u);
  ASSERT_EQ(grid.client(0).outcomes().size(), 1u);
  EXPECT_EQ(grid.client(0).outcomes()[0].status,
            SubmissionOutcome::Status::kNoServers);
}

TEST(Broker, DeclinedBidsReportAllRefused) {
  // The broker reports the status the direct path would have produced.
  for (const bool brokered : {false, true}) {
    core::GridBuilder builder;
    if (brokered) builder.brokered();
    for (const char* name : {"a", "b"}) {
      auto setup = make_cluster(name, 0.0008);
      setup.bid_generator = [] { return std::make_unique<DecliningBidGenerator>(); };
      builder.cluster(std::move(setup));
    }
    auto grid = builder.users(1).build();
    const auto report = grid->run({simple_job()});
    EXPECT_EQ(report.jobs_unplaced, 1u);
    ASSERT_EQ(grid->client(0).outcomes().size(), 1u);
    EXPECT_EQ(grid->client(0).outcomes()[0].status,
              SubmissionOutcome::Status::kAllRefused)
        << (brokered ? "brokered" : "direct");
    EXPECT_EQ(grid->client(0).outcomes()[0].bids_received, 0u)
        << "declined bids are not viable";
  }
}

TEST(Broker, DirectoryTimeoutReportsTimedOut) {
  auto grid_ptr = core::GridBuilder()
                      .brokered()
                      .cluster(make_cluster("a", 0.0008))
                      .users(1)
                      .build();
  core::GridSystem& grid = *grid_ptr;
  // Isolate the Central Server once the client has logged in: the broker's
  // directory requests go unanswered until its backoff schedule is spent,
  // which ends before the client's own wait for the broker's reply.
  sim::FaultConfig faults;
  faults.partitions.push_back({grid.central().id(), 1.0, 1e9});
  grid.network().set_faults(faults);

  const auto report = grid.run({simple_job(10.0)}, 1e4);
  EXPECT_EQ(report.jobs_unplaced, 1u);
  EXPECT_EQ(grid.broker()->failed(), 1u);
  ASSERT_EQ(grid.client(0).outcomes().size(), 1u);
  EXPECT_EQ(grid.client(0).outcomes()[0].status,
            SubmissionOutcome::Status::kTimedOut);
}

TEST(Broker, PrefersHomeClusterLikeTheDirectPath) {
  // User 0's home is cluster 0, the expensive one: least-cost alone would
  // pick cluster 1, the home preference (§5.5.3) keeps the job at home on
  // both paths.
  for (const bool brokered : {false, true}) {
    core::GridBuilder builder;
    builder.prefer_home();
    if (brokered) builder.brokered();
    auto grid = builder.cluster(make_cluster("home", 0.01))
                    .cluster(make_cluster("cheap", 0.0001))
                    .users(1)
                    .build();
    const auto report = grid->run({simple_job()});
    EXPECT_EQ(report.jobs_completed, 1u);
    EXPECT_EQ(report.clusters[0].completed, 1u) << (brokered ? "brokered" : "direct");
  }
}

TEST(Broker, TwoPhaseRetryGoesToNextBest) {
  core::GridBuilder builder;
  builder.brokered();
  // Payoff strategy with zero lookahead: the second concurrent award to
  // the cheap cluster is refused at commit time.
  for (const auto& [name, cost] :
       {std::pair{"cheap", 0.0001}, std::pair{"fallback", 0.01}}) {
    auto setup = make_cluster(name, cost);
    setup.strategy = [] {
      sched::PayoffStrategyParams p;
      p.lookahead = 0.0;
      return std::make_unique<sched::PayoffStrategy>(p);
    };
    builder.cluster(std::move(setup));
  }
  auto grid_ptr = builder.users(2).build();
  core::GridSystem& grid = *grid_ptr;

  std::vector<job::JobRequest> reqs;
  for (std::size_t u = 0; u < 2; ++u) {
    job::JobRequest req;
    req.submit_time = 0.0;
    req.contract = qos::make_contract(64, 64, 64.0 * 300.0, 1.0, 1.0);
    req.contract.payoff = qos::PayoffFunction::flat(100.0);
    req.user_index = u;
    reqs.push_back(std::move(req));
  }
  const auto report = grid.run(std::move(reqs), 1e6);
  EXPECT_EQ(report.jobs_completed, 2u);
  EXPECT_EQ(report.clusters[0].completed, 1u);
  EXPECT_EQ(report.clusters[1].completed, 1u);
}

TEST(Broker, EvictionStillReachesClientDirectly) {
  auto grid_ptr = core::GridBuilder()
                      .brokered()
                      .cluster(make_cluster("doomed", 0.0001))
                      .cluster(make_cluster("survivor", 0.01))
                      .users(1)
                      .build();
  core::GridSystem& grid = *grid_ptr;
  grid.schedule_cluster_shutdown(0, 30.0, true);

  job::JobRequest req;
  req.submit_time = 0.0;
  req.contract = qos::make_contract(4, 64, 6400.0, 1.0, 1.0);
  req.contract.payoff = qos::PayoffFunction::flat(10.0);
  const auto report = grid.run({req}, 1e6);
  EXPECT_EQ(report.jobs_completed, 1u);
  EXPECT_EQ(report.migrations, 1u);
  EXPECT_EQ(report.clusters[1].completed, 1u);
}

TEST(Broker, ReplyCacheStaysBoundedOverManyJobs) {
  auto grid_ptr = core::GridBuilder()
                      .brokered()
                      .cluster(make_cluster("a", 0.0008))
                      .users(2)
                      .build();
  core::GridSystem& grid = *grid_ptr;
  // One 100-second job every 200 s: a reply stays cached for the client's
  // whole resend window, 4 x (10 + 75) = 340 s under the default policy.
  std::vector<job::JobRequest> reqs;
  for (std::size_t i = 0; i < 60; ++i) {
    job::JobRequest req = simple_job(200.0 * static_cast<double>(i));
    req.user_index = i % 2;
    reqs.push_back(std::move(req));
  }
  const auto report = grid.run(std::move(reqs), 1e6);
  EXPECT_EQ(report.jobs_completed, 60u);
  EXPECT_EQ(grid.broker()->submissions(), 60u);
  EXPECT_LE(grid.broker()->cached_replies(), 3u)
      << "replies whose resend window closed must be dropped";
}

TEST(Broker, ResendInsideTheWindowGetsTheCachedReplyVerbatim) {
  auto grid_ptr = core::GridBuilder()
                      .brokered()
                      .cluster(make_cluster("a", 0.0008))
                      .users(1)
                      .build();
  core::GridSystem& grid = *grid_ptr;
  ResendingClient client(grid.context(), grid.central().id(), grid.broker()->id());
  sim::Engine& engine = grid.engine();
  engine.schedule_at(1.0, [&client] { client.login(); });
  engine.schedule_at(5.0, [&client] { client.submit(1); });
  (void)engine.run(100.0);
  ASSERT_EQ(client.replies.size(), 1u);
  const proto::MarketResult first = client.replies[0].result;  // replies grows
  EXPECT_EQ(first.status, proto::SubmissionStatus::kPlaced);

  // The reply "was lost": the same attempt comes back 200 s later, well
  // inside the window, and gets the cached answer without a second market.
  engine.schedule_at(300.0, [&client] { client.submit(1); });
  (void)engine.run(310.0);
  ASSERT_EQ(client.replies.size(), 2u);
  const proto::MarketResult& again = client.replies[1].result;
  EXPECT_EQ(client.replies[1].request, RequestId{1});
  EXPECT_EQ(again.status, first.status);
  EXPECT_EQ(again.bids_considered, first.bids_considered);
  EXPECT_EQ(again.cluster, first.cluster);
  EXPECT_EQ(again.price, first.price);
  EXPECT_EQ(again.daemon, first.daemon);
  EXPECT_EQ(again.job, first.job);
  EXPECT_EQ(again.promised_completion, first.promised_completion);
  EXPECT_EQ(grid.broker()->submissions(), 1u);
  EXPECT_EQ(grid.broker()->cached_replies(), 1u);

  // Once the window has closed, the next finished round drops the entry.
  const double window = 4 * (kBidTimeout + RetryPolicy{}.total_budget());
  engine.schedule_at(5.0 + window + 60.0, [&client] { client.submit(2); });
  (void)engine.run(5.0 + window + 120.0);
  ASSERT_EQ(client.replies.size(), 3u);
  EXPECT_EQ(grid.broker()->submissions(), 2u);
  EXPECT_EQ(grid.broker()->cached_replies(), 1u) << "only request 2 is left";
}

}  // namespace
}  // namespace faucets
