#include "src/core/scenario.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace faucets::core {
namespace {

constexpr const char* kMinimal = R"(
[cluster]
name = only
procs = 128
)";

TEST(Scenario, MinimalDefaults) {
  auto scenario = Scenario::parse_string(kMinimal);
  ASSERT_EQ(scenario.clusters.size(), 1u);
  EXPECT_EQ(scenario.clusters[0].machine.name, "only");
  EXPECT_EQ(scenario.clusters[0].machine.total_procs, 128);
  EXPECT_EQ(scenario.total_procs(), 128);
  EXPECT_EQ(scenario.grid.central.billing, BillingMode::kDollars);
}

TEST(Scenario, RequiresACluster) {
  EXPECT_THROW(Scenario::parse_string("[grid]\nusers = 4\n"),
               std::invalid_argument);
}

TEST(Scenario, UnknownNamesRejectedWithHints) {
  EXPECT_THROW(Scenario::parse_string("[cluster]\nstrategy = magic\n"),
               std::invalid_argument);
  EXPECT_THROW(Scenario::parse_string("[cluster]\nbidgen = bogus\n"),
               std::invalid_argument);
  EXPECT_THROW(Scenario::parse_string("[grid]\nbilling = euros\n[cluster]\n"),
               std::invalid_argument);
  EXPECT_THROW(
      Scenario::parse_string("[grid]\nevaluator = cheapest\n[cluster]\n"),
      std::invalid_argument);
  EXPECT_THROW(Scenario::parse_string("[cluster]\nprocs = -4\n"),
               std::invalid_argument);
}

TEST(Scenario, FactoriesProduceNamedObjects) {
  EXPECT_EQ(strategy_factory("fcfs")()->name(), "fcfs");
  EXPECT_EQ(strategy_factory("payoff")()->name(), "payoff");
  EXPECT_EQ(strategy_factory("priority")()->name(), "priority");
  EXPECT_EQ(bidgen_factory("utilization")()->name(), "utilization");
  EXPECT_EQ(bidgen_factory("futures")()->name(), "futures");
  EXPECT_EQ(evaluator_factory("surplus")()->name(), "surplus");
}

TEST(Scenario, WorkloadCalibratedToLoad) {
  auto scenario = Scenario::parse_string(R"(
[cluster]
procs = 200
[cluster]
procs = 300
[workload]
jobs = 50
load = 0.5
)");
  const double offered =
      job::WorkloadGenerator::mean_work(scenario.workload) /
      (scenario.workload.mean_interarrival * 500.0);
  EXPECT_NEAR(offered, 0.5, 1e-9);
  EXPECT_EQ(scenario.workload.shaping.procs_cap, 300);
}

TEST(Scenario, EndToEndRunCompletes) {
  auto scenario = Scenario::parse_string(R"(
[grid]
users = 4
seed = 7
[cluster]
name = a
procs = 128
strategy = equipartition
bidgen = baseline
[cluster]
name = b
procs = 128
strategy = payoff
bidgen = utilization
[workload]
jobs = 40
load = 0.5
)");
  const auto report = scenario.run();
  EXPECT_EQ(report.jobs_submitted, 40u);
  EXPECT_GT(report.jobs_completed, 30u);

  std::ostringstream os;
  print_report(os, report);
  EXPECT_NE(os.str().find("jobs: 40 submitted"), std::string::npos);
  EXPECT_NE(os.str().find("| a"), std::string::npos);
}

TEST(Scenario, TraceSectionParses) {
  auto scenario = Scenario::parse_string(R"(
[grid]
users = 6
seed = 99
[cluster]
procs = 256
[trace]
file = /data/month.swf
time_compression = 4
user_multiplier = 3
cluster_multiplier = 2
jitter = 45
sort_window = 120
max_jobs = 1000000
read_ahead = 8192
malleability = 0.5
deadline_fraction = 0.25
)");
  ASSERT_TRUE(scenario.trace.has_value());
  EXPECT_EQ(scenario.trace->path, "/data/month.swf");
  EXPECT_DOUBLE_EQ(scenario.trace->options.time_compression, 4.0);
  EXPECT_EQ(scenario.trace->options.user_multiplier, 3u);
  EXPECT_EQ(scenario.trace->options.cluster_multiplier, 2u);
  EXPECT_DOUBLE_EQ(scenario.trace->options.clone_jitter, 45.0);
  EXPECT_DOUBLE_EQ(scenario.trace->options.sort_window, 120.0);
  EXPECT_EQ(scenario.trace->options.max_jobs, 1000000u);
  EXPECT_EQ(scenario.trace->options.read_ahead, 8192u);
  EXPECT_DOUBLE_EQ(scenario.trace->options.shaping.malleability, 0.5);
  EXPECT_DOUBLE_EQ(scenario.trace->options.shaping.deadline_fraction, 0.25);
  // Trace seed defaults to the scenario seed; procs are capped at the
  // largest cluster so no trace job is unplaceable.
  EXPECT_EQ(scenario.trace->options.seed, 99u);
  EXPECT_EQ(scenario.trace->options.shaping.procs_cap, 256);
}

TEST(Scenario, TraceSectionValidates) {
  EXPECT_THROW(Scenario::parse_string("[cluster]\nprocs = 4\n[trace]\n"),
               std::invalid_argument);  // missing file
  EXPECT_THROW(Scenario::parse_string(
                   "[cluster]\nprocs = 4\n[trace]\nfile = x.swf\n"
                   "time_compression = 0\n"),
               std::invalid_argument);
  EXPECT_THROW(Scenario::parse_string(
                   "[cluster]\nprocs = 4\n[trace]\nfile = x.swf\n"
                   "user_multiplier = 0\n"),
               std::invalid_argument);
}

TEST(Scenario, BrokeredFlagHonored) {
  auto scenario = Scenario::parse_string(R"(
[grid]
brokered = true
users = 2
[cluster]
procs = 64
[workload]
jobs = 10
load = 0.4
)");
  EXPECT_TRUE(scenario.grid.brokered_submission);
  const auto report = scenario.run();
  EXPECT_EQ(report.jobs_completed + report.jobs_unplaced, 10u);
}

TEST(Scenario, EvaluatorKeySetsBrokerCriteria) {
  // One key names the selection rule on both paths: a brokered
  // earliest-completion scenario must not silently run least-cost.
  const std::pair<std::string, proto::SelectionCriteria> cases[] = {
      {"least-cost", proto::SelectionCriteria::kLeastCost},
      {"earliest-completion", proto::SelectionCriteria::kEarliestCompletion},
      {"surplus", proto::SelectionCriteria::kSurplus},
  };
  for (const auto& [name, criteria] : cases) {
    const auto scenario = Scenario::parse_string(
        "[grid]\nbrokered = true\nevaluator = " + name + "\n[cluster]\nprocs = 64\n");
    EXPECT_EQ(scenario.grid.broker_criteria, criteria) << name;
    EXPECT_EQ(scenario.grid.evaluator()->name(), name);
  }
}

TEST(Scenario, UnknownSectionsRejectedByName) {
  // A typo must not silently run with defaults, and a retired section must
  // not be silently ignored.
  for (const std::string section : {"workoad", "shards"}) {
    try {
      (void)Scenario::parse_string("[cluster]\nprocs = 4\n[" + section +
                                   "]\njobs = 50\n");
      ADD_FAILURE() << "[" << section << "] was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("[" + section + "]"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Scenario, CommittedScenarioFilesParse) {
  namespace fs = std::filesystem;
  std::size_t parsed = 0;
  for (const char* dir : {"experiments", "ci"}) {
    for (const auto& entry :
         fs::directory_iterator(fs::path(FAUCETS_SOURCE_DIR) / dir)) {
      if (entry.path().extension() != ".ini") continue;
      SCOPED_TRACE(entry.path().string());
      std::ifstream in(entry.path());
      EXPECT_NO_THROW((void)Scenario::parse(ConfigFile::parse(in)));
      ++parsed;
    }
  }
  EXPECT_GE(parsed, 4u);
}

}  // namespace
}  // namespace faucets::core
