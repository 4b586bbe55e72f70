#include "probes.hpp"

#include <algorithm>
#include <ostream>
#include <utility>

#include "src/market/bidgen.hpp"
#include "src/market/evaluation.hpp"
#include "src/sched/scheduler.hpp"

namespace e2e {

using faucets::obs::HostClock;

void Recorder::attach(faucets::core::GridSystem& grid) {
  grid_ = &grid;
  store_ = dynamic_cast<const faucets::store::DurableStore*>(grid.store());
}

void Recorder::sample_wal() noexcept {
  if (store_->generation() != wal_generation_) {
    wal_done_ += wal_current_;
    wal_generation_ = store_->generation();
    wal_current_ = 0;
  }
  wal_current_ = std::max(wal_current_, store_->wal_bytes());
}

std::uint8_t Recorder::strategy_index(const std::string& name) {
  for (std::size_t i = 0; i < strategies_.size(); ++i) {
    if (strategies_[i] == name) return static_cast<std::uint8_t>(i);
  }
  strategies_.push_back(name);
  counts_.emplace_back();
  return static_cast<std::uint8_t>(strategies_.size() - 1);
}

void Recorder::record(Layer layer, std::uint8_t strategy, std::uint64_t start,
                      std::uint64_t end) {
  Span s;
  s.start = start;
  s.end = end;
  s.layer = layer;
  s.strategy = strategy;
  if (grid_ != nullptr) {
    const faucets::sim::Engine& engine = grid_->engine();
    s.event = engine.executed();
    // The profiler tags a message delivery with its receiver's class and a
    // timer with class 0. During a delivery the engine's current entity is
    // the receiver, while the event's creator is the sender; a timer runs
    // as the entity that armed it, which is also its creator.
    const std::uint64_t current = engine.current_entity();
    if (s.event > 0 && current != faucets::sim::Engine::kNoEntity &&
        current != engine.exec_stamp().creator) {
      if (const auto* target = grid_->network().find(faucets::EntityId{current})) {
        s.cls = target->profile_class();
      }
    }
  }
  spans_.push_back(s);
  if (store_ != nullptr) sample_wal();
}

namespace {

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kAdmit: return "sched.admit";
    case Layer::kSchedule: return "sched.schedule";
    case Layer::kBid: return "market.bid";
    case Layer::kSelect: return "market.select";
    case Layer::kSource: return "job.source";
  }
  return "?";
}

class TimedStrategy final : public faucets::sched::Strategy {
 public:
  TimedStrategy(std::unique_ptr<faucets::sched::Strategy> inner,
                std::shared_ptr<Recorder> rec, std::uint8_t index)
      : inner_(std::move(inner)), rec_(std::move(rec)), index_(index) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return inner_->name();
  }
  [[nodiscard]] bool adaptive() const noexcept override { return inner_->adaptive(); }

  [[nodiscard]] faucets::sched::AdmissionDecision admit(
      const faucets::sched::SchedulerContext& ctx,
      const faucets::qos::QosContract& contract) override {
    const std::uint64_t t0 = HostClock::ticks();
    auto decision = inner_->admit(ctx, contract);
    rec_->record(Layer::kAdmit, index_, t0, HostClock::ticks());
    StrategyCounts& c = rec_->counts()[index_];
    if (decision.accept) ++c.accepted;
    c.queued_sum += ctx.queued.size();
    c.running_sum += ctx.running.size();
    return decision;
  }

  [[nodiscard]] std::vector<faucets::sched::Allocation> schedule(
      const faucets::sched::SchedulerContext& ctx) override {
    const std::uint64_t t0 = HostClock::ticks();
    auto out = inner_->schedule(ctx);
    rec_->record(Layer::kSchedule, index_, t0, HostClock::ticks());
    return out;
  }

 private:
  std::unique_ptr<faucets::sched::Strategy> inner_;
  std::shared_ptr<Recorder> rec_;
  std::uint8_t index_;
};

class TimedBidGenerator final : public faucets::market::BidGenerator {
 public:
  TimedBidGenerator(std::unique_ptr<faucets::market::BidGenerator> inner,
                    std::shared_ptr<Recorder> rec)
      : inner_(std::move(inner)), rec_(std::move(rec)) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return inner_->name();
  }
  [[nodiscard]] std::optional<double> multiplier(
      const faucets::market::BidContext& ctx) override {
    const std::uint64_t t0 = HostClock::ticks();
    auto m = inner_->multiplier(ctx);
    rec_->record(Layer::kBid, 0, t0, HostClock::ticks());
    if (!m) ++rec_->bid_declines;
    return m;
  }

 private:
  std::unique_ptr<faucets::market::BidGenerator> inner_;
  std::shared_ptr<Recorder> rec_;
};

class TimedEvaluator final : public faucets::market::BidEvaluator {
 public:
  TimedEvaluator(std::unique_ptr<faucets::market::BidEvaluator> inner,
                 std::shared_ptr<Recorder> rec)
      : inner_(std::move(inner)), rec_(std::move(rec)) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return inner_->name();
  }
  [[nodiscard]] std::optional<std::size_t> select(
      const std::vector<faucets::market::Bid>& bids,
      const faucets::qos::QosContract& contract, double now) const override {
    const std::uint64_t t0 = HostClock::ticks();
    auto choice = inner_->select(bids, contract, now);
    rec_->record(Layer::kSelect, 0, t0, HostClock::ticks());
    rec_->bids_offered += bids.size();
    return choice;
  }

 private:
  std::unique_ptr<faucets::market::BidEvaluator> inner_;
  std::shared_ptr<Recorder> rec_;
};

class TimedSource final : public faucets::job::WorkloadSource {
 public:
  TimedSource(std::unique_ptr<faucets::job::WorkloadSource> inner,
              std::shared_ptr<Recorder> rec)
      : inner_(std::move(inner)), rec_(std::move(rec)) {}

  [[nodiscard]] double peek_next_submit_time() override {
    const std::uint64_t t0 = HostClock::ticks();
    const double t = inner_->peek_next_submit_time();
    rec_->record(Layer::kSource, 0, t0, HostClock::ticks());
    return t;
  }
  [[nodiscard]] faucets::job::JobRequest next() override {
    const std::uint64_t t0 = HostClock::ticks();
    auto req = inner_->next();
    rec_->record(Layer::kSource, 0, t0, HostClock::ticks());
    ++rec_->jobs_pulled;
    return req;
  }
  [[nodiscard]] bool exhausted() override {
    const std::uint64_t t0 = HostClock::ticks();
    const bool done = inner_->exhausted();
    rec_->record(Layer::kSource, 0, t0, HostClock::ticks());
    return done;
  }

 private:
  std::unique_ptr<faucets::job::WorkloadSource> inner_;
  std::shared_ptr<Recorder> rec_;
};

}  // namespace

void Recorder::write_spans(std::ostream& os) const {
  const double ns = HostClock::ns_per_tick();
  const std::uint64_t epoch = spans_.empty() ? 0 : spans_.front().start;
  for (const Span& s : spans_) {
    os << "{\"name\":\"" << layer_name(s.layer);
    if (s.layer == Layer::kAdmit || s.layer == Layer::kSchedule) {
      os << "." << strategies_[s.strategy];
    }
    os << "\",\"start_ns\":"
       << static_cast<std::uint64_t>(static_cast<double>(s.start - epoch) * ns)
       << ",\"end_ns\":"
       << static_cast<std::uint64_t>(static_cast<double>(s.end - epoch) * ns)
       << ",\"event\":" << s.event << ",\"parent\":\""
       << faucets::obs::to_string(static_cast<faucets::obs::ProfClass>(s.cls))
       << "\"}\n";
  }
}

void decorate_factories(std::vector<faucets::core::ClusterSetup>& clusters,
                        const std::vector<std::string>& strategy_keys,
                        faucets::core::GridConfig& grid,
                        const std::shared_ptr<Recorder>& rec) {
  for (std::size_t i = 0; i < clusters.size(); ++i) {
    auto& setup = clusters[i];
    const std::uint8_t index = rec->strategy_index(strategy_keys.at(i));
    setup.strategy = [inner = std::move(setup.strategy), rec, index] {
      return std::make_unique<TimedStrategy>(inner(), rec, index);
    };
    setup.bid_generator = [inner = std::move(setup.bid_generator), rec] {
      return std::make_unique<TimedBidGenerator>(inner(), rec);
    };
  }
  grid.evaluator = [inner = std::move(grid.evaluator), rec] {
    return std::make_unique<TimedEvaluator>(inner(), rec);
  };
}

std::unique_ptr<faucets::job::WorkloadSource> decorate_source(
    std::unique_ptr<faucets::job::WorkloadSource> inner,
    const std::shared_ptr<Recorder>& rec) {
  return std::make_unique<TimedSource>(std::move(inner), rec);
}

}  // namespace e2e
