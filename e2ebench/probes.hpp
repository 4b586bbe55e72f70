// Timing decorators for the traced benchmark run.
//
// Each decorator wraps one layer's public interface — sched::Strategy,
// market::BidGenerator, market::BidEvaluator, job::WorkloadSource — and is
// injected through the factories GridSystem already takes, so the program
// under test is unchanged. Every call becomes a span (layer, start, end,
// enclosing engine event, that event's profiler class) kept in memory and
// written out after the run; the per-layer totals come from the same spans.
//
// Spans of one engine event share its index (Engine::executed()) as their
// identifier: no decorated call carries a job id.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "src/core/grid_system.hpp"
#include "src/obs/profiler.hpp"
#include "src/store/store.hpp"

namespace e2e {

/// What a span timed. Strategy spans carry the strategy's index in
/// Recorder::strategies(), so one recorder splits time per strategy name.
enum class Layer : std::uint8_t {
  kAdmit = 0,
  kSchedule,
  kBid,
  kSelect,
  kSource,
};

struct Span {
  std::uint64_t start = 0;  // HostClock ticks
  std::uint64_t end = 0;
  std::uint64_t event = 0;  // enclosing engine event index; 0 = outside the loop
  Layer layer = Layer::kAdmit;
  std::uint8_t strategy = 0;  // index into Recorder::strategies() (sched only)
  std::uint8_t cls = 0;       // obs::ProfClass of the enclosing event
};

/// Per-strategy admission/schedule counters that are not durations.
struct StrategyCounts {
  std::uint64_t accepted = 0;
  std::uint64_t queued_sum = 0;   // SchedulerContext::queued.size() per admit
  std::uint64_t running_sum = 0;  // SchedulerContext::running.size() per admit
};

/// Shared by every decorator of one grid. attach() must be called once the
/// grid exists and before it runs: decorators use it to find the enclosing
/// event and its profiler class.
class Recorder {
 public:
  void attach(faucets::core::GridSystem& grid);

  /// Index for a strategy's scenario key ("payoff", "backfill", ...).
  std::uint8_t strategy_index(const std::string& name);
  [[nodiscard]] const std::vector<std::string>& strategies() const noexcept {
    return strategies_;
  }

  void record(Layer layer, std::uint8_t strategy, std::uint64_t start,
              std::uint64_t end);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
  std::vector<StrategyCounts>& counts() noexcept { return counts_; }
  [[nodiscard]] const std::vector<StrategyCounts>& counts() const noexcept {
    return counts_;
  }

  std::uint64_t bid_declines = 0;
  std::uint64_t bids_offered = 0;  // bids handed to select()
  std::uint64_t jobs_pulled = 0;   // next() calls on the workload source

  /// WAL bytes framed over the whole run. The store resets its counter at
  /// every snapshot, so each generation's count is sampled at every
  /// decorated call; appends after the last call are missed.
  [[nodiscard]] std::uint64_t wal_bytes() const noexcept {
    return wal_done_ + wal_current_;
  }

  /// One JSON object per span, oldest first.
  void write_spans(std::ostream& os) const;

 private:
  void sample_wal() noexcept;

  faucets::core::GridSystem* grid_ = nullptr;
  const faucets::store::DurableStore* store_ = nullptr;
  std::uint64_t wal_generation_ = 0;
  std::uint64_t wal_current_ = 0;  // high-water of the current generation
  std::uint64_t wal_done_ = 0;     // sum over finished generations
  std::vector<std::string> strategies_;
  std::vector<StrategyCounts> counts_;
  std::vector<Span> spans_;
};

/// Replace every factory (strategies, bid generators, the client evaluator)
/// with one that decorates the original's product. The broker builds its
/// own evaluator (BrokerAgent::evaluator_for), so brokered selection is not
/// decorated and shows only inside the broker's profiler class.
/// `strategy_keys[i]` names cluster i's strategy in the per-layer split.
void decorate_factories(std::vector<faucets::core::ClusterSetup>& clusters,
                        const std::vector<std::string>& strategy_keys,
                        faucets::core::GridConfig& grid,
                        const std::shared_ptr<Recorder>& rec);

std::unique_ptr<faucets::job::WorkloadSource> decorate_source(
    std::unique_ptr<faucets::job::WorkloadSource> inner,
    const std::shared_ptr<Recorder>& rec);

}  // namespace e2e
