// Scenario files: describe a whole grid experiment — clusters, billing,
// workload — in a small INI file and run it. This is the scripting surface
// the command-line client of §2 would drive.
//
//   [grid]
//   billing = dollars        # dollars | su | barter
//   users = 8
//   brokered = false
//   evaluator = least-cost   # least-cost | earliest-completion | surplus;
//                            # the broker applies it too when brokered
//   watchdog = -1            # seconds; omit or negative = no watchdog
//   prefer_home = false
//   price_band = 0           # §5.5.1 regulation; omit or <=1 = off
//   seed = 42
//
//   [faults]                 # optional: deterministic chaos (see DESIGN.md §8)
//   loss = 0.1               # per-message drop probability
//   jitter = 0.5             # extra uniform random delay, seconds
//   seed = 4203018869        # fault RNG seed (independent of workload seed)
//   crash_cluster = 0        # hard-crash this cluster...
//   crash_at = 120           # ...at this time...
//   crash_restart = 300      # ...and restart it here (omit = stays down)
//   partition_cluster = 1    # isolate this cluster's daemon...
//   partition_from = 50      # ...during [from, until)
//   partition_until = 90
//   retry_attempts = 4       # backoff schedule for every exchange
//   retry_base = 5.0
//
//   [cluster]                # one block per Compute Server
//   name = turing
//   procs = 512
//   cost = 0.0008            # $/cpu-second
//   speed = 1.0
//   strategy = payoff        # fcfs | backfill | equipartition | payoff | priority
//   bidgen = utilization     # baseline | utilization | market | futures
//   credits = 0              # barter opening balance
//
//   [workload]
//   jobs = 200
//   load = 0.8               # offered fraction of total grid capacity
//   rigid_fraction = 0.0
//   deadline_fraction = 1.0
//   tightness_lo = 1.5       # deadline tightness range (see JobShaping)
//   tightness_hi = 6.0
//   penalty_fraction = 0.25  # post-hard-deadline penalty
//
//   [trace]                  # replaces [workload]: stream an SWF trace
//   file = traces/month.swf  # path, relative to the scenario's cwd
//   time_compression = 4     # replay a month in a week of simulated time
//   user_multiplier = 2      # CRN-paired deterministic user clones
//   cluster_multiplier = 1
//   jitter = 60              # clone arrival jitter, seconds
//   sort_window = 0          # tolerated out-of-order raw submits, seconds
//   max_jobs = 0             # stop after N emitted jobs (0 = all)
//   read_ahead = 4096        # streaming reorder-window reservation
//   malleability = 0.5       # JobShaping keys work here too
//   deadline_fraction = 0.0
//
//   [sweep]                  # optional: parameter grid (see src/sweep/spec.hpp)
//
//   [market]                 # optional: price-history retention (§5.2.1)
//   history_capacity = 4096  # settled contracts the bounded deque keeps
//   history_window = 86400   # how far back queries look, seconds
//
//   [store]                  # optional: durable accounting state (§14)
//   dir = runs/store         # WAL + snapshot directory; required key
//   sync = batch             # none | batch | always
//   sync_every = 64          # group-commit batch size (batch only)
//   snapshot_every = 0       # settled contracts per WAL roll-up; 0 = end only
#pragma once

#include <iosfwd>
#include <optional>
#include <string>

#include "src/core/grid_system.hpp"
#include "src/job/source.hpp"
#include "src/job/swf.hpp"
#include "src/store/checkpoint.hpp"
#include "src/util/config.hpp"

namespace faucets::core {

/// [trace] — stream jobs from an SWF file instead of the generator.
struct TraceScenario {
  std::string path;
  job::SwfOptions options;
};

struct Scenario {
  GridConfig grid;
  std::vector<ClusterSetup> clusters;
  job::WorkloadParams workload;
  /// Engaged when the scenario has a [trace] section; the trace then
  /// replaces the synthetic generator as the workload source.
  std::optional<TraceScenario> trace;
  std::uint64_t seed = 42;

  /// Parse and validate. Throws std::invalid_argument with a useful
  /// message on unknown section, strategy, bidgen or billing names, or on
  /// missing sections.
  static Scenario parse(const ConfigFile& config);
  static Scenario parse_string(const std::string& text);

  /// Build the grid, stream the workload through it, run to completion.
  [[nodiscard]] GridReport run();

  /// Build the grid without running it. Callers that need the grid alive
  /// after the run — to export traces, metrics, or span timelines — use
  /// this together with make_source() instead of run().
  [[nodiscard]] std::unique_ptr<GridSystem> make_grid() const;

  /// The scenario's workload as a pull-based source (DESIGN.md §13):
  /// a streaming SWF reader when [trace] is present, the synthetic
  /// generator otherwise. Deterministic in `seed`.
  [[nodiscard]] std::unique_ptr<job::WorkloadSource> make_source() const;

  /// Preload compatibility: drain make_source() into a vector.
  [[nodiscard]] std::vector<job::JobRequest> make_requests() const;

  /// Total processors across all clusters (used for load calibration).
  [[nodiscard]] int total_procs() const;
};

/// Name registries, exposed for the CLI's error messages and for tests.
[[nodiscard]] StrategyFactory strategy_factory(const std::string& name);
[[nodiscard]] BidGeneratorFactory bidgen_factory(const std::string& name);
[[nodiscard]] EvaluatorFactory evaluator_factory(const std::string& name);

/// Render a GridReport as the human-readable summary the CLI prints.
void print_report(std::ostream& os, const GridReport& report);

/// Render a GridReport as one deterministic JSON object (shortest
/// round-trip number form, fixed key order). Byte-identical reports mean
/// identical runs — the determinism goldens pin a digest of this output.
void write_report_json(std::ostream& os, const GridReport& report);

/// Checkpoint glue (DESIGN.md §14). fill_checkpoint captures a *paused*
/// grid's progress fingerprint (executed-event count, encoded Central
/// Server state) into `ckpt`; the caller owns scenario_text / overrides.
/// verify_checkpoint re-checks a paused grid against a checkpoint at
/// its sim_time — empty string on a byte-for-byte match, otherwise a
/// description of the first mismatch.
void fill_checkpoint(store::Checkpoint& ckpt, GridSystem& grid, double sim_time);
[[nodiscard]] std::string verify_checkpoint(const store::Checkpoint& ckpt,
                                            GridSystem& grid);

}  // namespace faucets::core
