// Processor-time Gantt chart.
//
// §4.1: "The strategy must find time windows for the job in its
// processor-time Gantt chart before the job's deadline." This profile
// tracks committed processors over future time. Its one production user is
// the payoff strategy: `PayoffStrategy::commitments()` builds a chart per
// admission and schedule call, interleaving one `earliest_fit` and one
// `reserve` per queued job, then `admit` asks `earliest_fit` and
// `peak_committed` for the newcomer. `release`, `compact` and
// `average_committed` have no production caller; tests and the allocator
// microbenchmark keep them honest.
//
// The profile is one sorted flat vector of step points: each point's level
// holds from its time until the next point's, and `baseline` holds before
// the first. A point exists exactly where the level changes, so every query
// reads the vector directly (binary search, then a linear walk), and a
// mutation edits it in place: at most two inserted points, a level bump
// over the points in [start, end), and removal of a boundary point whose
// level no longer changes.
#pragma once

#include <vector>

namespace faucets::cluster {

class GanttChart {
 public:
  explicit GanttChart(int capacity);

  /// Commit `procs` processors over [start, end).
  void reserve(double start, double end, int procs);

  /// Undo a prior reserve with identical arguments.
  void release(double start, double end, int procs);

  /// Processors committed at time t.
  [[nodiscard]] int committed_at(double t) const;

  /// Peak commitment over [from, to).
  [[nodiscard]] int peak_committed(double from, double to) const;

  /// Time-weighted average commitment over [from, to).
  [[nodiscard]] double average_committed(double from, double to) const;

  /// Earliest start >= `after` such that `procs` extra processors are free
  /// for the whole window [start, start + duration). Searches event
  /// boundaries up to `horizon`; returns `horizon` if none fits (callers
  /// treat that as "cannot schedule").
  [[nodiscard]] double earliest_fit(double after, double duration, int procs,
                                    double horizon) const;

  [[nodiscard]] int capacity() const noexcept { return capacity_; }
  [[nodiscard]] bool empty() const noexcept { return steps_.empty(); }

  /// Drop events at or before `t` (they can no longer affect queries),
  /// folding them into the baseline. Keeps long simulations O(live events).
  void compact(double t);

 private:
  /// The commitment is `level` from `time` until the next step's time.
  struct Step {
    double time;
    int level;
  };
  using StepIter = std::vector<Step>::const_iterator;

  /// Add `procs` (negative to subtract) over [start, end), start < end.
  void add(double start, double end, int procs);
  /// First step with time > t.
  [[nodiscard]] StepIter first_after(double t) const;
  /// Level in force just before step `it` (the baseline for the first).
  [[nodiscard]] int level_before(StepIter it) const;

  int capacity_;
  int baseline_ = 0;         // commitment carried from compacted past
  std::vector<Step> steps_;  // sorted by time; adjacent levels differ
};

}  // namespace faucets::cluster
