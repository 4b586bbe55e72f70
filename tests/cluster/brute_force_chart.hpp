// Test oracle for `GanttChart`: the chart as a plain map of commitment
// deltas, every query a linear sweep of the map from its start. Its
// `committed_at`, `peak_committed` and `earliest_fit` follow the chart's
// documented semantics step for step, so the chart must agree with them bit
// for bit.
#pragma once

#include <algorithm>
#include <map>

namespace faucets::cluster {

struct BruteForceChart {
  explicit BruteForceChart(int procs) : capacity(procs) {}

  int capacity;
  std::map<double, int> deltas;  // time -> change in committed procs; never 0

  void reserve(double start, double end, int procs) {
    if (end <= start || procs == 0) return;
    deltas[start] += procs;
    deltas[end] -= procs;
    prune(start);
    prune(end);
  }
  void prune(double key) {
    auto it = deltas.find(key);
    if (it != deltas.end() && it->second == 0) deltas.erase(it);
  }
  [[nodiscard]] int committed_at(double t) const {
    int level = 0;
    for (const auto& [time, d] : deltas) {
      if (time > t) break;
      level += d;
    }
    return level;
  }
  [[nodiscard]] int peak_committed(double from, double to) const {
    int level = 0;
    auto it = deltas.begin();
    for (; it != deltas.end() && it->first <= from; ++it) level += it->second;
    int peak = level;
    for (; it != deltas.end() && it->first < to; ++it) {
      level += it->second;
      peak = std::max(peak, level);
    }
    return peak;
  }
  /// Earliest start >= `after` with `procs` free over the whole window,
  /// probing `after` and every later event time; `horizon` if none fits.
  [[nodiscard]] double earliest_fit(double after, double duration, int procs,
                                    double horizon) const {
    if (procs > capacity) return horizon;
    if (duration < 0.0) duration = 0.0;
    const int limit = capacity - procs;
    double candidate = after;
    int level = 0;
    for (const auto& [time, d] : deltas) {
      if (time > candidate) {
        if (level > limit) {
          candidate = time;  // blocked until this event
          if (candidate >= horizon) return horizon;
        } else if (candidate + duration <= time) {
          return candidate;
        }
      }
      level += d;
    }
    if (level > limit) return horizon;
    return candidate < horizon ? candidate : horizon;
  }
};

}  // namespace faucets::cluster
