// Test oracle for `GanttChart`: the chart as a plain map of commitment
// deltas, every query a linear sweep of the map from its start. Its
// `committed_at`, `peak_committed` and `earliest_fit` follow the chart's
// documented semantics step for step, so the chart must agree with them bit
// for bit; `average_committed` sums the same areas in a different order and
// agrees to a tolerance.
#pragma once

#include <algorithm>
#include <map>

namespace faucets::cluster {

struct BruteForceChart {
  explicit BruteForceChart(int procs) : capacity(procs) {}

  int capacity;
  int baseline = 0;
  std::map<double, int> deltas;  // time -> change in committed procs; never 0

  void reserve(double start, double end, int procs) {
    if (end <= start || procs == 0) return;
    deltas[start] += procs;
    deltas[end] -= procs;
    prune(start);
    prune(end);
  }
  void release(double start, double end, int procs) { reserve(start, end, -procs); }
  void prune(double key) {
    auto it = deltas.find(key);
    if (it != deltas.end() && it->second == 0) deltas.erase(it);
  }
  void compact(double t) {
    for (auto it = deltas.begin(); it != deltas.end() && it->first <= t;) {
      baseline += it->second;
      it = deltas.erase(it);
    }
  }
  [[nodiscard]] int committed_at(double t) const {
    int level = baseline;
    for (const auto& [time, d] : deltas) {
      if (time > t) break;
      level += d;
    }
    return level;
  }
  [[nodiscard]] int peak_committed(double from, double to) const {
    int level = baseline;
    auto it = deltas.begin();
    for (; it != deltas.end() && it->first <= from; ++it) level += it->second;
    int peak = level;
    for (; it != deltas.end() && it->first < to; ++it) {
      level += it->second;
      peak = std::max(peak, level);
    }
    return peak;
  }
  [[nodiscard]] double average_committed(double from, double to) const {
    if (to <= from) return 0.0;
    double area = 0.0;
    double cursor = from;
    int level = committed_at(from);
    for (const auto& [time, d] : deltas) {
      if (time <= from) continue;
      if (time >= to) break;
      area += level * (time - cursor);
      cursor = time;
      level += d;
    }
    area += level * (to - cursor);
    return area / (to - from);
  }
  /// Earliest start >= `after` with `procs` free over the whole window,
  /// probing `after` and every later event time; `horizon` if none fits.
  [[nodiscard]] double earliest_fit(double after, double duration, int procs,
                                    double horizon) const {
    if (procs > capacity) return horizon;
    if (duration < 0.0) duration = 0.0;
    const int limit = capacity - procs;
    double candidate = after;
    int level = baseline;
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
