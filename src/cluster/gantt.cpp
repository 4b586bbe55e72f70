#include "src/cluster/gantt.hpp"

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <stdexcept>

namespace faucets::cluster {

GanttChart::GanttChart(int capacity) : capacity_(capacity) {
  if (capacity <= 0) throw std::invalid_argument("GanttChart capacity must be > 0");
}

GanttChart::StepIter GanttChart::first_after(double t) const {
  return std::upper_bound(steps_.begin(), steps_.end(), t,
                          [](double value, const Step& s) { return value < s.time; });
}

int GanttChart::level_before(StepIter it) const {
  return it == steps_.begin() ? baseline_ : std::prev(it)->level;
}

void GanttChart::add(double start, double end, int procs) {
  // Make `t` a step point (carrying the level already in force there) and
  // return its index.
  auto split = [this](double t) {
    auto it = std::lower_bound(steps_.begin(), steps_.end(), t,
                               [](const Step& s, double value) { return s.time < value; });
    if (it == steps_.end() || it->time != t) {
      it = steps_.insert(it, Step{t, level_before(it)});
    }
    return it - steps_.begin();
  };
  const std::ptrdiff_t lo = split(start);
  const std::ptrdiff_t hi = split(end);  // > lo: inserting it cannot shift lo
  const auto first = steps_.begin();
  for (auto it = first + lo; it != first + hi; ++it) it->level += procs;

  // Only the two boundaries' level changes moved; drop one that became a
  // no-op. `hi` first, so erasing it leaves `lo` in place.
  if (first[hi].level == level_before(first + hi)) steps_.erase(first + hi);
  if (first[lo].level == level_before(first + lo)) steps_.erase(first + lo);
}

void GanttChart::reserve(double start, double end, int procs) {
  if (end <= start || procs <= 0) return;
  add(start, end, procs);
}

void GanttChart::release(double start, double end, int procs) {
  if (end <= start || procs <= 0) return;
  add(start, end, -procs);
}

int GanttChart::committed_at(double t) const { return level_before(first_after(t)); }

int GanttChart::peak_committed(double from, double to) const {
  auto it = first_after(from);
  int peak = level_before(it);
  // Steps strictly inside (from, to) raise the level.
  for (; it != steps_.end() && it->time < to; ++it) peak = std::max(peak, it->level);
  return peak;
}

double GanttChart::average_committed(double from, double to) const {
  auto it = first_after(from);
  int level = level_before(it);
  if (to <= from) return static_cast<double>(level);
  double area = 0.0;
  double cursor = from;
  for (; it != steps_.end() && it->time < to; ++it) {
    area += static_cast<double>(level) * (it->time - cursor);
    cursor = it->time;
    level = it->level;
  }
  area += static_cast<double>(level) * (to - cursor);
  return area / (to - from);
}

double GanttChart::earliest_fit(double after, double duration, int procs,
                                double horizon) const {
  if (procs > capacity_) return horizon;
  if (duration < 0.0) duration = 0.0;

  // Single sweep from `after`: O(steps). `candidate` is the earliest
  // possible start given everything seen so far; a segment whose level
  // exceeds the limit pushes it to the segment's end; once a feasible
  // stretch of at least `duration` follows `candidate`, it wins.
  const int limit = capacity_ - procs;
  double candidate = after;
  auto it = first_after(after);
  int level = level_before(it);
  for (; it != steps_.end(); ++it) {
    if (it->time > candidate) {
      if (level > limit) {
        candidate = it->time;  // blocked until this boundary
        if (candidate >= horizon) return horizon;
      } else if (candidate + duration <= it->time) {
        return candidate;  // whole window fits before the next change
      }
    }
    level = it->level;
  }
  // Tail segment: level holds forever after the last step.
  if (level > limit) return horizon;
  return candidate < horizon ? candidate : horizon;
}

void GanttChart::compact(double t) {
  const auto it = first_after(t);
  if (it == steps_.begin()) return;
  baseline_ = std::prev(it)->level;
  steps_.erase(steps_.begin(), it);
}

}  // namespace faucets::cluster
