// Randomized property tests for the Gantt chart: the admission-control
// inner loop must never report a window that does not actually fit.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/cluster/gantt.hpp"
#include "src/util/rng.hpp"
#include "tests/cluster/brute_force_chart.hpp"

namespace faucets::cluster {
namespace {

struct Reservation {
  double start;
  double end;
  int procs;
};

class GanttProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GanttProperties, EarliestFitResultsActuallyFit) {
  Rng rng{GetParam()};
  GanttChart gantt{512};
  for (int i = 0; i < 200; ++i) {
    const double start = rng.uniform(0.0, 1e4);
    gantt.reserve(start, start + rng.uniform(1.0, 2000.0),
                  static_cast<int>(rng.uniform_int(1, 400)));
  }
  for (int q = 0; q < 200; ++q) {
    const double after = rng.uniform(0.0, 1e4);
    const double duration = rng.uniform(1.0, 3000.0);
    const int procs = static_cast<int>(rng.uniform_int(1, 512));
    const double horizon = 1e6;
    const double start = gantt.earliest_fit(after, duration, procs, horizon);
    ASSERT_GE(start, after);
    if (start < horizon) {
      EXPECT_LE(gantt.peak_committed(start, start + duration) + procs, 512)
          << "seed " << GetParam() << " query " << q;
    }
  }
}

TEST_P(GanttProperties, ReserveReleaseRoundTripsToEmpty) {
  Rng rng{GetParam() * 31 + 7};
  GanttChart gantt{256};
  std::vector<Reservation> live;
  for (int i = 0; i < 500; ++i) {
    if (rng.bernoulli(0.6) || live.empty()) {
      Reservation r{rng.uniform(0.0, 1e4), 0.0,
                    static_cast<int>(rng.uniform_int(1, 200))};
      r.end = r.start + rng.uniform(1.0, 1000.0);
      gantt.reserve(r.start, r.end, r.procs);
      live.push_back(r);
    } else {
      const auto idx = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      gantt.release(live[idx].start, live[idx].end, live[idx].procs);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    }
  }
  for (const auto& r : live) gantt.release(r.start, r.end, r.procs);
  EXPECT_TRUE(gantt.empty());
  EXPECT_EQ(gantt.committed_at(5000.0), 0);
}

TEST_P(GanttProperties, AverageBoundedByPeak) {
  Rng rng{GetParam() * 131 + 3};
  GanttChart gantt{512};
  for (int i = 0; i < 100; ++i) {
    const double start = rng.uniform(0.0, 1e4);
    gantt.reserve(start, start + rng.uniform(1.0, 2000.0),
                  static_cast<int>(rng.uniform_int(1, 300)));
  }
  for (int q = 0; q < 50; ++q) {
    const double from = rng.uniform(0.0, 9e3);
    const double to = from + rng.uniform(1.0, 3000.0);
    const double avg = gantt.average_committed(from, to);
    EXPECT_GE(avg, -1e-9);
    EXPECT_LE(avg, static_cast<double>(gantt.peak_committed(from, to)) + 1e-9);
  }
}

TEST_P(GanttProperties, EarliestFitMatchesBruteForceReference) {
  Rng rng{GetParam() * 977 + 11};
  GanttChart gantt{128};
  for (int i = 0; i < 60; ++i) {
    const double start = rng.uniform(0.0, 1e3);
    gantt.reserve(start, start + rng.uniform(1.0, 300.0),
                  static_cast<int>(rng.uniform_int(1, 100)));
  }
  // Reference: test `after` plus every event boundary with peak_committed.
  auto reference = [&](double after, double duration, int procs,
                       double horizon) {
    auto fits = [&](double start) {
      return gantt.peak_committed(start, start + duration) + procs <= 128;
    };
    if (procs > 128) return horizon;
    if (fits(after)) return after;
    // Probe a fine time grid (slow but trustworthy).
    for (double t = after; t < horizon; t += 0.5) {
      if (fits(t)) return t;
    }
    return horizon;
  };
  for (int q = 0; q < 60; ++q) {
    const double after = rng.uniform(0.0, 1e3);
    const double duration = rng.uniform(0.0, 400.0);
    const int procs = static_cast<int>(rng.uniform_int(1, 128));
    const double horizon = 5e3;
    const double fast = gantt.earliest_fit(after, duration, procs, horizon);
    const double slow = reference(after, duration, procs, horizon);
    // The grid reference can only be later than the true optimum by its
    // step; the sweep must never be later than the reference.
    EXPECT_LE(fast, slow + 1e-9) << "seed " << GetParam() << " q " << q;
    if (fast < horizon) {
      EXPECT_LE(gantt.peak_committed(fast, fast + duration) + procs, 128);
    }
  }
}

TEST_P(GanttProperties, IncrementalMatchesBruteForceUnderMixedMutation) {
  // The flat step profile, edited in place, must answer every query exactly
  // as a from-scratch sweep of the delta map does, no matter how
  // reserve/release/compact and queries interleave: a dropped or stale step
  // point shows up here.
  Rng rng{GetParam() * 8191 + 17};
  GanttChart gantt{256};
  BruteForceChart ref{256};
  std::vector<Reservation> live;
  double compacted_to = -1e300;

  for (int step = 0; step < 400; ++step) {
    const double roll = rng.uniform(0.0, 1.0);
    if (roll < 0.40 || live.empty()) {
      Reservation r{rng.uniform(0.0, 5e3), 0.0,
                    static_cast<int>(rng.uniform_int(1, 150))};
      r.end = r.start + rng.uniform(1.0, 800.0);
      gantt.reserve(r.start, r.end, r.procs);
      ref.reserve(r.start, r.end, r.procs);
      live.push_back(r);
    } else if (roll < 0.55) {
      const auto idx = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(live.size()) - 1));
      const auto r = live[idx];
      gantt.release(r.start, r.end, r.procs);
      ref.release(r.start, r.end, r.procs);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    } else if (roll < 0.60) {
      const double t = rng.uniform(0.0, 2e3);
      gantt.compact(t);
      ref.compact(t);
      compacted_to = std::max(compacted_to, t);
    } else {
      // Queries strictly after the compacted prefix (compact folds the
      // past into the baseline, so earlier times are intentionally lossy).
      const double from =
          std::max(compacted_to, 0.0) + rng.uniform(1e-3, 4e3);
      const double to = from + rng.uniform(1.0, 2e3);
      ASSERT_EQ(gantt.empty(), ref.deltas.empty())
          << "seed " << GetParam() << " step " << step;
      ASSERT_EQ(gantt.committed_at(from), ref.committed_at(from))
          << "seed " << GetParam() << " step " << step;
      ASSERT_EQ(gantt.peak_committed(from, to), ref.peak_committed(from, to))
          << "seed " << GetParam() << " step " << step;
      ASSERT_NEAR(gantt.average_committed(from, to),
                  ref.average_committed(from, to), 1e-6)
          << "seed " << GetParam() << " step " << step;
      const int procs = static_cast<int>(rng.uniform_int(1, 256));
      // An unbounded horizon, and one that cuts some searches short.
      for (const double horizon : {1e6, to + rng.uniform(0.0, 2e3)}) {
        const double fit = gantt.earliest_fit(from, to - from, procs, horizon);
        ASSERT_EQ(fit, ref.earliest_fit(from, to - from, procs, horizon))
            << "seed " << GetParam() << " step " << step;
        if (fit < horizon) {
          EXPECT_LE(gantt.peak_committed(fit, to - from + fit) + procs, 256);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GanttProperties,
                         ::testing::Values<std::uint64_t>(1, 2, 3, 5, 8, 13));

}  // namespace
}  // namespace faucets::cluster
