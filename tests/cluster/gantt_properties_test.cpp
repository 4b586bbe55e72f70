// Randomized property tests for the Gantt chart: the admission-control
// inner loop must never report a window that does not actually fit.
#include <gtest/gtest.h>

#include "src/cluster/gantt.hpp"
#include "src/util/rng.hpp"
#include "tests/cluster/brute_force_chart.hpp"

namespace faucets::cluster {
namespace {

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
  // reservations and queries interleave: a dropped or stale step point
  // shows up here.
  Rng rng{GetParam() * 8191 + 17};
  GanttChart gantt{256};
  BruteForceChart ref{256};

  for (int step = 0; step < 400; ++step) {
    if (rng.uniform(0.0, 1.0) < 0.40) {
      const double start = rng.uniform(0.0, 5e3);
      const double end = start + rng.uniform(1.0, 800.0);
      const int procs = static_cast<int>(rng.uniform_int(1, 150));
      gantt.reserve(start, end, procs);
      ref.reserve(start, end, procs);
    } else {
      const double from = rng.uniform(1e-3, 4e3);
      const double to = from + rng.uniform(1.0, 2e3);
      ASSERT_EQ(gantt.empty(), ref.deltas.empty())
          << "seed " << GetParam() << " step " << step;
      ASSERT_EQ(gantt.committed_at(from), ref.committed_at(from))
          << "seed " << GetParam() << " step " << step;
      ASSERT_EQ(gantt.peak_committed(from, to), ref.peak_committed(from, to))
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
