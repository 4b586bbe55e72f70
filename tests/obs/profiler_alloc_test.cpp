// Zero-allocation guarantee for the profiler hot path (DESIGN.md §12):
// every per-event record lands in fixed POD arrays sized at Profiler
// construction, so nothing between begin_run() and end_run() may touch the
// global heap. Same counting-allocator technique as the trace test;
// separate binary so the replaced operators cannot perturb other suites.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#include "src/obs/profiler.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// This new/delete pair is matched by construction (new mallocs, delete
// frees), but GCC cannot see that across the replaced operators and warns
// at higher optimization levels.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc{};
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace faucets::obs {
namespace {

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

TEST(ProfilerAlloc, EventRecordPathIsAllocationFree) {
  Profiler prof;  // all arrays sized here
  ProfilerLane& lane = prof.lane(0);
  const auto before = allocations();
  prof.begin_run();
  for (int i = 0; i < 10'000; ++i) {
    lane.begin_event();
    lane.set_event_tag(static_cast<std::size_t>(i) % ProfilerLane::kKindSlots,
                       static_cast<std::size_t>(i) % kProfClassCount);
    lane.end_event();
  }
  prof.end_run();
  const double read = prof.wall_seconds() + static_cast<double>(prof.events_total());
  EXPECT_EQ(allocations(), before)
      << "run bracketing, begin/tag/end_event and the totals must never "
         "allocate";
  EXPECT_EQ(lane.events(), 10'000u);
  EXPECT_GT(read, 0.0);
}

}  // namespace
}  // namespace faucets::obs
