// Deterministic discrete-event simulation engine.
//
// Section 5.4 of the Faucets paper describes a simulation system in which
// every entity of the grid — clients, Compute Servers, the Faucets Server,
// schedulers with their bid generators, and applications — is an object, and
// discrete-event simulation is carried out over job-submission patterns.
// This engine is that substrate: a single-threaded, deterministic event
// queue ordered by (time, sequence number).
//
// Events live in a slab of pooled slots recycled through a free list, and
// the queue is an indexed 4-ary heap with back-pointers, so cancel()
// removes the event in O(log n) instead of leaving a tombstone. The
// ordering keys (time, seq) are stored inside the heap entries themselves:
// sift comparisons stay within the contiguous heap array instead of chasing
// slot indices into the slab, which is what makes million-event queues fast
// (each slab lookup is a cache miss at that size). The slab entry is left
// at exactly one cache line: callable + generation + back-pointer.
// Handles are {slot, generation} pairs: firing or cancelling bumps the
// slot's generation, so a stale handle can neither cancel nor report active
// for a recycled slot. Closures are stored in a SmallFunction, so scheduling
// a timer with a small capture performs zero heap allocations once the pool
// is warm.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/sim/callable.hpp"

namespace faucets::obs {
class ProfilerLane;
}  // namespace faucets::obs

namespace faucets::sim {

/// Simulated time in seconds since the start of the simulation.
using SimTime = double;

class Engine;

/// Handle to a scheduled event; allows cancellation (e.g. a server's poll
/// timer when it deregisters). Default-constructed handles are inert.
/// A handle is only meaningful while the Engine that issued it is alive.
class EventHandle {
 public:
  EventHandle() = default;

  /// Cancel the event if it has not fired yet. Safe to call repeatedly, and
  /// a no-op once the event fired or the slot was recycled.
  void cancel() noexcept;

  /// True while the event is still queued: not yet fired, not cancelled.
  [[nodiscard]] bool active() const noexcept;

 private:
  friend class Engine;
  EventHandle(Engine* engine, std::uint32_t slot, std::uint32_t generation) noexcept
      : engine_(engine), slot_(slot), generation_(generation) {}

  Engine* engine_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t generation_ = 0;
};

/// The event queue. Events scheduled for the same instant fire in the order
/// they were scheduled, which makes every run bit-reproducible.
class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Schedule `fn` to run at absolute time `when` (>= now). Scheduling in
  /// the past is clamped to `now` rather than rejected: entities routinely
  /// react "immediately".
  EventHandle schedule_at(SimTime when, SmallFunction fn);

  /// Schedule `fn` after a relative delay.
  EventHandle schedule_after(SimTime delay, SmallFunction fn) {
    return schedule_at(now_ + delay, std::move(fn));
  }

  /// Run until the queue drains or `until` is reached (whichever first).
  /// Returns the number of events executed.
  std::uint64_t run(SimTime until = kForever);

  /// Execute at most one pending event. Returns false if the queue is empty
  /// or the next event lies beyond `until`.
  bool step(SimTime until = kForever);

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t pending() const noexcept { return heap_.size(); }
  [[nodiscard]] std::uint64_t executed() const noexcept { return executed_; }

  /// Time of the earliest pending event, kForever when the queue is empty.
  /// The pause hook reads it to fire before anything at or past its
  /// boundary executes.
  [[nodiscard]] SimTime next_time() const noexcept {
    return heap_.empty() ? kForever : heap_[0].time;
  }

  // --- attribution ---------------------------------------------------------
  //
  // Every event creation (timer or message delivery) records the entity
  // whose code performed it. A timer runs attributed to its creator, so the
  // timers it arms inherit the same entity; the Network re-attributes a
  // delivery to its receiver before the handler runs.

  /// Sentinel creator for creations outside any entity's code.
  static constexpr std::uint64_t kNoEntity = ~std::uint64_t{0};

  /// Attribute subsequent creations to `entity` (the value of an EntityId).
  /// Called by the Network on attach and before each message handler, and by
  /// entity methods that are invoked from outside the event loop.
  void set_current_entity(std::uint64_t entity) noexcept {
    current_entity_ = entity;
  }
  [[nodiscard]] std::uint64_t current_entity() const noexcept {
    return current_entity_;
  }

  /// Attribution of the event currently being executed (valid during a
  /// handler).
  struct ExecStamp {
    std::uint64_t creator = kNoEntity;
  };
  [[nodiscard]] ExecStamp exec_stamp() const noexcept { return {cur_creator_}; }

  /// Total slots ever allocated in the pool (monotone; slot reuse keeps this
  /// near the high-water mark of concurrently pending events).
  [[nodiscard]] std::size_t pool_slots() const noexcept { return slots_.size(); }

  /// Attach a host-time profiler lane (DESIGN.md §12): step() brackets each
  /// dispatched handler with one timestamp pair. Null (the default) keeps
  /// the unprofiled path to a single branch per event.
  void set_profiler(obs::ProfilerLane* lane) noexcept { prof_ = lane; }

  static constexpr SimTime kForever = 1e300;

 private:
  friend class EventHandle;

  struct Slot {
    std::uint32_t generation = 0;
    SmallFunction fn;
  };

  /// Slot numbers fit 24 bits (16M concurrently pending events); the
  /// insertion sequence takes the upper 40 bits of the packed key, so a
  /// plain integer compare breaks time ties in scheduling order.
  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint32_t kSlotMask = (1u << kSlotBits) - 1;

  /// Heap entry carrying the ordering keys, so comparisons never touch the
  /// slab: 16 bytes, four children per cache line. 4-ary layout: parent
  /// (i-1)/4, children 4i+1 .. 4i+4.
  struct HeapEntry {
    SimTime time;
    std::uint64_t key;  // (seq << kSlotBits) | slot

    [[nodiscard]] std::uint32_t slot() const noexcept {
      return static_cast<std::uint32_t>(key) & kSlotMask;
    }
  };

  [[nodiscard]] bool slot_active(std::uint32_t slot, std::uint32_t generation) const noexcept {
    return slot < slots_.size() && slots_[slot].generation == generation &&
           pos_[slot] >= 0;
  }
  void cancel_slot(std::uint32_t slot, std::uint32_t generation) noexcept;

  [[nodiscard]] static bool earlier(const HeapEntry& a, const HeapEntry& b) noexcept {
    if (a.time != b.time) return a.time < b.time;
    return a.key < b.key;
  }
  void place(const HeapEntry& e, std::size_t i) noexcept {
    heap_[i] = e;
    pos_[e.slot()] = static_cast<std::int32_t>(i);
  }
  void sift_up(std::size_t i) noexcept;
  void sift_down(std::size_t i) noexcept;
  void remove_heap_at(std::size_t pos) noexcept;
  void pop_root() noexcept;
  void retire_slot(std::uint32_t slot) noexcept;

  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  obs::ProfilerLane* prof_ = nullptr;  // host-time recorder; null = off
  std::uint64_t current_entity_ = kNoEntity;
  std::uint64_t cur_creator_ = kNoEntity;  // creator of the executing event
  std::vector<Slot> slots_;         // slab of pooled callables
  std::vector<std::int32_t> pos_;   // heap position per slot; -1 = not queued
  std::vector<std::uint64_t> creator_;  // creating entity per slot
  std::vector<std::uint32_t> free_; // recycled slot numbers
  std::vector<HeapEntry> heap_;     // indexed 4-ary heap
};

inline void EventHandle::cancel() noexcept {
  if (engine_ != nullptr) engine_->cancel_slot(slot_, generation_);
}

inline bool EventHandle::active() const noexcept {
  return engine_ != nullptr && engine_->slot_active(slot_, generation_);
}

}  // namespace faucets::sim
