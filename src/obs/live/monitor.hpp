// Online invariant monitors (DESIGN.md §15.3): the checks CI historically
// ran only at exit — ledger conservation, reservation-lease leaks, open-span
// balance, barrier progress — evaluated periodically in host time while the
// run is in flight.
//
// The suite is pure over injected probes so tests can drive it with
// fabricated values, and it never allocates after construction: states live
// in a fixed array indexed by obs::MonitorKind, and the deferred-alert queue
// is a fixed ring. Alerts are edge-triggered: one kAlert trace event and one
// faucets_alerts_total increment per transition into violation, not per
// evaluation — a run that goes wrong once does not flood the ring.
//
// Thread model: the owner (LivePlane) serializes every call. evaluate() and
// drain_pending() run on the simulation thread at publish
// boundaries; report_stall()/clear_stall() run on the server thread, which
// is why the stall monitor's kAlert is queued instead of recorded directly —
// the simulation thread may be stuck, but /healthz must not wait for it.
#pragma once

#include <array>
#include <cstdint>
#include <functional>

#include "src/obs/trace.hpp"

namespace faucets::obs::live {

struct MonitorConfig {
  /// |barter ledger total - opening total| above this is a conservation
  /// violation (matches the CI exit assert).
  double ledger_residual_max = 1e-9;
  /// A reservation still held this many sim-seconds past its lease expiry
  /// is a leak; at the final (end-of-run) check any held lease counts.
  double lease_grace = 5.0;
  /// Host seconds without sim time advancing before the stall watchdog
  /// fires (checked on the server thread).
  double stall_timeout = 10.0;
};

/// Read-only views into live grid state, called at publish boundaries on
/// the simulation thread. All must be non-null when monitors are enabled
/// (LiveConfig::monitors); each must be allocation-free.
struct MonitorProbes {
  /// Signed barter-credit conservation residual (total - opening).
  std::function<double()> ledger_residual;
  /// Reservations held past lease expiry + `grace` across all CMs; with
  /// `final_check`, every still-held reservation.
  std::function<std::uint64_t(double sim_now, double grace, bool final_check)>
      leaked_leases;
  /// Open kSubmission root spans.
  std::function<std::uint64_t()> open_submission_roots;
  /// Jobs submitted - completed - unplaced.
  std::function<std::int64_t()> jobs_in_flight;
};

/// Rolling per-monitor outcome, exported to /healthz, /metrics
/// (faucets_alerts_total{monitor=...}) and the HTML report's Alerts table.
struct MonitorState {
  std::uint64_t alerts = 0;        // rising edges into violation
  bool firing = false;             // in violation at the latest evaluation
  double first_sim_time = 0.0;     // sim time of the first alert
  double last_sim_time = 0.0;      // sim time last seen in violation
  double last_observed = 0.0;
  double threshold = 0.0;
};

class MonitorSuite {
 public:
  MonitorSuite(MonitorConfig config, MonitorProbes probes);

  /// Evaluate every probe-backed monitor at a consistent boundary, then
  /// drain stall alerts queued by the server thread. `emit` receives one
  /// TraceEvent per new alert (the caller records it into the sim trace
  /// ring). `final_check` switches the lease monitor to exit semantics.
  template <typename Emit>
  void evaluate(double sim_now, bool final_check, Emit&& emit) {
    check(MonitorKind::kLedgerConservation, sim_now,
          probes_.ledger_residual ? abs_of(probes_.ledger_residual()) : 0.0,
          config_.ledger_residual_max, emit);
    check(MonitorKind::kLeaseLeak, sim_now,
          probes_.leaked_leases
              ? static_cast<double>(
                    probes_.leaked_leases(sim_now, config_.lease_grace, final_check))
              : 0.0,
          0.0, emit);
    if (probes_.open_submission_roots && probes_.jobs_in_flight) {
      const double open =
          static_cast<double>(probes_.open_submission_roots());
      const double in_flight =
          static_cast<double>(probes_.jobs_in_flight());
      check(MonitorKind::kSpanBalance, sim_now, abs_of(open - in_flight), 0.0,
            emit);
    }
    drain_pending(emit);
  }

  /// Server-thread half of the stall watchdog: sim time `stalled_at` has not
  /// advanced for `host_seconds`. Counted and surfaced in /healthz
  /// immediately; the kAlert trace event is queued for the next simulation-
  /// thread publish (the sim thread may be the thing that is stuck).
  void report_stall(double stalled_at, double host_seconds);
  /// Sim time advanced again: re-arm the stall monitor's edge trigger.
  void clear_stall() noexcept;

  /// Record queued stall alerts through `emit` (simulation thread).
  template <typename Emit>
  void drain_pending(Emit&& emit) {
    if (pending_count_ - pending_drained_ > kPendingCap) {
      pending_drained_ = pending_count_ - kPendingCap;  // ring overwrote these
    }
    for (; pending_drained_ < pending_count_; ++pending_drained_) {
      emit(pending_[pending_drained_ % kPendingCap]);
    }
  }

  [[nodiscard]] const MonitorState& state(MonitorKind m) const noexcept {
    return states_[static_cast<std::size_t>(m)];
  }
  [[nodiscard]] const std::array<MonitorState, kMonitorKindCount>& states()
      const noexcept {
    return states_;
  }
  [[nodiscard]] std::uint64_t total_alerts() const noexcept {
    std::uint64_t n = 0;
    for (const auto& s : states_) n += s.alerts;
    return n;
  }
  [[nodiscard]] bool healthy() const noexcept { return total_alerts() == 0; }

 private:
  static constexpr std::size_t kPendingCap = 16;

  [[nodiscard]] static double abs_of(double v) noexcept {
    return v < 0.0 ? -v : v;
  }

  /// Shared edge-trigger: in violation when observed > threshold.
  template <typename Emit>
  void check(MonitorKind m, double sim_now, double observed, double threshold,
             Emit&& emit) {
    MonitorState& s = states_[static_cast<std::size_t>(m)];
    s.threshold = threshold;
    const bool violated = observed > threshold;
    if (violated) {
      s.last_observed = observed;
      s.last_sim_time = sim_now;
      if (!s.firing) {
        if (s.alerts == 0) s.first_sim_time = sim_now;
        ++s.alerts;
        emit(alert_event(sim_now, static_cast<std::uint8_t>(m), observed,
                         threshold));
      }
    }
    s.firing = violated;
  }

  MonitorConfig config_;
  MonitorProbes probes_;
  std::array<MonitorState, kMonitorKindCount> states_{};
  // Fixed ring of stall alerts awaiting a sim-thread publish. Overwrites
  // past kPendingCap are harmless: the alert count is already in states_.
  std::array<TraceEvent, kPendingCap> pending_{};
  std::uint64_t pending_count_ = 0;
  std::uint64_t pending_drained_ = 0;
};

}  // namespace faucets::obs::live
