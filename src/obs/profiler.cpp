#include "src/obs/profiler.hpp"

#include <algorithm>
#include <chrono>
#include <ostream>

#include "src/obs/exporters.hpp"
#include "src/obs/format.hpp"

namespace faucets::obs {

double HostClock::ns_per_tick() {
  // Calibrated once per process (function-local static): a ~1 ms busy window
  // against steady_clock. Per-run Profiler construction therefore pays
  // nothing, which keeps the A/B overhead bench honest.
  static const double v = [] {
    using sc = std::chrono::steady_clock;
    const auto t0 = sc::now();
    const std::uint64_t c0 = ticks();
    const auto deadline = t0 + std::chrono::milliseconds(1);
    while (sc::now() < deadline) {
    }
    const auto t1 = sc::now();
    const std::uint64_t c1 = ticks();
    const double ns = std::chrono::duration<double, std::nano>(t1 - t0).count();
    return c1 > c0 ? ns / static_cast<double>(c1 - c0) : 1.0;
  }();
  return v;
}

double ProfStats::quantile_ticks(double q) const noexcept {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(count - 1);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (buckets[i] == 0) continue;
    const double lo_rank = static_cast<double>(seen);
    seen += buckets[i];
    if (rank >= static_cast<double>(seen)) continue;
    const double lo = i == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(i));
    const double hi = std::ldexp(1.0, static_cast<int>(i) + 1);
    const double frac =
        (rank - lo_rank) / static_cast<double>(buckets[i]);
    const double est = lo + frac * (hi - lo);
    return std::clamp(est, static_cast<double>(min_or_zero()),
                      static_cast<double>(max));
  }
  return static_cast<double>(max);
}

const char* to_string(ProfClass c) noexcept {
  switch (c) {
    case ProfClass::kCentral: return "central";
    case ProfClass::kAppSpector: return "appspector";
    case ProfClass::kBroker: return "broker";
    case ProfClass::kDaemon: return "daemon";
    case ProfClass::kClient: return "client";
    case ProfClass::kOther: break;
  }
  return "other";
}

Profiler::Profiler() {
  kind_names_.resize(ProfilerLane::kKindSlots);
  // Force calibration now so the first hot-path conversion and the A/B bench
  // arms never observe the spin.
  (void)HostClock::ns_per_tick();
}

void Profiler::set_kind_name(std::size_t slot, std::string name) {
  if (slot < kind_names_.size()) kind_names_[slot] = std::move(name);
}

double Profiler::wall_seconds() const noexcept {
  return static_cast<double>(wall_ticks_) * HostClock::ns_per_tick() * 1e-9;
}

void Profiler::finalize() {
  metrics_ = MetricsRegistry{};
  const double scale = HostClock::ns_per_tick() * 1e-9;

  metrics_.gauge("faucets_prof_wall_seconds", "Profiled run wall clock")
      .set(wall_seconds());
  metrics_
      .gauge("faucets_prof_calibration_ns_per_tick",
             "Host clock calibration (nanoseconds per tick)")
      .set(HostClock::ns_per_tick());
  metrics_
      .counter("faucets_prof_events_total",
               "Events dispatched under the profiler")
      .inc(events_total());

  // Per-event self time by message kind and by entity class: fold the POD
  // tick buckets into MetricsRegistry histograms whose bounds are the
  // power-of-two tick edges converted to seconds.
  std::vector<double> bounds(ProfStats::kBuckets);
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    bounds[i] = std::ldexp(1.0, static_cast<int>(i) + 1) * scale;
  }
  const auto fold = [&](const std::string& name, const ProfStats& stats) {
    if (stats.count == 0) return;
    Histogram& h = metrics_.histogram(
        name, bounds, "Per-event self time (host seconds)");
    h.fold_prebinned(stats.buckets.data(), stats.buckets.size(),
                     static_cast<double>(stats.total) * scale,
                     static_cast<double>(stats.min_or_zero()) * scale,
                     static_cast<double>(stats.max) * scale);
  };
  for (std::size_t k = 0; k < ProfilerLane::kKindSlots; ++k) {
    const std::string kind =
        kind_names_[k].empty() ? "slot" + std::to_string(k) : kind_names_[k];
    fold("faucets_prof_event_self_seconds{kind=\"" + kind + "\"}",
         lane_.by_kind(k));
  }
  for (std::size_t c = 0; c < kProfClassCount; ++c) {
    fold("faucets_prof_entity_self_seconds{entity=\"" +
             std::string(to_string(static_cast<ProfClass>(c))) + "\"}",
         lane_.by_class(c));
  }
}

void Profiler::write_json(std::ostream& os) const {
  const double scale = HostClock::ns_per_tick() * 1e-9;
  const double us = HostClock::ns_per_tick() * 1e-3;

  os << "{\n";
  os << "  \"schema\": 2,\n";
  os << "  \"clock\": {\"source\": \"" << HostClock::source()
     << "\", \"ns_per_tick\": " << json_number(HostClock::ns_per_tick())
     << "},\n";
  os << "  \"wall_seconds\": " << json_number(wall_seconds()) << ",\n";
  os << "  \"events_total\": " << events_total() << ",\n";

  const auto stats_json = [&](std::ostream& o, const char* key,
                              const std::string& name,
                              const ProfStats& stats) {
    o << "    {\"" << key << "\": \"" << json_escape(name)
      << "\", \"count\": " << stats.count
      << ", \"seconds\": " << json_number(static_cast<double>(stats.total) * scale)
      << ", \"mean_us\": " << json_number(stats.mean() * us)
      << ", \"min_us\": "
      << json_number(static_cast<double>(stats.min_or_zero()) * us)
      << ", \"max_us\": " << json_number(static_cast<double>(stats.max) * us)
      << ", \"p50_us\": " << json_number(stats.quantile_ticks(0.5) * us)
      << ", \"p99_us\": " << json_number(stats.quantile_ticks(0.99) * us)
      << "}";
  };

  os << "  \"kinds\": [\n";
  bool first = true;
  for (std::size_t k = 0; k < ProfilerLane::kKindSlots; ++k) {
    const ProfStats& stats = lane_.by_kind(k);
    if (stats.count == 0) continue;
    if (!first) os << ",\n";
    first = false;
    const std::string kind =
        kind_names_[k].empty() ? "slot" + std::to_string(k) : kind_names_[k];
    stats_json(os, "kind", kind, stats);
  }
  os << "\n  ],\n";

  os << "  \"entities\": [\n";
  first = true;
  for (std::size_t c = 0; c < kProfClassCount; ++c) {
    const ProfStats& stats = lane_.by_class(c);
    if (stats.count == 0) continue;
    if (!first) os << ",\n";
    first = false;
    stats_json(os, "entity", to_string(static_cast<ProfClass>(c)), stats);
  }
  os << "\n  ]\n";
  os << "}\n";
}

void Profiler::write_prometheus(std::ostream& os) const {
  obs::write_prometheus(os, metrics_);
}

void Profiler::append_sweep_metrics(
    std::vector<std::pair<std::string, double>>& metrics) const {
  const double wall = wall_seconds();
  metrics.emplace_back("prof_wall_ms", wall * 1e3);
  metrics.emplace_back("prof_events", static_cast<double>(events_total()));
  metrics.emplace_back(
      "prof_events_per_sec",
      wall > 0.0 ? static_cast<double>(events_total()) / wall : 0.0);
}

}  // namespace faucets::obs
