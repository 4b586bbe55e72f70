#include "src/obs/live/plane.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "src/obs/exporters.hpp"
#include "src/obs/format.hpp"

namespace faucets::obs::live {

namespace {

constexpr std::chrono::milliseconds kProgressInterval{500};  // ticker repaints

double ticks_to_seconds(std::uint64_t ticks) {
  return static_cast<double>(ticks) * HostClock::ns_per_tick() * 1e-9;
}

std::uint64_t seconds_to_ticks(double seconds) {
  const double ns = HostClock::ns_per_tick();
  if (ns <= 0.0 || seconds <= 0.0) return 0;
  return static_cast<std::uint64_t>(seconds * 1e9 / ns);
}

}  // namespace

LivePlane::LivePlane(LiveConfig config, Bindings bindings)
    : config_(config),
      bindings_(std::move(bindings)),
      suite_(config.monitor, bindings_.monitors) {
  (void)HostClock::ns_per_tick();  // calibrate once, off the publish path
  publish_interval_ticks_ = seconds_to_ticks(config_.publish_interval);
  snapshot_.recent.resize(config_.recent_events);
  if (config_.serve) {
    server_.start(
        config_.port,
        [this](const std::string& path) { return handle(path); },
        [this] { check_stall(); }, config_.poll_interval_ms);
  }
  if (config_.progress) {
    ticker_ = std::thread([this] { ticker_loop(); });
  }
}

LivePlane::~LivePlane() {
  server_.stop();
  if (ticker_.joinable()) {
    {
      std::lock_guard<std::mutex> lk(ticker_mu_);
      ticker_stop_ = true;
    }
    ticker_cv_.notify_all();
    ticker_.join();
  }
}

void LivePlane::begin_run() {
  const std::uint64_t now = HostClock::ticks();
  {
    std::lock_guard<std::mutex> lk(mu_);
    progress_.run_active = true;
    progress_.finished = false;
    progress_.run_start_ticks = now;
  }
  last_advance_ticks_.store(now, std::memory_order_relaxed);
  run_active_.store(true, std::memory_order_relaxed);
  next_publish_ticks_ = 0;  // first boundary publishes immediately
}

void LivePlane::publish(double sim_now, bool final_check) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    publish_locked(sim_now, final_check);
  }
  next_publish_ticks_ = HostClock::ticks() + publish_interval_ticks_;
}

void LivePlane::end_run(double sim_now, bool quiescent) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    publish_locked(sim_now, /*final_check=*/quiescent);
    progress_.run_active = false;
    progress_.finished = true;
  }
  run_active_.store(false, std::memory_order_relaxed);
  if (config_.progress) render_ticker_line(/*last=*/true);
}

void LivePlane::publish_locked(double sim_now, bool final_check) {
  capture();

  progress_.sim_time = sim_now;
  progress_.events_executed = bindings_.executed ? bindings_.executed() : 0;
  if (bindings_.job_counts) {
    bindings_.job_counts(progress_.submitted, progress_.completed,
                         progress_.unplaced);
  }
  progress_.workload_exhausted =
      bindings_.workload_exhausted ? bindings_.workload_exhausted() : true;
  progress_.workload_buffered =
      bindings_.workload_buffered ? bindings_.workload_buffered() : 0;
  ++progress_.publish_seq;
  progress_.publish_ticks = HostClock::ticks();

  if (sim_now > last_published_time_) {
    last_published_time_ = sim_now;
    last_advance_ticks_.store(progress_.publish_ticks,
                              std::memory_order_relaxed);
    suite_.clear_stall();
  }
  last_sim_time_bits_.store(std::bit_cast<std::uint64_t>(sim_now),
                            std::memory_order_relaxed);

  if (config_.monitors) {
    suite_.evaluate(sim_now, final_check, [this](const TraceEvent& ev) {
      if (bindings_.trace != nullptr) bindings_.trace->record(ev);
    });
  }
}

void LivePlane::capture() {
  const Bindings& b = bindings_;
  Snapshot& snap = snapshot_;
  if (b.metrics != nullptr) {
    if (b.metrics->size() != snap.schema_entries) {
      // Registry grew (new instruments): re-capture names/types/bounds and
      // re-size the flat value arrays. The only publish-path allocations.
      snap.schema.clear();
      std::size_t counters = 0;
      std::size_t gauges = 0;
      std::size_t hists = 0;
      std::size_t buckets = 0;
      b.metrics->for_each([&](const MetricsRegistry::Entry& e) {
        Snapshot::Desc d;
        d.name = e.name;
        d.help = e.help;
        d.type = e.type;
        switch (e.type) {
          case MetricsRegistry::Type::kCounter:
            d.value_index = counters++;
            break;
          case MetricsRegistry::Type::kGauge:
            d.value_index = gauges++;
            break;
          case MetricsRegistry::Type::kHistogram:
            d.value_index = hists++;
            d.bucket_index = buckets;
            d.bounds = e.histogram->bounds();
            buckets += e.histogram->buckets().size();
            break;
        }
        snap.schema.push_back(std::move(d));
      });
      snap.schema_entries = b.metrics->size();
      snap.counters.assign(counters, 0);
      snap.gauges.assign(gauges, 0.0);
      snap.hist_buckets.assign(buckets, 0);
      snap.hist_counts.assign(hists, 0);
      snap.hist_sums.assign(hists, 0.0);
    }
    // Steady state: pure value refresh into the preallocated arrays.
    std::size_t ci = 0;
    std::size_t gi = 0;
    std::size_t hi = 0;
    std::size_t bi = 0;
    b.metrics->for_each_value([&](MetricsRegistry::Type type, const Counter* c,
                                  const Gauge* g, const Histogram* h) {
      switch (type) {
        case MetricsRegistry::Type::kCounter:
          snap.counters[ci++] = c->value();
          break;
        case MetricsRegistry::Type::kGauge:
          snap.gauges[gi++] = g->value();
          break;
        case MetricsRegistry::Type::kHistogram: {
          const auto& bk = h->buckets();
          for (std::size_t i = 0; i < bk.size(); ++i) {
            snap.hist_buckets[bi + i] = bk[i];
          }
          bi += bk.size();
          snap.hist_counts[hi] = h->count();
          snap.hist_sums[hi] = h->sum();
          ++hi;
          break;
        }
      }
    });
  }
  if (b.trace != nullptr) {
    const std::size_t have = b.trace->size();
    const std::size_t n = std::min(have, snap.recent.size());
    for (std::size_t i = 0; i < n; ++i) snap.recent[i] = b.trace->at(have - n + i);
    snap.recent_n = n;
    snap.trace_dropped = b.trace->dropped();
  }
}

void LivePlane::begin_pause() noexcept {
  pause_held_.store(true, std::memory_order_relaxed);
}

void LivePlane::end_pause() noexcept {
  // Refresh the advance tick before releasing the hold so check_stall never
  // pairs a cleared hold with the stale pre-pause tick.
  last_advance_ticks_.store(HostClock::ticks(), std::memory_order_relaxed);
  pause_held_.store(false, std::memory_order_release);
}

void LivePlane::check_stall() {
  if (!config_.monitors || !run_active_.load(std::memory_order_relaxed)) return;
  if (pause_held_.load(std::memory_order_acquire)) return;
  const std::uint64_t last = last_advance_ticks_.load(std::memory_order_relaxed);
  const std::uint64_t now = HostClock::ticks();
  // The sim thread may stamp an advance after this thread read its clock:
  // that is progress, not an unsigned wrap into a stall of 2^64 ticks.
  if (now <= last) return;
  const double stalled_for = ticks_to_seconds(now - last);
  if (stalled_for <= config_.monitor.stall_timeout) return;
  const double sim_time = std::bit_cast<double>(
      last_sim_time_bits_.load(std::memory_order_relaxed));
  std::lock_guard<std::mutex> lk(mu_);
  suite_.report_stall(sim_time, stalled_for);
}

void LivePlane::ticker_loop() {
  std::unique_lock<std::mutex> lk(ticker_mu_);
  while (!ticker_stop_) {
    ticker_cv_.wait_for(lk, kProgressInterval);
    if (ticker_stop_) break;
    if (!server_.serving()) check_stall();  // no server thread to host it
    render_ticker_line(/*last=*/false);
  }
}

void LivePlane::render_ticker_line(bool last) const {
  Progress p;
  std::uint64_t alerts = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    p = progress_;
    alerts = suite_.total_alerts();
  }
  if (p.publish_seq == 0) return;
  const double elapsed =
      ticks_to_seconds(p.publish_ticks - p.run_start_ticks);
  const double rate =
      elapsed > 0.0 ? static_cast<double>(p.events_executed) / elapsed : 0.0;
  char eta[32] = "?";
  const std::uint64_t done = p.completed + p.unplaced;
  if (p.finished) {
    std::snprintf(eta, sizeof(eta), "done");
  } else if (p.workload_exhausted && p.completed > 0 && p.submitted > done &&
             elapsed > 0.0) {
    const double jobs_rate = static_cast<double>(p.completed) / elapsed;
    std::snprintf(eta, sizeof(eta), "%.0fs",
                  static_cast<double>(p.submitted - done) / jobs_rate);
  }
  std::fprintf(
      stderr,
      "\r[faucets] t=%.1f ev=%llu (%.2gM ev/s) jobs %llu/%llu done "
      "(%llu unplaced) alerts %llu eta %s        %s",
      p.sim_time, static_cast<unsigned long long>(p.events_executed),
      rate * 1e-6, static_cast<unsigned long long>(done),
      static_cast<unsigned long long>(p.submitted),
      static_cast<unsigned long long>(p.unplaced),
      static_cast<unsigned long long>(alerts), eta, last ? "\n" : "");
  std::fflush(stderr);
}

// --------------------------------------------------------------- endpoints

HttpResponse LivePlane::handle(const std::string& path) const {
  std::lock_guard<std::mutex> lk(mu_);
  if (path == "/metrics") {
    return {200, "text/plain; version=0.0.4; charset=utf-8",
            render_metrics_locked()};
  }
  if (path == "/healthz") {
    const bool ok = suite_.healthy();
    return {ok ? 200 : 503, "application/json; charset=utf-8",
            render_healthz_locked()};
  }
  if (path == "/progress") {
    return {200, "application/json; charset=utf-8", render_progress_locked()};
  }
  if (path == "/traces/recent") {
    return {200, "application/x-ndjson; charset=utf-8",
            render_traces_locked()};
  }
  return {404, "text/plain; charset=utf-8",
          "not found; try /metrics /healthz /progress /traces/recent\n"};
}

std::string LivePlane::render_progress_locked() const {
  const Progress& p = progress_;
  const double elapsed =
      p.publish_seq == 0
          ? 0.0
          : ticks_to_seconds(p.publish_ticks - p.run_start_ticks);
  const double since_publish =
      p.publish_seq == 0
          ? 0.0
          : ticks_to_seconds(HostClock::ticks() - p.publish_ticks);
  const double ev_rate =
      elapsed > 0.0 ? static_cast<double>(p.events_executed) / elapsed : 0.0;
  const std::uint64_t done = p.completed + p.unplaced;
  std::string eta = "null";
  if (!p.finished && p.workload_exhausted && p.completed > 0 &&
      p.submitted > done && elapsed > 0.0) {
    eta = json_number(static_cast<double>(p.submitted - done) * elapsed /
                      static_cast<double>(p.completed));
  }
  std::ostringstream os;
  os << "{\"schema\":\"faucets.live.progress.v2\""
     << ",\"run_active\":" << (p.run_active ? "true" : "false")
     << ",\"finished\":" << (p.finished ? "true" : "false")
     << ",\"publishes\":" << p.publish_seq
     << ",\"sim_time\":" << json_number(p.sim_time)
     << ",\"events_executed\":" << p.events_executed << ",\"jobs\":{"
     << "\"submitted\":" << p.submitted << ",\"completed\":" << p.completed
     << ",\"unplaced\":" << p.unplaced << ",\"in_flight\":"
     << (static_cast<std::int64_t>(p.submitted) -
         static_cast<std::int64_t>(done))
     << "},\"workload\":{\"exhausted\":"
     << (p.workload_exhausted ? "true" : "false")
     << ",\"buffered\":" << p.workload_buffered << "},\"host\":{"
     << "\"elapsed_seconds\":" << json_number(elapsed)
     << ",\"since_publish_seconds\":" << json_number(since_publish)
     << ",\"events_per_second\":" << json_number(ev_rate)
     << ",\"sim_seconds_per_second\":"
     << json_number(elapsed > 0.0 ? p.sim_time / elapsed : 0.0)
     << "},\"eta_seconds\":" << eta << "}\n";
  return os.str();
}

std::string LivePlane::render_healthz_locked() const {
  std::ostringstream os;
  const MonitorState& stall =
      suite_.state(MonitorKind::kBarrierStall);
  os << "{\"schema\":\"faucets.live.healthz.v1\",\"status\":\""
     << (suite_.healthy() ? "ok" : "alert")
     << "\",\"alerts_total\":" << suite_.total_alerts()
     << ",\"stalled\":" << (stall.firing ? "true" : "false")
     << ",\"monitors_enabled\":"
     << (config_.monitors ? "true" : "false")
     << ",\"sim_time\":" << json_number(progress_.sim_time)
     << ",\"publishes\":" << progress_.publish_seq << ",\"monitors\":[";
  for (std::size_t m = 0; m < kMonitorKindCount; ++m) {
    const MonitorState& s = suite_.states()[m];
    if (m > 0) os << ',';
    os << "{\"monitor\":\"" << to_string(static_cast<MonitorKind>(m))
       << "\",\"alerts\":" << s.alerts << ",\"firing\":"
       << (s.firing ? "true" : "false")
       << ",\"observed\":" << json_number(s.last_observed)
       << ",\"threshold\":" << json_number(s.threshold)
       << ",\"first_sim_time\":" << json_number(s.first_sim_time)
       << ",\"last_sim_time\":" << json_number(s.last_sim_time) << '}';
  }
  os << "]}\n";
  return os.str();
}

std::string LivePlane::render_metrics_locked() const {
  const Snapshot& snap = snapshot_;
  std::ostringstream os;
  std::unordered_set<std::string> typed;
  std::string base;
  std::string labels;
  for (const Snapshot::Desc& d : snap.schema) {
    split_labels(d.name, base, labels);
    if (typed.insert(base).second) {
      if (!d.help.empty()) os << "# HELP " << base << ' ' << d.help << '\n';
      os << "# TYPE " << base << ' ';
      switch (d.type) {
        case MetricsRegistry::Type::kCounter: os << "counter\n"; break;
        case MetricsRegistry::Type::kGauge: os << "gauge\n"; break;
        case MetricsRegistry::Type::kHistogram: os << "histogram\n"; break;
      }
    }
    switch (d.type) {
      case MetricsRegistry::Type::kCounter:
        os << d.name << ' ' << snap.counters[d.value_index] << '\n';
        break;
      case MetricsRegistry::Type::kGauge:
        os << d.name << ' ' << json_number(snap.gauges[d.value_index]) << '\n';
        break;
      case MetricsRegistry::Type::kHistogram: {
        const auto label_join = [&](const std::string& le) {
          std::string out = base + "_bucket{";
          if (!labels.empty()) out += labels + ",";
          out += "le=\"" + le + "\"}";
          return out;
        };
        const std::uint64_t count = snap.hist_counts[d.value_index];
        std::uint64_t cum = 0;
        for (std::size_t i = 0; i < d.bounds.size(); ++i) {
          cum += snap.hist_buckets[d.bucket_index + i];
          os << label_join(json_number(d.bounds[i])) << ' ' << cum << '\n';
        }
        os << label_join("+Inf") << ' ' << count << '\n';
        const std::string suffix = labels.empty() ? "" : "{" + labels + "}";
        os << base << "_sum" << suffix << ' '
           << json_number(snap.hist_sums[d.value_index]) << '\n';
        os << base << "_count" << suffix << ' ' << count << '\n';
        break;
      }
    }
  }

  // Plane-owned series: these exist only on the live endpoint, never in the
  // simulation registries, so enabling the plane cannot perturb artifacts.
  os << "# HELP faucets_live_publishes_total Snapshot publishes from the "
        "simulation thread\n"
     << "# TYPE faucets_live_publishes_total counter\n"
     << "faucets_live_publishes_total " << progress_.publish_seq << '\n';
  os << "# HELP faucets_alerts_total Online invariant monitor alerts "
        "(rising edges into violation)\n"
     << "# TYPE faucets_alerts_total counter\n";
  for (std::size_t m = 0; m < kMonitorKindCount; ++m) {
    os << "faucets_alerts_total{monitor=\""
       << to_string(static_cast<MonitorKind>(m)) << "\"} "
       << suite_.states()[m].alerts << '\n';
  }
  if (snap.trace_dropped > 0) {
    os << "# HELP faucets_trace_dropped_total Trace events lost to the "
          "bounded ring; the exported window is truncated\n"
       << "# TYPE faucets_trace_dropped_total counter\n"
       << "faucets_trace_dropped_total " << snap.trace_dropped << '\n';
  }
  return os.str();
}

std::string LivePlane::render_traces_locked() const {
  // The ring tail in ring order, which is the trace artifact's order.
  std::ostringstream os;
  for (std::size_t i = 0; i < snapshot_.recent_n; ++i) {
    write_trace_event_jsonl(os, snapshot_.recent[i]);
  }
  return os.str();
}

std::uint64_t LivePlane::publishes() const {
  std::lock_guard<std::mutex> lk(mu_);
  return progress_.publish_seq;
}

std::uint64_t LivePlane::alerts_total() const {
  std::lock_guard<std::mutex> lk(mu_);
  return suite_.total_alerts();
}

std::array<MonitorState, kMonitorKindCount> LivePlane::monitor_states() const {
  std::lock_guard<std::mutex> lk(mu_);
  return suite_.states();
}

}  // namespace faucets::obs::live
