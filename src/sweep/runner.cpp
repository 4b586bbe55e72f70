#include "src/sweep/runner.hpp"

#include <atomic>
#include <exception>
#include <utility>

#include "src/obs/profiler.hpp"
#include "src/sweep/thread_pool.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define FAUCETS_HAVE_FORK 1
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>

#include "src/sweep/jsonio.hpp"
#endif

namespace faucets::sweep {

#if FAUCETS_HAVE_FORK
namespace {

/// Grid-point identity minus the loss axis. Cells in one warm group share
/// the workload seed (CRN derivation skips treatment axes) and every
/// setting except message loss, so one warmed image serves them all.
std::string warm_group_key(const RunPoint& point) {
  std::ostringstream key;
  key << point.scheduler << '|' << point.bidgen << '|' << point.evaluator
      << '|' << format_double(point.load) << '|'
      << format_double(point.time_compression) << '|' << point.user_multiplier
      << '|' << point.replicate << '|' << point.seed;
  return key.str();
}

void write_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::write(fd, data.data() + sent, data.size() - sent);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // the parent will see a truncated payload and report it
    }
    sent += static_cast<std::size_t>(n);
  }
}

std::string read_all(int fd) {
  std::string out;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("warm fork: read: ") +
                               std::strerror(errno));
    }
    if (n == 0) return out;
    out.append(buf, static_cast<std::size_t>(n));
  }
}

/// Metrics cross the pipe as "name\t<hexfloat>\n" lines: %a / strtod round-
/// trip every double bit-exactly, so the parent re-renders the same JSONL
/// bytes the child would have.
std::string encode_metrics(
    const std::vector<std::pair<std::string, double>>& metrics) {
  std::ostringstream out;
  char buf[64];
  for (const auto& [name, value] : metrics) {
    std::snprintf(buf, sizeof buf, "%a", value);
    out << name << '\t' << buf << '\n';
  }
  return out.str();
}

std::vector<std::pair<std::string, double>> decode_metrics(
    const std::string& payload) {
  std::vector<std::pair<std::string, double>> metrics;
  std::istringstream lines(payload);
  std::string line;
  while (std::getline(lines, line)) {
    const auto tab = line.find('\t');
    if (tab == std::string::npos) {
      throw std::runtime_error("warm fork: malformed metric line '" + line +
                               "'");
    }
    metrics.emplace_back(line.substr(0, tab),
                         std::strtod(line.c_str() + tab + 1, nullptr));
  }
  return metrics;
}

}  // namespace
#endif  // FAUCETS_HAVE_FORK

RunResult SweepRunner::execute(const RunPoint& point, bool profile) const {
  core::Scenario scenario = spec_.materialize(point);
  if (spec_.mode() == SweepMode::kCluster) {
    const auto source = scenario.make_source();
    const auto result = core::run_cluster_experiment(
        scenario.clusters.front().machine, scenario.clusters.front().strategy,
        *source, scenario.clusters.front().costs);
    return make_result(point, spec_.mode(), cluster_metrics(result));
  }
  if (!profile) {
    const auto report = scenario.run();
    return make_result(point, spec_.mode(), grid_metrics(report));
  }
  // Profiled grid point: build the grid directly so the profiler survives
  // the run, then append the host-time prof_* columns after the sim metrics.
  scenario.grid.profile.enabled = true;
  const auto grid = scenario.make_grid();
  const auto source = scenario.make_source();
  const auto report = grid->run(*source);
  auto metrics = grid_metrics(report);
  if (const obs::Profiler* prof = grid->profiler()) {
    prof->append_sweep_metrics(metrics);
  }
  return make_result(point, spec_.mode(), std::move(metrics));
}

bool SweepRunner::warm_fork_eligible(const SweepOptions& options) const {
#if FAUCETS_HAVE_FORK
  // A durable store holds descriptors, unsafe to duplicate across fork(2),
  // and trace sources hold file positions the children would fight over.
  // Profiling measures host time, which a shared warm prefix would distort.
  return options.warm_fork && spec_.warmup_until() > 0.0 &&
         spec_.mode() == SweepMode::kGrid && !spec_.base().trace.has_value() &&
         !options.profile && spec_.base().grid.store.dir.empty();
#else
  (void)options;
  return false;
#endif
}

#if FAUCETS_HAVE_FORK
std::vector<RunResult> SweepRunner::run_forked(
    const SweepOptions& options) const {
  const std::vector<RunPoint> points = spec_.expand();
  std::vector<RunResult> results(points.size());
  std::size_t completed = 0;  // parent-side collection is single-threaded

  // Group run ids by everything-but-loss, in first-appearance order.
  std::vector<std::vector<std::size_t>> groups;
  std::map<std::string, std::size_t> group_index;
  for (const RunPoint& point : points) {
    const auto [it, inserted] =
        group_index.emplace(warm_group_key(point), groups.size());
    if (inserted) groups.emplace_back();
    groups[it->second].push_back(point.run_id);
  }

  const double warmup = spec_.warmup_until();
  for (const auto& group : groups) {
    // Warm the lead cell up to the fork point. Every cell in the group is
    // byte-identical until then: the fault gate (FaultConfig::active_from,
    // set by materialize) draws nothing before warmup, so the loss rate
    // has not mattered yet.
    core::Scenario scenario = spec_.materialize(points[group.front()]);
    const double fault_jitter = scenario.grid.faults.jitter;
    const auto grid = scenario.make_grid();
    const auto source = scenario.make_source();

    std::vector<pid_t> pids;
    std::vector<int> read_fds;
    int child_fd = -1;
    bool is_child = false;
    grid->set_pause_hook(warmup, [&]() -> bool {
      for (std::size_t i = 0; i < group.size(); ++i) {
        int fds[2];
        if (::pipe(fds) != 0) {
          throw std::runtime_error(std::string("warm fork: pipe: ") +
                                   std::strerror(errno));
        }
        const pid_t pid = ::fork();
        if (pid < 0) {
          ::close(fds[0]);
          ::close(fds[1]);
          throw std::runtime_error(std::string("warm fork: fork: ") +
                                   std::strerror(errno));
        }
        if (pid == 0) {
          // Forked cell: drop inherited descriptors, swap in this cell's
          // loss treatment (rates only — the fault RNG keeps its never-
          // advanced seeded state), and resume the warmed run here.
          ::close(fds[0]);
          for (const int sibling : read_fds) ::close(sibling);
          child_fd = fds[1];
          is_child = true;
          grid->set_fault_treatment(points[group[i]].loss, fault_jitter);
          return true;
        }
        ::close(fds[1]);
        pids.push_back(pid);
        read_fds.push_back(fds[0]);
      }
      return false;  // parent: abandon the warm run, the children carry on
    });

    const auto report = grid->run(*source);

    if (is_child) {
      std::string payload;
      try {
        payload = encode_metrics(grid_metrics(report));
      } catch (const std::exception& e) {
        write_all(child_fd, std::string("!\t") + e.what() + "\n");
        ::_exit(1);
      }
      write_all(child_fd, payload);
      ::close(child_fd);
      ::_exit(0);
    }

    // The run can end before warmup_until ever arrives (tiny workloads): the
    // hook never fired, nothing was forked — run the cells in-process.
    if (pids.empty()) {
      for (const std::size_t run_id : group) {
        RunResult result = execute(points[run_id], /*profile=*/false);
        if (options.sink != nullptr) options.sink->append(result.jsonl);
        results[run_id] = std::move(result);
        if (options.on_progress) options.on_progress(++completed, points.size());
      }
      continue;
    }

    // Parent: collect each cell's metrics and rebuild the records exactly
    // as execute() would have (make_result renders the same JSONL bytes).
    for (std::size_t i = 0; i < group.size(); ++i) {
      const std::string payload = read_all(read_fds[i]);
      ::close(read_fds[i]);
      int status = 0;
      while (::waitpid(pids[i], &status, 0) < 0 && errno == EINTR) {
      }
      const RunPoint& point = points[group[i]];
      if (!payload.empty() && payload[0] == '!') {
        throw std::runtime_error("warm-forked run " +
                                 std::to_string(point.run_id) +
                                 " failed: " + payload.substr(2));
      }
      if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        throw std::runtime_error("warm-forked run " +
                                 std::to_string(point.run_id) +
                                 " exited abnormally");
      }
      RunResult result =
          make_result(point, spec_.mode(), decode_metrics(payload));
      if (options.sink != nullptr) options.sink->append(result.jsonl);
      results[point.run_id] = std::move(result);
      if (options.on_progress) options.on_progress(++completed, points.size());
    }
  }
  return results;
}
#endif  // FAUCETS_HAVE_FORK

std::vector<RunResult> SweepRunner::run(const SweepOptions& options) const {
#if FAUCETS_HAVE_FORK
  if (warm_fork_eligible(options)) return run_forked(options);
#endif
  const std::vector<RunPoint> points = spec_.expand();
  std::vector<RunResult> results(points.size());
  std::vector<std::exception_ptr> errors(points.size());
  std::atomic<std::size_t> completed{0};

  {
    ThreadPool pool(options.threads);
    for (const RunPoint& point : points) {
      // Each task touches only its own slot; the pool's completion
      // synchronization publishes the writes before run() returns.
      pool.submit([this, &point, &results, &errors, &options, &completed,
                   total = points.size()] {
        try {
          RunResult result = execute(point, options.profile);
          if (options.sink != nullptr) options.sink->append(result.jsonl);
          results[point.run_id] = std::move(result);
          if (options.on_progress) {
            options.on_progress(
                completed.fetch_add(1, std::memory_order_relaxed) + 1, total);
          }
        } catch (...) {
          errors[point.run_id] = std::current_exception();
        }
      });
    }
    pool.wait_idle();
  }

  for (const auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }
  return results;
}

}  // namespace faucets::sweep
