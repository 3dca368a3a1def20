// The repo benchmark's workloads and the two ways it drives them.
//
// A workload is a fixed set of runs built from the workload seed: harness
// trials (one SystemHarness constructed, driven through warmup / fault /
// observation / drain, then judged) or mc::Explorer sweep cells. Each set
// is driven two ways:
//
//   * untraced — exactly as the experiment benches drive a harness
//     (run_for / drain / stats / stabilization_report); end-to-end
//     metrics come from this path only;
//   * traced — the same trials stepped one event at a time from outside,
//     with the harness's own monitors off and a benchmark-owned snapshot
//     source and monitor battery in their place, timing each call into a
//     layer's public functions (traced.cpp).
//
// Both paths return the trial's simulated-time Facts; the benchmark
// requires them to be equal, which also proves the benchmark-owned
// observation path judges exactly like the harness's.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/harness.hpp"
#include "mc/explorer.hpp"

namespace gbx_bench {

using graybox::SimTime;

/// One harness run of a workload.
struct Trial {
  std::string label;
  graybox::core::HarnessConfig config;
  SimTime warmup = 0;
  /// Random faults injected at the end of warmup (0 = none).
  std::size_t burst = 0;
  SimTime observation = 0;
  SimTime drain = 0;
};

/// One mc_sweep cell.
struct McCell {
  std::string label;
  graybox::mc::ExplorerConfig config;
};

struct Workload {
  std::string name;
  std::vector<Trial> trials;  ///< harness workloads
  std::vector<McCell> cells;  ///< mc_sweep
  bool fault_free = false;    ///< trials must show no safety violation
  bool is_mc() const { return !cells.empty(); }
};

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Build a workload's fixed run set from the workload seed. Requires a
/// name from workload_names().
Workload make_workload(const std::string& name, std::uint64_t seed);

/// Simulated-time facts of one harness trial. A pure function of the
/// trial's config and schedule, so every path that runs the trial must
/// produce equal Facts.
struct Facts {
  std::uint64_t events = 0;
  std::uint64_t messages = 0;
  std::uint64_t wrapper_messages = 0;
  std::uint64_t cs_entries = 0;
  std::uint64_t requests_issued = 0;
  std::uint64_t served = 0;  ///< ME2 completed hungry->eating waits
  std::uint64_t faults = 0;  ///< injector faults + lifecycle faults
  /// Per monitor, in battery order.
  std::vector<std::pair<std::string, std::uint64_t>> violations;
  std::uint64_t safety_violations = 0;  ///< ME1 + ME3 + InvariantI + MutualBelief
  bool starvation = false;
  SimTime last_fault = graybox::kNever;
  SimTime last_safety_violation = graybox::kNever;
  /// last_safety_violation - last_fault (0 when clean after the fault).
  SimTime latency = 0;

  friend bool operator==(const Facts&, const Facts&) = default;
  std::string describe() const;
};

/// Host-time breakdown of one untraced trial.
struct TrialTiming {
  std::uint64_t setup_ns = 0;    ///< SystemHarness constructor
  std::uint64_t sim_ns = 0;      ///< start() through drain()
  std::uint64_t stats_ns = 0;    ///< stats() + stabilization_report()
  std::uint64_t observe_ns = 0;  ///< RunStats::observe_ns
};

/// Run one trial untraced: the experiment benches' drive sequence.
/// `with_obs` additionally turns collect_metrics and provenance on (the
/// obs.* pair); `stats` receives the run's RunStats.
Facts run_trial(const Trial& trial, TrialTiming& timing, bool with_obs,
                graybox::core::RunStats* stats = nullptr);

/// Monotonic host clock in nanoseconds.
std::uint64_t now_ns();

/// Simulated-time facts of one mc cell.
struct McFacts {
  bool found = false;
  std::string kind;
  graybox::mc::ExplorerStats stats;

  friend bool operator==(const McFacts& a, const McFacts& b) {
    const auto& x = a.stats;
    const auto& y = b.stats;
    return a.found == b.found && a.kind == b.kind &&
           x.executions == y.executions &&
           x.choice_points == y.choice_points &&
           x.alternatives == y.alternatives &&
           x.pruned_sleep == y.pruned_sleep &&
           x.pruned_delay == y.pruned_delay &&
           x.faults_placed == y.faults_placed;
  }
};

McFacts run_cell(const McCell& cell);

}  // namespace gbx_bench
