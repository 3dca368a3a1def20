// The traced drive: per-layer cost measured from outside the program.
//
// Every number here comes from timing or counting calls into a layer's
// public functions; nothing inside src/ is instrumented. A `deliver` step
// therefore still bundles scheduler dispatch, the channel's deliver, the
// protocol handler, clock stamping and any sends the handler makes;
// splitting those needs spans inside the program.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>

#include "workloads.hpp"

namespace gbx_bench {

/// Step classes, in the order a step is tested for them.
enum StepClass : std::size_t {
  kFault = 0,   ///< injector or sustained-load arrival, lifecycle change
  kDeliver,     ///< a channel delivery (dispatch + handler + sends)
  kWrapperL2,   ///< a level-2 wrapper evaluation (plus its resends)
  kWrapperL1,   ///< a level-1 wrapper check (plus its correction)
  kClient,      ///< everything else: client polls and think/eat timers
  kStepClasses
};

const char* step_class_name(StepClass c);

/// Per-layer totals accumulated over traced trials.
struct LayerTotals {
  // sim: step counts and self time (step minus the observation span).
  std::array<std::uint64_t, kStepClasses> steps{};
  std::array<std::uint64_t, kStepClasses> self_ns{};
  double pending_sum = 0;    ///< Scheduler::pending() after each step
  double in_flight_sum = 0;  ///< Network::in_flight() after each step
  // net
  std::uint64_t sent = 0;
  std::uint64_t sent_wrapper = 0;
  std::uint64_t delivered = 0;
  // clock: stamps of delivered messages
  std::uint64_t stamp_entries = 0;
  std::uint64_t stamps_dense = 0;
  std::uint64_t stamps_empty = 0;
  // me
  std::uint64_t cs_entries = 0;
  std::uint64_t requests_issued = 0;
  // wrapper
  std::uint64_t l2_evaluations = 0;
  std::uint64_t l2_resends = 0;
  std::uint64_t l1_checks = 0;
  std::uint64_t l1_corrections = 0;
  // lspec
  std::uint64_t observed = 0;
  std::uint64_t capture_ns = 0;
  std::uint64_t observe_ns = 0;
  std::uint64_t dirty_none = 0;
  std::uint64_t dirty_pid = 0;
  std::uint64_t dirty_all = 0;
  /// Keyed by metric suffix (me1, invariant_i, cs_entry_spec, ...).
  std::map<std::string, std::uint64_t> monitor_ns;
  // Span accounting for the coverage self-check.
  std::uint64_t span_ns = 0;  ///< constructor + steps + monitor finish
  std::uint64_t wall_ns = 0;  ///< whole traced trials

  std::uint64_t total_steps() const;
};

/// Run one trial traced, adding its layer costs to `totals`.
Facts run_trial_traced(const Trial& trial, LayerTotals& totals);

/// A monitor the battery can install, and its lspec.monitor_ns.* suffix.
struct MonitorMetric {
  const char* monitor;
  const char* suffix;
};

/// Every monitor of the battery, in battery order.
const std::array<MonitorMetric, 10>& monitor_metrics();

}  // namespace gbx_bench
