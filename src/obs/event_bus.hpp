// EventBus: the typed event hub of the observability layer.
//
// One bus per harness (or per hand-wired system). Producers — the network,
// the processes, the wrappers, the fault injector, the monitor set — hold a
// nullable pointer to it and record compact Events; the bus stamps the
// simulation time, always maintains exact count/first/last aggregates per
// event kind, per monitor, and per fault kind, and appends to a
// preallocated ring when one was sized. The aggregates are the run's one
// store of fault and violation facts: the harness's timeline, stabilization
// report and fault counts all read them, at any ring capacity.
//
// Cost model: record() with no ring (capacity 0) is one aggregate update
// plus a predicted branch; with a ring it adds a slot write. No allocation
// ever after construction. bench_substrate_micro measures both sides.
#pragma once

#include <array>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/event.hpp"
#include "sim/scheduler.hpp"

namespace graybox::obs {

class EventBus {
 public:
  /// A bus retaining the most recent `capacity` events. 0 retains none;
  /// the aggregates are exact either way.
  EventBus(const sim::Scheduler& sched, std::size_t capacity);

  /// True when the ring retains events (capacity > 0).
  bool enabled() const { return capacity_ != 0; }
  std::size_t capacity() const { return capacity_; }
  /// Current simulation time (what the next record() would be stamped with).
  SimTime now() const { return sched_.now(); }

  /// Record one event. `e.time` is overwritten with the scheduler's current
  /// time; every other field is the caller's. The aggregates always count
  /// it; the ring keeps it only when capacity > 0.
  void record(Event e) {
    e.time = sched_.now();
    kind_stats_[static_cast<std::size_t>(e.kind)].note(e.time);
    if (e.kind == EventKind::kMonitorViolation ||
        e.kind == EventKind::kFaultInjected)
      note_keyed(e);
    if (capacity_ != 0) retain(e);
  }

  // --- Retained ring (oldest first) -------------------------------------

  std::size_t size() const { return size_; }
  /// i-th retained event, 0 = oldest.
  const Event& event(std::size_t i) const;
  /// Total events ever retained by the ring, evicted ones included (0 with
  /// capacity 0; the aggregates count every event).
  std::uint64_t total_recorded() const { return total_; }
  /// Drop retained events and reset all aggregates.
  void clear();

  /// Print the ring's last `last_n` events, oldest first, one
  /// "[time] text" line each (text as render()).
  void dump(std::ostream& os, std::size_t last_n = 64) const;

  // --- Exact aggregates (survive eviction) ------------------------------

  const KindStats& kind_stats(EventKind kind) const {
    return kind_stats_[static_cast<std::size_t>(kind)];
  }
  /// Per-monitor violation aggregates, indexed like monitor_names().
  const std::vector<KindStats>& monitor_stats() const {
    return monitor_stats_;
  }
  /// Per-fault-code injection aggregates, indexed by fault code
  /// (kFaultCodeCount entries; fault_code_name labels them).
  const std::array<KindStats, kFaultCodeCount>& fault_stats() const {
    return fault_stats_;
  }

  // --- Monitor names (for rendering and timeline labels) ----------------

  /// Names of the monitors feeding kMonitorViolation events, in monitor
  /// index order. Also sizes monitor_stats().
  void set_monitor_names(std::vector<std::string> names);
  const std::vector<std::string>& monitor_names() const {
    return monitor_names_;
  }

  /// Human-readable one-line rendering (no leading "[time]"; dump() adds
  /// it).
  std::string render(const Event& e) const;

 private:
  /// Per-monitor / per-fault-code aggregate for a keyed event.
  void note_keyed(const Event& e);
  void retain(const Event& e);

  const sim::Scheduler& sched_;
  std::size_t capacity_;
  std::vector<Event> ring_;
  std::size_t head_ = 0;  ///< index of the oldest retained event
  std::size_t size_ = 0;
  std::uint64_t total_ = 0;
  KindStats kind_stats_[kEventKindCount];
  std::vector<KindStats> monitor_stats_;
  std::array<KindStats, kFaultCodeCount> fault_stats_{};
  std::vector<std::string> monitor_names_;
};

}  // namespace graybox::obs
