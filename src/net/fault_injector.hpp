// Adversarial fault injection implementing the paper's fault model
// (Section 3.1): "messages [may] be corrupted, lost, or duplicated at any
// time. Moreover, processes (respectively channels) can be improperly
// initialized, fail, recover, or their state could be transiently (and
// arbitrarily) corrupted at any time. Stabilization is desired
// notwithstanding the occurrence of any finite number of these faults."
//
// The injector perturbs channels directly and perturbs process state via a
// callback supplied by the harness (the process layer sits above this one).
// Every perturbation draws from a seeded RNG, so an adversarial run is
// replayable. Every fault is applied by one function, inject_targeted: a
// random fault (inject) only draws its target, and the model checker and a
// replayed trace name theirs. The injector records the time of the last
// injected fault; stabilization latency is always measured from that
// instant.
#pragma once

#include <array>
#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "net/network.hpp"
#include "obs/event_bus.hpp"
#include "sim/scheduler.hpp"

namespace graybox::net {

/// The injector's fault kinds: fault codes 0..6 of the observability
/// bus's code space (obs/event.hpp), which appends the harness-driven
/// lifecycle codes after them.
enum class FaultKind : std::uint8_t {
  kMessageDrop = 0,
  kMessageDuplicate,
  kMessageCorrupt,
  kMessageReorder,
  kSpuriousMessage,
  kProcessCorrupt,
  kChannelClear,
};
inline constexpr std::size_t kFaultKindCount = 7;
static_assert(static_cast<std::size_t>(FaultKind::kChannelClear) + 1 ==
                  kFaultKindCount,
              "FaultKind must cover fault codes 0..6");
static_assert(kFaultKindCount == obs::kFaultCodeProcessCrash,
              "the lifecycle fault codes follow the FaultKind codes");

using obs::kFaultCodeCount;
using obs::kFaultCodePartition;
using obs::kFaultCodePartitionHeal;
using obs::kFaultCodeProcessCrash;
using obs::kFaultCodeProcessRecover;

inline const char* to_string(FaultKind kind) {
  return obs::fault_code_name(static_cast<std::uint8_t>(kind));
}

/// Which fault kinds an adversary may use.
struct FaultMix {
  bool message_drop = true;
  bool message_duplicate = true;
  bool message_corrupt = true;
  bool message_reorder = true;
  bool spurious_message = true;
  bool process_corrupt = true;
  bool channel_clear = false;  // rarely useful in random mixes; on-demand

  static FaultMix all();
  static FaultMix channel_only();
  static FaultMix process_only();
  static FaultMix only(FaultKind kind);

  bool enabled(FaultKind kind) const;
  std::vector<FaultKind> enabled_kinds() const;
};

/// One fully specified fault application — what the model checker (src/mc)
/// enumerates and what a replayed ScheduleTrace re-applies. `code` spans
/// the full fault-code space: FaultKind values are applied by
/// FaultInjector::inject_targeted; the lifecycle codes (crash / recover /
/// partition / heal) are dispatched by the harness, which owns processes.
struct TargetedFault {
  std::uint8_t code = 0;
  /// Channel source for message faults; corrupted / crashed / recovered
  /// pid for process faults.
  ProcessId a = kNoProcess;
  /// Channel destination for message faults.
  ProcessId b = kNoProcess;
  /// In-flight index (drop / duplicate / corrupt / first swap position).
  std::uint32_t index = 0;
  /// Second in-flight index (reorder swaps index <-> index2).
  std::uint32_t index2 = 0;
  /// Bipartition mask (kFaultCodePartition only): bit p puts process p on
  /// side 1. Processes with pid >= 64 sit on side 0.
  std::uint64_t mask = 0;
};

class FaultInjector {
 public:
  /// Arbitrarily corrupts the state of one process; supplied by the harness
  /// because processes live in a layer above the network.
  using CorruptProcessFn = std::function<void(ProcessId, Rng&)>;

  FaultInjector(sim::Scheduler& sched, Network& net, Rng rng,
                CorruptProcessFn corrupt_process);

  /// Apply one fault of the given kind right now: draw a random target,
  /// then apply it through inject_targeted. Returns false when the kind has
  /// no applicable target (e.g. a message fault with no message in flight);
  /// no fault is recorded in that case.
  bool inject(FaultKind kind);

  /// Apply one fault of a random enabled kind. Kinds whose targets are
  /// absent are skipped; returns false if nothing was applicable.
  bool inject_random(const FaultMix& mix);

  /// Apply one fully specified fault (FaultKind codes only; lifecycle
  /// codes are the harness's job). Returns false when the target no longer
  /// exists — an index past the backlog, an empty channel — so replaying a
  /// shrunk trace against drifted state degrades to a no-op instead of
  /// tripping the channel contracts. Content randomness (corrupt payloads,
  /// spurious messages, process corruption) still draws from the seeded
  /// injector RNG, so a fixed call sequence is deterministic.
  bool inject_targeted(const TargetedFault& f);

  /// Apply up to `count` random faults right now.
  void burst(std::size_t count, const FaultMix& mix);

  /// Schedule a burst at an absolute time.
  void schedule_burst(SimTime at, std::size_t count, FaultMix mix);

  /// Inject one random fault every `interval` ticks in [start, end).
  void schedule_continuous(SimTime start, SimTime end, SimTime interval,
                           FaultMix mix);

  /// Fabricate an adversarial message payload (log-uniform magnitude
  /// timestamp, random type). Public so scenario tests can reuse it.
  Message random_message(ProcessId from, ProcessId to);

  /// Time of the most recent successfully injected fault; kNever if none.
  SimTime last_fault_time() const { return last_fault_time_; }
  /// Time of the first successfully injected fault; kNever if none. Start
  /// of the fault burst in the stabilization timeline.
  SimTime first_fault_time() const { return first_fault_time_; }

  std::uint64_t count(FaultKind kind) const {
    return kind_stats_[static_cast<std::size_t>(kind)].count;
  }
  /// Exact count / first / last aggregate per fault kind.
  const obs::KindStats& kind_stats(FaultKind kind) const {
    return kind_stats_[static_cast<std::size_t>(kind)];
  }
  std::uint64_t total_injected() const;

  /// Attach the observability bus; every injected fault is recorded as a
  /// kFaultInjected event (plus kDrop for destroyed messages).
  void set_event_bus(obs::EventBus* bus) { bus_ = bus; }

  /// Attach the provenance tracker; every applied fault then mints a
  /// deterministic provenance id and taints its target (the in-flight
  /// message it tampered with, or the corrupted process). nullptr (the
  /// default) disables.
  void set_provenance(obs::ProvenanceTracker* prov) { prov_ = prov; }

  /// Harness hook fired after every successfully injected fault (the
  /// reconvergence tracker keys its windows off fault arrivals).
  void set_fault_observer(std::function<void(FaultKind)> fn) {
    on_fault_ = std::move(fn);
  }

 private:
  /// Draw a uniformly random in-flight message across all channels into
  /// f.a / f.b / f.index; false if none is in flight.
  bool draw_message(TargetedFault& f);
  /// Draw a uniformly random channel holding at least `min_in_flight`
  /// messages into f.a / f.b; false if there is none.
  bool draw_channel(std::size_t min_in_flight, TargetedFault& f);
  /// Pick a random ordered process pair (requires n >= 2).
  std::pair<ProcessId, ProcessId> pick_pair();
  clk::Timestamp random_timestamp();
  /// Account one applied fault: bump the per-kind aggregate, stamp
  /// first/last fault times, and emit bus events. `pid` names the corrupted
  /// process (process faults only); `dropped` counts messages destroyed;
  /// `id` is the fault's minted provenance id (0 when tracking is off).
  void note(FaultKind kind, ProcessId pid = kNoProcess,
            std::uint64_t dropped = 0, obs::ProvenanceId id = 0);
  /// Mint the provenance id for one applied fault (0 when tracking is off).
  obs::ProvenanceId mint(FaultKind kind, ProcessId pid = kNoProcess);
  /// Taint the in-flight carrier the fault tampered with (no-op id 0).
  void taint_in_flight(Channel& ch, std::size_t index, obs::ProvenanceId id);

  sim::Scheduler& sched_;
  Network& net_;
  Rng rng_;
  CorruptProcessFn corrupt_process_;
  std::array<obs::KindStats, kFaultKindCount> kind_stats_{};
  SimTime first_fault_time_ = kNever;
  SimTime last_fault_time_ = kNever;
  obs::EventBus* bus_ = nullptr;
  obs::ProvenanceTracker* prov_ = nullptr;
  std::function<void(FaultKind)> on_fault_;
};

}  // namespace graybox::net
