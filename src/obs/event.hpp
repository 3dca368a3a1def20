// Typed observability events: the vocabulary of "what happened" in a run.
//
// The paper's whole argument is about observable convergence (Section 2):
// a run stabilizes iff violations are confined to a prefix, and the
// interesting quantity is the divergent window between the last fault and
// the last violation. These events are the raw material for answering
// *how* a run converged — which clause fired, when wrapper actions
// corrected state, how traffic and violations decayed after a burst.
//
// An Event is a compact POD: sim-time, a kind, the acting process, an
// optional peer, and a handful of payload integers whose meaning depends on
// the kind. No strings are stored; human-readable text is rendered lazily
// at dump time (EventBus::render), so recording is an aggregate update
// plus, when a ring is sized, a slot write.
//
// This header also owns the fault-code space: the one table of fault codes
// and their names that the injector, the harness's lifecycle faults, the
// renderers, the timeline and the metrics all share.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/types.hpp"
#include "obs/provenance.hpp"

namespace graybox::obs {

enum class EventKind : std::uint8_t {
  kSend = 0,           ///< Network::send (pid -> peer, payload = ts.counter)
  kDeliver,            ///< message left a channel (pid = receiver)
  kDrop,               ///< message(s) destroyed by a fault (payload = count)
  kLocalStep,          ///< program transition other than CS enter/exit
  kCsEnter,            ///< h -> e (pid entered the critical section)
  kCsExit,             ///< e -> t (pid left the critical section)
  kFaultInjected,      ///< a fault was applied (a = fault code)
  kWrapperCorrection,  ///< W'j resent REQj to a stale peer (pid -> peer)
  kMonitorViolation,   ///< a spec monitor reported (monitor = index)
  kLocalCorrection,    ///< level-1 wrapper repaired local state (a = pred)
};
inline constexpr std::size_t kEventKindCount = 10;

const char* to_string(EventKind kind);

/// The fault-code space of kFaultInjected events (Event::a): the
/// injector's net::FaultKind values 0..6, then the lifecycle codes the
/// harness drives (the paper's §3.1 "processes ... fail, recover", plus
/// network partitions). EventBus::fault_stats() is indexed by it.
inline constexpr std::uint8_t kFaultCodeProcessCrash = 7;
inline constexpr std::uint8_t kFaultCodeProcessRecover = 8;
inline constexpr std::uint8_t kFaultCodePartition = 9;
inline constexpr std::uint8_t kFaultCodePartitionHeal = 10;
inline constexpr std::size_t kFaultCodeCount = 11;

/// Name of a fault code ("message-drop" ... "partition-heal"); nullptr for
/// codes beyond the space.
const char* fault_code_name(std::uint8_t code);

/// One recorded event. Field meaning by kind:
///
///   kSend / kDeliver        pid = sender, peer = receiver, a = MsgType,
///                           payload = timestamp counter, aux = timestamp
///                           pid, flags bit 0 = sent by a wrapper
///   kDrop                   payload = number of messages destroyed
///   kLocalStep/kCsEnter/
///   kCsExit                 pid = process, a = from-state, b = to-state
///                           (me::TmeState codes)
///   kFaultInjected          a = fault code (see fault_code_name),
///                           pid = corrupted / crashed / recovered process
///                           (process faults only)
///   kWrapperCorrection      pid = wrapped process, peer = stale peer
///   kMonitorViolation       monitor = index in the owning MonitorSet
///   kLocalCorrection        pid = repaired process, a = the violated
///                           predicate (wrapper::LocalWrapper::Predicate)
struct Event {
  SimTime time = 0;
  std::uint64_t payload = 0;
  ProcessId pid = kNoProcess;
  ProcessId peer = kNoProcess;
  std::uint32_t aux = 0;
  std::uint16_t monitor = 0;
  EventKind kind = EventKind::kSend;
  std::uint8_t a = 0;
  std::uint8_t b = 0;
  std::uint8_t flags = 0;

  /// Message uid for kSend/kDeliver (0 otherwise): lets the causal DAG pair
  /// each delivery with its exact send even under duplication and faults.
  std::uint64_t uid = 0;
  /// Active fault provenance at record time: the message's taint for
  /// kSend/kDeliver, the acting process's taint for transitions and
  /// corrections, the minted id for kFaultInjected, and the attributed
  /// root-cause set for kMonitorViolation. Empty when provenance is off.
  TaintSet taint{};

  static constexpr std::uint8_t kFromWrapper = 1u << 0;
};

/// Count / first-time / last-time aggregate of one event class. Maintained
/// by the EventBus for every kind (and per monitor, per fault kind) even
/// though the ring itself evicts: timelines need exact firsts and lasts.
struct KindStats {
  std::uint64_t count = 0;
  SimTime first = kNever;
  SimTime last = kNever;

  void note(SimTime t) {
    if (count == 0 || t < first) first = t;
    if (count == 0 || t > last) last = t;
    ++count;
  }
};

}  // namespace graybox::obs
