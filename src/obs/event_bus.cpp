#include "obs/event_bus.hpp"

#include <ostream>

#include "common/contracts.hpp"

namespace graybox::obs {

const char* to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kSend:
      return "send";
    case EventKind::kDeliver:
      return "deliver";
    case EventKind::kDrop:
      return "drop";
    case EventKind::kLocalStep:
      return "local-step";
    case EventKind::kCsEnter:
      return "cs-enter";
    case EventKind::kCsExit:
      return "cs-exit";
    case EventKind::kFaultInjected:
      return "fault-injected";
    case EventKind::kWrapperCorrection:
      return "wrapper-correction";
    case EventKind::kMonitorViolation:
      return "monitor-violation";
    case EventKind::kLocalCorrection:
      return "local-correction";
  }
  return "unknown-event";
}

const char* fault_code_name(std::uint8_t code) {
  static constexpr const char* kNames[kFaultCodeCount] = {
      "message-drop",    "message-duplicate", "message-corrupt",
      "message-reorder", "spurious-message",  "process-corrupt",
      "channel-clear",   "process-crash",     "process-recover",
      "partition",       "partition-heal"};
  return code < kFaultCodeCount ? kNames[code] : nullptr;
}

namespace {

// Rendering vocabulary. These mirror net::to_string(MsgType) and
// me::to_string(TmeState) — duplicated here because obs sits *below* net
// and me in the layering (they record into the bus); both enums are
// spec-stable (the paper's three message kinds and three process states).
const char* message_type_name(std::uint8_t code) {
  switch (code) {
    case 0:
      return "request";
    case 1:
      return "reply";
    case 2:
      return "release";
    default:
      return "corrupt-type";
  }
}

const char* state_name(std::uint8_t code) {
  switch (code) {
    case 0:
      return "thinking";
    case 1:
      return "hungry";
    case 2:
      return "eating";
    default:
      return "corrupt-state";
  }
}

std::string message_text(const Event& e) {
  // Matches net::Message::to_string(): "type(counter.pid) from->to".
  std::string out = message_type_name(e.a);
  out += "(" + std::to_string(e.payload) + "." + std::to_string(e.aux) +
         ") " + std::to_string(e.pid) + "->" + std::to_string(e.peer);
  if (e.flags & Event::kFromWrapper) out += " [wrapper]";
  return out;
}

const char* local_predicate_name(std::uint8_t code) {
  // wrapper::LocalWrapper::Predicate; duplicated for the same layering
  // reason as above (obs sits below wrapper).
  switch (code) {
    case 0:
      return "req-tracks-clock";
    case 1:
      return "foreign-req";
    case 2:
      return "req-above-clock";
    default:
      return "corrupt-predicate";
  }
}

}  // namespace

EventBus::EventBus(const sim::Scheduler& sched, std::size_t capacity)
    : sched_(sched), capacity_(capacity) {
  if (capacity_ > 0) ring_.resize(capacity_);
}

void EventBus::note_keyed(const Event& e) {
  if (e.kind == EventKind::kMonitorViolation &&
      e.monitor < monitor_stats_.size()) {
    monitor_stats_[e.monitor].note(e.time);
  }
  if (e.kind == EventKind::kFaultInjected && e.a < kFaultCodeCount) {
    fault_stats_[e.a].note(e.time);
  }
}

void EventBus::retain(const Event& e) {
  const std::size_t slot = (head_ + size_) % capacity_;
  ring_[slot] = e;
  if (size_ < capacity_) {
    ++size_;
  } else {
    head_ = (head_ + 1) % capacity_;  // evict the oldest
  }
  ++total_;
}

const Event& EventBus::event(std::size_t i) const {
  GBX_EXPECTS(i < size_);
  return ring_[(head_ + i) % capacity_];
}

void EventBus::clear() {
  head_ = 0;
  size_ = 0;
  total_ = 0;
  for (KindStats& s : kind_stats_) s = KindStats{};
  for (KindStats& s : monitor_stats_) s = KindStats{};
  for (KindStats& s : fault_stats_) s = KindStats{};
}

void EventBus::dump(std::ostream& os, std::size_t last_n) const {
  const std::size_t start = size_ > last_n ? size_ - last_n : 0;
  for (std::size_t i = start; i < size_; ++i) {
    const Event& e = event(i);
    os << '[' << e.time << "] " << render(e) << '\n';
  }
}

void EventBus::set_monitor_names(std::vector<std::string> names) {
  monitor_names_ = std::move(names);
  monitor_stats_.assign(monitor_names_.size(), KindStats{});
}

std::string EventBus::render(const Event& e) const {
  switch (e.kind) {
    case EventKind::kSend:
      return "send " + message_text(e);
    case EventKind::kDeliver:
      return "recv " + message_text(e);
    case EventKind::kDrop:
      return "drop " + std::to_string(e.payload) + " message(s)";
    case EventKind::kLocalStep:
    case EventKind::kCsEnter:
    case EventKind::kCsExit:
      // Matches the legacy harness trace: "proc 0: thinking -> hungry".
      return "proc " + std::to_string(e.pid) + ": " + state_name(e.a) +
             " -> " + state_name(e.b);
    case EventKind::kFaultInjected: {
      const char* name = fault_code_name(e.a);
      std::string out = "fault ";
      out += name != nullptr ? name : "fault#" + std::to_string(e.a);
      if (e.pid != kNoProcess) out += " @proc " + std::to_string(e.pid);
      return out;
    }
    case EventKind::kWrapperCorrection:
      return "wrapper " + std::to_string(e.pid) + ": resend REQ to " +
             std::to_string(e.peer);
    case EventKind::kMonitorViolation: {
      std::string name = e.monitor < monitor_names_.size()
                             ? monitor_names_[e.monitor]
                             : "monitor#" + std::to_string(e.monitor);
      return "violation " + name;
    }
    case EventKind::kLocalCorrection:
      return "local-wrapper " + std::to_string(e.pid) + ": repair " +
             local_predicate_name(e.a);
  }
  return to_string(e.kind);
}

}  // namespace graybox::obs
