#include "net/fault_injector.hpp"

#include <tuple>

#include "common/contracts.hpp"

namespace graybox::net {

FaultMix FaultMix::all() {
  FaultMix mix;
  mix.channel_clear = true;
  return mix;
}

FaultMix FaultMix::channel_only() {
  FaultMix mix;
  mix.process_corrupt = false;
  return mix;
}

FaultMix FaultMix::process_only() {
  FaultMix mix;
  mix.message_drop = mix.message_duplicate = mix.message_corrupt = false;
  mix.message_reorder = mix.spurious_message = false;
  mix.process_corrupt = true;
  return mix;
}

FaultMix FaultMix::only(FaultKind kind) {
  FaultMix mix;
  mix.message_drop = mix.message_duplicate = mix.message_corrupt = false;
  mix.message_reorder = mix.spurious_message = mix.process_corrupt = false;
  mix.channel_clear = false;
  switch (kind) {
    case FaultKind::kMessageDrop:
      mix.message_drop = true;
      break;
    case FaultKind::kMessageDuplicate:
      mix.message_duplicate = true;
      break;
    case FaultKind::kMessageCorrupt:
      mix.message_corrupt = true;
      break;
    case FaultKind::kMessageReorder:
      mix.message_reorder = true;
      break;
    case FaultKind::kSpuriousMessage:
      mix.spurious_message = true;
      break;
    case FaultKind::kProcessCorrupt:
      mix.process_corrupt = true;
      break;
    case FaultKind::kChannelClear:
      mix.channel_clear = true;
      break;
  }
  return mix;
}

bool FaultMix::enabled(FaultKind kind) const {
  switch (kind) {
    case FaultKind::kMessageDrop:
      return message_drop;
    case FaultKind::kMessageDuplicate:
      return message_duplicate;
    case FaultKind::kMessageCorrupt:
      return message_corrupt;
    case FaultKind::kMessageReorder:
      return message_reorder;
    case FaultKind::kSpuriousMessage:
      return spurious_message;
    case FaultKind::kProcessCorrupt:
      return process_corrupt;
    case FaultKind::kChannelClear:
      return channel_clear;
  }
  return false;
}

std::vector<FaultKind> FaultMix::enabled_kinds() const {
  std::vector<FaultKind> kinds;
  for (std::size_t i = 0; i < kFaultKindCount; ++i) {
    const auto kind = static_cast<FaultKind>(i);
    if (enabled(kind)) kinds.push_back(kind);
  }
  return kinds;
}

FaultInjector::FaultInjector(sim::Scheduler& sched, Network& net, Rng rng,
                             CorruptProcessFn corrupt_process)
    : sched_(sched),
      net_(net),
      rng_(rng),
      corrupt_process_(std::move(corrupt_process)) {}

bool FaultInjector::draw_message(TargetedFault& f) {
  const std::size_t total = net_.in_flight();
  if (total == 0) return false;
  std::size_t pick = rng_.index(total);
  const std::size_t n = net_.size();
  for (ProcessId from = 0; from < n; ++from) {
    for (ProcessId to = 0; to < n; ++to) {
      if (from == to) continue;
      const std::size_t len = net_.channel(from, to).in_flight();
      if (pick < len) {
        f.a = from;
        f.b = to;
        f.index = static_cast<std::uint32_t>(pick);
        return true;
      }
      pick -= len;
    }
  }
  GBX_ASSERT(false && "in_flight total inconsistent with channels");
  return false;
}

bool FaultInjector::draw_channel(std::size_t min_in_flight, TargetedFault& f) {
  std::vector<std::pair<ProcessId, ProcessId>> eligible;
  const std::size_t n = net_.size();
  for (ProcessId from = 0; from < n; ++from) {
    for (ProcessId to = 0; to < n; ++to) {
      if (from != to && net_.channel(from, to).in_flight() >= min_in_flight)
        eligible.emplace_back(from, to);
    }
  }
  if (eligible.empty()) return false;
  std::tie(f.a, f.b) = eligible[rng_.index(eligible.size())];
  return true;
}

std::pair<ProcessId, ProcessId> FaultInjector::pick_pair() {
  GBX_EXPECTS(net_.size() >= 2);
  const auto from = static_cast<ProcessId>(rng_.index(net_.size()));
  auto to = static_cast<ProcessId>(rng_.index(net_.size() - 1));
  if (to >= from) ++to;
  return {from, to};
}

clk::Timestamp FaultInjector::random_timestamp() {
  // Log-uniform magnitude: shifting a raw 64-bit draw by a random amount
  // covers everything from 0 to astronomically large counters, exercising
  // both the "corrupted low" (deadlock-prone) and "corrupted high"
  // (clock-jump) recovery paths.
  const int shift = static_cast<int>(rng_.uniform(0, 63));
  clk::Timestamp ts;
  ts.counter = rng_.next() >> shift;
  ts.pid = static_cast<ProcessId>(rng_.index(net_.size()));
  return ts;
}

Message FaultInjector::random_message(ProcessId from, ProcessId to) {
  Message msg;
  msg.type = static_cast<MsgType>(rng_.uniform(0, 2));
  msg.from = from;
  msg.to = to;
  msg.ts = random_timestamp();
  return msg;
}

obs::ProvenanceId FaultInjector::mint(FaultKind kind, ProcessId pid) {
  if (prov_ == nullptr) return obs::kNoProvenance;
  return prov_->mint(static_cast<std::uint8_t>(kind), pid, sched_.now());
}

void FaultInjector::note(FaultKind kind, ProcessId pid, std::uint64_t dropped,
                         obs::ProvenanceId id) {
  kind_stats_[static_cast<std::size_t>(kind)].note(sched_.now());
  if (first_fault_time_ == kNever) first_fault_time_ = sched_.now();
  last_fault_time_ = sched_.now();
  if (bus_ != nullptr) {
    obs::Event e;
    e.kind = obs::EventKind::kFaultInjected;
    e.a = static_cast<std::uint8_t>(kind);
    e.pid = pid;
    e.payload = dropped;
    e.taint.add(id);
    bus_->record(e);
    if (dropped > 0) {
      obs::Event d;
      d.kind = obs::EventKind::kDrop;
      d.payload = dropped;
      d.taint.add(id);
      bus_->record(d);
    }
  }
  if (on_fault_) on_fault_(kind);
}

void FaultInjector::taint_in_flight(Channel& ch, std::size_t index,
                                    obs::ProvenanceId id) {
  if (id == obs::kNoProvenance) return;
  ch.fault_taint(index, id);
  obs::TaintSet carried;
  carried.add(id);
  prov_->note_message_taint(carried);
}

bool FaultInjector::inject(FaultKind kind) {
  TargetedFault f;
  f.code = static_cast<std::uint8_t>(kind);
  switch (kind) {
    case FaultKind::kMessageDrop:
    case FaultKind::kMessageDuplicate:
    case FaultKind::kMessageCorrupt:
      if (!draw_message(f)) return false;
      break;
    case FaultKind::kMessageReorder: {
      // Reorder needs a channel holding at least two messages; pick among
      // those rather than failing on a random pick.
      if (!draw_channel(2, f)) return false;
      const std::size_t len = net_.channel(f.a, f.b).in_flight();
      f.index = static_cast<std::uint32_t>(rng_.index(len));
      f.index2 = static_cast<std::uint32_t>(rng_.index(len - 1));
      if (f.index2 >= f.index) ++f.index2;
      break;
    }
    case FaultKind::kSpuriousMessage:
      if (net_.size() < 2) return false;
      std::tie(f.a, f.b) = pick_pair();
      break;
    case FaultKind::kProcessCorrupt:
      if (corrupt_process_ == nullptr) return false;
      f.a = static_cast<ProcessId>(rng_.index(net_.size()));
      break;
    case FaultKind::kChannelClear:
      // Clearing an empty channel perturbs nothing; only nonempty channels
      // are targets, so a false return really means "no fault applied".
      if (!draw_channel(1, f)) return false;
      break;
  }
  return inject_targeted(f);
}

bool FaultInjector::inject_targeted(const TargetedFault& f) {
  if (f.code >= kFaultKindCount) return false;
  const auto kind = static_cast<FaultKind>(f.code);
  const std::size_t n = net_.size();
  if (kind == FaultKind::kProcessCorrupt) {
    if (corrupt_process_ == nullptr || f.a >= n) return false;
    corrupt_process_(f.a, rng_);
    const obs::ProvenanceId id = mint(kind, f.a);
    if (prov_ != nullptr) prov_->taint_process(f.a, id);
    note(kind, f.a, 0, id);
    return true;
  }
  if (f.a >= n || f.b >= n || f.a == f.b) return false;
  Channel& ch = net_.channel(f.a, f.b);
  const std::size_t len = ch.in_flight();
  std::uint64_t dropped = 0;
  obs::ProvenanceId id = obs::kNoProvenance;
  switch (kind) {
    case FaultKind::kMessageDrop:
      if (f.index >= len) return false;
      ch.fault_drop(f.index);
      // The carrier is destroyed; the minted id only marks the injection
      // (its blast radius is the silence the drop causes, not spread).
      id = mint(kind);
      dropped = 1;
      break;
    case FaultKind::kMessageDuplicate:
      if (f.index >= len) return false;
      ch.fault_duplicate(f.index);
      // The duplicate (placed right behind the original) is the faulty
      // artifact; the original message stays clean.
      id = mint(kind);
      taint_in_flight(ch, f.index + 1, id);
      break;
    case FaultKind::kMessageCorrupt: {
      if (f.index >= len) return false;
      const Message& original = ch.contents()[f.index];
      ch.fault_corrupt(f.index, random_message(original.from, original.to));
      id = mint(kind);
      taint_in_flight(ch, f.index, id);
      break;
    }
    case FaultKind::kMessageReorder:
      if (f.index == f.index2 || f.index >= len || f.index2 >= len)
        return false;
      ch.fault_swap(f.index, f.index2);
      // Both swapped messages are now out of FIFO order.
      id = mint(kind);
      taint_in_flight(ch, f.index, id);
      taint_in_flight(ch, f.index2, id);
      break;
    case FaultKind::kSpuriousMessage: {
      Message fabricated = random_message(f.a, f.b);
      id = mint(kind);
      if (id != obs::kNoProvenance) {
        fabricated.taint.add(id);
        prov_->note_message_taint(fabricated.taint);
      }
      ch.fault_inject(fabricated);
      break;
    }
    case FaultKind::kChannelClear:
      if (len == 0) return false;
      dropped = len;
      ch.fault_clear();
      id = mint(kind);
      break;
    case FaultKind::kProcessCorrupt:  // applied above
      break;
  }
  note(kind, kNoProcess, dropped, id);
  return true;
}

bool FaultInjector::inject_random(const FaultMix& mix) {
  std::vector<FaultKind> kinds = mix.enabled_kinds();
  // Try kinds in random order until one applies.
  while (!kinds.empty()) {
    const std::size_t i = rng_.index(kinds.size());
    const FaultKind kind = kinds[i];
    if (inject(kind)) return true;
    kinds.erase(kinds.begin() + static_cast<std::ptrdiff_t>(i));
  }
  return false;
}

void FaultInjector::burst(std::size_t count, const FaultMix& mix) {
  for (std::size_t i = 0; i < count; ++i) {
    if (!inject_random(mix)) return;
  }
}

void FaultInjector::schedule_burst(SimTime at, std::size_t count,
                                   FaultMix mix) {
  sched_.schedule_at(at, [this, count, mix] { burst(count, mix); });
}

void FaultInjector::schedule_continuous(SimTime start, SimTime end,
                                        SimTime interval, FaultMix mix) {
  GBX_EXPECTS(interval > 0);
  for (SimTime t = start; t < end; t += interval) {
    sched_.schedule_at(t, [this, mix] { inject_random(mix); });
  }
}

std::uint64_t FaultInjector::total_injected() const {
  std::uint64_t total = 0;
  for (const auto& s : kind_stats_) total += s.count;
  return total;
}

}  // namespace graybox::net
