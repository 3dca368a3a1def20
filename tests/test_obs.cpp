// The observability layer: typed EventBus (ring + exact aggregates) and its
// "[time] text" dump, metrics registry and its engine-side aggregate fold,
// stabilization timelines, and the Perfetto export — plus the load-bearing
// guarantees that (a) every exported metric/timeline artifact is
// byte-identical across --jobs values and repeated runs, and (b) the bus
// aggregates are the one store of fault and violation facts: the ring's
// capacity moves none of them.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/report.hpp"
#include "core/engine.hpp"
#include "core/harness.hpp"
#include "core/stabilization.hpp"
#include "net/fault_injector.hpp"
#include "obs/event_bus.hpp"
#include "obs/metrics.hpp"
#include "obs/perfetto.hpp"
#include "obs/timeline.hpp"
#include "sim/scheduler.hpp"

namespace graybox {
namespace {

using obs::Event;
using obs::EventBus;
using obs::EventKind;

// --- EventBus: ring, aggregates, rendering -----------------------------------

Event send_event(ProcessId from, ProcessId to, std::uint64_t counter = 0) {
  Event e;
  e.kind = EventKind::kSend;
  e.pid = from;
  e.peer = to;
  e.payload = counter;
  return e;
}

TEST(EventBus, StampsSchedulerTimeAndRetainsOldestFirst) {
  sim::Scheduler sched;
  EventBus bus(sched, 16);
  EXPECT_TRUE(bus.enabled());
  for (const SimTime t : {3, 7, 7, 12}) {
    sched.schedule_after(t - sched.now(),
                         [&bus] { bus.record(send_event(0, 1)); });
    while (sched.step()) {
    }
  }
  ASSERT_EQ(bus.size(), 4u);
  EXPECT_EQ(bus.total_recorded(), 4u);
  const SimTime expected[] = {3, 7, 7, 12};
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(bus.event(i).time, expected[i]) << i;
  }
  EXPECT_EQ(bus.kind_stats(EventKind::kSend).count, 4u);
  EXPECT_EQ(bus.kind_stats(EventKind::kSend).first, 3u);
  EXPECT_EQ(bus.kind_stats(EventKind::kSend).last, 12u);
  EXPECT_EQ(bus.kind_stats(EventKind::kDeliver).count, 0u);
  EXPECT_EQ(bus.kind_stats(EventKind::kDeliver).first, kNever);
}

TEST(EventBus, DisabledBusRecordsNothing) {
  // Capacity 0 retains nothing in the ring, but the aggregates are exact.
  sim::Scheduler sched;
  EventBus bus(sched, 0);
  bus.set_monitor_names({"ME1"});
  EXPECT_FALSE(bus.enabled());
  bus.record(send_event(0, 1));
  sched.schedule_at(4, [&bus] {
    bus.record(send_event(1, 0));
    Event v;
    v.kind = EventKind::kMonitorViolation;
    v.monitor = 0;
    bus.record(v);
    Event f;
    f.kind = EventKind::kFaultInjected;
    f.a = net::kFaultCodePartition;
    bus.record(f);
  });
  while (sched.step()) {
  }
  EXPECT_EQ(bus.size(), 0u);
  EXPECT_EQ(bus.total_recorded(), 0u);
  EXPECT_EQ(bus.kind_stats(EventKind::kSend).count, 2u);
  EXPECT_EQ(bus.kind_stats(EventKind::kSend).first, 0u);
  EXPECT_EQ(bus.kind_stats(EventKind::kSend).last, 4u);
  EXPECT_EQ(bus.monitor_stats()[0].count, 1u);
  EXPECT_EQ(bus.monitor_stats()[0].first, 4u);
  EXPECT_EQ(bus.fault_stats()[net::kFaultCodePartition].count, 1u);
  EXPECT_EQ(bus.fault_stats()[net::kFaultCodePartition].last, 4u);
  EXPECT_EQ(bus.kind_stats(EventKind::kFaultInjected).count, 1u);
  std::ostringstream os;
  bus.dump(os);
  EXPECT_EQ(os.str(), "");
}

TEST(EventBus, RingEvictsOldestButAggregatesStayExact) {
  sim::Scheduler sched;
  EventBus bus(sched, 3);
  for (std::uint64_t i = 1; i <= 10; ++i) {
    sched.schedule_after(1, [&bus, i] { bus.record(send_event(0, 1, i)); });
    while (sched.step()) {
    }
  }
  // Only the last 3 are retained...
  ASSERT_EQ(bus.size(), 3u);
  EXPECT_EQ(bus.event(0).payload, 8u);
  EXPECT_EQ(bus.event(1).payload, 9u);
  EXPECT_EQ(bus.event(2).payload, 10u);
  // ...but counts and first/last survive eviction exactly.
  EXPECT_EQ(bus.total_recorded(), 10u);
  EXPECT_EQ(bus.kind_stats(EventKind::kSend).count, 10u);
  EXPECT_EQ(bus.kind_stats(EventKind::kSend).first, 1u);
  EXPECT_EQ(bus.kind_stats(EventKind::kSend).last, 10u);
}

TEST(EventBus, PerMonitorAndPerFaultAggregates) {
  sim::Scheduler sched;
  EventBus bus(sched, 8);
  bus.set_monitor_names({"ME1", "ME2"});
  ASSERT_EQ(bus.monitor_stats().size(), 2u);
  // The name table covers the injector's kinds plus the lifecycle codes
  // (crash/recover/partition/heal) the harness records.
  ASSERT_EQ(bus.fault_stats().size(), net::kFaultCodeCount);

  auto at = [&](SimTime delay, Event e) {
    sched.schedule_after(delay, [&bus, e] { bus.record(e); });
    while (sched.step()) {
    }
  };
  Event v;
  v.kind = EventKind::kMonitorViolation;
  v.monitor = 1;
  at(5, v);
  at(2, v);  // t = 7
  Event f;
  f.kind = EventKind::kFaultInjected;
  f.a = static_cast<std::uint8_t>(net::FaultKind::kChannelClear);
  at(1, f);  // t = 8

  EXPECT_EQ(bus.monitor_stats()[0].count, 0u);
  EXPECT_EQ(bus.monitor_stats()[1].count, 2u);
  EXPECT_EQ(bus.monitor_stats()[1].first, 5u);
  EXPECT_EQ(bus.monitor_stats()[1].last, 7u);
  const auto clear = static_cast<std::size_t>(net::FaultKind::kChannelClear);
  EXPECT_EQ(bus.fault_stats()[clear].count, 1u);
  EXPECT_EQ(bus.fault_stats()[clear].first, 8u);
}

TEST(EventBus, ClearResetsRingAndAggregates) {
  sim::Scheduler sched;
  EventBus bus(sched, 4);
  bus.set_monitor_names({"ME1"});
  Event v;
  v.kind = EventKind::kMonitorViolation;
  v.monitor = 0;
  bus.record(v);
  bus.record(send_event(0, 1));
  ASSERT_EQ(bus.size(), 2u);
  bus.clear();
  EXPECT_EQ(bus.size(), 0u);
  EXPECT_EQ(bus.total_recorded(), 0u);
  EXPECT_EQ(bus.kind_stats(EventKind::kSend).count, 0u);
  EXPECT_EQ(bus.monitor_stats()[0].count, 0u);
  // The bus remains usable after clear().
  bus.record(send_event(2, 3));
  EXPECT_EQ(bus.size(), 1u);
  EXPECT_EQ(bus.total_recorded(), 1u);
}

TEST(EventBus, RenderMatchesLegacyTraceText) {
  sim::Scheduler sched;
  EventBus bus(sched, 4);
  bus.set_monitor_names({"ME1"});

  Event send = send_event(0, 1, 5);
  send.a = 0;  // request
  send.aux = 0;
  EXPECT_EQ(bus.render(send), "send request(5.0) 0->1");
  send.flags = Event::kFromWrapper;
  EXPECT_EQ(bus.render(send), "send request(5.0) 0->1 [wrapper]");

  Event recv = send_event(1, 0, 3);
  recv.kind = EventKind::kDeliver;
  recv.a = 1;  // reply
  recv.aux = 2;
  EXPECT_EQ(bus.render(recv), "recv reply(3.2) 1->0");

  Event drop;
  drop.kind = EventKind::kDrop;
  drop.payload = 4;
  EXPECT_EQ(bus.render(drop), "drop 4 message(s)");

  Event step;
  step.kind = EventKind::kLocalStep;
  step.pid = 0;
  step.a = 0;  // thinking
  step.b = 1;  // hungry
  EXPECT_EQ(bus.render(step), "proc 0: thinking -> hungry");

  Event fault;
  fault.kind = EventKind::kFaultInjected;
  fault.a = static_cast<std::uint8_t>(net::FaultKind::kProcessCorrupt);
  fault.pid = 2;
  EXPECT_EQ(bus.render(fault),
            std::string("fault ") +
                net::to_string(net::FaultKind::kProcessCorrupt) + " @proc 2");

  Event resend;
  resend.kind = EventKind::kWrapperCorrection;
  resend.pid = 1;
  resend.peer = 3;
  EXPECT_EQ(bus.render(resend), "wrapper 1: resend REQ to 3");

  Event viol;
  viol.kind = EventKind::kMonitorViolation;
  viol.monitor = 0;
  EXPECT_EQ(bus.render(viol), "violation ME1");
  viol.monitor = 9;  // out of table
  EXPECT_EQ(bus.render(viol), "violation monitor#9");
}

TEST(EventBus, RendersAllElevenFaultCodeNames) {
  // Golden text for the full fault-code space: injector kinds 0-6 plus the
  // lifecycle codes 7-10. Pinned in one place so a renamed code shows up as
  // a test diff, not as a silently relabeled trace.
  const char* const kGolden[net::kFaultCodeCount] = {
      "message-drop",   "message-duplicate", "message-corrupt",
      "message-reorder", "spurious-message", "process-corrupt",
      "channel-clear",  "process-crash",     "process-recover",
      "partition",      "partition-heal"};
  sim::Scheduler sched;
  EventBus bare(sched, 4);
  for (std::uint8_t code = 0; code < net::kFaultCodeCount; ++code) {
    Event f;
    f.kind = EventKind::kFaultInjected;
    f.a = code;
    const std::string expected = std::string("fault ") + kGolden[code];
    EXPECT_EQ(bare.render(f), expected) << unsigned{code};
    EXPECT_STREQ(obs::fault_code_name(code), kGolden[code]);
  }
  // Past the table: numeric fallback, never a null or a stale label.
  Event f;
  f.kind = EventKind::kFaultInjected;
  f.a = 42;
  EXPECT_EQ(bare.render(f), "fault fault#42");
}

TEST(EventBus, BareBusKeepsPerCodeFaultFacts) {
  // A hand-wired bus registers nothing, yet its per-code fault aggregates,
  // timeline entries and Perfetto lifecycle slices are all there.
  sim::Scheduler sched;
  EventBus bus(sched, 16);
  auto lifecycle = [&](SimTime t, std::uint8_t code) {
    sched.schedule_at(t, [&bus, code] {
      Event e;
      e.kind = EventKind::kFaultInjected;
      e.a = code;
      e.pid = 1;
      bus.record(e);
    });
    while (sched.step()) {
    }
  };
  lifecycle(5, obs::kFaultCodeProcessCrash);
  lifecycle(20, obs::kFaultCodeProcessRecover);

  ASSERT_EQ(bus.fault_stats().size(), obs::kFaultCodeCount);
  EXPECT_EQ(bus.fault_stats()[obs::kFaultCodeProcessCrash].count, 1u);
  EXPECT_EQ(bus.fault_stats()[obs::kFaultCodeProcessCrash].first, 5u);
  EXPECT_EQ(bus.fault_stats()[obs::kFaultCodeProcessRecover].count, 1u);
  EXPECT_EQ(bus.fault_stats()[obs::kFaultCodeProcessRecover].last, 20u);

  const obs::StabilizationTimeline tl = obs::timeline_from_bus(bus);
  EXPECT_EQ(tl.faults_injected, 2u);
  ASSERT_EQ(tl.faults.size(), 2u);
  EXPECT_EQ(tl.faults[0].name, "process-crash");
  EXPECT_EQ(tl.faults[0].first, 5u);
  EXPECT_EQ(tl.faults[1].name, "process-recover");
  EXPECT_EQ(tl.faults[1].last, 20u);

  const std::string trace = obs::perfetto_trace_json(bus).dump(0);
  EXPECT_NE(trace.find("\"crashed\""), std::string::npos);
}

// --- Trace: the ring's "[time] text" dump ------------------------------------

// Advances `sched` to sim-time `t` (no-op events only), then records `e`.
void record_at(sim::Scheduler& sched, EventBus& bus, SimTime t,
               const Event& e) {
  if (t > sched.now()) {
    sched.schedule_at(t, [] {});
    while (sched.step()) {
    }
  }
  bus.record(e);
}

// A drop of `count` messages: renders as "drop <count> message(s)".
Event drop_of(std::uint64_t count) {
  Event e;
  e.kind = EventKind::kDrop;
  e.payload = count;
  return e;
}

std::string dump_of(const EventBus& bus, std::size_t last_n = 64) {
  std::ostringstream os;
  bus.dump(os, last_n);
  return os.str();
}

TEST(Trace, RecordsInOrder) {
  sim::Scheduler sched;
  EventBus bus(sched, 4096);
  record_at(sched, bus, 1, drop_of(1));
  record_at(sched, bus, 2, drop_of(2));
  ASSERT_EQ(bus.size(), 2u);
  EXPECT_EQ(bus.event(0).payload, 1u);
  EXPECT_EQ(bus.event(1).time, 2u);
}

TEST(Trace, EvictsOldestBeyondCapacity) {
  sim::Scheduler sched;
  EventBus bus(sched, 3);
  for (std::uint64_t i = 0; i < 10; ++i) record_at(sched, bus, i, drop_of(i));
  ASSERT_EQ(bus.size(), 3u);
  EXPECT_EQ(bus.event(0).payload, 7u);
  EXPECT_EQ(bus.event(1).payload, 8u);
  EXPECT_EQ(bus.event(2).payload, 9u);
  EXPECT_EQ(bus.total_recorded(), 10u);
}

TEST(Trace, ZeroCapacityDropsEverything) {
  sim::Scheduler sched;
  EventBus bus(sched, 0);
  record_at(sched, bus, 1, drop_of(1));
  EXPECT_EQ(bus.size(), 0u);
  EXPECT_EQ(bus.total_recorded(), 0u);
  EXPECT_EQ(dump_of(bus), "");
}

TEST(Trace, DumpFormatsTail) {
  sim::Scheduler sched;
  EventBus bus(sched, 4096);
  bus.set_monitor_names({"hello"});
  Event v;
  v.kind = EventKind::kMonitorViolation;
  v.monitor = 0;
  record_at(sched, bus, 5, v);
  EXPECT_EQ(dump_of(bus), "[5] violation hello\n");
}

TEST(Trace, DumpLastNTruncatesToTail) {
  sim::Scheduler sched;
  EventBus bus(sched, 4096);
  for (std::uint64_t i = 0; i < 5; ++i) record_at(sched, bus, i, drop_of(i));
  EXPECT_EQ(dump_of(bus, 2),
            "[3] drop 3 message(s)\n[4] drop 4 message(s)\n");
}

TEST(Trace, DumpZeroPrintsNothing) {
  sim::Scheduler sched;
  EventBus bus(sched, 4096);
  record_at(sched, bus, 1, drop_of(1));
  EXPECT_EQ(dump_of(bus, 0), "");
}

TEST(Trace, DumpMoreThanSizePrintsEverything) {
  sim::Scheduler sched;
  EventBus bus(sched, 4);
  for (std::uint64_t i = 0; i < 3; ++i) record_at(sched, bus, i, drop_of(i));
  EXPECT_EQ(dump_of(bus, 100),
            "[0] drop 0 message(s)\n[1] drop 1 message(s)\n"
            "[2] drop 2 message(s)\n");
}

TEST(Trace, DumpAfterEvictionStartsAtOldestRetained) {
  sim::Scheduler sched;
  EventBus bus(sched, 2);
  for (std::uint64_t i = 0; i < 5; ++i) record_at(sched, bus, i, drop_of(i));
  EXPECT_EQ(dump_of(bus), "[3] drop 3 message(s)\n[4] drop 4 message(s)\n");
}

TEST(Trace, TotalRecordedCountsEvicted) {
  sim::Scheduler sched;
  EventBus bus(sched, 2);
  EXPECT_EQ(bus.capacity(), 2u);
  for (std::uint64_t i = 0; i < 7; ++i) record_at(sched, bus, i, drop_of(1));
  EXPECT_EQ(bus.size(), 2u);
  EXPECT_EQ(bus.total_recorded(), 7u);
}

TEST(Trace, ClearResets) {
  sim::Scheduler sched;
  EventBus bus(sched, 4096);
  record_at(sched, bus, 1, drop_of(1));
  bus.clear();
  EXPECT_EQ(bus.size(), 0u);
  EXPECT_EQ(bus.total_recorded(), 0u);
  EXPECT_EQ(dump_of(bus), "");
}

TEST(Trace, RecordAfterClearStartsFresh) {
  sim::Scheduler sched;
  EventBus bus(sched, 3);
  for (std::uint64_t i = 0; i < 5; ++i) record_at(sched, bus, i, drop_of(i));
  bus.clear();
  record_at(sched, bus, 9, drop_of(9));
  ASSERT_EQ(bus.size(), 1u);
  EXPECT_EQ(bus.event(0).time, 9u);
  EXPECT_EQ(dump_of(bus), "[9] drop 9 message(s)\n");
}

// --- Histogram ---------------------------------------------------------------

TEST(Histogram, Pow2BoundsShape) {
  const auto bounds = obs::Histogram::pow2_bounds(4);
  const std::vector<std::uint64_t> expected = {0, 1, 2, 4, 8, 16};
  EXPECT_EQ(bounds, expected);
}

TEST(Histogram, BucketAssignmentAndMoments) {
  obs::Histogram h(obs::Histogram::pow2_bounds(3));  // 0,1,2,4,8 + overflow
  ASSERT_EQ(h.buckets().size(), 6u);
  for (const std::uint64_t v : {0u, 0u, 1u, 2u, 3u, 4u, 8u, 9u, 100u}) {
    h.observe(v);
  }
  EXPECT_EQ(h.count(), 9u);
  EXPECT_EQ(h.sum(), 127u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_DOUBLE_EQ(h.mean(), 127.0 / 9.0);
  // Bucket i counts values in (bounds[i-1], bounds[i]].
  EXPECT_EQ(h.buckets()[0], 2u);  // <= 0
  EXPECT_EQ(h.buckets()[1], 1u);  // 1
  EXPECT_EQ(h.buckets()[2], 1u);  // 2
  EXPECT_EQ(h.buckets()[3], 2u);  // 3..4
  EXPECT_EQ(h.buckets()[4], 1u);  // 5..8
  EXPECT_EQ(h.buckets()[5], 2u);  // overflow: 9, 100
}

TEST(Histogram, EmptyIsWellDefined) {
  obs::Histogram h({10, 20});
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

// --- Metric samples ---------------------------------------------------------

TEST(MetricsSnapshotJson, CarriesEveryInstrument) {
  obs::Histogram depth({1, 2});
  depth.observe(2);
  const obs::MetricsSnapshot snapshot = {
      obs::MetricSample::counter("sends", 7),
      obs::MetricSample::histogram("depth", depth)};
  const std::string text = obs::metrics_snapshot_to_json(snapshot).dump();
  EXPECT_NE(text.find("\"sends\""), std::string::npos);
  EXPECT_NE(text.find("\"depth\""), std::string::npos);
  EXPECT_NE(text.find("\"counter\""), std::string::npos);
  EXPECT_NE(text.find("\"histogram\""), std::string::npos);
}

// --- MetricsAggregate: the engine's fold -------------------------------------

obs::MetricsSnapshot fake_trial_snapshot(std::uint64_t seed) {
  obs::Histogram h(obs::Histogram::pow2_bounds(3));
  for (std::uint64_t v = 0; v <= seed; ++v) h.observe(v);
  return {obs::MetricSample::counter("cs", 10 + seed),
          obs::MetricSample::histogram("wait", h)};
}

TEST(MetricsAggregate, JsonShape) {
  obs::MetricsAggregate agg;
  agg.add(fake_trial_snapshot(1));
  agg.add(fake_trial_snapshot(2));
  const std::string text = agg.to_json().dump(0);
  EXPECT_NE(text.find("\"cs\""), std::string::npos);
  EXPECT_NE(text.find("\"trials\":2"), std::string::npos);
  EXPECT_NE(text.find("\"mean\""), std::string::npos);
  EXPECT_NE(text.find("\"buckets\""), std::string::npos);
}

// --- Harness integration -----------------------------------------------------

core::HarnessConfig obs_config(std::uint64_t seed) {
  core::HarnessConfig config;
  config.n = 3;
  config.wrapped = true;
  config.client.think_mean = 30;
  config.client.eat_mean = 5;
  config.seed = seed;
  return config;
}

// One short faulted run: warmup, burst, observation, drain.
void run_burst(core::SystemHarness& h, std::size_t burst = 8) {
  h.start();
  h.run_for(400);
  h.faults().burst(burst, net::FaultMix::all());
  h.run_for(2500);
  h.drain(2000);
}

TEST(HarnessMetrics, CollectedAndDeterministic) {
  core::HarnessConfig config = obs_config(42);
  config.collect_metrics = true;
  core::SystemHarness h(config);
  run_burst(h);
  const core::RunStats stats = h.stats();
  ASSERT_FALSE(stats.metrics.empty());

  std::uint64_t fault_counter_sum = 0;
  std::uint64_t violation_counter_sum = 0;
  std::uint64_t cs_wait_count = 0;
  bool saw_depth = false, saw_in_flight = false, saw_resends = false;
  for (const obs::MetricSample& s : stats.metrics) {
    if (s.name.rfind("faults.", 0) == 0) {
      fault_counter_sum += static_cast<std::uint64_t>(s.value);
    } else if (s.name.rfind("violations.", 0) == 0) {
      violation_counter_sum += static_cast<std::uint64_t>(s.value);
    } else if (s.name == "cs_wait_ticks") {
      cs_wait_count = static_cast<std::uint64_t>(s.value);
    } else if (s.name == "channel_queue_depth") {
      saw_depth = true;
    } else if (s.name == "net_in_flight") {
      saw_in_flight = true;
    } else if (s.name == "wrapper_resends") {
      saw_resends = s.value >= 0;
    }
  }
  // The pull counters mirror the authoritative component state exactly.
  EXPECT_EQ(fault_counter_sum, stats.faults_injected);
  EXPECT_EQ(violation_counter_sum, h.monitors().total_violations());
  // Every hungry -> eating entry recorded a wait; corruption-induced CS
  // entries (no hungry phase) legitimately record none.
  EXPECT_GT(stats.cs_entries, 0u);
  EXPECT_GT(cs_wait_count, 0u);
  EXPECT_LE(cs_wait_count, stats.cs_entries);
  EXPECT_TRUE(saw_depth);
  EXPECT_TRUE(saw_in_flight);
  EXPECT_TRUE(saw_resends);

  // Identical seed, fresh harness: byte-identical metrics artifact.
  core::SystemHarness h2(config);
  run_burst(h2);
  EXPECT_EQ(obs::metrics_snapshot_to_json(h2.stats().metrics).dump(),
            obs::metrics_snapshot_to_json(stats.metrics).dump());
}

TEST(HarnessTimeline, ConsistentWithStabilizationReport) {
  core::SystemHarness h(obs_config(7));
  run_burst(h);
  const core::StabilizationReport report = h.stabilization_report();
  const obs::StabilizationTimeline tl = h.timeline();

  EXPECT_EQ(tl.run_end, h.scheduler().now());
  EXPECT_GT(tl.faults_injected, 0u);
  EXPECT_EQ(tl.last_fault, report.last_fault);
  EXPECT_LE(tl.first_fault, tl.last_fault);

  // The timeline watches every monitor; the report only the safety subset.
  // Its divergent window can therefore only be wider than the report's
  // latency, never narrower.
  EXPECT_GE(tl.divergent_window(), report.latency);
  EXPECT_EQ(tl.clauses.size(), h.monitors().monitors().size());
  std::uint64_t clause_sum = 0;
  for (const obs::TimelineEntry& c : tl.clauses) clause_sum += c.count;
  EXPECT_EQ(clause_sum, tl.violations_total);
  EXPECT_EQ(tl.violations_total, h.monitors().total_violations());
  if (report.stabilized && tl.quiescent) {
    EXPECT_TRUE(tl.stabilized());
  }

  // Per-kind fault entries sum back to the burst total.
  std::uint64_t fault_sum = 0;
  for (const obs::TimelineEntry& f : tl.faults) fault_sum += f.count;
  EXPECT_EQ(fault_sum, tl.faults_injected);
  EXPECT_EQ(tl.faults_injected, h.faults().total_injected());

  // Rendering mentions every phase of the convergence story.
  const std::string text = tl.to_string();
  EXPECT_NE(text.find("fault burst:"), std::string::npos);
  EXPECT_NE(text.find("first violation:"), std::string::npos);
  EXPECT_NE(text.find("violation decay:"), std::string::npos);
  EXPECT_NE(text.find("divergent window:"), std::string::npos);
  EXPECT_NE(text.find("quiescence:"), std::string::npos);
  // And the JSON form is present and structurally sound.
  const report::Json doc = tl.to_json();
  EXPECT_TRUE(doc.contains("fault_burst"));
  EXPECT_TRUE(doc.contains("violations"));
  EXPECT_TRUE(doc.contains("divergent_window"));
}

TEST(HarnessTimeline, OneStoreAtAnyTraceCapacity) {
  // The bus aggregates are the one store of fault and violation facts, so
  // the ring's size moves none of them. A sustained-load run with crash and
  // partition streams must give identical timeline(), stabilization_report()
  // and RunStats fault/violation fields whether the ring holds the whole
  // run, only its last 8 events, or nothing.
  struct Run {
    std::unique_ptr<core::SystemHarness> h;
    std::string timeline;
    core::StabilizationReport report;
    core::RunStats stats;
  };
  auto run = [](std::size_t capacity) {
    core::HarnessConfig config = obs_config(21);
    config.trace_capacity = capacity;
    config.collect_metrics = true;  // the faults.<code> pull counters
    config.fault_process.drop_mean = 150;
    config.fault_process.corrupt_mean = 150;
    config.fault_process.process_corrupt_mean = 300;
    config.fault_process.crash_mean = 400;
    config.fault_process.downtime_mean = 150;
    config.fault_process.partition_mean = 600;
    config.fault_process.partition_hold_mean = 150;
    config.fault_process.start = 400;
    config.fault_process.end = 2900;
    Run r;
    r.h = std::make_unique<core::SystemHarness>(config);
    r.h->fault_load().record_schedule(true);
    r.h->start();
    r.h->run_for(2900);
    r.h->drain(2000);
    r.timeline = r.h->timeline().to_json().dump();
    r.report = r.h->stabilization_report();
    r.stats = r.h->stats();
    return r;
  };
  const Run full = run(1u << 20);
  const Run tiny = run(8);
  const Run none = run(0);
  ASSERT_EQ(tiny.h->events().size(), 8u);  // only the tail is retained...
  EXPECT_GT(tiny.h->events().total_recorded(), 1000u);  // ...of a long run
  EXPECT_EQ(none.h->events().size(), 0u);

  // The run exercises what the store must hold: injector and lifecycle
  // faults, and violations.
  const core::RunStats& s = full.stats;
  ASSERT_GT(s.crashes, 0u);
  ASSERT_GT(s.partitions, 0u);
  ASSERT_GT(s.me1_violations + s.invariant_violations, 0u);

  for (const Run* r : {&tiny, &none}) {
    EXPECT_EQ(r->timeline, full.timeline);
    EXPECT_EQ(r->report.last_fault, full.report.last_fault);
    EXPECT_EQ(r->report.faults_injected, full.report.faults_injected);
    EXPECT_EQ(r->report.last_safety_violation,
              full.report.last_safety_violation);
    EXPECT_EQ(r->report.violations_total, full.report.violations_total);
    EXPECT_EQ(r->report.latency, full.report.latency);
    EXPECT_EQ(r->report.stabilized, full.report.stabilized);
    EXPECT_EQ(r->stats.faults_injected, s.faults_injected);
    EXPECT_EQ(r->stats.crashes, s.crashes);
    EXPECT_EQ(r->stats.recoveries, s.recoveries);
    EXPECT_EQ(r->stats.partitions, s.partitions);
    EXPECT_EQ(r->stats.partition_heals, s.partition_heals);
    EXPECT_EQ(r->stats.me1_violations, s.me1_violations);
    EXPECT_EQ(r->stats.me3_violations, s.me3_violations);
    EXPECT_EQ(r->stats.invariant_violations, s.invariant_violations);
    EXPECT_EQ(r->stats.mutual_belief_violations, s.mutual_belief_violations);
    EXPECT_EQ(r->stats.lspec_clause_violations, s.lspec_clause_violations);
    EXPECT_EQ(r->stats.reconverge_windows, s.reconverge_windows);
    EXPECT_EQ(r->stats.reconverge_ticks_total, s.reconverge_ticks_total);
    EXPECT_EQ(obs::metrics_snapshot_to_json(r->stats.metrics).dump(),
              obs::metrics_snapshot_to_json(s.metrics).dump());
  }

  // And the store agrees with the components' own bookkeeping, at
  // capacity 0: the injector's and fault load's counts and last arrival,
  // and every monitor's count/first/last.
  core::SystemHarness& h = *none.h;
  const net::FaultProcess& load = h.fault_load();
  EXPECT_EQ(none.stats.faults_injected,
            h.faults().total_injected() + load.crashes() + load.recoveries() +
                load.partitions() + load.heals());
  EXPECT_EQ(none.stats.crashes, load.crashes());
  EXPECT_EQ(none.stats.partition_heals, load.heals());
  SimTime last_fault = h.faults().last_fault_time();
  for (const net::FaultArrival& a : load.schedule())
    if (last_fault == kNever || a.time > last_fault) last_fault = a.time;
  EXPECT_EQ(none.report.last_fault, last_fault);
  const obs::StabilizationTimeline tl = h.timeline();
  EXPECT_EQ(tl.violations_total, h.monitors().total_violations());
  ASSERT_EQ(tl.clauses.size(), h.monitors().monitors().size());
  for (std::size_t i = 0; i < tl.clauses.size(); ++i) {
    const auto& m = h.monitors().monitors()[i];
    EXPECT_EQ(tl.clauses[i].name, m->name()) << i;
    EXPECT_EQ(tl.clauses[i].count, m->total_violations()) << i;
    EXPECT_EQ(tl.clauses[i].first, m->first_violation()) << i;
    EXPECT_EQ(tl.clauses[i].last, m->last_violation()) << i;
  }
}

TEST(HarnessTrace, DumpPreservesLegacyFormat) {
  core::HarnessConfig config = obs_config(5);
  config.trace_capacity = 2048;
  core::SystemHarness h(config);
  h.start();
  h.run_for(500);

  const obs::EventBus& bus = h.events();
  ASSERT_GT(bus.size(), 0u);
  EXPECT_LE(bus.size(), 2048u);
  bool saw_send = false, saw_recv = false, saw_transition = false;
  for (std::size_t i = 0; i < bus.size(); ++i) {
    const std::string text = bus.render(bus.event(i));
    saw_send = saw_send || text.rfind("send ", 0) == 0;
    saw_recv = saw_recv || text.rfind("recv ", 0) == 0;
    saw_transition = saw_transition || text.rfind("proc ", 0) == 0;
  }
  EXPECT_TRUE(saw_send);
  EXPECT_TRUE(saw_recv);
  EXPECT_TRUE(saw_transition);

  // dump() prints the last n retained events as "[time] text" lines.
  std::ostringstream os;
  bus.dump(os, 5);
  const std::string text = os.str();
  EXPECT_EQ(text.front(), '[');
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 5);
  const obs::Event& last = bus.event(bus.size() - 1);
  const std::string last_line =
      "[" + std::to_string(last.time) + "] " + bus.render(last) + "\n";
  EXPECT_EQ(text.substr(text.size() - last_line.size()), last_line);
}

TEST(HarnessTrace, DisabledByDefault) {
  core::SystemHarness h(obs_config(5));
  h.start();
  h.run_for(300);
  EXPECT_FALSE(h.events().enabled());
  EXPECT_EQ(h.events().size(), 0u);
  EXPECT_EQ(h.events().total_recorded(), 0u);
  std::ostringstream os;
  h.events().dump(os);
  EXPECT_EQ(os.str(), "");
  // The aggregates still saw the run.
  EXPECT_GT(h.events().kind_stats(obs::EventKind::kSend).count, 0u);
  EXPECT_TRUE(h.stats().metrics.empty());
}

// --- Perfetto export ---------------------------------------------------------

TEST(Perfetto, ExportsValidTrackLayout) {
  core::HarnessConfig config = obs_config(13);
  config.trace_capacity = 1u << 20;
  core::SystemHarness h(config);
  run_burst(h);

  const report::Json doc = obs::perfetto_trace_json(h.events());
  ASSERT_TRUE(doc.contains("traceEvents"));
  ASSERT_TRUE(doc.at("traceEvents").is_array());
  EXPECT_GT(doc.at("traceEvents").size(), 100u);

  const std::string text = doc.dump(0);
  // Track metadata for all three pids.
  EXPECT_NE(text.find("\"processes\""), std::string::npos);
  EXPECT_NE(text.find("\"network\""), std::string::npos);
  EXPECT_NE(text.find("\"monitors\""), std::string::npos);
  EXPECT_NE(text.find("\"process_name\""), std::string::npos);
  EXPECT_NE(text.find("\"thread_name\""), std::string::npos);
  // Metadata, instant, and complete events all present: a faulted run has
  // traffic instants and CS occupancy slices.
  EXPECT_NE(text.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(text.find("\"critical section\""), std::string::npos);
  EXPECT_NE(text.find("\"fault "), std::string::npos);

  // Deterministic: same seed, fresh run, identical artifact.
  core::SystemHarness h2(config);
  run_burst(h2);
  EXPECT_EQ(obs::perfetto_trace_json(h2.events()).dump(0), text);
}

// --- Engine artifacts: byte-identical across jobs ----------------------------

TEST(EngineMetrics, CellJsonByteIdenticalAcrossJobs) {
  core::FaultScenario scenario;
  scenario.warmup = 300;
  scenario.burst = 6;
  scenario.observation = 2500;
  scenario.drain = 2000;
  core::SpecGrid grid;
  grid.add("obs_cell", obs_config(1234), scenario, 6);

  const core::GridResult serial =
      core::ExperimentEngine(core::EngineOptions{.jobs = 1}).run(grid);
  const core::GridResult parallel =
      core::ExperimentEngine(core::EngineOptions{.jobs = 8}).run(grid);

  // The engine forces metrics collection per trial, so the artifact grows a
  // metrics section...
  const std::string full =
      core::grid_to_json("obs_smoke", serial).dump();
  EXPECT_NE(full.find("\"metrics\""), std::string::npos);
  EXPECT_NE(full.find("\"cs_wait_ticks\""), std::string::npos);
  EXPECT_NE(full.find("\"wrapper_resends\""), std::string::npos);

  // ...and that section — like everything else — is byte-identical between
  // --jobs 1 and --jobs 8 once the wall-clock lines are stripped.
  const std::string a = report::strip_volatile_lines(
      core::grid_to_json("obs_smoke", serial).dump());
  const std::string b = report::strip_volatile_lines(
      core::grid_to_json("obs_smoke", parallel).dump());
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"metrics\""), std::string::npos);
}

}  // namespace
}  // namespace graybox
