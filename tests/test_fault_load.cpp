// The sustained fault-load subsystem: FaultProcess stream determinism,
// crash/recovery and partition/heal lifecycles through the harness, their
// observability (timeline parity, metrics, reconvergence windows), and the
// engine-level guarantee that fault-load experiments stay byte-identical
// across --jobs values.
#include <gtest/gtest.h>

#include <vector>

#include "common/report.hpp"
#include "core/engine.hpp"
#include "core/harness.hpp"
#include "core/stabilization.hpp"
#include "net/fault_process.hpp"
#include "obs/timeline.hpp"

namespace graybox::core {
namespace {

HarnessConfig load_config(std::uint64_t seed) {
  HarnessConfig config;
  config.n = 4;
  config.seed = seed;
  config.wrapper.resend_period = 20;
  return config;
}

net::FaultProcessConfig modest_load() {
  net::FaultProcessConfig fp;
  fp.drop_mean = 150;
  fp.duplicate_mean = 300;
  fp.corrupt_mean = 300;
  fp.spurious_mean = 250;
  fp.process_corrupt_mean = 400;
  fp.crash_mean = 1200;
  fp.downtime_mean = 150;
  fp.partition_mean = 1500;
  fp.partition_hold_mean = 120;
  return fp;
}

// --- FaultProcess determinism ----------------------------------------------

TEST(FaultProcess, SameSeedSameSchedule) {
  // The applied fault schedule is a pure function of the seed: two
  // identical systems produce entry-for-entry identical schedules.
  std::vector<net::FaultArrival> schedules[2];
  for (int run = 0; run < 2; ++run) {
    HarnessConfig config = load_config(42);
    config.fault_process = modest_load();
    SystemHarness h(config);
    h.fault_load().record_schedule(true);
    h.start();
    h.run_for(6000);
    schedules[run] = h.fault_load().schedule();
  }
  ASSERT_FALSE(schedules[0].empty());
  ASSERT_EQ(schedules[0].size(), schedules[1].size());
  for (std::size_t i = 0; i < schedules[0].size(); ++i) {
    EXPECT_EQ(schedules[0][i].time, schedules[1][i].time) << i;
    EXPECT_EQ(schedules[0][i].code, schedules[1][i].code) << i;
    EXPECT_EQ(schedules[0][i].pid, schedules[1][i].pid) << i;
  }
}

TEST(FaultProcess, DifferentSeedsDifferentSchedules) {
  std::vector<net::FaultArrival> schedules[2];
  const std::uint64_t seeds[2] = {42, 43};
  for (int run = 0; run < 2; ++run) {
    HarnessConfig config = load_config(seeds[run]);
    config.fault_process = modest_load();
    SystemHarness h(config);
    h.fault_load().record_schedule(true);
    h.start();
    h.run_for(6000);
    schedules[run] = h.fault_load().schedule();
  }
  ASSERT_FALSE(schedules[0].empty());
  bool differ = schedules[0].size() != schedules[1].size();
  for (std::size_t i = 0; !differ && i < schedules[0].size(); ++i) {
    differ = schedules[0][i].time != schedules[1][i].time ||
             schedules[0][i].code != schedules[1][i].code;
  }
  EXPECT_TRUE(differ);
}

TEST(FaultProcess, DisabledByDefaultDrawsNothing) {
  // All-zero rates: the subsystem arms nothing and perturbs nothing —
  // a run with the default config matches a run from before it existed.
  HarnessConfig config = load_config(7);
  SystemHarness h(config);
  h.start();
  h.run_for(3000);
  EXPECT_FALSE(h.fault_load().running());
  EXPECT_EQ(h.fault_load().arrivals_fired(), 0u);
  EXPECT_EQ(h.stats().faults_injected, 0u);
}

TEST(FaultProcess, StreamsStopAtEnd) {
  HarnessConfig config = load_config(9);
  config.fault_process.drop_mean = 50;
  config.fault_process.spurious_mean = 60;
  config.fault_process.end = 1000;
  SystemHarness h(config);
  h.fault_load().record_schedule(true);
  h.start();
  h.run_for(5000);
  ASSERT_FALSE(h.fault_load().schedule().empty());
  for (const net::FaultArrival& a : h.fault_load().schedule())
    EXPECT_LT(a.time, 1000u);
}

TEST(FaultProcess, CrashStreamBeyond64Processes) {
  // Crash bookkeeping is per process, not a 64-bit mask: at N=100 crashes
  // land on pids past 63 and each recovers exactly the process it downed.
  HarnessConfig config = load_config(31);
  config.n = 100;
  config.install_monitors = false;
  config.client.think_mean = 4000;
  config.fault_process.crash_mean = 15;
  config.fault_process.downtime_mean = 40;
  config.fault_process.max_down = 8;
  SystemHarness h(config);
  h.fault_load().record_schedule(true);
  h.start();
  h.run_for(3000);
  h.fault_load().stop();
  h.run_for(5000);  // pending recoveries still execute

  bool high_pid = false;
  std::vector<int> down(config.n, 0);
  for (const net::FaultArrival& a : h.fault_load().schedule()) {
    if (a.code == net::kFaultCodeProcessCrash) {
      high_pid = high_pid || a.pid >= 64;
      EXPECT_EQ(down[a.pid]++, 0) << a.pid;
    } else if (a.code == net::kFaultCodeProcessRecover) {
      EXPECT_EQ(down[a.pid]--, 1) << a.pid;
    }
  }
  EXPECT_TRUE(high_pid);
  EXPECT_GT(h.fault_load().crashes(), 0u);
  EXPECT_EQ(h.fault_load().recoveries(), h.fault_load().crashes());
  for (ProcessId pid = 0; pid < config.n; ++pid) EXPECT_FALSE(h.crashed(pid));
}

TEST(FaultProcess, PartitionStreamBeyond64ProcessesFailsFast) {
  HarnessConfig config = load_config(32);
  config.n = 65;
  config.install_monitors = false;
  config.fault_process.partition_mean = 100;
  EXPECT_DEATH(SystemHarness h(config), "partition streams need n <= 64");
}

// --- Crash / recovery -------------------------------------------------------

TEST(HarnessLifecycle, CrashSwallowsDeliveriesUntilRecovery) {
  HarnessConfig config = load_config(11);
  SystemHarness h(config);
  h.start();
  h.run_for(500);
  ASSERT_TRUE(h.crash(1));
  EXPECT_TRUE(h.crashed(1));
  EXPECT_FALSE(h.crash(1));  // already down: not a second fault
  const std::uint64_t entries_at_crash = h.process(1).cs_entries();
  h.run_for(1500);
  // The dead process took no steps; traffic to it was swallowed.
  EXPECT_EQ(h.process(1).cs_entries(), entries_at_crash);
  const RunStats mid = h.stats();
  EXPECT_EQ(mid.crashes, 1u);
  EXPECT_EQ(mid.recoveries, 0u);
  EXPECT_GT(mid.deliveries_to_crashed, 0u);

  ASSERT_TRUE(h.recover(1));
  EXPECT_FALSE(h.crashed(1));
  EXPECT_FALSE(h.recover(1));
  h.run_for(4000);
  h.drain(3000);
  const RunStats end = h.stats();
  EXPECT_EQ(end.recoveries, 1u);
  // Crash/recovery are faults; stabilization is judged from the last one.
  const StabilizationReport report = h.stabilization_report();
  EXPECT_TRUE(report.faults_injected);
  // The wrapped system must come back: the recovered process re-entered
  // an improperly initialized state and still made progress afterwards.
  EXPECT_TRUE(report.stabilized);
  EXPECT_GT(h.process(1).cs_entries(), entries_at_crash);
}

TEST(HarnessLifecycle, PartitionBlocksCrossTrafficUntilHealed) {
  HarnessConfig config = load_config(13);
  SystemHarness h(config);
  h.start();
  h.run_for(500);
  ASSERT_TRUE(h.partition(0b0001));  // isolate process 0
  EXPECT_TRUE(h.partitioned());
  EXPECT_FALSE(h.partition(0b0011));  // one partition at a time
  h.run_for(1000);
  const RunStats mid = h.stats();
  EXPECT_EQ(mid.partitions, 1u);
  EXPECT_GT(mid.dropped_by_partition, 0u);
  ASSERT_TRUE(h.heal_partition());
  EXPECT_FALSE(h.partitioned());
  EXPECT_FALSE(h.heal_partition());
  h.run_for(4000);
  h.drain(3000);
  const RunStats end = h.stats();
  EXPECT_EQ(end.partition_heals, 1u);
  EXPECT_TRUE(h.stabilization_report().stabilized);
}

// --- Observability ----------------------------------------------------------

TEST(HarnessLifecycle, TimelineParityWithBusUnderLifecycleFaults) {
  // Lifecycle faults flow through the same fault-code space as injector
  // faults: the bus aggregates hold them with no ring retained, and the
  // timeline, the report and RunStats all read them from there.
  HarnessConfig config = load_config(17);
  ASSERT_EQ(config.trace_capacity, 0u);
  SystemHarness h(config);
  h.start();
  h.run_for(400);
  h.faults().burst(4, net::FaultMix::all());
  h.crash(2);
  h.run_for(300);
  h.recover(2);
  h.partition(0b0110);
  h.run_for(300);
  const SimTime heal_at = h.scheduler().now();
  h.heal_partition();
  h.run_for(2000);
  h.drain(2000);

  const obs::StabilizationTimeline tl = h.timeline();
  const RunStats stats = h.stats();
  EXPECT_EQ(h.events().size(), 0u);
  EXPECT_EQ(tl.faults_injected, h.faults().total_injected() + 4);
  EXPECT_EQ(stats.faults_injected, tl.faults_injected);
  EXPECT_EQ(tl.first_fault, h.faults().first_fault_time());
  EXPECT_EQ(tl.last_fault, heal_at);
  EXPECT_EQ(h.stabilization_report().last_fault, heal_at);
  std::uint64_t lifecycle = 0;
  for (const obs::TimelineEntry& f : tl.faults) {
    if (f.name == "process-crash" || f.name == "process-recover" ||
        f.name == "partition" || f.name == "partition-heal") {
      EXPECT_EQ(f.count, 1u) << f.name;
      lifecycle += f.count;
    }
  }
  EXPECT_EQ(lifecycle, 4u);
  EXPECT_EQ(stats.crashes, 1u);
  EXPECT_EQ(stats.recoveries, 1u);
  EXPECT_EQ(stats.partitions, 1u);
  EXPECT_EQ(stats.partition_heals, 1u);
}

TEST(HarnessLifecycle, MetricsCarryAvailabilityInstruments) {
  HarnessConfig config = load_config(19);
  config.collect_metrics = true;
  config.fault_process = modest_load();
  SystemHarness h(config);
  h.start();
  h.run_for(6000);
  h.drain(3000);
  const RunStats stats = h.stats();
  bool saw_rate = false, saw_avail = false, saw_reconverge = false;
  for (const obs::MetricSample& s : stats.metrics) {
    saw_rate = saw_rate || s.name == "fault_rate_per_kilotick";
    saw_avail = saw_avail || s.name == "availability_ppm";
    saw_reconverge = saw_reconverge || s.name == "reconverge_ticks";
  }
  EXPECT_TRUE(saw_rate);
  EXPECT_TRUE(saw_avail);
  EXPECT_TRUE(saw_reconverge);
  EXPECT_GT(stats.faults_injected, 0u);
  EXPECT_GT(stats.reconverge_windows, 0u);
}

// --- Reconvergence windows --------------------------------------------------

TEST(Reconvergence, TailWindowEndsAtTheLatestViolation) {
  // drain() closes the monitors, and end-of-run verdicts (ME2 starvation,
  // CsSpec, CsEntrySpec) are reported at the past time the wait began. A
  // burst-only trial has one non-empty window, from the burst to the
  // latest violation of any installed monitor; a late report of an earlier
  // time must not pull that window back.
  for (const std::uint64_t seed : {9001u, 9004u}) {
    HarnessConfig config;
    config.n = 5;
    config.algorithm = "lamport";
    config.wrapped = false;
    config.client.think_mean = 40;
    config.client.eat_mean = 8;
    config.seed = seed;
    SystemHarness h(config);
    h.start();
    h.run_for(600);
    net::FaultMix mix = net::FaultMix::only(net::FaultKind::kMessageDrop);
    mix.channel_clear = true;
    h.faults().burst(10, mix);
    h.run_for(9000);
    h.drain(6000);
    const SimTime last_fault = h.stabilization_report().last_fault;
    const SimTime last_violation = h.monitors().last_violation();
    ASSERT_NE(last_violation, kNever) << seed;
    ASSERT_GT(last_violation, last_fault) << seed;
    EXPECT_EQ(h.stats().reconverge_ticks_total, last_violation - last_fault)
        << "seed " << seed;
  }
}

// --- Liveness under sustained load ------------------------------------------

TEST(SustainedLoad, WrappedSystemStaysLiveUnderModestContinuousFaults) {
  // The regime the ROADMAP cares about: faults keep arriving, and the
  // wrapped system keeps serving the critical section between them.
  HarnessConfig config = load_config(23);
  config.fault_process = modest_load();
  config.fault_process.end = 6000;  // quiesce before the drain
  SystemHarness h(config);
  h.start();
  h.run_for(8000);
  h.drain(4000);
  const RunStats stats = h.stats();
  EXPECT_GT(stats.faults_injected, 10u);
  EXPECT_GT(stats.cs_entries, 0u);
  EXPECT_TRUE(h.stabilization_report().stabilized);
}

// --- Engine determinism ------------------------------------------------------

TEST(SustainedLoad, EngineJsonByteIdenticalAcrossJobs) {
  // Fault-load cells ride the experiment engine like any other: the whole
  // artifact is byte-identical between --jobs 1 and --jobs 8 (modulo
  // wall-clock lines).
  auto grid = [] {
    SpecGrid g;
    for (const std::uint64_t rate : {0ull, 200ull}) {
      HarnessConfig config;
      config.n = 4;
      config.seed = 7;
      if (rate > 0) {
        config.fault_process.drop_mean = static_cast<double>(rate);
        config.fault_process.spurious_mean = static_cast<double>(rate);
        config.fault_process.crash_mean = static_cast<double>(rate) * 10;
        config.fault_process.downtime_mean = 100;
        config.fault_process.end = 2500;
      }
      FaultScenario scenario;
      scenario.warmup = 300;
      scenario.burst = 0;  // the sustained load IS the adversary
      scenario.observation = 2500;
      scenario.drain = 1500;
      g.add("rate_" + std::to_string(rate), config, scenario, 4);
    }
    return g;
  };
  const GridResult serial = ExperimentEngine(EngineOptions{.jobs = 1}).run(grid());
  const GridResult parallel =
      ExperimentEngine(EngineOptions{.jobs = 8}).run(grid());
  const std::string a =
      report::strip_volatile_lines(grid_to_json("fault_load", serial).dump());
  const std::string b =
      report::strip_volatile_lines(grid_to_json("fault_load", parallel).dump());
  EXPECT_EQ(a, b);
  // The digest must key on the fault-load shape: distinct cells differ.
  ASSERT_EQ(serial.cells.size(), 2u);
  EXPECT_NE(serial.cells[0].config_digest, serial.cells[1].config_digest);
}

}  // namespace
}  // namespace graybox::core
