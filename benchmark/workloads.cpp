#include "workloads.hpp"

#include <chrono>
#include <sstream>

#include "common/contracts.hpp"
#include "core/stabilization.hpp"

namespace gbx_bench {

using namespace graybox;

namespace {

constexpr const char* kAlgorithms[] = {"ricart-agrawala", "lamport",
                                       "carvalho-roucairol"};

/// SplitMix64 finalizer: decorrelates per-run seeds drawn from one
/// workload seed.
std::uint64_t mix(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// Trials per set. Each set cycles the algorithms; the counts are sized so
// the seed-to-seed variation of a set's work stays well inside the
// benchmark's bounds (recovery_n256: ~5 s per trial on a 2.1 GHz Xeon).
constexpr std::size_t kServiceTrials = 6;
constexpr std::size_t kRecoveryTrials = 3;
constexpr std::size_t kStormTrials = 6;

// service_n12: E8's fault-free service cell (think 50, eat 8, 20k ticks
// plus a 5k drain) with the level-2 wrapper attached. The wrapper only
// evaluates here; it never has to correct.
Workload service_n12(std::uint64_t seed) {
  Workload w;
  w.fault_free = true;
  for (std::size_t i = 0; i < kServiceTrials; ++i) {
    Trial t;
    t.label = std::string(kAlgorithms[i % 3]) + "/n=12#" + std::to_string(i);
    t.config.n = 12;
    t.config.algorithm = kAlgorithms[i % 3];
    t.config.wrapped = true;
    t.config.client.think_mean = 50;
    t.config.client.eat_mean = 8;
    t.config.seed = mix(seed, i);
    t.warmup = 20000;
    t.drain = 5000;
    w.trials.push_back(std::move(t));
  }
  return w;
}

// recovery_n256: E14's wrapped Ricart-Agrawala cell at N=256 (think 8N,
// eat 8, resend 20; a 12-fault burst after a 400-tick warmup, then a
// 3000-tick observation and a 2000-tick drain).
Workload recovery_n256(std::uint64_t seed) {
  Workload w;
  for (std::size_t i = 0; i < kRecoveryTrials; ++i) {
    Trial t;
    t.label = "ricart-agrawala/n=256#" + std::to_string(i);
    t.config.n = 256;
    t.config.algorithm = "ricart-agrawala";
    t.config.wrapped = true;
    t.config.wrapper.resend_period = 20;
    t.config.client.think_mean = 8.0 * 256;
    t.config.client.eat_mean = 8;
    t.config.seed = mix(seed, i);
    t.warmup = 400;
    t.burst = 12;
    t.observation = 3000;
    t.drain = 2000;
    w.trials.push_back(std::move(t));
  }
  return w;
}

// fault_storm_n16: E12's "heavy" sustained load (all seven injector kinds
// plus crash and partition streams, at E12's 0.6 rate scale) for 20k
// ticks at N=16 with both wrapper tiers. N stays
// <= 64: partition masks are 64-bit, and crash streams beyond N=64 are a
// known open defect.
Workload fault_storm_n16(std::uint64_t seed) {
  constexpr SimTime kWarmup = 500;
  constexpr SimTime kObservation = 20000;
  constexpr double kScale = 0.6;
  Workload w;
  for (std::size_t i = 0; i < kStormTrials; ++i) {
    Trial t;
    t.label = std::string(kAlgorithms[i % 3]) + "/n=16#" + std::to_string(i);
    t.config.n = 16;
    t.config.algorithm = kAlgorithms[i % 3];
    t.config.wrapped = true;
    t.config.level1 = true;
    t.config.wrapper.resend_period = 25;
    t.config.client.think_mean = 40;
    t.config.client.eat_mean = 8;
    t.config.seed = mix(seed, i);
    net::FaultProcessConfig& fp = t.config.fault_process;
    fp.drop_mean = 150 * kScale;
    fp.duplicate_mean = 400 * kScale;
    fp.corrupt_mean = 400 * kScale;
    fp.reorder_mean = 400 * kScale;
    fp.spurious_mean = 300 * kScale;
    fp.process_corrupt_mean = 600 * kScale;
    fp.channel_clear_mean = 900 * kScale;
    fp.crash_mean = 1500 * kScale;
    fp.downtime_mean = 150;
    fp.max_down = 1;
    fp.partition_mean = 2000 * kScale;
    fp.partition_hold_mean = 120;
    fp.start = kWarmup;
    fp.end = kWarmup + kObservation;
    t.warmup = kWarmup;
    t.observation = kObservation;
    t.drain = 4000;
    w.trials.push_back(std::move(t));
  }
  return w;
}

// mc_sweep: E13's 21-cell sweep ({RA, Lamport, CR} x tiers x fault modes,
// N=3) at the CI budget of 120 executions per cell, run serially.
Workload mc_sweep(std::uint64_t seed) {
  Workload w;
  for (const char* algo : kAlgorithms) {
    auto base = [&](bool wrapped, bool level1) {
      mc::ExplorerConfig ec;
      ec.harness.n = 3;
      ec.harness.algorithm = algo;
      ec.harness.wrapped = wrapped;
      ec.harness.level1 = level1;
      ec.harness.client.think_mean = 30.0;
      ec.harness.client.eat_mean = 8.0;
      ec.harness.seed = seed;
      ec.budget = 120;
      return ec;
    };
    auto add = [&](const char* tier, mc::ExplorerConfig ec) {
      w.cells.push_back(McCell{std::string(algo) + "/" + tier, std::move(ec)});
    };
    add("bare/safety", base(false, false));
    add("level1/safety", base(false, true));
    add("wrapped/safety", base(true, false));
    add("both/safety", base(true, true));
    for (const bool level1 : {false, true}) {
      mc::ExplorerConfig ec = base(true, level1);
      ec.property = mc::BugProperty::kConvergence;
      ec.fault_budget = 2;
      add(level1 ? "both/channel" : "wrapped/channel", std::move(ec));
    }
    mc::ExplorerConfig ec = base(true, false);
    ec.property = mc::BugProperty::kConvergence;
    ec.fault_budget = 1;
    ec.explore_lifecycle = true;
    add("wrapped/lifecycle", std::move(ec));
  }
  return w;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "service_n12", "recovery_n256", "fault_storm_n16", "mc_sweep"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  if (name == "service_n12") w = service_n12(seed);
  else if (name == "recovery_n256") w = recovery_n256(seed);
  else if (name == "fault_storm_n16") w = fault_storm_n16(seed);
  else if (name == "mc_sweep") w = mc_sweep(seed);
  else GBX_EXPECTS(false && "unknown workload");
  w.name = name;
  return w;
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::string Facts::describe() const {
  std::ostringstream os;
  os << "events=" << events << " messages=" << messages
     << " wrapper_messages=" << wrapper_messages << " cs_entries=" << cs_entries
     << " requests=" << requests_issued << " served=" << served
     << " faults=" << faults << " safety=" << safety_violations
     << " starvation=" << starvation << " latency=" << latency;
  for (const auto& [name, total] : violations) os << " " << name << "=" << total;
  return os.str();
}

Facts run_trial(const Trial& trial, TrialTiming& timing, bool with_obs,
                core::RunStats* stats_out) {
  core::HarnessConfig config = trial.config;
  config.collect_metrics = with_obs;
  config.provenance = with_obs;

  const std::uint64_t t0 = now_ns();
  core::SystemHarness h(config);
  const std::uint64_t t1 = now_ns();
  h.start();
  h.run_for(trial.warmup);
  if (trial.burst > 0) h.faults().burst(trial.burst, net::FaultMix::all());
  h.run_for(trial.observation);
  h.drain(trial.drain);
  const std::uint64_t t2 = now_ns();
  const core::RunStats stats = h.stats();
  const core::StabilizationReport report = h.stabilization_report();
  const std::uint64_t t3 = now_ns();

  timing.setup_ns = t1 - t0;
  timing.sim_ns = t2 - t1;
  timing.stats_ns = t3 - t2;
  timing.observe_ns = stats.observe_ns;

  Facts f;
  f.events = stats.events_executed;
  f.messages = stats.messages_sent;
  f.wrapper_messages = stats.wrapper_messages;
  f.cs_entries = stats.cs_entries;
  f.requests_issued = stats.requests_issued;
  f.served = stats.me2_served;
  f.faults = stats.faults_injected;
  f.violations = h.monitors().violations_total_by_monitor();
  f.safety_violations = stats.me1_violations + stats.me3_violations +
                        stats.invariant_violations +
                        stats.mutual_belief_violations;
  f.starvation = report.starvation;
  f.last_fault = report.last_fault;
  f.last_safety_violation = report.last_safety_violation;
  f.latency = report.latency;
  if (stats_out != nullptr) *stats_out = stats;
  return f;
}

McFacts run_cell(const McCell& cell) {
  mc::Explorer explorer(cell.config);
  const mc::ExplorerResult r = explorer.run();
  McFacts f;
  f.found = r.found;
  f.kind = r.outcome.kind;
  f.stats = r.stats;
  return f;
}

}  // namespace gbx_bench
