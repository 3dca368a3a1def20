// E3 — the Section 4 deadlock scenario, end to end.
//
// "Suppose processes j and k have both requested CS [and] REQj and REQk are
//  both dropped from the channels ... the state of M has a deadlock."
//
// Part 1 runs the scripted scenario bare and wrapped for both programs:
// bare systems starve forever; the identical wrapper recovers both.
// Part 2 sweeps the W' timeout delta and reports time-to-recovery, showing
// the linear dependence of recovery latency on the resend period. The
// sweep rides the engine's custom-trial hook: each cell's trial callable
// measures recovery time and reports it through the normal latency field.
#include <iostream>

#include "common/flags.hpp"
#include "common/table.hpp"
#include "core/engine.hpp"

namespace {

using namespace graybox;
using namespace graybox::core;

FaultScenario deadlock_scenario() {
  FaultScenario scenario;
  scenario.warmup = 100;
  scenario.observation = 8000;
  scenario.drain = 6000;
  scenario.scripted_fault = [](SystemHarness& h) {
    h.process(0).request_cs();
    h.process(1).request_cs();
    const std::size_t n = h.network().size();
    for (ProcessId to = 0; to < n; ++to) {
      if (to != 0) h.network().channel(0, to).fault_clear();
      if (to != 1) h.network().channel(1, to).fault_clear();
    }
  };
  return scenario;
}

HarnessConfig config_for(const std::string& algo, bool wrapped,
                         SimTime period) {
  HarnessConfig config;
  config.n = 3;
  config.algorithm = algo;
  config.wrapped = wrapped;
  config.wrapper.resend_period = period;
  config.client.wants_cs = false;  // scripted requests only
  config.seed = 7;
  return config;
}

/// Custom engine trial: time from the fault to the moment both scripted
/// requests were served, reported as `latency`; `stabilized` iff the run
/// did not time out. Thread-safe — every call owns its own harness.
ExperimentResult recovery_trial(const HarnessConfig& config,
                                const FaultScenario& scenario) {
  SystemHarness h(config);
  h.start();
  h.run_for(100);
  scenario.scripted_fault(h);
  const SimTime fault_at = h.scheduler().now();
  ExperimentResult result;
  result.report.faults_injected = true;
  result.report.last_fault = fault_at;
  while (h.scheduler().now() < fault_at + 100000) {
    h.run_for(2);
    if (h.process(0).cs_entries() + h.process(1).cs_entries() >= 2) {
      result.report.stabilized = true;
      result.report.latency = h.scheduler().now() - fault_at;
      break;
    }
  }
  result.report.starvation = !result.report.stabilized;
  h.drain(100);
  result.stats = h.stats();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv, with_engine_flags());
  const ExperimentEngine engine(engine_options_from_flags(flags));

  const SimTime deltas[] = {0, 5, 10, 25, 50, 100, 200, 400};
  const std::string algos[] = {"ricart-agrawala", "lamport"};

  SpecGrid grid;
  for (const std::string& algo : algos) {
    const std::string stem =
        algo == "ricart-agrawala" ? "ra" : "lamport";
    for (const bool wrapped : {false, true}) {
      // The scenario is fully scripted, so one trial is the experiment.
      grid.add("verdict/" + stem + (wrapped ? "/wrapped" : "/bare"),
               config_for(algo, wrapped, 20), deadlock_scenario(), 1);
    }
    for (const SimTime delta : deltas) {
      RunSpec spec;
      spec.name = "sweep/" + stem + "/delta=" + std::to_string(delta);
      spec.config = config_for(algo, true, delta);
      spec.scenario = deadlock_scenario();
      spec.trials = 1;
      spec.trial = recovery_trial;
      grid.add(std::move(spec));
    }
  }
  const GridResult result = engine.run(grid);

  std::cout << "E3: Section 4 deadlock — both requests dropped from the "
               "channels (" << result.jobs << " jobs)\n\n";

  Table verdicts({"algorithm", "wrapper", "outcome", "starvation at end",
                  "CS entries"});
  for (const std::string& algo : algos) {
    const std::string stem =
        algo == "ricart-agrawala" ? "ra" : "lamport";
    for (const bool wrapped : {false, true}) {
      const RepeatedResult& r =
          result.cell("verdict/" + stem + (wrapped ? "/wrapped" : "/bare"))
              .result;
      verdicts.row(algo, wrapped ? "W' (delta=20)" : "none",
                   r.all_stabilized() ? "recovered" : "DEADLOCKED forever",
                   r.starved > 0,
                   static_cast<std::uint64_t>(r.cs_entries.sum()));
    }
  }
  verdicts.print(std::cout);

  std::cout << "\nRecovery latency vs wrapper timeout delta (time until both "
               "wedged requests served):\n\n";
  Table sweep({"delta", "ricart-agrawala", "lamport"});
  for (const SimTime delta : deltas) {
    auto cell = [&](const char* stem) {
      const RepeatedResult& r =
          result
              .cell(std::string("sweep/") + stem +
                    "/delta=" + std::to_string(delta))
              .result;
      return r.all_stabilized()
                 ? std::to_string(
                       static_cast<std::uint64_t>(r.latency.mean()))
                 : std::string("never");
    };
    sweep.row(delta, cell("ra"), cell("lamport"));
  }
  sweep.print(std::cout);

  std::cout << "\nExpected shape: bare rows deadlock, wrapped rows recover "
               "(paper Theorem 8); recovery latency grows roughly linearly "
               "with delta (Section 4, 'Implementation of W').\n";

  const std::string path = emit_bench_artifact(flags, result);
  if (!path.empty()) std::cout << "\nwrote " << path << "\n";
  return 0;
}
