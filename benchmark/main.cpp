// gbx_bench: the repo benchmark. See README.md in this directory.
//
//   gbx_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//
// --trace 0 measures the workload untraced for about S seconds and prints
// the end-to-end metrics. --trace 1 runs the same trial set untraced,
// traced and with obs on, checks that all three agree on every
// simulated-time fact, and prints the per-layer metrics. The last line of
// stdout is always one JSON object: correct / attempted / failed / metrics.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "mc/trace.hpp"
#include "traced.hpp"
#include "workloads.hpp"

namespace {

using namespace gbx_bench;

constexpr std::uint64_t kMaxSeconds = 600;

void usage(std::ostream& os) {
  os << "usage: gbx_bench --workload NAME [--seed N] [--seconds S] "
        "[--trace 0|1]\n"
        "  --workload  one of:";
  for (const std::string& w : workload_names()) os << " " << w;
  os << "\n  --seed      workload seed, 0.." << UINT64_MAX << " (default 1)\n"
     << "  --seconds   measurement length, 1.." << kMaxSeconds
     << " (default 10)\n"
     << "  --trace     0 = end-to-end metrics, 1 = per-layer metrics "
        "(default 0)\n";
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  std::uint64_t seconds = 10;
  std::uint64_t trace = 0;
};

/// Whole-string unsigned decimal parse within [lo, hi].
std::optional<std::uint64_t> parse_uint(const std::string& s, std::uint64_t lo,
                                        std::uint64_t hi) {
  std::uint64_t v = 0;
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (s.empty() || ec != std::errc() || ptr != end || v < lo || v > hi)
    return std::nullopt;
  return v;
}

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return std::nullopt;
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      if (std::find(workload_names().begin(), workload_names().end(),
                    value) == workload_names().end())
        return std::nullopt;
      args.workload = value;
    } else if (key == "--seed") {
      const auto v = parse_uint(value, 0, UINT64_MAX);
      if (!v) return std::nullopt;
      args.seed = *v;
    } else if (key == "--seconds") {
      const auto v = parse_uint(value, 1, kMaxSeconds);
      if (!v) return std::nullopt;
      args.seconds = *v;
    } else if (key == "--trace") {
      const auto v = parse_uint(value, 0, 1);
      if (!v) return std::nullopt;
      args.trace = *v;
    } else {
      return std::nullopt;
    }
  }
  if (args.workload.empty()) return std::nullopt;
  return args;
}

/// Output checks. Every check counts toward `attempted`; a failed one is
/// reported on stderr and counted, never dropped.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void expect(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    std::cerr << "CHECK FAILED: " << what << "\n";
  }
  double fail_frac() const {
    return attempted ? static_cast<double>(failed) / attempted : 0.0;
  }
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : (v[m - 1] + v[m]) / 2;
}

/// Peak resident set of this process image. VmHWM, not getrusage's
/// ru_maxrss: Linux carries ru_maxrss across execve, so it would report the
/// launching process's footprint whenever that was larger.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
  }
  return 0.0;
}

std::string number(double v) {
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return ec == std::errc() ? std::string(buf, ptr) : "0";
}

// ---------------------------------------------------------------------------
// Checks on a trial's facts.

void check_trial(const Workload& w, const Trial& t, const Facts& f,
                 Checks& checks) {
  if (w.fault_free) {
    checks.expect(f.safety_violations == 0 && !f.starvation,
                  w.name + " " + t.label +
                      ": fault-free trial must be violation-free (" +
                      f.describe() + ")");
  } else {
    checks.expect(!f.starvation && f.faults > 0,
                  w.name + " " + t.label +
                      ": wrapped fault trial must stabilize (" +
                      f.describe() + ")");
  }
}

void check_cell(const McCell& c, const McFacts& f, Checks& checks) {
  checks.expect(!f.found, "mc_sweep " + c.label + ": cell must be clean, "
                          "found " + f.kind);
}

/// Median stabilization latency over fault trials; availability and
/// messages per CS entry over the set. All 0 for an empty set.
void behaviour_facts(const std::vector<Facts>& facts,
                     std::vector<Metric>& out) {
  std::vector<double> latencies;
  double served = 0, requests = 0, messages = 0, entries = 0;
  for (const Facts& f : facts) {
    if (f.faults > 0) latencies.push_back(static_cast<double>(f.latency));
    served += static_cast<double>(f.served);
    requests += static_cast<double>(f.requests_issued);
    messages += static_cast<double>(f.messages);
    entries += static_cast<double>(f.cs_entries);
  }
  out.push_back({"stab_latency_ticks", median(latencies), "ticks"});
  out.push_back({"availability", std::min(1.0, ratio(served, requests)),
                 "ratio"});
  out.push_back({"msgs_per_cs_entry", ratio(messages, entries), "count"});
}

// ---------------------------------------------------------------------------
// Set-up time: constructing the workload's harnesses once. A sample
// repeats the constructions until it spans at least kSetupSampleNs, so
// microsecond-scale sets stay resolvable. One sample is taken before each
// repetition of the trial set, so the samples spread over the whole run
// rather than its first moments; setup_s is their median, over at least
// kSetupSamples samples.

constexpr std::size_t kSetupSamples = 9;
constexpr std::uint64_t kSetupSampleNs = 50'000'000;

std::vector<graybox::core::HarnessConfig> harness_configs(const Workload& w) {
  std::vector<graybox::core::HarnessConfig> configs;
  for (const Trial& t : w.trials) configs.push_back(t.config);
  for (const McCell& c : w.cells) configs.push_back(c.config.harness);
  return configs;
}

double setup_sample_s(const std::vector<graybox::core::HarnessConfig>& configs) {
  std::uint64_t constructing = 0;
  std::uint64_t sets = 0;
  do {
    for (const auto& config : configs) {
      const std::uint64_t t0 = now_ns();
      graybox::core::SystemHarness h(config);
      constructing += now_ns() - t0;
    }
    ++sets;
  } while (constructing < kSetupSampleNs);
  return static_cast<double>(constructing) / static_cast<double>(sets) * 1e-9;
}

// ---------------------------------------------------------------------------
// --trace 0: end-to-end metrics.

std::vector<Metric> measure(const Workload& w, const Args& args,
                            Checks& checks, std::vector<Metric>& facts_out) {
  const std::uint64_t deadline = now_ns() + args.seconds * 1'000'000'000ULL;
  const auto configs = harness_configs(w);
  std::vector<double> setup_samples;

  std::vector<double> rep_walls;
  double events = 0, event_ns = 0, executions = 0, execution_ns = 0;
  std::vector<Facts> ref_facts;
  std::vector<McFacts> ref_cells;
  // Closed loop: the fixed set runs back to back until the time is up,
  // at least twice so every run also checks repeatability.
  for (std::size_t rep = 0; rep < 2 || now_ns() < deadline; ++rep) {
    setup_samples.push_back(setup_sample_s(configs));
    double rep_ns = 0;
    for (std::size_t i = 0; i < w.trials.size(); ++i) {
      TrialTiming timing;
      const Facts f = run_trial(w.trials[i], timing, false);
      rep_ns += static_cast<double>(timing.setup_ns + timing.sim_ns +
                                    timing.stats_ns);
      events += static_cast<double>(f.events);
      event_ns += static_cast<double>(timing.sim_ns);
      executions += 1;
      if (rep == 0) {
        check_trial(w, w.trials[i], f, checks);
        ref_facts.push_back(f);
      } else {
        checks.expect(f == ref_facts[i],
                      w.name + " " + w.trials[i].label +
                          ": rerun must repeat the first run's facts");
      }
    }
    for (std::size_t i = 0; i < w.cells.size(); ++i) {
      const McCell& cell = w.cells[i];
      const std::uint64_t t0 = now_ns();
      const McFacts f = run_cell(cell);
      const std::uint64_t t1 = now_ns();
      rep_ns += static_cast<double>(t1 - t0);
      executions += static_cast<double>(f.stats.executions);
      execution_ns += static_cast<double>(t1 - t0);
      // The explorer reports no event counts; its root schedule (the
      // plain seeded run every cell starts from) gives the event rate.
      graybox::mc::Explorer root_explorer(cell.config);
      graybox::mc::ScheduleTrace root;
      root.seed = cell.config.harness.seed;
      const std::uint64_t r0 = now_ns();
      const graybox::mc::Outcome outcome = root_explorer.execute(root);
      event_ns += static_cast<double>(now_ns() - r0);
      events += static_cast<double>(outcome.executed_events);
      if (rep == 0) {
        check_cell(cell, f, checks);
        checks.expect(!outcome.bug, "mc_sweep " + cell.label +
                                        ": root schedule must be clean");
        ref_cells.push_back(f);
      } else {
        checks.expect(f == ref_cells[i],
                      "mc_sweep " + cell.label +
                          ": rerun must repeat the first run's facts");
      }
    }
    if (!w.is_mc()) execution_ns += rep_ns;
    rep_walls.push_back(rep_ns * 1e-9);
  }

  while (setup_samples.size() < kSetupSamples)
    setup_samples.push_back(setup_sample_s(configs));

  std::cout << "reps";
  for (const double wall : rep_walls) std::cout << " " << number(wall);
  std::cout << "\n";
  if (!w.is_mc()) behaviour_facts(ref_facts, facts_out);
  return {
      {"events_per_sec", ratio(events, event_ns * 1e-9), "1/s"},
      {"run_wall_s", median(rep_walls), "s"},
      {"setup_s", median(setup_samples), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"mc_execs_per_sec", ratio(executions, execution_ns * 1e-9), "1/s"},
  };
}

// ---------------------------------------------------------------------------
// --trace 1: per-layer metrics.

std::vector<Metric> measure_traced(const Workload& w, const Args& args,
                                   Checks& checks,
                                   std::vector<Metric>& facts_out) {
  const std::uint64_t deadline = now_ns() + args.seconds * 1'000'000'000ULL;
  LayerTotals layers;
  double untraced_ns = 0, untraced_observe_ns = 0, events = 0;
  double setup_ns = 0, stats_ns = 0, obs_delta_ns = 0;
  double messages_tainted = 0, taint_overflows = 0;
  double mc_executions = 0, mc_ns = 0, mc_choice_points = 0;
  double mc_pruned = 0, mc_considered = 0;
  std::vector<Facts> ref_facts;
  std::size_t rounds = 0;
  for (; rounds == 0 || now_ns() < deadline; ++rounds) {
    for (std::size_t i = 0; i < w.trials.size(); ++i) {
      const Trial& t = w.trials[i];
      TrialTiming plain;
      const Facts a = run_trial(t, plain, false);
      const Facts b = run_trial_traced(t, layers);
      TrialTiming with_obs;
      graybox::core::RunStats stats;
      const Facts c = run_trial(t, with_obs, true, &stats);
      if (rounds == 0) {
        check_trial(w, t, a, checks);
        ref_facts.push_back(a);
      } else {
        checks.expect(a == ref_facts[i],
                      w.name + " " + t.label +
                          ": rerun must repeat the first run's facts");
      }
      checks.expect(b == a, w.name + " " + t.label +
                                ": traced run must repeat the untraced "
                                "facts\n  untraced " + a.describe() +
                                "\n  traced   " + b.describe());
      checks.expect(c == a, w.name + " " + t.label +
                                ": obs-on run must repeat the obs-off "
                                "facts\n  off " + a.describe() +
                                "\n  on  " + c.describe());
      untraced_ns += static_cast<double>(plain.setup_ns + plain.sim_ns);
      untraced_observe_ns += static_cast<double>(plain.observe_ns);
      events += static_cast<double>(a.events);
      setup_ns += static_cast<double>(plain.setup_ns);
      stats_ns += static_cast<double>(plain.stats_ns);
      obs_delta_ns += static_cast<double>(with_obs.sim_ns) -
                      static_cast<double>(plain.sim_ns);
      messages_tainted += static_cast<double>(stats.messages_tainted);
      taint_overflows += static_cast<double>(stats.taint_overflows);
    }
    for (const McCell& cell : w.cells) {
      const std::uint64_t s0 = now_ns();
      { graybox::core::SystemHarness h(cell.config.harness); }
      setup_ns += static_cast<double>(now_ns() - s0);
      const McFacts plain = run_cell(cell);
      const std::uint64_t t0 = now_ns();
      const McFacts timed = run_cell(cell);
      mc_ns += static_cast<double>(now_ns() - t0);
      if (rounds == 0) check_cell(cell, plain, checks);
      checks.expect(timed == plain, "mc_sweep " + cell.label +
                                        ": timed sweep must repeat the "
                                        "untimed facts");
      const auto& s = timed.stats;
      mc_executions += static_cast<double>(s.executions);
      mc_choice_points += static_cast<double>(s.choice_points);
      mc_pruned += static_cast<double>(s.pruned_sleep + s.pruned_delay);
      mc_considered += static_cast<double>(s.alternatives + s.pruned_delay);
    }
  }

  const double r = static_cast<double>(rounds);
  const double per_trial =
      w.is_mc() ? r * w.cells.size() : r * w.trials.size();
  const double steps = static_cast<double>(layers.total_steps());
  const double observed = static_cast<double>(layers.observed);
  const double delivered = static_cast<double>(layers.delivered);
  std::vector<Metric> m;
  for (std::size_t c = 0; c < kStepClasses; ++c) {
    const auto cls = static_cast<StepClass>(c);
    m.push_back({std::string("sim.events.") + step_class_name(cls),
                 static_cast<double>(layers.steps[c]) / r, "count"});
  }
  for (std::size_t c = 0; c < kStepClasses; ++c) {
    const auto cls = static_cast<StepClass>(c);
    m.push_back({std::string("sim.step_ns.") + step_class_name(cls),
                 ratio(static_cast<double>(layers.self_ns[c]),
                       static_cast<double>(layers.steps[c])),
                 "ns"});
  }
  m.push_back({"sim.pending_mean", ratio(layers.pending_sum, steps), "count"});
  m.push_back({"net.sent", static_cast<double>(layers.sent) / r, "count"});
  m.push_back({"net.sent_wrapper", static_cast<double>(layers.sent_wrapper) / r,
               "count"});
  m.push_back({"net.delivered", delivered / r, "count"});
  m.push_back(
      {"net.in_flight_mean", ratio(layers.in_flight_sum, steps), "count"});
  m.push_back({"clock.stamp_entries_mean",
               ratio(static_cast<double>(layers.stamp_entries), delivered),
               "count"});
  m.push_back({"clock.stamp_dense_frac",
               ratio(static_cast<double>(layers.stamps_dense), delivered),
               "ratio"});
  m.push_back({"clock.stamp_empty_frac",
               ratio(static_cast<double>(layers.stamps_empty), delivered),
               "ratio"});
  m.push_back(
      {"me.cs_entries", static_cast<double>(layers.cs_entries) / r, "count"});
  m.push_back({"me.requests_issued",
               static_cast<double>(layers.requests_issued) / r, "count"});
  m.push_back({"wrapper.l2_evaluations",
               static_cast<double>(layers.l2_evaluations) / r, "count"});
  m.push_back({"wrapper.l2_resends",
               static_cast<double>(layers.l2_resends) / r, "count"});
  m.push_back({"wrapper.l2_resends_per_eval",
               ratio(static_cast<double>(layers.l2_resends),
                     static_cast<double>(layers.l2_evaluations)),
               "ratio"});
  m.push_back({"wrapper.l1_checks", static_cast<double>(layers.l1_checks) / r,
               "count"});
  m.push_back({"wrapper.l1_corrections",
               static_cast<double>(layers.l1_corrections) / r, "count"});
  m.push_back({"lspec.capture_ns",
               ratio(static_cast<double>(layers.capture_ns), observed), "ns"});
  m.push_back({"lspec.observe_ns",
               ratio(static_cast<double>(layers.observe_ns), observed), "ns"});
  m.push_back({"lspec.dirty_none_frac",
               ratio(static_cast<double>(layers.dirty_none), observed),
               "ratio"});
  m.push_back({"lspec.dirty_pid_frac",
               ratio(static_cast<double>(layers.dirty_pid), observed),
               "ratio"});
  m.push_back({"lspec.dirty_all_frac",
               ratio(static_cast<double>(layers.dirty_all), observed),
               "ratio"});
  for (const MonitorMetric& mm : monitor_metrics()) {
    const std::string suffix = mm.suffix;
    const auto it = layers.monitor_ns.find(suffix);
    const double ns =
        it == layers.monitor_ns.end() ? 0.0 : static_cast<double>(it->second);
    m.push_back({std::string("lspec.monitor_ns.") + suffix,
                 ratio(ns, observed), "ns"});
  }
  m.push_back({"obs.ns_per_event", ratio(obs_delta_ns, events), "ns"});
  m.push_back({"obs.messages_tainted", messages_tainted / r, "count"});
  m.push_back({"obs.taint_overflows", taint_overflows / r, "count"});
  m.push_back({"core.setup_ns", ratio(setup_ns, per_trial), "ns"});
  m.push_back({"core.stats_ns",
               w.is_mc() ? 0.0 : ratio(stats_ns, per_trial), "ns"});
  m.push_back({"mc.executions", mc_executions / r, "count"});
  m.push_back({"mc.ns_per_execution", ratio(mc_ns, mc_executions), "ns"});
  m.push_back({"mc.choice_points_per_execution",
               ratio(mc_choice_points, mc_executions), "count"});
  m.push_back({"mc.pruned_frac", ratio(mc_pruned, mc_considered), "ratio"});
  // Self-checks on the trace itself.
  m.push_back({"trace.span_coverage",
               ratio(static_cast<double>(layers.span_ns),
                     static_cast<double>(layers.wall_ns)),
               "ratio"});
  m.push_back({"trace.overhead",
               w.is_mc() ? 0.0
                         : ratio(static_cast<double>(layers.wall_ns),
                                 untraced_ns) - 1.0,
               "ratio"});
  m.push_back({"trace.untraced_observe_ns", ratio(untraced_observe_ns, events),
               "ns"});
  // JSON rows on every workload; mc_sweep has no trials and reads 0.
  behaviour_facts(ref_facts, facts_out);
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> parsed = parse_args(argc, argv);
  if (!parsed) {
    usage(std::cerr);
    return 2;
  }
  const Args& args = *parsed;
  const Workload w = make_workload(args.workload, args.seed);

  std::cout << "host {\"nproc\": " << std::thread::hardware_concurrency()
            << ", \"build_type\": \"" << GBX_BENCH_BUILD_TYPE
            << "\", \"lto\": " << (GBX_BENCH_LTO_ON ? "true" : "false")
            << ", \"compiler\": \"" << __VERSION__ << "\"}\n";
  std::cout << "run {\"workload\": \"" << w.name << "\", \"seed\": "
            << args.seed << ", \"seconds\": " << args.seconds
            << ", \"trace\": " << args.trace << "}\n";

  Checks checks;
  std::vector<Metric> facts;
  std::vector<Metric> metrics = args.trace
                                    ? measure_traced(w, args, checks, facts)
                                    : measure(w, args, checks, facts);
  facts.push_back({"fail_frac", checks.fail_frac(), "ratio"});
  if (args.trace) {
    // The behaviour facts are rows of the traced run's JSON; the untraced
    // run prints them as text only.
    metrics.insert(metrics.end(), facts.begin(), facts.end());
    facts.clear();
  }

  for (const Metric& m : metrics)
    std::cout << "metric " << m.name << " " << number(m.value) << " " << m.unit
              << "\n";
  for (const Metric& m : facts)
    std::cout << "fact " << m.name << " " << number(m.value) << " " << m.unit
              << "\n";

  std::cout << "{\"correct\": " << (checks.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << checks.attempted
            << ", \"failed\": " << checks.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::cout << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": "
              << number(v) << ", \"unit\": \"" << m.unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return 0;
}
