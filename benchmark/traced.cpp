#include "traced.hpp"

#include <vector>

#include "common/contracts.hpp"
#include "lspec/lspec_clause_monitors.hpp"
#include "lspec/tme_monitors.hpp"
#include "me/protocol_registry.hpp"

namespace gbx_bench {

using namespace graybox;

namespace {

/// Installed monitor name -> metric suffix.
const char* suffix_for(const std::string& monitor) {
  for (const MonitorMetric& m : monitor_metrics())
    if (monitor == m.monitor) return m.suffix;
  GBX_EXPECTS(false && "monitor without a metric name");
  return "";
}

/// The benchmark-owned observation path: the harness's scheduler observer
/// (snapshot capture + MonitorSet::observe_ref), with every call timed.
struct Observation {
  lspec::SnapshotSource& source;
  std::vector<lspec::TmeMonitor*> monitors;
  std::vector<std::uint64_t> monitor_ns;
  const lspec::GlobalSnapshot* last = nullptr;
  LayerTotals& totals;
  /// Observation time inside the step being driven.
  std::uint64_t step_span = 0;

  void observe(SimTime t) {
    const std::uint64_t o0 = now_ns();
    const lspec::GlobalSnapshot& cur = source.capture(t);
    const std::uint64_t o1 = now_ns();
    const std::size_t dirty = source.last_dirty();
    if (dirty == spec::kDirtyNone) ++totals.dirty_none;
    else if (dirty == spec::kDirtyAll) ++totals.dirty_all;
    else ++totals.dirty_pid;
    std::uint64_t prev = o1;
    for (std::size_t i = 0; i < monitors.size(); ++i) {
      if (last == nullptr) monitors[i]->begin(t, cur);
      else monitors[i]->step_delta(t, *last, cur, dirty);
      const std::uint64_t tn = now_ns();
      monitor_ns[i] += tn - prev;
      prev = tn;
    }
    last = &cur;
    ++totals.observed;
    totals.capture_ns += o1 - o0;
    totals.observe_ns += prev - o0;
    step_span += prev - o0;
  }

  void finish(SimTime t) {
    if (last == nullptr) return;
    std::uint64_t prev = now_ns();
    for (std::size_t i = 0; i < monitors.size(); ++i) {
      monitors[i]->finish(t, *last);
      const std::uint64_t tn = now_ns();
      monitor_ns[i] += tn - prev;
      prev = tn;
    }
  }
};

}  // namespace

const char* step_class_name(StepClass c) {
  static const char* kNames[] = {"fault", "deliver", "wrapper_l2",
                                 "wrapper_l1", "client"};
  return kNames[c];
}

const std::array<MonitorMetric, 10>& monitor_metrics() {
  static const std::array<MonitorMetric, 10> kMetrics = {{
      {"ME1", "me1"},
      {"ME2", "me2"},
      {"ME3", "me3"},
      {"InvariantI", "invariant_i"},
      {"MutualBelief", "mutual_belief"},
      {"Lspec/FlowSpec", "flow_spec"},
      {"Lspec/CsSpec", "cs_spec"},
      {"Lspec/RequestSpec", "request_spec"},
      {"Lspec/CsReleaseSpec", "cs_release_spec"},
      {"Lspec/CsEntrySpec", "cs_entry_spec"},
  }};
  return kMetrics;
}

std::uint64_t LayerTotals::total_steps() const {
  std::uint64_t total = 0;
  for (const std::uint64_t s : steps) total += s;
  return total;
}

Facts run_trial_traced(const Trial& trial, LayerTotals& totals) {
  core::HarnessConfig config = trial.config;
  GBX_EXPECTS(config.per_process_algorithms.empty());
  config.install_monitors = false;

  const std::uint64_t w0 = now_ns();
  core::SystemHarness h(config);
  const std::uint64_t w1 = now_ns();
  totals.span_ns += w1 - w0;

  sim::Scheduler& sched = h.scheduler();
  net::Network& net = h.network();
  const std::size_t n = config.n;
  std::vector<me::TmeProcess*> procs;
  std::vector<const wrapper::GrayboxWrapper*> l2;
  std::vector<const wrapper::LocalWrapper*> l1;
  for (ProcessId pid = 0; pid < n; ++pid) {
    procs.push_back(&h.process(pid));
    if (h.wrapper(pid) != nullptr) l2.push_back(h.wrapper(pid));
    if (h.local_wrapper(pid) != nullptr) l1.push_back(h.local_wrapper(pid));
  }

  // The harness's monitoring battery, built the way its constructor builds
  // it, but owned and driven here.
  lspec::SnapshotSource source(procs, net);
  lspec::TmeMonitorSet battery;
  const me::SpecConformance conf = me::ProtocolRegistry::instance()
                                       .require(config.algorithm.name)
                                       .conformance();
  const lspec::TmeMonitors tm = lspec::install_tme_monitors(
      battery, n, std::vector<char>(n, conf.view_entry_truth ? 1 : 0),
      std::vector<char>(n, conf.fcfs ? 1 : 0));
  if (config.install_lspec_monitors)
    lspec::install_lspec_clause_monitors(battery, n);

  Observation obs{source, {}, {}, nullptr, totals};
  for (const auto& m : battery.monitors()) obs.monitors.push_back(m.get());
  obs.monitor_ns.assign(obs.monitors.size(), 0);
  sched.add_observer([o = &obs](SimTime t) { o->observe(t); });

  std::uint64_t delivered = 0;
  net.add_delivery_observer([&](const net::Message& msg) {
    ++delivered;
    if (msg.vc.empty()) {
      ++totals.stamps_empty;
    } else if (msg.vc.is_dense()) {
      ++totals.stamps_dense;
      totals.stamp_entries += msg.vc.size();
    } else {
      totals.stamp_entries += msg.vc.entries().size();
    }
  });

  net::FaultInjector& injector = h.faults();
  net::FaultProcess& load = h.fault_load();
  auto lifecycle = [&] {
    return load.crashes() + load.recoveries() + load.partitions() +
           load.heals();
  };
  auto fault_marker = [&] {
    return injector.total_injected() + load.arrivals_fired() + lifecycle();
  };
  auto l2_sum = [&] {
    std::uint64_t s = 0;
    for (const auto* w : l2) s += w->evaluations();
    return s;
  };
  auto l1_sum = [&] {
    std::uint64_t s = 0;
    for (const auto* w : l1) s += w->checks();
    return s;
  };

  std::uint64_t faults_seen = fault_marker();
  std::uint64_t lifecycle_seen = lifecycle();
  SimTime last_lifecycle = kNever;
  std::uint64_t l2_seen = 0;
  std::uint64_t l1_seen = 0;

  // Step-by-step equivalent of Scheduler::run_for: every event up to the
  // limit via step_until, then run_until(limit) to set the clock.
  auto drive = [&](SimTime duration) {
    const SimTime limit = sched.now() + duration;
    for (;;) {
      const std::uint64_t delivered_before = delivered;
      obs.step_span = 0;
      const std::uint64_t s0 = now_ns();
      const bool ran = sched.step_until(limit);
      const std::uint64_t s1 = now_ns();
      if (!ran) break;
      totals.span_ns += s1 - s0;

      StepClass cls = kClient;
      const std::uint64_t f = fault_marker();
      if (f != faults_seen) {
        cls = kFault;
        faults_seen = f;
        const std::uint64_t lc = lifecycle();
        if (lc != lifecycle_seen) {
          lifecycle_seen = lc;
          last_lifecycle = sched.now();
        }
        // A crash or recovery stops or restarts wrappers; keep the
        // wrapper baselines current so the next step is not misclassed.
        l2_seen = l2_sum();
        l1_seen = l1_sum();
      } else if (delivered != delivered_before) {
        cls = kDeliver;
      } else if (const std::uint64_t e = l2_sum(); e != l2_seen) {
        cls = kWrapperL2;
        l2_seen = e;
      } else if (!l1.empty()) {
        if (const std::uint64_t c = l1_sum(); c != l1_seen) {
          cls = kWrapperL1;
          l1_seen = c;
        }
      }
      ++totals.steps[cls];
      totals.self_ns[cls] += (s1 - s0) - obs.step_span;
      totals.pending_sum += static_cast<double>(sched.pending());
      totals.in_flight_sum += static_cast<double>(net.in_flight());
    }
    sched.run_until(limit);
  };

  h.start();
  drive(trial.warmup);
  if (trial.burst > 0) {
    injector.burst(trial.burst, net::FaultMix::all());
    faults_seen = fault_marker();
  }
  drive(trial.observation);
  for (ProcessId pid = 0; pid < n; ++pid) h.client(pid).stop_requesting();
  drive(trial.drain);
  {
    const std::uint64_t f0 = now_ns();
    obs.finish(sched.now());
    totals.span_ns += now_ns() - f0;
  }

  Facts f;
  f.events = sched.executed();
  f.messages = net.total_sent();
  f.wrapper_messages = net.sent_by_wrapper();
  for (const me::TmeProcess* p : procs) f.cs_entries += p->cs_entries();
  for (ProcessId pid = 0; pid < n; ++pid)
    f.requests_issued += h.client(pid).requests_issued();
  f.served = tm.me2->served();
  f.faults = injector.total_injected() + lifecycle();
  f.violations = battery.violations_total_by_monitor();
  SimTime last_safety = kNever;
  for (const lspec::TmeMonitor* m :
       {static_cast<const lspec::TmeMonitor*>(tm.me1),
        static_cast<const lspec::TmeMonitor*>(tm.me3),
        static_cast<const lspec::TmeMonitor*>(tm.invariant_i),
        static_cast<const lspec::TmeMonitor*>(tm.mutual_belief)}) {
    if (m == nullptr) continue;
    f.safety_violations += m->total_violations();
    const SimTime t = m->last_violation();
    if (t != kNever && (last_safety == kNever || t > last_safety))
      last_safety = t;
  }
  f.starvation = tm.me2->starvation_at_end();
  f.last_fault = injector.last_fault_time();
  if (last_lifecycle != kNever &&
      (f.last_fault == kNever || last_lifecycle > f.last_fault))
    f.last_fault = last_lifecycle;
  f.last_safety_violation = last_safety;
  f.latency = (last_safety != kNever && f.last_fault != kNever &&
               last_safety > f.last_fault)
                  ? last_safety - f.last_fault
                  : 0;

  totals.sent += net.total_sent();
  totals.sent_wrapper += net.sent_by_wrapper();
  totals.delivered += delivered;
  totals.cs_entries += f.cs_entries;
  totals.requests_issued += f.requests_issued;
  for (const auto* w : l2) {
    totals.l2_evaluations += w->evaluations();
    totals.l2_resends += w->resends();
  }
  for (const auto* w : l1) {
    totals.l1_checks += w->checks();
    totals.l1_corrections += w->corrections();
  }
  for (std::size_t i = 0; i < obs.monitors.size(); ++i)
    totals.monitor_ns[suffix_for(obs.monitors[i]->name())] += obs.monitor_ns[i];
  totals.wall_ns += now_ns() - w0;
  return f;
}

}  // namespace gbx_bench
