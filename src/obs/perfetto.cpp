#include "obs/perfetto.hpp"

#include <map>
#include <set>
#include <string>

#include "obs/event_bus.hpp"

namespace graybox::obs {

namespace {

constexpr int kPidProcesses = 1;
constexpr int kPidNetwork = 2;
constexpr int kPidMonitors = 3;
constexpr int kPidWrappers = 4;
constexpr int kTidNetTraffic = 0;
constexpr int kTidNetFaults = 1;
constexpr int kTidWrapperLevel2 = 0;
constexpr int kTidWrapperLevel1 = 1;

report::Json meta_event(int pid, const char* meta_name, std::string value,
                        int tid = -1) {
  report::Json e = report::Json::object();
  e["ph"] = "M";
  e["pid"] = pid;
  if (tid >= 0) e["tid"] = tid;
  e["name"] = meta_name;
  report::Json args = report::Json::object();
  args["name"] = std::move(value);
  e["args"] = std::move(args);
  return e;
}

report::Json instant(int pid, int tid, SimTime ts, std::string name) {
  report::Json e = report::Json::object();
  e["ph"] = "i";
  e["pid"] = pid;
  e["tid"] = tid;
  e["ts"] = ts;
  e["s"] = "t";  // thread-scoped instant
  e["name"] = std::move(name);
  return e;
}

report::Json complete(int pid, int tid, SimTime ts, SimTime dur,
                      std::string name) {
  report::Json e = report::Json::object();
  e["ph"] = "X";
  e["pid"] = pid;
  e["tid"] = tid;
  e["ts"] = ts;
  e["dur"] = dur;
  e["name"] = std::move(name);
  return e;
}

// Flow events ("s" start / "t" step / "f" end) visualize causal provenance
// as arrows between the instants they are co-located with. All three phases
// share the numeric provenance id; the end carries bp:"e" so the arrow
// binds to the enclosing instant rather than the next slice.
report::Json flow(const char* ph, int pid, int tid, SimTime ts,
                  ProvenanceId id) {
  report::Json e = report::Json::object();
  e["ph"] = ph;
  e["pid"] = pid;
  e["tid"] = tid;
  e["ts"] = ts;
  e["name"] = "provenance";
  e["cat"] = "provenance";
  e["id"] = std::uint64_t{id};
  if (ph[0] == 'f') e["bp"] = "e";
  return e;
}

}  // namespace

report::Json perfetto_trace_json(const EventBus& bus) {
  report::Json events = report::Json::array();

  // First pass: discover which process and monitor tracks appear, so
  // metadata precedes data events (viewers tolerate either order, but a
  // stable header keeps the artifact diffable).
  std::set<ProcessId> procs;
  std::set<std::uint16_t> monitors;
  // Provenance flow anchors: first retained kFaultInjected carrying each id
  // ("s"), and the last retained attributed violation ("f"). Ids whose
  // injection was evicted from the ring get no flow (an arrow needs its
  // start anchor).
  std::map<ProvenanceId, std::size_t> flow_start;
  std::map<ProvenanceId, std::size_t> flow_finish;
  for (std::size_t i = 0; i < bus.size(); ++i) {
    const Event& e = bus.event(i);
    switch (e.kind) {
      case EventKind::kLocalStep:
      case EventKind::kCsEnter:
      case EventKind::kCsExit:
        procs.insert(e.pid);
        break;
      case EventKind::kMonitorViolation:
        monitors.insert(e.monitor);
        for (std::size_t k = 0; k < e.taint.size(); ++k) {
          flow_finish[e.taint[k]] = i;
        }
        break;
      case EventKind::kFaultInjected:
        for (std::size_t k = 0; k < e.taint.size(); ++k) {
          flow_start.emplace(e.taint[k], i);
        }
        break;
      default:
        break;
    }
  }
  const auto emit_flows = [&](const Event& e, std::size_t i, int pid,
                              int tid) {
    for (std::size_t k = 0; k < e.taint.size(); ++k) {
      const ProvenanceId id = e.taint[k];
      const auto s = flow_start.find(id);
      if (s == flow_start.end()) continue;
      if (i == s->second) {
        events.push_back(flow("s", pid, tid, e.time, id));
        continue;
      }
      if (i < s->second) continue;
      const auto f = flow_finish.find(id);
      if (f == flow_finish.end() || i > f->second) continue;
      events.push_back(
          flow(i == f->second ? "f" : "t", pid, tid, e.time, id));
    }
  };

  events.push_back(meta_event(kPidProcesses, "process_name", "processes"));
  for (ProcessId p : procs) {
    events.push_back(meta_event(kPidProcesses, "thread_name",
                                "proc " + std::to_string(p),
                                static_cast<int>(p)));
  }
  events.push_back(meta_event(kPidNetwork, "process_name", "network"));
  events.push_back(
      meta_event(kPidNetwork, "thread_name", "traffic", kTidNetTraffic));
  events.push_back(
      meta_event(kPidNetwork, "thread_name", "faults", kTidNetFaults));
  events.push_back(meta_event(kPidWrappers, "process_name", "wrappers"));
  events.push_back(meta_event(kPidWrappers, "thread_name", "level-2 (W')",
                              kTidWrapperLevel2));
  events.push_back(meta_event(kPidWrappers, "thread_name", "level-1 (local)",
                              kTidWrapperLevel1));
  events.push_back(meta_event(kPidMonitors, "process_name", "monitors"));
  for (std::uint16_t m : monitors) {
    std::string name = m < bus.monitor_names().size()
                           ? bus.monitor_names()[m]
                           : "monitor#" + std::to_string(m);
    events.push_back(
        meta_event(kPidMonitors, "thread_name", std::move(name), m));
  }

  // Second pass: data events, oldest first. CS occupancy becomes "X"
  // slices from enter/exit pairs; an exit whose enter was evicted from the
  // ring degrades to an instant, an enter with no exit stays open to the
  // last retained time.
  // Lifecycle faults: crash→recover and partition→heal pairs become "X"
  // slices with the same eviction degradation as CS occupancy.
  std::map<ProcessId, SimTime> cs_open;
  std::map<ProcessId, SimTime> crash_open;
  SimTime partition_open = kNever;
  SimTime last_ts = 0;
  for (std::size_t i = 0; i < bus.size(); ++i) {
    const Event& e = bus.event(i);
    last_ts = e.time;
    if (e.kind == EventKind::kFaultInjected) {
      if (e.a == kFaultCodeProcessCrash) {
        crash_open[e.pid] = e.time;
      } else if (e.a == kFaultCodeProcessRecover) {
        auto it = crash_open.find(e.pid);
        if (it != crash_open.end()) {
          events.push_back(complete(kPidProcesses, static_cast<int>(e.pid),
                                    it->second, e.time - it->second,
                                    "crashed"));
          crash_open.erase(it);
        }
      } else if (e.a == kFaultCodePartition) {
        partition_open = e.time;
      } else if (e.a == kFaultCodePartitionHeal && partition_open != kNever) {
        events.push_back(complete(kPidNetwork, kTidNetFaults, partition_open,
                                  e.time - partition_open, "partitioned"));
        partition_open = kNever;
      }
    }
    switch (e.kind) {
      case EventKind::kSend:
        events.push_back(
            instant(kPidNetwork, kTidNetTraffic, e.time, bus.render(e)));
        emit_flows(e, i, kPidNetwork, kTidNetTraffic);
        break;
      case EventKind::kDeliver:
      case EventKind::kDrop:
        events.push_back(
            instant(kPidNetwork, kTidNetTraffic, e.time, bus.render(e)));
        break;
      case EventKind::kLocalStep:
        events.push_back(instant(kPidProcesses, static_cast<int>(e.pid),
                                 e.time, bus.render(e)));
        break;
      case EventKind::kCsEnter:
        cs_open[e.pid] = e.time;
        events.push_back(instant(kPidProcesses, static_cast<int>(e.pid),
                                 e.time, bus.render(e)));
        break;
      case EventKind::kCsExit: {
        auto it = cs_open.find(e.pid);
        if (it != cs_open.end()) {
          events.push_back(complete(kPidProcesses, static_cast<int>(e.pid),
                                    it->second, e.time - it->second,
                                    "critical section"));
          cs_open.erase(it);
        }
        events.push_back(instant(kPidProcesses, static_cast<int>(e.pid),
                                 e.time, bus.render(e)));
        break;
      }
      case EventKind::kFaultInjected:
        events.push_back(
            instant(kPidNetwork, kTidNetFaults, e.time, bus.render(e)));
        emit_flows(e, i, kPidNetwork, kTidNetFaults);
        break;
      case EventKind::kWrapperCorrection:
        events.push_back(
            instant(kPidWrappers, kTidWrapperLevel2, e.time, bus.render(e)));
        emit_flows(e, i, kPidWrappers, kTidWrapperLevel2);
        break;
      case EventKind::kLocalCorrection:
        events.push_back(
            instant(kPidWrappers, kTidWrapperLevel1, e.time, bus.render(e)));
        emit_flows(e, i, kPidWrappers, kTidWrapperLevel1);
        break;
      case EventKind::kMonitorViolation:
        events.push_back(
            instant(kPidMonitors, e.monitor, e.time, bus.render(e)));
        emit_flows(e, i, kPidMonitors, e.monitor);
        break;
    }
  }
  for (const auto& [pid, since] : cs_open) {
    events.push_back(complete(kPidProcesses, static_cast<int>(pid), since,
                              last_ts >= since ? last_ts - since : 0,
                              "critical section (open)"));
  }
  for (const auto& [pid, since] : crash_open) {
    events.push_back(complete(kPidProcesses, static_cast<int>(pid), since,
                              last_ts >= since ? last_ts - since : 0,
                              "crashed (open)"));
  }
  if (partition_open != kNever) {
    events.push_back(complete(kPidNetwork, kTidNetFaults, partition_open,
                              last_ts >= partition_open
                                  ? last_ts - partition_open
                                  : 0,
                              "partitioned (open)"));
  }

  report::Json doc = report::Json::object();
  doc["traceEvents"] = std::move(events);
  doc["displayTimeUnit"] = "ms";
  return doc;
}

void write_perfetto_file(const std::string& path, const EventBus& bus) {
  report::write_json_file(path, perfetto_trace_json(bus));
}

}  // namespace graybox::obs
