#include "obs/timeline.hpp"

#include <algorithm>
#include <sstream>

#include "obs/event_bus.hpp"

namespace graybox::obs {

namespace {

std::string time_or_never(SimTime t) {
  return t == kNever ? std::string("never") : std::to_string(t);
}

report::Json entry_to_json(const TimelineEntry& e) {
  report::Json cell = report::Json::object();
  cell["count"] = e.count;
  cell["first"] = e.first == kNever ? report::Json() : report::Json(e.first);
  cell["last"] = e.last == kNever ? report::Json() : report::Json(e.last);
  return cell;
}

}  // namespace

std::string StabilizationTimeline::to_string() const {
  std::ostringstream os;
  os << "stabilization timeline (run_end=" << run_end << ")\n";

  os << "  fault burst:      " << faults_injected << " fault(s)";
  if (faults_injected > 0) {
    os << " over [" << time_or_never(first_fault) << ", "
       << time_or_never(last_fault) << "]";
  }
  os << "\n";
  for (const TimelineEntry& f : faults) {
    if (f.count == 0) continue;
    os << "    " << f.name << ": " << f.count << " @ ["
       << time_or_never(f.first) << ", " << time_or_never(f.last) << "]\n";
  }

  os << "  first violation:  " << time_or_never(first_violation) << "\n";
  os << "  violation decay:  " << violations_total << " violation(s) total\n";
  for (const TimelineEntry& c : clauses) {
    os << "    " << c.name << ": " << c.count;
    if (c.count > 0) {
      os << " @ [" << time_or_never(c.first) << ", " << time_or_never(c.last)
         << "]";
    }
    os << "\n";
  }
  os << "  last violation:   " << time_or_never(last_violation) << "\n";
  os << "  divergent window: " << divergent_window() << " tick(s)\n";
  os << "  quiescence:       last activity @ " << time_or_never(last_activity)
     << (quiescent ? ", quiescent" : ", still active") << "\n";
  return os.str();
}

report::Json StabilizationTimeline::to_json() const {
  report::Json doc = report::Json::object();
  doc["run_end"] = run_end;

  report::Json burst = report::Json::object();
  burst["count"] = faults_injected;
  burst["first"] =
      first_fault == kNever ? report::Json() : report::Json(first_fault);
  burst["last"] =
      last_fault == kNever ? report::Json() : report::Json(last_fault);
  report::Json by_kind = report::Json::object();
  for (const TimelineEntry& f : faults) by_kind[f.name] = entry_to_json(f);
  burst["by_kind"] = std::move(by_kind);
  doc["fault_burst"] = std::move(burst);

  report::Json viol = report::Json::object();
  viol["count"] = violations_total;
  viol["first"] = first_violation == kNever ? report::Json()
                                            : report::Json(first_violation);
  viol["last"] = last_violation == kNever ? report::Json()
                                          : report::Json(last_violation);
  report::Json by_clause = report::Json::object();
  for (const TimelineEntry& c : clauses) by_clause[c.name] = entry_to_json(c);
  viol["by_clause"] = std::move(by_clause);
  doc["violations"] = std::move(viol);

  doc["divergent_window"] = divergent_window();
  doc["last_activity"] =
      last_activity == kNever ? report::Json() : report::Json(last_activity);
  doc["quiescent"] = quiescent;
  doc["stabilized"] = stabilized();
  return doc;
}

StabilizationTimeline timeline_from_bus(const EventBus& bus) {
  StabilizationTimeline tl;
  tl.run_end = bus.now();

  const KindStats& faults = bus.kind_stats(EventKind::kFaultInjected);
  tl.faults_injected = faults.count;
  tl.first_fault = faults.first;
  tl.last_fault = faults.last;
  const auto& fault_stats = bus.fault_stats();
  for (std::size_t i = 0; i < fault_stats.size(); ++i) {
    if (fault_stats[i].count == 0) continue;
    TimelineEntry e;
    e.name = fault_code_name(static_cast<std::uint8_t>(i));
    e.count = fault_stats[i].count;
    e.first = fault_stats[i].first;
    e.last = fault_stats[i].last;
    tl.faults.push_back(std::move(e));
  }

  const KindStats& viols = bus.kind_stats(EventKind::kMonitorViolation);
  tl.violations_total = viols.count;
  tl.first_violation = viols.first;
  tl.last_violation = viols.last;
  const std::vector<KindStats>& monitor_stats = bus.monitor_stats();
  for (std::size_t i = 0; i < monitor_stats.size(); ++i) {
    TimelineEntry e;
    e.name = i < bus.monitor_names().size()
                 ? bus.monitor_names()[i]
                 : "monitor#" + std::to_string(i);
    e.count = monitor_stats[i].count;
    e.first = monitor_stats[i].first;
    e.last = monitor_stats[i].last;
    tl.clauses.push_back(std::move(e));
  }

  SimTime last = kNever;
  for (EventKind k : {EventKind::kSend, EventKind::kDeliver,
                      EventKind::kFaultInjected, EventKind::kMonitorViolation,
                      EventKind::kWrapperCorrection,
                      EventKind::kLocalCorrection}) {
    const KindStats& s = bus.kind_stats(k);
    if (s.count == 0) continue;
    if (last == kNever || s.last > last) last = s.last;
  }
  tl.last_activity = last;
  tl.quiescent = last == kNever || last < tl.run_end;
  return tl;
}

}  // namespace graybox::obs
