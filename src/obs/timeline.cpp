#include "obs/timeline.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <variant>

#include "obs/trace.hpp"

namespace slcube::obs {

namespace {

constexpr int kPid = 1;
constexpr int kTidEpochs = 1;
constexpr int kTidRoutes = 2;
constexpr int kTidBreadcrumbs = 3;

/// One trace event object inside the traceEvents array: Chrome's
/// ph/pid/tid header, then name/ts/dur/scope fields, then an "args"
/// object opened by the first arg(). Numbers are written as doubles.
class Event {
 public:
  Event(std::ostream& os, bool& first, const char* phase, int tid)
      : obj_(separate(os, first)) {
    obj_.str("ph", phase);
    obj_.num("pid", kPid);
    obj_.num("tid", tid);
  }

  Event& name(std::string_view v) {
    obj_.str("name", v);
    return *this;
  }
  Event& ts(double v) {
    obj_.num("ts", v);
    return *this;
  }
  Event& dur(double v) {
    obj_.num("dur", v);
    return *this;
  }
  Event& scope_thread() {  // instant scope: thread-local tick
    obj_.str("s", "t");
    return *this;
  }
  template <typename T>
    requires std::is_arithmetic_v<T>
  Event& arg(const char* key, T v) {
    args().num(key, static_cast<double>(v));
    return *this;
  }
  Event& arg(const char* key, std::string_view v) {
    args().str(key, v);
    return *this;
  }

 private:
  static std::ostream& separate(std::ostream& os, bool& first) {
    if (!first) os << ",\n";
    first = false;
    return os;
  }
  ObjectWriter& args() {
    if (!args_) args_.emplace(obj_.key("args"));
    return *args_;
  }

  ObjectWriter obj_;
  std::optional<ObjectWriter> args_;  // declared last: closes first
};

void write_thread_name(std::ostream& os, bool& first, int tid,
                       const char* label) {
  Event ev(os, first, "M", tid);
  ev.name("thread_name").arg("name", std::string_view(label));
}

}  // namespace

TimelineStats write_chrome_trace(std::ostream& os,
                                 const std::vector<ParsedEvent>& events) {
  TimelineStats stats;

  // Pass 1: collect the epoch lineage so slices can span to their
  // successor and routes can name the churn that produced their epoch.
  std::map<std::uint64_t, EpochPublishEvent> epochs;  // by epoch number
  std::vector<RouteSummaryEvent> routes;              // in stream order
  double max_ts = 0;
  for (const ParsedEvent& parsed : events) {
    TraceEvent ev;
    if (!to_trace_event(parsed, ev)) {
      ++stats.events_skipped;
    } else if (const auto* epoch = std::get_if<EpochPublishEvent>(&ev)) {
      epochs[epoch->epoch] = *epoch;
      max_ts = std::max(max_ts, static_cast<double>(epoch->ts));
    } else if (const auto* route = std::get_if<RouteSummaryEvent>(&ev)) {
      routes.push_back(*route);
      max_ts = std::max(
          max_ts, static_cast<double>(route->route_id + route->hops + 1));
    } else {
      ++stats.events_skipped;
    }
  }

  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;

  {
    Event ev(os, first, "M", kTidEpochs);
    ev.name("process_name").arg("name", std::string_view("slcube serving"));
  }
  write_thread_name(os, first, kTidEpochs, "epochs");
  write_thread_name(os, first, kTidRoutes, "routes (promoted)");
  write_thread_name(os, first, kTidBreadcrumbs, "routes (breadcrumb)");

  // Epoch slices: each spans to the next epoch's activation (the last
  // one extends to the end of the observed axis).
  for (auto it = epochs.begin(); it != epochs.end(); ++it) {
    auto next = std::next(it);
    const EpochPublishEvent& row = it->second;
    const double start = static_cast<double>(row.ts);
    const double end = next != epochs.end()
                           ? static_cast<double>(next->second.ts)
                           : max_ts + 1;
    const double dur = std::max(end - start, 1.0);
    {
      Event ev(os, first, "X", kTidEpochs);
      ev.name("epoch " + std::to_string(it->first))
          .ts(start)
          .dur(dur)
          .arg("epoch", it->first)
          .arg("parent", row.parent)
          .arg("cause", row.cause)
          .arg("churn", row.churn)
          .arg("faults", row.faults)
          .arg("links", row.links);
      if (row.node >= 0) ev.arg("node", row.node);
      if (row.dim >= 0) ev.arg("dim", row.dim);
    }
    ++stats.epoch_slices;
    if (row.churn > 0) {
      Event ev(os, first, "i", kTidEpochs);
      ev.name("churn: " + std::string(row.cause))
          .ts(start)
          .scope_thread()
          .arg("records", row.churn);
      ++stats.churn_instants;
    }
  }

  // Route slices and breadcrumb instants.
  for (const RouteSummaryEvent& route : routes) {
    Event out(os, first, route.promoted ? "X" : "i",
              route.promoted ? kTidRoutes : kTidBreadcrumbs);
    out.name("route " + std::to_string(route.route_id) + " (" +
             route.status + ")");
    out.ts(static_cast<double>(route.route_id));
    if (route.promoted) {
      out.dur(std::max(static_cast<double>(route.hops), 1.0));
    } else {
      out.scope_thread();
    }
    out.arg("decision_epoch", route.decision_epoch)
        .arg("ground_epoch", route.ground_epoch)
        .arg("status", route.status)
        .arg("reason", route.reason)
        .arg("hops", route.hops)
        .arg("stale", route.ground_epoch > route.decision_epoch ? 1.0 : 0.0);
    if (route.latency_us >= 0) out.arg("latency_us", route.latency_us);
    auto it = epochs.find(route.decision_epoch);
    if (it != epochs.end()) out.arg("decision_churn", it->second.cause);
    if (route.promoted) {
      ++stats.route_slices;
    } else {
      ++stats.breadcrumb_instants;
    }
  }

  os << "\n]}\n";
  return stats;
}

}  // namespace slcube::obs
