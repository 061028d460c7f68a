#include "obs/trace.hpp"

#include <cmath>
#include <concepts>
#include <fstream>
#include <ostream>
#include <set>
#include <tuple>
#include <type_traits>
#include <utility>

#include "common/contracts.hpp"
#include "obs/jsonl.hpp"

namespace slcube::obs {

const char* to_string(MsgKind k) {
  switch (k) {
    case MsgKind::kLevelUpdate:
      return "level_update";
    case MsgKind::kUnicast:
      return "unicast";
  }
  SLC_UNREACHABLE("bad MsgKind");
}

namespace {

/// One wire key bound to the event member it carries.
template <typename E, typename M>
struct Field {
  const char* key;
  M E::*member;
};

/// The JSONL schema: each TraceEvent alternative's "event" name and its
/// (key, member) pairs in wire order. This is the only place an event's
/// keys are listed; event_name, write_json and to_trace_event all derive
/// from it. Adding an alternative without a specialization fails to
/// compile.
template <typename E>
struct Wire;

template <>
struct Wire<SourceDecisionEvent> {
  using E = SourceDecisionEvent;
  static constexpr const char* name = "source_decision";
  static constexpr auto fields = std::tuple{
      Field{"source", &E::source},
      Field{"dest", &E::dest},
      Field{"h", &E::hamming},
      Field{"c1", &E::c1},
      Field{"c2", &E::c2},
      Field{"c3", &E::c3},
      Field{"chosen_dim", &E::chosen_dim},
      Field{"ties", &E::ties},
      Field{"spare", &E::spare},
      Field{"egs", &E::egs},
      Field{"self_level", &E::self_level},
      Field{"dest_link_faulty", &E::dest_link_faulty}};
};

template <>
struct Wire<HopEvent> {
  using E = HopEvent;
  static constexpr const char* name = "hop";
  static constexpr auto fields = std::tuple{
      Field{"from", &E::from},
      Field{"to", &E::to},
      Field{"dim", &E::dim},
      Field{"level", &E::level},
      Field{"nav_before", &E::nav_before},
      Field{"nav_after", &E::nav_after},
      Field{"preferred", &E::preferred},
      Field{"ties", &E::ties}};
};

template <>
struct Wire<RouteDoneEvent> {
  using E = RouteDoneEvent;
  static constexpr const char* name = "route_done";
  static constexpr auto fields =
      std::tuple{Field{"source", &E::source}, Field{"dest", &E::dest},
                 Field{"status", &E::status}, Field{"hops", &E::hops}};
};

template <>
struct Wire<GsRoundEvent> {
  using E = GsRoundEvent;
  static constexpr const char* name = "gs_round";
  static constexpr auto fields = std::tuple{
      Field{"round", &E::round},       Field{"changed", &E::changed},
      Field{"messages", &E::messages}, Field{"time", &E::sim_time},
      Field{"egs", &E::egs},           Field{"periodic", &E::periodic}};
};

template <>
struct Wire<MessageSendEvent> {
  using E = MessageSendEvent;
  static constexpr const char* name = "send";
  static constexpr auto fields =
      std::tuple{Field{"time", &E::time}, Field{"from", &E::from},
                 Field{"to", &E::to}, Field{"kind", &E::kind}};
};

template <>
struct Wire<MessageDropEvent> {
  using E = MessageDropEvent;
  static constexpr const char* name = "drop";
  static constexpr auto fields = std::tuple{
      Field{"time", &E::time}, Field{"from", &E::from}, Field{"to", &E::to},
      Field{"kind", &E::kind}, Field{"reason", &E::reason}};
};

template <>
struct Wire<NodeFailEvent> {
  using E = NodeFailEvent;
  static constexpr const char* name = "node_fail";
  static constexpr auto fields =
      std::tuple{Field{"time", &E::time}, Field{"node", &E::node}};
};

template <>
struct Wire<NodeRecoverEvent> {
  using E = NodeRecoverEvent;
  static constexpr const char* name = "node_recover";
  static constexpr auto fields =
      std::tuple{Field{"time", &E::time}, Field{"node", &E::node}};
};

template <>
struct Wire<MisrouteEvent> {
  using E = MisrouteEvent;
  static constexpr const char* name = "misroute";
  static constexpr auto fields = std::tuple{
      Field{"source", &E::source},
      Field{"dest", &E::dest},
      Field{"cls", &E::cls},
      Field{"drop_node", &E::drop_node},
      Field{"hops_taken", &E::hops_taken},
      Field{"ground_feasible", &E::ground_feasible}};
};

template <>
struct Wire<EpochPublishEvent> {
  using E = EpochPublishEvent;
  static constexpr const char* name = "epoch_publish";
  static constexpr auto fields = std::tuple{
      Field{"epoch", &E::epoch},   Field{"parent", &E::parent},
      Field{"cause", &E::cause},   Field{"node", &E::node},
      Field{"dim", &E::dim},       Field{"churn", &E::churn},
      Field{"faults", &E::faults}, Field{"links", &E::links},
      Field{"ts", &E::ts}};
};

template <>
struct Wire<RouteSummaryEvent> {
  using E = RouteSummaryEvent;
  static constexpr const char* name = "route_summary";
  static constexpr auto fields = std::tuple{
      Field{"route_id", &E::route_id},
      Field{"decision_epoch", &E::decision_epoch},
      Field{"ground_epoch", &E::ground_epoch},
      Field{"status", &E::status},
      Field{"hops", &E::hops},
      Field{"latency_us", &E::latency_us},
      Field{"promoted", &E::promoted},
      Field{"reason", &E::reason}};
};

template <>
struct Wire<SweepPointEvent> {
  using E = SweepPointEvent;
  static constexpr const char* name = "sweep_point";
  static constexpr auto fields = std::tuple{
      Field{"sweep", &E::sweep},
      Field{"fault_count", &E::fault_count},
      Field{"wall_ms", &E::wall_ms},
      Field{"utilization", &E::utilization},
      Field{"threads", &E::threads},
      Field{"trial_p50_us", &E::trial_p50_us},
      Field{"trial_p90_us", &E::trial_p90_us},
      Field{"trial_p99_us", &E::trial_p99_us},
      Field{"values", &E::values}};
};

using Values = std::vector<std::pair<std::string, double>>;

/// Call f(key, member) for each wire field of `e`, in wire order.
template <typename E, typename F>
void for_each_field(E& e, F&& f) {
  using Event = std::remove_const_t<E>;
  std::apply(
      [&](const auto&... field) { (f(field.key, e.*field.member), ...); },
      Wire<Event>::fields);
}

// --- writing: one put() per member type ------------------------------------

void put(ObjectWriter& out, const char* key, bool v) { out.boolean(key, v); }
void put(ObjectWriter& out, const char* key, double v) { out.num(key, v); }
void put(ObjectWriter& out, const char* key, const char* v) { out.str(key, v); }
void put(ObjectWriter& out, const char* key, MsgKind v) {
  out.str(key, to_string(v));
}
void put(ObjectWriter& out, const char* key, const Values& values) {
  ObjectWriter nested(out.key(key));
  for (const auto& [name, value] : values) nested.num(name, value);
}
template <std::integral T>
void put(ObjectWriter& out, const char* key, T v) {
  out.num(key, v);
}

// --- reading: the inverse of each put() ------------------------------------

/// Process-lifetime string pool backing the const char* fields of
/// reconstructed events (status/reason/cause strings normally point at
/// string literals in the producers).
const char* intern(std::string_view s) {
  static std::mutex mutex;
  static std::set<std::string, std::less<>> pool;
  const std::scoped_lock lock(mutex);
  auto it = pool.find(s);
  if (it == pool.end()) it = pool.emplace(s).first;
  return it->c_str();
}

void get(const ParsedEvent& p, const char* key, bool& m) {
  m = p.boolean(key, m);
}
void get(const ParsedEvent& p, const char* key, double& m) {
  m = p.num(key, m);
}
void get(const ParsedEvent& p, const char* key, const char*& m) {
  m = intern(p.str(key, m));
}
void get(const ParsedEvent& p, const char* key, MsgKind& m) {
  m = p.str(key, to_string(m)) == to_string(MsgKind::kUnicast)
          ? MsgKind::kUnicast
          : MsgKind::kLevelUpdate;
}
void get(const ParsedEvent& p, const char* key, Values& values) {
  // The reader flattens the nested object into "<key>.<name>" entries.
  const std::string prefix = std::string(key) + '.';
  for (auto it = p.fields.lower_bound(prefix);
       it != p.fields.end() && it->first.starts_with(prefix); ++it) {
    const double* d = std::get_if<double>(&it->second);
    values.emplace_back(it->first.substr(prefix.size()),
                        d != nullptr ? *d : std::nan(""));
  }
}
template <std::integral T>
void get(const ParsedEvent& p, const char* key, T& m) {
  m = static_cast<T>(p.integer(key, static_cast<std::int64_t>(m)));
}

/// Reconstruct `out` as an E when `parsed` carries E's event name.
template <typename E>
bool read_as(const ParsedEvent& parsed, TraceEvent& out) {
  if (parsed.kind() != Wire<E>::name) return false;
  E e;
  for_each_field(e, [&](const char* key, auto& member) {
    get(parsed, key, member);
  });
  out = std::move(e);
  return true;
}

}  // namespace

const char* event_name(const TraceEvent& ev) {
  return std::visit(
      [](const auto& e) { return Wire<std::decay_t<decltype(e)>>::name; }, ev);
}

void write_json(std::ostream& os, const TraceEvent& ev) {
  std::visit(
      [&os](const auto& e) {
        ObjectWriter out(os);
        out.str("event", Wire<std::decay_t<decltype(e)>>::name);
        for_each_field(e, [&out](const char* key, const auto& member) {
          put(out, key, member);
        });
      },
      ev);
}

bool to_trace_event(const ParsedEvent& parsed, TraceEvent& out) {
  return [&]<std::size_t... I>(std::index_sequence<I...>) {
    return (read_as<std::variant_alternative_t<I, TraceEvent>>(parsed, out) ||
            ...);
  }(std::make_index_sequence<std::variant_size_v<TraceEvent>>{});
}

// --- RingBufferSink --------------------------------------------------------

RingBufferSink::RingBufferSink(std::size_t capacity) : capacity_(capacity) {
  SLC_EXPECT(capacity_ > 0);
  ring_.reserve(capacity_);
}

void RingBufferSink::on_event(const TraceEvent& ev) {
  const std::scoped_lock lock(mutex_);
  if (ring_.size() < capacity_) {
    ring_.push_back(ev);
  } else {
    ring_[seen_ % capacity_] = ev;
    ++dropped_;
  }
  ++seen_;
}

std::uint64_t RingBufferSink::dropped() const {
  const std::scoped_lock lock(mutex_);
  return dropped_;
}

std::size_t RingBufferSink::size() const {
  const std::scoped_lock lock(mutex_);
  return ring_.size();
}

std::uint64_t RingBufferSink::total_seen() const {
  const std::scoped_lock lock(mutex_);
  return seen_;
}

std::vector<TraceEvent> RingBufferSink::snapshot() const {
  const std::scoped_lock lock(mutex_);
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  if (seen_ <= capacity_) {
    out = ring_;
  } else {
    const std::size_t head = seen_ % capacity_;  // oldest retained event
    for (std::size_t i = 0; i < capacity_; ++i) {
      out.push_back(ring_[(head + i) % capacity_]);
    }
  }
  return out;
}

void RingBufferSink::clear() {
  const std::scoped_lock lock(mutex_);
  ring_.clear();
  seen_ = 0;
  dropped_ = 0;
}

// --- JsonlSink -------------------------------------------------------------

JsonlSink::JsonlSink(std::ostream& os) : os_(&os) {}

JsonlSink::JsonlSink(const std::string& path)
    : owned_(std::make_unique<std::ofstream>(path, std::ios::trunc)),
      os_(owned_.get()) {
  SLC_EXPECT_MSG(static_cast<std::ofstream&>(*owned_).is_open(),
                 "cannot open JSONL trace file");
}

JsonlSink::~JsonlSink() { os_->flush(); }

void JsonlSink::on_event(const TraceEvent& ev) {
  const std::scoped_lock lock(mutex_);
  write_json(*os_, ev);
  *os_ << '\n';
}

}  // namespace slcube::obs
