// The one forwarding loop behind every table-driven router.
//
// Section 3's router is a single procedure: UNICASTING_AT_SOURCE_NODE
// (C1/C2/C3, at most one spare detour), then UNICASTING_AT_INTERMEDIATE_NODE
// until the navigation vector empties. Section 4.1 reuses it with the
// footnote-3 final hop. route_unicast, route_unicast_greedy,
// route_unicast_egs, route_unicast_sv and every svc::serve_route overload
// are this loop with three parameters filled in:
//
//   View     — the decision. decide(s, d) (which validates the tables),
//              the preferred and spare choices (choose_preferred /
//              choose_spare over a level table, or the safety-vector
//              bits), a link-fault check, the trace context (kEgs,
//              self_level, level) and two compile-time policies:
//              kFinalHopRule (footnote 3: EGS and safety vectors — the
//              plain router keeps choose_preferred on the last hop, so a
//              stale plain table still gets stuck there) and
//              kSkipFeasibility (the greedy ablation: no refusal, no
//              spare).
//   Judge    — the ground truth each traversal must survive. NullJudge
//              never blocks; svc's snapshot judge drops a route whose
//              source or next hop is dead in the live epoch.
//   Observer — NullObserver, whose empty inline members compile away, or
//              TraceObserver, which emits the source/hop/done chain plus
//              the send/drop/"lost" dialect on a drop.
//
// Entry points pick the observer once, from the trace option, so the
// untraced instantiation carries no tracing bookkeeping at all.
#pragma once

#include <cstdint>
#include <optional>

#include "analysis/path.hpp"
#include "core/egs.hpp"
#include "core/unicast.hpp"
#include "obs/trace.hpp"

namespace slcube::core {

/// How a walk ended. The first four are RouteStatus in order, all seven
/// are svc::ServeStatus in order; only a blocking judge reaches a drop.
enum class WalkEnd : std::uint8_t {
  kDeliveredOptimal,
  kDeliveredSuboptimal,
  kRefused,
  kStuck,
  kDroppedSource,
  kDroppedNode,
  kDroppedLink,
};

[[nodiscard]] constexpr bool dropped(WalkEnd end) noexcept {
  return end >= WalkEnd::kDroppedSource;
}

[[nodiscard]] inline RouteStatus to_route_status(WalkEnd end) {
  static_assert(static_cast<int>(RouteStatus::kSourceRefused) ==
                    static_cast<int>(WalkEnd::kRefused) &&
                static_cast<int>(RouteStatus::kStuck) ==
                    static_cast<int>(WalkEnd::kStuck));
  SLC_ASSERT_MSG(!dropped(end), "a core route has no judge to drop it");
  return static_cast<RouteStatus>(end);
}

/// Section-3 routing on one level table (node faults only). The greedy
/// ablation sets SkipFeasibility.
template <bool SkipFeasibility = false>
struct PlainView {
  static constexpr bool kFinalHopRule = false;
  static constexpr bool kSkipFeasibility = SkipFeasibility;
  static constexpr bool kEgs = false;

  const topo::Hypercube& cube;
  const SafetyLevels& levels;
  const UnicastOptions& options;

  [[nodiscard]] SourceDecision decide(NodeId s, NodeId d) const {
    return decide_at_source(cube, levels, s, d);
  }
  [[nodiscard]] std::optional<Dim> preferred(NodeId a, std::uint32_t nav,
                                             unsigned* ties) const {
    return choose_preferred(cube, levels, a, nav, options, ties);
  }
  [[nodiscard]] std::optional<Dim> spare(NodeId a, std::uint32_t nav,
                                         unsigned* ties) const {
    return choose_spare(cube, levels, a, nav, options, ties);
  }
  [[nodiscard]] static bool link_faulty(NodeId, Dim) { return false; }
  [[nodiscard]] static Level self_level(NodeId) { return 0; }
  [[nodiscard]] Level level(NodeId a) const { return levels[a]; }
};

/// Section-4.1 routing: decisions on the public view, C1 on the self
/// view, hops refused across faulty links, footnote-3 final hop.
struct EgsView {
  static constexpr bool kFinalHopRule = true;
  static constexpr bool kSkipFeasibility = false;
  static constexpr bool kEgs = true;

  const topo::Hypercube& cube;
  const fault::LinkFaultSet& links;
  EgsViews views;
  const UnicastOptions& options;

  [[nodiscard]] SourceDecision decide(NodeId s, NodeId d) const {
    return decide_at_source_egs(cube, links, views, s, d);
  }
  [[nodiscard]] std::optional<Dim> preferred(NodeId a, std::uint32_t nav,
                                             unsigned* ties) const {
    return choose_preferred(cube, views.public_view, a, nav, options, ties);
  }
  [[nodiscard]] std::optional<Dim> spare(NodeId a, std::uint32_t nav,
                                         unsigned* ties) const {
    return choose_spare(cube, views.public_view, a, nav, options, ties);
  }
  [[nodiscard]] bool link_faulty(NodeId a, Dim dim) const {
    return links.is_faulty(a, dim);
  }
  [[nodiscard]] Level self_level(NodeId s) const { return views.self_view[s]; }
  [[nodiscard]] Level level(NodeId a) const { return views.public_view[a]; }
};

/// Ground truth that never blocks: the table-only routers.
struct NullJudge {
  [[nodiscard]] static std::optional<WalkEnd> launch(NodeId) {
    return std::nullopt;
  }
  [[nodiscard]] static std::optional<WalkEnd> traverse(NodeId, Dim, NodeId) {
    return std::nullopt;
  }
  [[nodiscard]] static std::uint64_t epoch() { return 0; }
};

struct NullObserver {
  static constexpr bool kTraces = false;
  template <typename View>
  void begin(const View&, NodeId, NodeId, const SourceDecision&) {}
  void first_hop(Dim, unsigned, bool) {}
  template <typename View>
  void hop(const View&, NodeId, NodeId, Dim, std::uint32_t, std::uint32_t,
           bool, unsigned) {}
  void dropped_in_flight(NodeId, NodeId, WalkEnd, std::uint64_t) {}
  void done(WalkEnd, unsigned) {}
};

/// The route's event chain. The source event waits for the first hop so
/// the chosen dimension is known, and every terminal path emits it first
/// if nothing did yet. A drop speaks the sim dialect — a send/drop pair
/// for the fatal hop plus a "lost" route_done over the hops that landed —
/// which is the in-flight-death shape obs::AuditSink accepts.
class TraceObserver {
 public:
  static constexpr bool kTraces = true;

  explicit TraceObserver(obs::TraceSink* sink) : sink_(sink) {}

  template <typename View>
  void begin(const View& view, NodeId s, NodeId d, const SourceDecision& dec) {
    source_.source = s;
    source_.dest = d;
    source_.hamming = dec.hamming;
    source_.c1 = dec.c1;
    source_.c2 = dec.c2;
    source_.c3 = dec.c3;
    source_.egs = View::kEgs;
    source_.self_level = view.self_level(s);
    source_.dest_link_faulty = dec.dest_link_faulty;
  }

  void first_hop(Dim dim, unsigned ties, bool spare) {
    emit_source(static_cast<int>(dim), ties, spare);
  }

  template <typename View>
  void hop(const View& view, NodeId from, NodeId to, Dim dim,
           std::uint32_t nav_before, std::uint32_t nav_after, bool preferred,
           unsigned ties) {
    obs::HopEvent ev;
    ev.from = from;
    ev.to = to;
    ev.dim = dim;
    ev.level = view.level(to);
    ev.nav_before = nav_before;
    ev.nav_after = nav_after;
    ev.preferred = preferred;
    ev.ties = ties;
    sink_->on_event(ev);
  }

  void dropped_in_flight(NodeId from, NodeId to, WalkEnd why,
                         std::uint64_t epoch) {
    obs::MessageSendEvent send;
    send.time = epoch;
    send.from = from;
    send.to = to;
    send.kind = obs::MsgKind::kUnicast;
    sink_->on_event(send);
    obs::MessageDropEvent drop;
    drop.time = epoch;
    drop.from = from;
    drop.to = to;
    drop.kind = obs::MsgKind::kUnicast;
    drop.reason = why == WalkEnd::kDroppedLink ? "faulty-link" : "dead-node";
    sink_->on_event(drop);
  }

  void done(WalkEnd end, unsigned hops) {
    emit_source(-1, 0, false);
    obs::RouteDoneEvent ev;
    ev.source = source_.source;
    ev.dest = source_.dest;
    ev.status = dropped(end) ? "lost" : to_string(to_route_status(end));
    ev.hops = hops;
    sink_->on_event(ev);
  }

 private:
  void emit_source(int chosen_dim, unsigned ties, bool spare) {
    if (source_emitted_) return;
    source_emitted_ = true;
    source_.chosen_dim = chosen_dim;
    source_.ties = ties;
    source_.spare = spare;
    sink_->on_event(source_);
  }

  obs::TraceSink* sink_;
  obs::SourceDecisionEvent source_;
  bool source_emitted_ = false;
};

/// Run `fn` with the observer `trace` asks for: TraceObserver on a sink,
/// NullObserver (no tracing code at all) otherwise.
template <typename Fn>
decltype(auto) with_observer(obs::TraceSink* trace, Fn&& fn) {
  if (trace != nullptr) {
    TraceObserver observer(trace);
    return fn(observer);
  }
  NullObserver observer;
  return fn(observer);
}

/// Route s -> d: fills `decision` and `path` (source first; complete on
/// delivery, cut at the last node reached otherwise) and says how it
/// ended.
template <typename View, typename Judge, typename Observer>
WalkEnd walk(const View& view, Judge& judge, Observer& observer, NodeId s,
             NodeId d, SourceDecision& decision, analysis::Path& path) {
  const topo::Hypercube& cube = view.cube;
  decision = view.decide(s, d);
  // A route is at most H + 2 <= n + 2 hops: one allocation per route.
  path.reserve(cube.dimension() + 3);
  path.push_back(s);
  observer.begin(view, s, d, decision);
  const auto finish = [&](WalkEnd end) {
    observer.done(end, static_cast<unsigned>(path.size() - 1));
    return end;
  };
  // A source that is dead in the live network sends nothing, not even a
  // refusal.
  if (const auto blocked = judge.launch(s)) return finish(*blocked);

  std::uint32_t nav = cube.navigation_vector(s, d);
  NodeId cur = s;
  // One traversal along `dim`: a preferred hop clears its navigation
  // bit, the spare detour sets it (to be repaid later), so both flip it.
  const auto step = [&](Dim dim, unsigned ties,
                        bool preferred) -> std::optional<WalkEnd> {
    const NodeId to = cube.neighbor(cur, dim);
    const std::uint32_t nav_after = nav ^ bits::unit(dim);
    observer.first_hop(dim, ties, !preferred);
    if (const auto blocked = judge.traverse(cur, dim, to)) {
      observer.dropped_in_flight(cur, to, *blocked, judge.epoch());
      return finish(*blocked);
    }
    observer.hop(view, cur, to, dim, nav, nav_after, preferred, ties);
    cur = to;
    nav = nav_after;
    path.push_back(cur);
    return std::nullopt;
  };

  bool suboptimal = false;
  if (!View::kSkipFeasibility && !decision.optimal_feasible()) {
    if (!decision.c3) return finish(WalkEnd::kRefused);
    // SUBOPTIMAL_UNICASTING. Under EGS a spare level >= H + 1 >= 2 puts
    // the spare in N1, so the link to it cannot be faulty.
    unsigned ties = 0;
    const auto spare =
        view.spare(cur, nav, Observer::kTraces ? &ties : nullptr);
    SLC_ASSERT_MSG(spare.has_value(), "C3 held but no spare qualified");
    SLC_ASSERT(!view.link_faulty(cur, *spare));
    if (const auto end = step(*spare, ties, false)) return *end;
    suboptimal = true;
  }

  // UNICASTING_AT_INTERMEDIATE_NODE until the navigation vector empties.
  while (nav != 0) {
    Dim dim = 0;
    unsigned ties = 1;
    if (View::kFinalHopRule && bits::popcount(nav) == 1) {
      // Footnote 3: the only preferred neighbor IS the destination, which
      // may be an N2 node everyone else treats as faulty — deliver across
      // the link if the decision side believes it healthy.
      dim = bits::lowest_set(nav);
      if (view.link_faulty(cur, dim)) return finish(WalkEnd::kStuck);
    } else {
      const auto next =
          view.preferred(cur, nav, Observer::kTraces ? &ties : nullptr);
      if (!next || view.link_faulty(cur, *next)) {
        return finish(WalkEnd::kStuck);
      }
      dim = *next;
    }
    if (const auto end = step(dim, ties, true)) return *end;
  }

  SLC_ASSERT(cur == d);
  return finish(suboptimal ? WalkEnd::kDeliveredSuboptimal
                           : WalkEnd::kDeliveredOptimal);
}

/// A table-only route (no judge) as a RouteResult, with the observer
/// picked once from `trace`.
template <typename View>
RouteResult walk_route(const View& view, NodeId s, NodeId d,
                       obs::TraceSink* trace) {
  RouteResult result;
  NullJudge judge;
  result.status = to_route_status(with_observer(trace, [&](auto& observer) {
    return walk(view, judge, observer, s, d, result.decision, result.path);
  }));
  return result;
}

}  // namespace slcube::core
