// Equivalence net for the routing entry points. Every router comes in a
// traced and an untraced flavour, and the serving path re-runs the EGS
// router against a snapshot; none of those may change what a route does.
// Over every healthy pair of randomized Q3-Q5 configurations (node and
// link faults, fixed-point and deliberately stale tables):
//   * traced and untraced calls return the same status and path for
//     route_unicast (kLowestDim, and kRandom with equal seeds),
//     route_unicast_greedy, route_unicast_egs and serve_route;
//   * serve_route(snap, snap, trace) emits exactly the event chain of
//     route_unicast_egs(trace), event for event.
// Bad input is checked too: a level table or link set from another cube
// aborts every entry point instead of being read at the wrong entries.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/egs.hpp"
#include "core/global_status.hpp"
#include "core/safety_vector.hpp"
#include "core/unicast.hpp"
#include "fault/injection.hpp"
#include "obs/trace.hpp"
#include "svc/serve.hpp"
#include "svc/snapshot_oracle.hpp"
#include "workload/pair_sampler.hpp"

namespace slcube {
namespace {

/// Records every event as its JSON line, so chains compare field by field.
class ChainSink final : public obs::TraceSink {
 public:
  void on_event(const obs::TraceEvent& ev) override {
    std::ostringstream os;
    obs::write_json(os, ev);
    lines.push_back(os.str());
  }
  std::vector<std::string> take() { return std::exchange(lines, {}); }
  std::vector<std::string> lines;
};

/// One randomized configuration plus a stale twin: the stale tables are
/// the fixed point of a different fault set on the same cube, which is
/// how the plain routers reach kStuck. The stale EGS tables route over
/// their own link set: against any other one, a spare detour may cross a
/// link the tables believe healthy, which the routers assert never
/// happens.
struct Config {
  topo::Hypercube cube;
  fault::FaultSet faults;
  fault::LinkFaultSet links;
  fault::LinkFaultSet stale_links;
  core::SafetyLevels levels;
  core::SafetyLevels stale_levels;
  core::EgsResult egs;
  core::EgsResult stale_egs;
};

Config make_config(unsigned dim, Xoshiro256ss& rng) {
  const topo::Hypercube q(dim);
  auto faults = fault::inject_uniform(q, rng.below(q.num_nodes() / 3), rng);
  auto links = fault::inject_links_uniform(q, rng.below(dim + 1), rng);
  const auto other = fault::inject_uniform(q, rng.below(q.num_nodes() / 3),
                                           rng);
  const auto other_links = fault::inject_links_uniform(q, rng.below(dim + 1),
                                                       rng);
  Config c{q,
           faults,
           links,
           other_links,
           core::compute_safety_levels(q, faults),
           core::compute_safety_levels(q, other),
           core::run_egs(q, faults, links),
           core::run_egs(q, other, other_links)};
  return c;
}

template <typename Result>
void expect_same(const Result& traced, const Result& plain,
                 const char* what, NodeId s, NodeId d) {
  ASSERT_EQ(traced.status, plain.status) << what << " s=" << s << " d=" << d;
  ASSERT_EQ(traced.path, plain.path) << what << " s=" << s << " d=" << d;
}

constexpr int kTrialsPerDim = 12;

TEST(RouteEquivalence, TracedMatchesUntracedOnEveryEntryPoint) {
  Xoshiro256ss rng(0xE0A1E5CE);
  std::uint64_t stuck = 0;
  std::uint64_t detours = 0;
  for (unsigned dim = 3; dim <= 5; ++dim) {
    for (int t = 0; t < kTrialsPerDim; ++t) {
      const Config c = make_config(dim, rng);
      const svc::SnapshotOracle oracle(c.cube, c.faults, c.links);
      const svc::SnapshotPtr snap = oracle.acquire();
      ChainSink sink;
      core::UnicastOptions traced;
      traced.trace = &sink;
      svc::ServeOptions serve_traced;
      serve_traced.trace = &sink;
      for (const auto& [s, d] : workload::all_healthy_pairs(c.faults)) {
        for (const core::SafetyLevels* levels :
             {&c.levels, &c.stale_levels}) {
          const auto plain =
              core::route_unicast(c.cube, c.faults, *levels, s, d);
          const auto tr =
              core::route_unicast(c.cube, c.faults, *levels, s, d, traced);
          expect_same(tr, plain, "route_unicast", s, d);
          stuck += plain.status == core::RouteStatus::kStuck;

          Xoshiro256ss rng_a(s * 131 + d);
          Xoshiro256ss rng_b(s * 131 + d);
          core::UnicastOptions random_plain;
          random_plain.tie_break = core::TieBreak::kRandom;
          random_plain.rng = &rng_a;
          core::UnicastOptions random_traced = random_plain;
          random_traced.rng = &rng_b;
          random_traced.trace = &sink;
          expect_same(
              core::route_unicast(c.cube, c.faults, *levels, s, d,
                                  random_traced),
              core::route_unicast(c.cube, c.faults, *levels, s, d,
                                  random_plain),
              "route_unicast kRandom", s, d);
          ASSERT_EQ(rng_a(), rng_b()) << "tracing perturbed the tie-break rng";

          expect_same(core::route_unicast_greedy(c.cube, c.faults, *levels, s,
                                                 d, traced),
                      core::route_unicast_greedy(c.cube, c.faults, *levels, s,
                                                 d),
                      "route_unicast_greedy", s, d);
        }
        for (const auto& [egs, links] :
             {std::pair{&c.egs, &c.links},
              std::pair{&c.stale_egs, &c.stale_links}}) {
          const auto plain =
              core::route_unicast_egs(c.cube, c.faults, *links, *egs, s, d);
          expect_same(core::route_unicast_egs(c.cube, c.faults, *links, *egs,
                                              s, d, traced),
                      plain, "route_unicast_egs", s, d);
          stuck += plain.status == core::RouteStatus::kStuck;
          detours += plain.status == core::RouteStatus::kDeliveredSuboptimal;
        }
        expect_same(svc::serve_route(*snap, *snap, s, d, serve_traced),
                    svc::serve_route(*snap, *snap, s, d), "serve_route", s,
                    d);
        sink.lines.clear();
      }
    }
  }
  EXPECT_GT(stuck, 0u) << "no stale table got stuck; weak test";
  EXPECT_GT(detours, 0u) << "no H+2 detour was taken; weak test";
}

// EGS tables that miss a dead link: the walk gets stuck mid-route (the
// max-level preferred hop crosses it) or on the footnote-3 final hop.
// Fault-free Q3, s = 000, d = 111: the lowest-dim walk is 0 -> 1 -> 3 -> 7.
TEST(RouteEquivalence, EgsStuckTracedMatchesUntraced) {
  const topo::Hypercube q(3);
  const fault::FaultSet none(q.num_nodes());
  const auto egs = core::run_egs(q, none, fault::LinkFaultSet(q));
  ChainSink sink;
  core::UnicastOptions traced;
  traced.trace = &sink;
  for (const auto& [from, dim, hops] :
       {std::tuple{NodeId{1}, Dim{1}, 1u}, std::tuple{NodeId{3}, Dim{2}, 2u}}) {
    fault::LinkFaultSet dead(q);
    dead.mark_faulty(from, dim);
    const auto plain = core::route_unicast_egs(q, none, dead, egs, 0, 7);
    const auto tr = core::route_unicast_egs(q, none, dead, egs, 0, 7, traced);
    ASSERT_EQ(plain.status, core::RouteStatus::kStuck);
    EXPECT_EQ(plain.hops(), hops);
    expect_same(tr, plain, "stuck route_unicast_egs", 0, 7);
    const auto chain = sink.take();
    // source_decision + one hop per landed edge + route_done.
    ASSERT_EQ(chain.size(), hops + 2);
    EXPECT_NE(chain.back().find("\"stuck\""), std::string::npos);
  }
}

TEST(RouteEquivalence, ServeEmitsTheEgsEventChain) {
  Xoshiro256ss rng(0xC4A1B5);
  std::uint64_t chains = 0;
  for (unsigned dim = 3; dim <= 5; ++dim) {
    for (int t = 0; t < kTrialsPerDim; ++t) {
      const Config c = make_config(dim, rng);
      const svc::SnapshotOracle oracle(c.cube, c.faults, c.links);
      const svc::SnapshotPtr snap = oracle.acquire();
      ChainSink sink;
      core::UnicastOptions egs_traced;
      egs_traced.trace = &sink;
      svc::ServeOptions serve_traced;
      serve_traced.trace = &sink;
      for (const auto& [s, d] : workload::all_healthy_pairs(c.faults)) {
        (void)core::route_unicast_egs(c.cube, c.faults, c.links,
                                      snap->views(), s, d, egs_traced);
        const auto expected = sink.take();
        (void)svc::serve_route(*snap, *snap, s, d, serve_traced);
        const auto got = sink.take();
        ASSERT_EQ(got, expected) << "dim " << dim << " s=" << s << " d=" << d;
        ++chains;
      }
    }
  }
  EXPECT_GT(chains, 0u);
}

// A stale decision snapshot served against a newer ground epoch drops
// routes mid-flight; tracing must not change where.
TEST(RouteEquivalence, StaleServeTracedMatchesUntraced) {
  Xoshiro256ss rng(0x57A1E);
  std::uint64_t drops = 0;
  for (unsigned dim = 3; dim <= 5; ++dim) {
    for (int t = 0; t < kTrialsPerDim; ++t) {
      const Config c = make_config(dim, rng);
      svc::SnapshotOracle oracle(c.cube, c.faults, c.links);
      const svc::SnapshotPtr decision = oracle.acquire();
      // Two node faults and one link fault land after the decision epoch.
      for (int k = 0; k < 2; ++k) {
        const auto healthy = oracle.writer_oracle().faults().healthy_nodes();
        if (healthy.size() > 2) {
          oracle.add_fault(healthy[rng.below(healthy.size())]);
        }
      }
      const auto a = static_cast<NodeId>(rng.below(c.cube.num_nodes()));
      const auto dim_a = static_cast<Dim>(rng.below(dim));
      if (!oracle.writer_oracle().links().is_faulty(a, dim_a)) {
        oracle.fail_link(a, dim_a);
      }
      const svc::SnapshotPtr ground = oracle.acquire();
      ChainSink sink;
      svc::ServeOptions serve_traced;
      serve_traced.trace = &sink;
      for (const auto& [s, d] : workload::all_healthy_pairs(c.faults)) {
        const auto plain = svc::serve_route(*decision, *ground, s, d);
        const auto tr = svc::serve_route(*decision, *ground, s, d,
                                         serve_traced);
        expect_same(tr, plain, "stale serve_route", s, d);
        ASSERT_EQ(tr.ground_epoch, plain.ground_epoch);
        drops += plain.dropped();
        sink.lines.clear();
      }
    }
  }
  EXPECT_GT(drops, 0u) << "churn never dropped a route; weak test";
}

// A level table or link set built for a larger cube is in bounds for
// every index of the smaller one, so without an explicit check it would
// be read silently at the wrong entries.
TEST(RouteEquivalenceDeathTest, MismatchedTablesAbortEveryEntryPoint) {
  const topo::Hypercube q3(3);
  const topo::Hypercube q4(4);
  const fault::FaultSet none3(q3.num_nodes());
  const fault::FaultSet none4(q4.num_nodes());
  const fault::LinkFaultSet links3(q3);
  const fault::LinkFaultSet links4(q4);
  const auto levels4 = core::compute_safety_levels(q4, none4);
  const auto egs3 = core::run_egs(q3, none3, links3);
  const auto egs4 = core::run_egs(q4, none4, links4);

  EXPECT_DEATH((void)core::route_unicast(q3, none3, levels4, 0, 7),
               "level table is for a different cube");
  EXPECT_DEATH((void)core::route_unicast_greedy(q3, none3, levels4, 0, 7),
               "level table is for a different cube");
  EXPECT_DEATH((void)core::route_unicast_egs(q3, none3, links3, egs4, 0, 7),
               "EGS level tables are for a different cube");
  EXPECT_DEATH((void)core::route_unicast_egs(q3, none3, links4, egs3, 0, 7),
               "link fault set is for a different cube");
  EXPECT_DEATH((void)core::decide_at_source_egs(q3, links3, egs4, 0, 7),
               "EGS level tables are for a different cube");
  EXPECT_DEATH((void)core::decide_at_source_egs(q3, links4, egs3, 0, 7),
               "link fault set is for a different cube");
  EXPECT_DEATH((void)core::route_unicast_sv(
                   q3, none3, core::compute_safety_vectors(q4, none4), 0, 7),
               "safety vectors are for a different cube");
  // Live serving decides on a snapshot from another service's cube.
  const svc::SnapshotOracle oracle3(q3);
  const svc::SnapshotOracle oracle4(q4);
  EXPECT_DEATH((void)svc::serve_route(oracle3, oracle4.acquire(), 0, 7),
               "for a different cube");
}

}  // namespace
}  // namespace slcube
