#include "fault/link_fault_set.hpp"

#include <gtest/gtest.h>

#include <iterator>
#include <set>
#include <type_traits>
#include <utility>

#include "common/rng.hpp"

namespace slcube::fault {
namespace {

TEST(LinkFaultSet, EmptyByDefault) {
  LinkFaultSet lf((topo::Hypercube(4)));
  EXPECT_TRUE(lf.empty());
  EXPECT_EQ(lf.count(), 0u);
  EXPECT_FALSE(lf.is_faulty(0, 0));
}

TEST(LinkFaultSet, SymmetricFromBothEndpoints) {
  const topo::Hypercube q(4);
  LinkFaultSet lf(q);
  // The Fig. 4 link: between 1000 and 1001, i.e. dimension 0.
  lf.mark_faulty(0b1000, 0);
  EXPECT_TRUE(lf.is_faulty(0b1000, 0));
  EXPECT_TRUE(lf.is_faulty(0b1001, 0));  // same link, other end
  EXPECT_FALSE(lf.is_faulty(0b1000, 1));
  EXPECT_EQ(lf.count(), 1u);
}

TEST(LinkFaultSet, MarkFromUpperEndpointCanonicalizes) {
  const topo::Hypercube q(3);
  LinkFaultSet lf(q);
  lf.mark_faulty(0b101, 2);  // link (001, 101) marked from the upper end
  EXPECT_TRUE(lf.is_faulty(0b001, 2));
  EXPECT_EQ(lf.count(), 1u);
  lf.mark_faulty(0b001, 2);  // same link from the lower end: no duplicate
  EXPECT_EQ(lf.count(), 1u);
}

TEST(LinkFaultSet, Repair) {
  const topo::Hypercube q(3);
  LinkFaultSet lf(q);
  lf.mark_faulty(0, 1);
  lf.mark_healthy(0b010, 1);  // repair via the other endpoint
  EXPECT_FALSE(lf.is_faulty(0, 1));
  EXPECT_TRUE(lf.empty());
}

TEST(LinkFaultSet, TouchesIdentifiesN2Membership) {
  const topo::Hypercube q(4);
  LinkFaultSet lf(q);
  lf.mark_faulty(0b1000, 0);
  EXPECT_TRUE(lf.touches(0b1000));
  EXPECT_TRUE(lf.touches(0b1001));
  EXPECT_FALSE(lf.touches(0b1010));
  EXPECT_FALSE(lf.touches(0b0000));
}

// A LinkFaultSet is only meaningful relative to one concrete cube, so
// the placeholder-cube default constructor is gone for good.
static_assert(!std::is_default_constructible_v<LinkFaultSet>);

TEST(LinkFaultSet, AdjacentCountsTrackBothEndpoints) {
  const topo::Hypercube q(4);
  LinkFaultSet lf(q);
  EXPECT_EQ(lf.adjacent_faulty(0b0000), 0u);
  lf.mark_faulty(0b0000, 0);
  lf.mark_faulty(0b0000, 1);
  EXPECT_EQ(lf.adjacent_faulty(0b0000), 2u);
  EXPECT_EQ(lf.adjacent_faulty(0b0001), 1u);
  EXPECT_EQ(lf.adjacent_faulty(0b0010), 1u);
  EXPECT_EQ(lf.adjacent_faulty(0b0011), 0u);
  lf.mark_healthy(0b0001, 0);  // repair via the other endpoint
  EXPECT_EQ(lf.adjacent_faulty(0b0000), 1u);
  EXPECT_EQ(lf.adjacent_faulty(0b0001), 0u);
  EXPECT_FALSE(lf.touches(0b0001));
  EXPECT_TRUE(lf.touches(0b0010));
}

TEST(LinkFaultSet, DoubleMarkIsIdempotent) {
  const topo::Hypercube q(3);
  LinkFaultSet lf(q);
  lf.mark_faulty(0b000, 2);
  lf.mark_faulty(0b100, 2);  // same link from the other end: no recount
  EXPECT_EQ(lf.count(), 1u);
  EXPECT_EQ(lf.adjacent_faulty(0b000), 1u);
  EXPECT_EQ(lf.adjacent_faulty(0b100), 1u);
  lf.mark_healthy(0b000, 2);
  lf.mark_healthy(0b000, 2);  // double repair: counts must not underflow
  EXPECT_EQ(lf.adjacent_faulty(0b000), 0u);
  EXPECT_EQ(lf.adjacent_faulty(0b100), 0u);
  EXPECT_FALSE(lf.touches(0b000));
}

TEST(LinkFaultSet, FaultyLinksSortedCanonical) {
  const topo::Hypercube q(4);
  LinkFaultSet lf(q);
  lf.mark_faulty(0b1001, 1);  // canonical lower end 1001 (bit 1 clear)
  lf.mark_faulty(0b0111, 3);  // canonical lower end 0111
  const auto links = lf.faulty_links();
  ASSERT_EQ(links.size(), 2u);
  EXPECT_EQ(links[0], (std::pair<NodeId, Dim>{0b0111, 3u}));
  EXPECT_EQ(links[1], (std::pair<NodeId, Dim>{0b1001, 1u}));
}

// The O(1) reject in is_faulty must agree with the hash set everywhere:
// every (node, dim) of Q4-Q6 after each step of random mark/unmark
// sequences issued from either endpoint, against a reference std::set of
// canonical links. Every N2 node's links are among the probed pairs,
// from both of their endpoints.
TEST(LinkFaultSet, IsFaultyAgreesWithReferenceExhaustively) {
  Xoshiro256ss rng(0x11F1A5);
  for (unsigned dim = 4; dim <= 6; ++dim) {
    const topo::Hypercube q(dim);
    for (int seq = 0; seq < 8; ++seq) {
      LinkFaultSet lf(q);
      std::set<std::pair<NodeId, Dim>> reference;
      for (int step = 0; step < 40; ++step) {
        const auto a = static_cast<NodeId>(rng.below(q.num_nodes()));
        const auto d = static_cast<Dim>(rng.below(dim));
        const NodeId low = bits::test(a, d) ? bits::flip(a, d) : a;
        // Mark more often than unmark, so N2 grows to many nodes; an
        // unmark picks an existing link half the time so repairs land.
        if (rng.chance(0.6)) {
          lf.mark_faulty(a, d);
          reference.insert({low, d});
        } else if (!reference.empty() && rng.chance(0.5)) {
          auto it = reference.begin();
          std::advance(it, static_cast<long>(rng.below(reference.size())));
          const auto [l, ld] = *it;
          lf.mark_healthy(rng.chance(0.5) ? l : bits::flip(l, ld), ld);
          reference.erase(it);
        } else {
          lf.mark_healthy(a, d);
          reference.erase({low, d});
        }
        ASSERT_EQ(lf.count(), reference.size());
        for (NodeId v = 0; v < q.num_nodes(); ++v) {
          unsigned incident = 0;
          for (Dim k = 0; k < dim; ++k) {
            const NodeId lo = bits::test(v, k) ? bits::flip(v, k) : v;
            const bool expected = reference.contains({lo, k});
            incident += expected ? 1u : 0u;
            ASSERT_EQ(lf.is_faulty(v, k), expected)
                << "Q" << dim << " seq " << seq << " step " << step
                << " node " << v << " dim " << k;
          }
          ASSERT_EQ(lf.adjacent_faulty(v), incident) << "node " << v;
        }
      }
    }
  }
}

// The early return for nodes outside N2 must not skip the precondition:
// an empty set has no N2 node at all, and a bad node or dimension must
// still abort instead of reading past the per-node counts.
TEST(LinkFaultSetDeathTest, IsFaultyChecksRangeOnAnEmptySet) {
  const topo::Hypercube q(4);
  const LinkFaultSet lf(q);
  EXPECT_DEATH((void)lf.is_faulty(16, 0), "precondition violated");
  EXPECT_DEATH((void)lf.is_faulty(1u << 20, 0), "precondition violated");
  EXPECT_DEATH((void)lf.is_faulty(0, 4), "precondition violated");
  EXPECT_DEATH((void)lf.is_faulty(3, 63), "precondition violated");
}

}  // namespace
}  // namespace slcube::fault
