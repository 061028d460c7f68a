// Link faults for Section 4.1 ("Hypercubes with Both Faulty Links and
// Nodes"). A hypercube link is identified by its lower endpoint and its
// dimension: the link along dimension d incident to node a connects a and
// a ⊕ e^d; we canonicalize to the endpoint whose bit d is 0.
//
// The paper assumes every nonfaulty node can distinguish an adjacent
// faulty link from an adjacent faulty node; this class is that oracle.
// There is deliberately no default constructor: a LinkFaultSet is only
// meaningful relative to one concrete cube (the canonical key encodes
// node ids and dimensions of THAT cube), and a placeholder cube would
// either trip the SLC_EXPECT in key() or silently reject every d >= 1.
#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "common/bitops.hpp"
#include "common/contracts.hpp"
#include "topology/hypercube.hpp"

namespace slcube::fault {

class LinkFaultSet {
 public:
  explicit LinkFaultSet(topo::Hypercube cube)
      : cube_(cube),
        adjacent_count_(static_cast<std::size_t>(cube.num_nodes()), 0) {}

  [[nodiscard]] const topo::Hypercube& cube() const noexcept { return cube_; }

  /// Mark the link between `a` and its dimension-`d` neighbor as faulty.
  void mark_faulty(NodeId a, Dim d) {
    if (keys_.insert(key(a, d)).second) {
      ++adjacent_count_[a];
      ++adjacent_count_[cube_.neighbor(a, d)];
    }
  }

  void mark_healthy(NodeId a, Dim d) {
    if (keys_.erase(key(a, d)) > 0) {
      --adjacent_count_[a];
      --adjacent_count_[cube_.neighbor(a, d)];
    }
  }

  /// O(1) reject for a node outside N2 (no adjacent faulty link, the
  /// common case); only N2 endpoints pay the hash lookup.
  [[nodiscard]] bool is_faulty(NodeId a, Dim d) const {
    const std::uint64_t k = key(a, d);  // checks the precondition first
    return adjacent_count_[a] != 0 && keys_.contains(k);
  }

  [[nodiscard]] std::size_t count() const noexcept { return keys_.size(); }
  [[nodiscard]] bool empty() const noexcept { return keys_.empty(); }

  /// True iff node `a` has at least one adjacent faulty link — i.e. `a`
  /// belongs to the paper's set N2 (assuming `a` itself is nonfaulty).
  /// O(1): backed by the per-node adjacent-faulty-link count, which
  /// mark_faulty/mark_healthy keep exact at both endpoints.
  [[nodiscard]] bool touches(NodeId a) const {
    SLC_ASSERT(cube_.contains(a));
    return adjacent_count_[a] != 0;
  }

  /// Number of faulty links incident to `a` (0..n).
  [[nodiscard]] unsigned adjacent_faulty(NodeId a) const {
    SLC_ASSERT(cube_.contains(a));
    return adjacent_count_[a];
  }

  /// All faulty links as (lower endpoint, dimension) pairs, sorted.
  [[nodiscard]] std::vector<std::pair<NodeId, Dim>> faulty_links() const;

 private:
  /// Canonical key: lower endpoint (bit d clear) in the high bits,
  /// dimension in the low bits.
  [[nodiscard]] std::uint64_t key(NodeId a, Dim d) const {
    SLC_EXPECT(cube_.contains(a) && d < cube_.dimension());
    const NodeId low = bits::test(a, d) ? bits::flip(a, d) : a;
    return (static_cast<std::uint64_t>(low) << 6) | d;
  }

  topo::Hypercube cube_;
  std::unordered_set<std::uint64_t> keys_;
  /// adjacent_count_[a] = faulty links incident to a; n <= 20 fits a byte.
  std::vector<std::uint8_t> adjacent_count_;
};

}  // namespace slcube::fault
