// EXTENSION — safety VECTORS: the per-distance refinement of safety
// levels, reconstructing the concept of Wu's follow-on work ("safety
// vectors" for fault-tolerant hypercube routing) with a self-contained
// derivation.
//
// Each healthy node a keeps an n-bit vector V_a; bit k means "a is
// guaranteed an optimal path to every healthy node at distance exactly
// k". The recurrence decouples the distances instead of nesting them the
// way the scalar level does:
//
//     V_a(1) = 1                                   (a healthy: any
//                                                  neighbor is one hop)
//     V_a(k) = 1  iff  #{ neighbors b : V_b(k-1) = 1 } >= n - k + 1.
//
// Soundness (Theorem 2's induction verbatim): a destination at distance
// k has k preferred neighbors; at most k - 1 neighbors of a lack
// V(k-1), so SOME preferred neighbor b has V_b(k-1) = 1 and the path
// recurses. Unlike the scalar level, bit k never requires bit k-1 of
// the same node, so the vector can certify long distances even when a
// close-range bit is 0 — strictly more unicasts become feasible:
//
//     S(a) >= k   =>   V_a(j) = 1 for all j <= k     (proved in tests)
//     V_a(k) = 1  =>   reach(a) >= ... bitwise       (vs the exact
//                                                    oracle of
//                                                    analysis/optimal_reach)
//
// Computation needs exactly n - 1 exchange rounds — round k derives bit
// k + 1 from the neighbors' bit k — with no fixed-point iteration at
// all, matching the GS cost model.
//
// Routing mirrors Section 3: optimal when V_s(H) = 1 or some preferred
// neighbor has V(H-1) = 1; suboptimal via a spare neighbor with
// V(H+1) = 1; refuse otherwise.
#pragma once

#include <cstdint>
#include <vector>

#include "analysis/path.hpp"
#include "core/safety.hpp"
#include "core/unicast.hpp"

namespace slcube::core {

/// Safety vectors for all nodes: vec[a] bit (k-1) == V_a(k). Faulty
/// nodes have the all-zero vector.
class SafetyVectors {
 public:
  SafetyVectors() = default;
  SafetyVectors(unsigned dimension, std::uint64_t num_nodes)
      : n_(dimension), v_(static_cast<std::size_t>(num_nodes), 0) {}

  [[nodiscard]] unsigned dimension() const noexcept { return n_; }
  [[nodiscard]] std::size_t size() const noexcept { return v_.size(); }

  /// V_a(k) for 1 <= k <= n.
  [[nodiscard]] bool bit(NodeId a, unsigned k) const noexcept {
    SLC_ASSERT(a < v_.size() && k >= 1 && k <= n_);
    return (v_[a] >> (k - 1)) & 1u;
  }
  void set_bit(NodeId a, unsigned k) noexcept {
    SLC_ASSERT(a < v_.size() && k >= 1 && k <= n_);
    v_[a] |= std::uint32_t{1} << (k - 1);
  }

  [[nodiscard]] std::uint32_t raw(NodeId a) const noexcept { return v_[a]; }

  /// Largest prefix of set bits: max k with V(1..k) all 1 (0 if bit 1 is
  /// clear — only possible for faulty nodes). The scalar-level analogue.
  [[nodiscard]] unsigned prefix_reach(NodeId a) const noexcept {
    const std::uint32_t inv = ~v_[a] & bits::low_mask(n_);
    return inv == 0 ? n_ : bits::lowest_set(inv);
  }

  friend bool operator==(const SafetyVectors&, const SafetyVectors&) =
      default;

 private:
  unsigned n_ = 0;
  std::vector<std::uint32_t> v_;
};

/// Compute all vectors in n - 1 rounds (bit k+1 from neighbors' bit k).
[[nodiscard]] SafetyVectors compute_safety_vectors(
    const topo::Hypercube& cube, const fault::FaultSet& faults);

/// Source feasibility with vectors: C1 uses V_s(H), C2 the preferred
/// neighbors' V(H-1), C3 the spare neighbors' V(H+1) (C3 is forced false
/// when H = n — there are no spare dimensions).
[[nodiscard]] SourceDecision decide_at_source_sv(const topo::Hypercube& cube,
                                                 const SafetyVectors& vectors,
                                                 NodeId s, NodeId d);

/// Route a unicast guided by vectors: at each intermediate node with
/// remaining distance j, forward to a preferred neighbor whose V(j-1)
/// bit is set (lowest dimension among them, or random per options).
/// options.trace is ignored: a vector has no single level to report.
[[nodiscard]] RouteResult route_unicast_sv(const topo::Hypercube& cube,
                                           const fault::FaultSet& faults,
                                           const SafetyVectors& vectors,
                                           NodeId s, NodeId d,
                                           const UnicastOptions& options = {});

}  // namespace slcube::core
