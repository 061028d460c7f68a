#include "core/safety_vector.hpp"

#include <array>

#include "core/walk.hpp"

namespace slcube::core {

SafetyVectors compute_safety_vectors(const topo::Hypercube& cube,
                                     const fault::FaultSet& faults) {
  const unsigned n = cube.dimension();
  SafetyVectors v(n, cube.num_nodes());
  // Bit 1: every healthy node reaches all neighbors in one hop.
  for (NodeId a = 0; a < cube.num_nodes(); ++a) {
    if (faults.is_healthy(a)) v.set_bit(a, 1);
  }
  // Round k: bit k+1 from the neighbors' bit k. No iteration to a fixed
  // point — each bit is final the moment it is computed.
  for (unsigned k = 1; k < n; ++k) {
    for (NodeId a = 0; a < cube.num_nodes(); ++a) {
      if (faults.is_faulty(a)) continue;
      unsigned with_bit = 0;
      cube.for_each_neighbor(a, [&](Dim, NodeId b) {
        with_bit += v.bit(b, k) ? 1u : 0u;
      });
      if (with_bit >= n - k) v.set_bit(a, k + 1);  // n - (k+1) + 1
    }
  }
  return v;
}

SourceDecision decide_at_source_sv(const topo::Hypercube& cube,
                                   const SafetyVectors& vectors, NodeId s,
                                   NodeId d) {
  SLC_EXPECT_MSG(vectors.size() == cube.num_nodes() &&
                     vectors.dimension() == cube.dimension(),
                 "safety vectors are for a different cube");
  SourceDecision dec;
  const std::uint32_t nav = cube.navigation_vector(s, d);
  dec.hamming = bits::popcount(nav);
  if (dec.hamming == 0) {
    dec.c1 = true;
    return dec;
  }
  const unsigned n = cube.dimension();
  dec.c1 = vectors.bit(s, dec.hamming);
  cube.for_each_preferred(s, nav, [&](Dim, NodeId b) {
    // V(H-1) with H = 1 degenerates to "b == d is one hop away": true.
    dec.c2 |= dec.hamming == 1 || vectors.bit(b, dec.hamming - 1);
  });
  if (dec.hamming < n) {
    cube.for_each_spare(s, nav, [&](Dim, NodeId b) {
      dec.c3 |= vectors.bit(b, dec.hamming + 1);
    });
  }
  return dec;
}

namespace {

/// Preferred dimension whose neighbor has V(j-1) set (j = popcount(nav)
/// >= 2), lowest dimension first or random among qualifiers.
std::optional<Dim> choose_by_vector(const topo::Hypercube& cube,
                                    const SafetyVectors& vectors, NodeId a,
                                    std::uint32_t nav,
                                    const UnicastOptions& options) {
  const unsigned j = bits::popcount(nav);
  SLC_ASSERT(j >= 2);
  std::array<Dim, topo::Hypercube::kMaxDimension> pool{};
  std::size_t qualifiers = 0;
  bits::for_each_set(nav, [&](Dim dim) {
    if (vectors.bit(cube.neighbor(a, dim), j - 1)) pool[qualifiers++] = dim;
  });
  if (qualifiers == 0) return std::nullopt;
  if (options.tie_break == TieBreak::kLowestDim || qualifiers == 1) {
    return pool[0];
  }
  SLC_EXPECT(options.rng != nullptr);
  return pool[options.rng->below(qualifiers)];
}

/// Vector-guided routing as a walker view: V(j-1) picks the preferred
/// hop, V(H+1) the spare, and the last hop delivers to d unconditionally
/// (the only preferred neighbor IS d).
struct SvView {
  static constexpr bool kFinalHopRule = true;
  static constexpr bool kSkipFeasibility = false;
  static constexpr bool kEgs = false;

  const topo::Hypercube& cube;
  const SafetyVectors& vectors;
  const UnicastOptions& options;

  [[nodiscard]] SourceDecision decide(NodeId s, NodeId d) const {
    return decide_at_source_sv(cube, vectors, s, d);
  }
  [[nodiscard]] std::optional<Dim> preferred(NodeId a, std::uint32_t nav,
                                             unsigned*) const {
    return choose_by_vector(cube, vectors, a, nav, options);
  }
  /// Lowest spare dimension onto a node whose V(H+1) bit covers the new
  /// distance.
  [[nodiscard]] std::optional<Dim> spare(NodeId a, std::uint32_t nav,
                                         unsigned*) const {
    const unsigned h = bits::popcount(nav);
    std::optional<Dim> pick;
    bits::for_each_clear(nav, cube.dimension(), [&](Dim dim) {
      if (!pick && vectors.bit(cube.neighbor(a, dim), h + 1)) pick = dim;
    });
    return pick;
  }
  [[nodiscard]] static bool link_faulty(NodeId, Dim) { return false; }
  [[nodiscard]] static Level self_level(NodeId) { return 0; }
};

}  // namespace

RouteResult route_unicast_sv(const topo::Hypercube& cube,
                             const fault::FaultSet& faults,
                             const SafetyVectors& vectors, NodeId s, NodeId d,
                             const UnicastOptions& options) {
  SLC_EXPECT_MSG(faults.is_healthy(s), "unicast source must be healthy");
  SLC_EXPECT_MSG(faults.is_healthy(d), "unicast destination must be healthy");
  // Untraced: a vector has no single level for a HopEvent to report.
  RouteResult result;
  NullJudge judge;
  NullObserver observer;
  result.status = to_route_status(walk(SvView{cube, vectors, options}, judge,
                                       observer, s, d, result.decision,
                                       result.path));
  return result;
}

}  // namespace slcube::core
