// The benchmark's load generator: every input the library receives —
// the start fault configuration, the churn or burst script and the
// request pair stream — is a pure function of (workload shape, seed).
#pragma once

#include <cstdint>
#include <vector>

#include "cli.hpp"
#include "core/egs_oracle.hpp"
#include "fault/fault_set.hpp"
#include "fault/link_fault_set.hpp"
#include "topology/hypercube.hpp"

namespace slbench {

using slcube::Dim;
using slcube::NodeId;

/// The fixed parameters of one workload (see README.md for why).
struct Shape {
  unsigned dim = 0;
  double node_fault_share = 0.0;  ///< start node-fault density
  unsigned readers = 0;           ///< closed-loop reader threads
  /// Open-loop writer rate (single events per second); 0 means the
  /// writer runs closed loop over burst cycles instead.
  unsigned epochs_per_s = 0;
  /// Burst size as a fraction of N (closed-loop bursts only).
  unsigned burst_divisor = 0;
};

[[nodiscard]] Shape shape_of(Workload w, bool small);

struct ChurnEvent {
  enum class Kind : std::uint8_t { kNodeFail, kNodeRecover, kLinkFail, kLinkRecover };
  Kind kind = Kind::kNodeFail;
  NodeId node = 0;
  Dim dim = 0;
};

struct Pair {
  NodeId s = 0;
  NodeId d = 0;
};

struct Inputs {
  slcube::topo::Hypercube cube{1};
  slcube::fault::FaultSet faults;    ///< start node faults
  slcube::fault::LinkFaultSet links{slcube::topo::Hypercube{1}};
  /// Request endpoints: a random quarter of the initially healthy nodes,
  /// never touched by churn or bursts, so every request names two nodes
  /// that are healthy in every epoch (serve_route's precondition).
  std::vector<NodeId> endpoints;
  /// Open-loop single-event churn (serve-read, churn-write).
  std::vector<ChurnEvent> script;
  /// Burst cycles (mega-burst): cycle k fails bursts[k] in one apply and
  /// the next apply repairs the same nodes, returning to the start.
  std::vector<std::vector<NodeId>> bursts;
  /// Uniform request pairs over `endpoints`; reader r starts at offset
  /// r * pairs.size() / readers and wraps.
  std::vector<Pair> pairs;
};

inline constexpr std::size_t kMaxBurstCycles = 64;

/// Build every input for `shape` from `seed`. `seconds` sizes the
/// open-loop script (epochs_per_s * seconds events).
[[nodiscard]] Inputs generate(const Shape& shape, std::uint64_t seed,
                              unsigned seconds);

/// Apply one scripted event to a plain fault configuration (the
/// generator's own model of what the writer should have published).
void apply_event(const ChurnEvent& ev, slcube::fault::FaultSet& faults,
                 slcube::fault::LinkFaultSet& links);

}  // namespace slbench
