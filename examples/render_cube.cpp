// render_cube — emit a Graphviz DOT drawing of a faulty hypercube:
// nodes annotated with their safety level (faulty nodes filled black,
// safe nodes green, unsafe shades of orange), optionally with a routed
// unicast highlighted in blue.
//
//   $ ./render_cube 4 0011,0100,0110,1001 1110 0001 | dot -Tsvg > fig1.svg
//   $ ./render_cube 4 none                           # fault-free cube
#include <cstdio>
#include <set>
#include <sstream>
#include <string>

#include "common/format.hpp"
#include "common/parse.hpp"
#include "core/global_status.hpp"
#include "core/unicast.hpp"
#include "fault/fault_set.hpp"
#include "topology/hypercube.hpp"

namespace {

std::vector<std::string> split_commas(const std::string& s) {
  std::vector<std::string> out;
  std::istringstream is(s);
  std::string item;
  while (std::getline(is, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

const char* fill_for_level(slcube::core::Level level, unsigned n) {
  if (level == 0) return "black";
  if (level == n) return "palegreen";
  return level + 1u >= n ? "khaki" : "sandybrown";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace slcube;
  if (argc != 3 && argc != 5) {
    std::fprintf(stderr,
                 "usage: %s <dimension<=6> <faults: b1,b2,...|none> "
                 "[<source> <dest>]\n",
                 argv[0]);
    return 2;
  }
  const unsigned n = positional_or(argc, argv, 1, 0u, "dimension", 1u, 6u);
  const topo::Hypercube cube(n);
  fault::FaultSet faults(cube.num_nodes());
  if (std::string(argv[2]) != "none") {
    for (const auto& b : split_commas(argv[2])) {
      faults.mark_faulty(from_bits(b));
    }
  }
  const auto levels = core::compute_safety_levels(cube, faults);

  // Route edges to highlight.
  std::set<std::pair<NodeId, NodeId>> route_edges;
  std::string route_note;
  if (argc == 5) {
    const NodeId s = from_bits(argv[3]), d = from_bits(argv[4]);
    const auto r = core::route_unicast(cube, faults, levels, s, d);
    route_note = std::string(argv[3]) + " -> " + argv[4] + ": " +
                 core::to_string(r.status);
    for (std::size_t i = 0; i + 1 < r.path.size(); ++i) {
      const NodeId a = std::min(r.path[i], r.path[i + 1]);
      const NodeId b = std::max(r.path[i], r.path[i + 1]);
      route_edges.insert({a, b});
    }
  }

  std::printf("graph Q%u {\n", n);
  std::printf("  layout=neato; overlap=false; splines=true;\n");
  std::printf("  label=\"Q%u, %llu faults%s%s\"; fontsize=20;\n", n,
              static_cast<unsigned long long>(faults.count()),
              route_note.empty() ? "" : "\\n", route_note.c_str());
  std::printf("  node [style=filled, fontname=monospace];\n");
  for (NodeId a = 0; a < cube.num_nodes(); ++a) {
    std::printf("  \"%s\" [label=\"%s\\nS=%d\", fillcolor=%s%s];\n",
                to_bits(a, n).c_str(), to_bits(a, n).c_str(),
                int{levels[a]}, fill_for_level(levels[a], n),
                faults.is_faulty(a) ? ", fontcolor=white" : "");
  }
  for (NodeId a = 0; a < cube.num_nodes(); ++a) {
    cube.for_each_neighbor(a, [&](Dim, NodeId b) {
      if (a >= b) return;  // each undirected edge once
      const bool on_route = route_edges.contains({a, b});
      std::printf("  \"%s\" -- \"%s\"%s;\n", to_bits(a, n).c_str(),
                  to_bits(b, n).c_str(),
                  on_route ? " [color=blue, penwidth=3]" : "");
    });
  }
  std::printf("}\n");
  return 0;
}
