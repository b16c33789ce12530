// Topology-graph extraction (paper Sec. III-B step 1: "Circuit environment
// embeds the topology into a graph whose vertices are components and edges
// are wires").
//
// Vertices are the designable components; an edge connects two components
// that share at least one non-supply net. Supply rails (VDD/ground/bias
// voltage rails marked as supplies in the netlist) are excluded because they
// would make the graph near-complete and wash out locality — the GCN's
// receptive-field argument relies on signal-path adjacency.
#pragma once

#include "circuit/netlist.hpp"
#include "la/matrix.hpp"

namespace gcnrl::circuit {

// Symmetric 0/1 adjacency over design components (no self loops; the GCN
// adds the identity itself).
la::Mat build_adjacency(const Netlist& nl, bool exclude_supply_nets = true);

// Number of connected components of the design graph (diagnostic; a good
// circuit graph is connected).
int connected_components(const la::Mat& adjacency);

// Longest shortest-path (graph diameter) over the largest connected
// component; used to check that the 7-layer GCN has a global receptive
// field as the paper claims.
int graph_diameter(const la::Mat& adjacency);

}  // namespace gcnrl::circuit
