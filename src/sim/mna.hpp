// Modified nodal analysis (MNA) infrastructure shared by the DC, AC,
// transient and noise engines.
//
// Unknown ordering: node voltages for nodes 1..N-1 (ground eliminated),
// followed by one branch current per voltage source. Sign conventions:
//  * KCL residual f[n] = sum of currents LEAVING node n through elements;
//    independent current sources therefore appear with their sign folded
//    into the residual (DC/tran) or on the RHS (AC).
//  * VSource branch current i is the current flowing from p through the
//    source to n (so a supply sourcing current into the circuit has a
//    negative branch current at its + node).
//  * ISource current flows p -> n through the source (SPICE convention:
//    it extracts from p and injects into n).
#pragma once

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "circuit/netlist.hpp"
#include "circuit/tech.hpp"
#include "la/lu.hpp"
#include "la/matrix.hpp"
#include "sim/mosfet.hpp"

namespace gcnrl::la {
class SparseSweepLu;  // la/sparse.hpp
}  // namespace gcnrl::la

namespace gcnrl::sim {

struct SimError : std::runtime_error {
  explicit SimError(const std::string& what) : std::runtime_error(what) {}
};

// Resistance floor shared by every engine that stamps resistor branches
// (DC, AC G/C assembly, transient): conductances are computed as
// g = 1 / max(r, kMinResistance). A single definition keeps the DC and
// AC linearizations from drifting apart — a resistor clamped in one
// analysis but not another would make the AC system inconsistent with
// the operating point it is linearized around.
inline constexpr double kMinResistance = 1e-3;  // [ohm]

// Unknown-index mapping for a netlist.
class MnaMap {
 public:
  explicit MnaMap(const circuit::Netlist& nl);

  [[nodiscard]] int dim() const { return dim_; }
  // Row/column of a node voltage; -1 for ground.
  [[nodiscard]] int v(int node) const { return node == 0 ? -1 : node - 1; }
  // Row/column of a voltage-source branch current.
  [[nodiscard]] int branch(int vsrc_index) const {
    return num_nodes_ - 1 + vsrc_index;
  }
  [[nodiscard]] int num_nodes() const { return num_nodes_; }

 private:
  int num_nodes_ = 0;
  int dim_ = 0;
};

struct MnaStructure;  // sim/structure.hpp

// Immutable per-simulation context: netlist + per-MOSFET models.
struct SimContext {
  const circuit::Netlist& nl;
  circuit::Technology tech;
  std::vector<MosModel> models;  // aligned with nl.mosfets()
  // Each MOSFET's model with its geometry-only factors hoisted, aligned
  // with nl.mosfets(): what eval_mos_batch evaluates.
  std::vector<MosDevice> devices;
  MnaMap map;
  // Sparse-engine structure (CSR pattern + stamp slots), computed once
  // per context from the topology alone — see sim/structure.hpp. Always
  // built (construction is one netlist walk); the AC, noise and transient
  // engines use it unless sparse_engine_enabled() is off. DC does not.
  std::unique_ptr<const MnaStructure> structure;
  // Lazily-created blocked sweep engine shared by the AC and noise
  // sweeps: caching it here keeps the symbolic factorization (and its
  // workspace allocations) alive across sweeps of the same context.
  // mutable because the sweep entry points take a const context; safe
  // because a Simulator (and thus its context) is never shared across
  // threads.
  mutable std::unique_ptr<la::SparseSweepLu> sweep_cache;

  SimContext(const circuit::Netlist& netlist,
             const circuit::Technology& technology);
  ~SimContext();  // out of line: MnaStructure is incomplete here
};

// DC / large-signal operating point.
struct OpPoint {
  std::vector<double> v;        // node voltages, indexed by node id
  std::vector<double> branch_i; // vsource branch currents
  std::vector<MosOp> mos;       // per-MOSFET operating data
  std::vector<MosCaps> caps;    // per-MOSFET capacitances

  [[nodiscard]] double node(int id) const { return v.at(id); }
  // Current delivered by voltage source k out of its + terminal.
  [[nodiscard]] double source_current(int k) const { return -branch_i.at(k); }
};

// Every MOSFET's operating data at one unknown vector, reused across
// Newton iterations so that evaluating them allocates nothing after the
// first.
struct MosEval {
  std::vector<MosBias> bias;  // aligned with nl.mosfets()
  std::vector<MosOp> op;      // aligned with nl.mosfets()
};

// Gathers each MOSFET's terminal voltages from unknown vector x (ground
// reads 0 V) into e.bias and evaluates them all in one eval_mos_batch
// call into e.op.
void eval_mosfets(const SimContext& ctx, const std::vector<double>& x,
                  MosEval& e);

// Dense-stamp helpers (ground rows/cols skipped).
void stamp_conductance(la::Mat& j, const MnaMap& m, int a, int b, double g);
void stamp_conductance(la::CMat& j, const MnaMap& m, int a, int b,
                       std::complex<double> g);
// VCCS: current g*(vc_p - vc_n) flowing from out_p to out_n inside the
// element (i.e. leaving node out_p).
void stamp_vccs(la::Mat& j, const MnaMap& m, int out_p, int out_n, int c_p,
                int c_n, double g);
void stamp_vccs(la::CMat& j, const MnaMap& m, int out_p, int out_n, int c_p,
                int c_n, std::complex<double> g);

// Log-spaced frequency grid, inclusive of both endpoints.
std::vector<double> logspace(double f_lo, double f_hi, int n);

}  // namespace gcnrl::sim
