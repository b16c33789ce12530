// Per-topology MNA structure: the sparse engine's one-time setup.
//
// Sizing changes element *values* but never the netlist topology, so the
// CSR sparsity pattern of the MNA system and the value-array slot of
// every element stamp can be computed once per SimContext and reused by
// the AC, noise and transient analyses of that design: assembly becomes
// a flat walk writing into a value array — no dense zero-fill, no
// coordinate lookup — and la::SparseLu factors over the fixed pattern
// with symbolic reuse across frequency points, timesteps and transient
// Newton iterations. DC Newton always runs on the dense LU, which
// measures faster at these dimensions.
//
// The pattern is the union of every stamp any analysis writes (resistor /
// capacitor quads, MOS small-signal and capacitance stamps, vsource
// branch couplings, the per-node gmin/regularization diagonal), then
// symmetrized. MNA stamps already produce a structurally symmetric
// pattern; forcing symmetry keeps that invariant explicit, which is what
// lets SparseLu's diagonal-preference pivoting stand in for a separate
// fill-reducing ordering at these dimensions.
#pragma once

#include <vector>

#include "la/sparse.hpp"
#include "sim/mna.hpp"

namespace gcnrl::sim {

// Process-wide engine toggle, on by default; no environment variable or
// option sets it. The AC, noise and transient analyses run sparse and
// pick their dense path only when a sparse factorization is rejected.
// Turning the toggle off forces those dense fallbacks unconditionally:
// it is the one seam through which tests and micro_sim reach them.
bool sparse_engine_enabled();
void set_sparse_engine_enabled(bool on);

// Internal control-flow signal: a sparse factorization was rejected
// (structural/numeric singularity, pivot-check failure, or element
// growth). The throwing engine reruns the ENTIRE analysis on the dense
// path, whose results, perf recording, and failure diagnostics are
// bitwise the legacy behaviour.
struct SparseEngineFallback {};

// Value-array slots of a symmetric conductance-style stamp between nodes
// a and b ((aa, bb) diagonals, (ab, ba) couplings); -1 where a terminal is
// ground.
struct QuadSlots {
  int aa = -1, bb = -1, ab = -1, ba = -1;
};

// Slots of a VCCS stamp: rows (out_p, out_n) x cols (c_p, c_n).
struct VccsSlots {
  int pp = -1, pn = -1, np = -1, nn = -1;
};

// Per-MOSFET stamp slots: gm VCCS (out d->s, control g-s), gds quad
// (d, s), and the four capacitance quads.
struct MosSlots {
  VccsSlots gm;
  QuadSlots gds, cgs, cgd, cdb, csb;
};

// Voltage-source branch couplings: (v(p), b), (b, v(p)), (v(n), b),
// (b, v(n)); -1 where the terminal is ground.
struct VsrcSlots {
  int pb = -1, bp = -1, nb = -1, bn = -1;
};

struct MnaStructure {
  la::SparsePattern pattern;
  std::vector<QuadSlots> resistors;   // aligned with nl.resistors()
  std::vector<QuadSlots> capacitors;  // aligned with nl.capacitors()
  std::vector<MosSlots> mosfets;      // aligned with nl.mosfets()
  std::vector<VsrcSlots> vsources;    // aligned with nl.vsources()
  std::vector<int> node_diag;         // (v(node), v(node)), node 1..N-1

  MnaStructure(const circuit::Netlist& nl, const MnaMap& m);
};

// --- pattern-aligned stamp helpers (sparse analogs of the dense helpers
// in mna.hpp; ground guards are encoded as -1 slots) -----------------

inline void add_quad(double* vals, const QuadSlots& q, double g) {
  if (q.aa >= 0) vals[q.aa] += g;
  if (q.bb >= 0) vals[q.bb] += g;
  if (q.ab >= 0) {
    vals[q.ab] -= g;
    vals[q.ba] -= g;
  }
}

inline void add_vccs(double* vals, const VccsSlots& s, double g) {
  if (s.pp >= 0) vals[s.pp] += g;
  if (s.pn >= 0) vals[s.pn] -= g;
  if (s.np >= 0) vals[s.np] -= g;
  if (s.nn >= 0) vals[s.nn] += g;
}

// MOS small-signal stamp in the transient Jacobian's fused form
// (d(id)/dvs = -(gm + gds) added as one term, exactly like the dense
// Newton assembly — not as separate VCCS + conductance adds).
inline void add_mos_g(double* vals, const MosSlots& ms, double gm,
                      double gds) {
  if (ms.gm.pp >= 0) vals[ms.gm.pp] += gm;          // (d, g)
  if (ms.gds.aa >= 0) vals[ms.gds.aa] += gds;       // (d, d)
  if (ms.gds.ab >= 0) vals[ms.gds.ab] -= gm + gds;  // (d, s)
  if (ms.gm.np >= 0) vals[ms.gm.np] -= gm;          // (s, g)
  if (ms.gds.ba >= 0) vals[ms.gds.ba] -= gds;       // (s, d)
  if (ms.gds.bb >= 0) vals[ms.gds.bb] += gm + gds;  // (s, s)
}

// Sparse analog of build_ac_stamps: one netlist walk filling
// pattern-aligned G and C value arrays (Y(w) = G + j*w*C), including the
// 1e-12 regularization shunt on every node diagonal of G.
void assemble_ac_gc(const SimContext& ctx, const MnaStructure& st,
                    const OpPoint& op, std::vector<double>& g,
                    std::vector<double>& c);

}  // namespace gcnrl::sim
