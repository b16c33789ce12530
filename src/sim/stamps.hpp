// The MNA stamps, each written once.
//
// Two walks over the netlist fill every matrix the engines factor:
//  * newton_stamps: the residual f(x) and the Jacobian of one Newton
//    iteration, shared by DC and both transient engines. It stamps the
//    resistors, backward-Euler companions for the capacitors and MOSFET
//    capacitances (transient only), the fused MOSFET gm/gds stamp, the
//    sources and the gmin shunt.
//  * small_signal_stamps: the split Y(w) = G + j*w*C that the AC and
//    noise sweeps factor. It stamps the same resistors, each MOSFET's gm
//    as a VCCS and its gds as a conductance, every capacitance into C, the
//    voltage-source couplings and a 1e-12 shunt into G.
//
// Each walk is a template over its matrix sink: anything whose
// operator()(r, c) returns the double& of entry (r, c). la::Mat is the
// dense sink, SlotSink (sim/structure.hpp) writes the sparse engines'
// pattern-aligned value arrays, and MnaStructure records the coordinates
// through a third sink to build the pattern. A walk adds into each entry
// in element order: resistors, capacitors, each MOSFET's conductance
// stamp then its four caps, vsource couplings, then the diagonal term. So
// every sink sees the same sums in the same order, and the dense and
// sparse engines factor the same values bit for bit. The Newton walk adds
// d(id)/dvs = -(gm + gds) as one term where the small-signal walk adds
// -gm and -gds separately; the two round differently, and each walk keeps
// its own form.
#pragma once

#include <algorithm>
#include <vector>

#include "sim/mna.hpp"

namespace gcnrl::sim {

// Conductance g between nodes a and b: (a, a), (b, b), then (a, b) and
// (b, a); ground rows and columns are skipped.
template <typename Jac>
void stamp_conductance(Jac& jac, const MnaMap& m, int a, int b, double g) {
  const int ia = m.v(a);
  const int ib = m.v(b);
  if (ia >= 0) jac(ia, ia) += g;
  if (ib >= 0) jac(ib, ib) += g;
  if (ia >= 0 && ib >= 0) {
    jac(ia, ib) -= g;
    jac(ib, ia) -= g;
  }
}

// A voltage source's couplings between its terminals p, n and its branch
// row b.
template <typename Jac>
void stamp_branch(Jac& jac, const MnaMap& m, int p, int n, int b) {
  if (m.v(p) >= 0) {
    jac(m.v(p), b) += 1.0;
    jac(b, m.v(p)) += 1.0;
  }
  if (m.v(n) >= 0) {
    jac(m.v(n), b) -= 1.0;
    jac(b, m.v(n)) -= 1.0;
  }
}

// Zero n x n dense sink, reusing its storage when the size matches.
inline void clear_dense(la::Mat& jac, int n) {
  if (jac.rows() != n || jac.cols() != n) {
    jac = la::Mat(n, n);
  } else {
    jac.fill(0.0);
  }
}

// Backward-Euler companion inputs of a transient step: each capacitance c
// becomes the conductance c * gh plus a history current from x_prev.
struct Companions {
  const std::vector<double>& x_prev;  // previous step's unknown vector
  const std::vector<MosCaps>& caps;   // aligned with nl.mosfets()
  double gh;                          // 1 / dt
};

// Residual f and Jacobian `jac` of one Newton iteration at unknown vector
// x, with `mos` the MOSFETs evaluated at x (eval_mosfets). sources holds
// every independent source's value, isources first, then vsources, in
// netlist order. gmin shunts every node. With `be`, capacitors and MOSFET
// capacitances get their companions (the transient); without, they are
// open (DC). f is resized and zeroed here; jac must arrive zeroed.
template <typename Jac>
void newton_stamps(const SimContext& ctx, const std::vector<double>& x,
                   const std::vector<MosOp>& mos, const double* sources,
                   double gmin, const Companions* be, Jac& jac,
                   std::vector<double>& f) {
  const MnaMap& m = ctx.map;
  const circuit::Netlist& nl = ctx.nl;
  f.assign(m.dim(), 0.0);
  const auto volt = [&m](const std::vector<double>& xx, int node) {
    return node == 0 ? 0.0 : xx[m.v(node)];
  };
  // Current i leaving node a and entering node b.
  const auto current = [&](int a, int b, double i) {
    if (m.v(a) >= 0) f[m.v(a)] += i;
    if (m.v(b) >= 0) f[m.v(b)] -= i;
  };
  const auto companion = [&](int a, int b, double c) {
    const double g = c * be->gh;
    stamp_conductance(jac, m, a, b, g);
    const double dv_now = volt(x, a) - volt(x, b);
    const double dv_prev = volt(be->x_prev, a) - volt(be->x_prev, b);
    current(a, b, g * (dv_now - dv_prev));
  };

  for (const auto& res : nl.resistors()) {
    const double g = 1.0 / std::max(res.r, kMinResistance);
    stamp_conductance(jac, m, res.a, res.b, g);
    current(res.a, res.b, g * (volt(x, res.a) - volt(x, res.b)));
  }
  if (be) {
    for (const auto& cap : nl.capacitors()) companion(cap.a, cap.b, cap.c);
  }
  for (std::size_t k = 0; k < nl.mosfets().size(); ++k) {
    const auto& dev = nl.mosfets()[k];
    const MosOp& op = mos[k];
    current(dev.d, dev.s, op.id);
    // d(id)/dvg = gm, d(id)/dvd = gds, d(id)/dvs = -(gm + gds).
    const int rd = m.v(dev.d);
    const int rs = m.v(dev.s);
    const int cg = m.v(dev.g);
    if (rd >= 0) {
      if (cg >= 0) jac(rd, cg) += op.gm;
      jac(rd, rd) += op.gds;
      if (rs >= 0) jac(rd, rs) -= op.gm + op.gds;
    }
    if (rs >= 0) {
      if (cg >= 0) jac(rs, cg) -= op.gm;
      if (rd >= 0) jac(rs, rd) -= op.gds;
      jac(rs, rs) += op.gm + op.gds;
    }
    if (be) {
      const MosCaps& c = be->caps[k];
      companion(dev.g, dev.s, c.cgs);
      companion(dev.g, dev.d, c.cgd);
      companion(dev.d, dev.b, c.cdb);
      companion(dev.s, dev.b, c.csb);
    }
  }
  const std::size_t ni = nl.isources().size();
  for (std::size_t k = 0; k < ni; ++k) {
    // Current flows p -> n through the source: leaves p, enters n.
    current(nl.isources()[k].p, nl.isources()[k].n, sources[k]);
  }
  for (std::size_t k = 0; k < nl.vsources().size(); ++k) {
    const auto& src = nl.vsources()[k];
    const int b = m.branch(static_cast<int>(k));
    current(src.p, src.n, x[b]);
    stamp_branch(jac, m, src.p, src.n, b);
    f[b] = volt(x, src.p) - volt(x, src.n) - sources[ni + k];
  }
  for (int node = 1; node < m.num_nodes(); ++node) {
    const int row = m.v(node);
    jac(row, row) += gmin;
    f[row] += gmin * x[row];
  }
}

// Small-signal G and C at an operating point whose MOSFETs have the
// operating data `mos` and capacitances `caps`, so that
// Y(w) = G + j*w*C. g and c must arrive zeroed.
template <typename GSink, typename CSink>
void small_signal_stamps(const SimContext& ctx, const std::vector<MosOp>& mos,
                         const std::vector<MosCaps>& caps, GSink& g,
                         CSink& c) {
  const MnaMap& m = ctx.map;
  const circuit::Netlist& nl = ctx.nl;
  for (const auto& res : nl.resistors()) {
    stamp_conductance(g, m, res.a, res.b,
                      1.0 / std::max(res.r, kMinResistance));
  }
  for (const auto& cap : nl.capacitors()) {
    stamp_conductance(c, m, cap.a, cap.b, cap.c);
  }
  for (std::size_t k = 0; k < nl.mosfets().size(); ++k) {
    const auto& dev = nl.mosfets()[k];
    // gm as a VCCS: current gm * (vg - vs) from d to s.
    const double gm = mos[k].gm;
    const int rd = m.v(dev.d);
    const int rs = m.v(dev.s);
    const int cg = m.v(dev.g);
    if (rd >= 0 && cg >= 0) g(rd, cg) += gm;
    if (rd >= 0 && rs >= 0) g(rd, rs) -= gm;
    if (rs >= 0 && cg >= 0) g(rs, cg) -= gm;
    if (rs >= 0) g(rs, rs) += gm;
    stamp_conductance(g, m, dev.d, dev.s, mos[k].gds);
    stamp_conductance(c, m, dev.g, dev.s, caps[k].cgs);
    stamp_conductance(c, m, dev.g, dev.d, caps[k].cgd);
    stamp_conductance(c, m, dev.d, dev.b, caps[k].cdb);
    stamp_conductance(c, m, dev.s, dev.b, caps[k].csb);
  }
  for (std::size_t k = 0; k < nl.vsources().size(); ++k) {
    const auto& src = nl.vsources()[k];
    stamp_branch(g, m, src.p, src.n, m.branch(static_cast<int>(k)));
  }
  // Regularization shunt mirroring the DC gmin keeps floating AC nodes
  // (e.g. gates only driven through capacitors) solvable.
  for (int node = 1; node < m.num_nodes(); ++node) {
    g(m.v(node), m.v(node)) += 1e-12;
  }
}

}  // namespace gcnrl::sim
