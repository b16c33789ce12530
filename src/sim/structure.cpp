#include "sim/structure.hpp"

#include <atomic>
#include <cmath>
#include <utility>

namespace gcnrl::sim {

namespace {

std::atomic<bool> g_sparse_enabled{true};

void quad_coords(std::vector<std::pair<int, int>>& out, const MnaMap& m,
                 int a, int b) {
  const int ia = m.v(a);
  const int ib = m.v(b);
  if (ia >= 0) out.emplace_back(ia, ia);
  if (ib >= 0) out.emplace_back(ib, ib);
  if (ia >= 0 && ib >= 0) {
    out.emplace_back(ia, ib);
    out.emplace_back(ib, ia);
  }
}

void vccs_coords(std::vector<std::pair<int, int>>& out, const MnaMap& m,
                 int out_p, int out_n, int c_p, int c_n) {
  const int ip = m.v(out_p);
  const int in = m.v(out_n);
  const int icp = m.v(c_p);
  const int icn = m.v(c_n);
  if (ip >= 0 && icp >= 0) out.emplace_back(ip, icp);
  if (ip >= 0 && icn >= 0) out.emplace_back(ip, icn);
  if (in >= 0 && icp >= 0) out.emplace_back(in, icp);
  if (in >= 0 && icn >= 0) out.emplace_back(in, icn);
}

QuadSlots quad_slots(const la::SparsePattern& p, const MnaMap& m, int a,
                     int b) {
  QuadSlots q;
  const int ia = m.v(a);
  const int ib = m.v(b);
  if (ia >= 0) q.aa = p.slot(ia, ia);
  if (ib >= 0) q.bb = p.slot(ib, ib);
  if (ia >= 0 && ib >= 0) {
    q.ab = p.slot(ia, ib);
    q.ba = p.slot(ib, ia);
  }
  return q;
}

VccsSlots vccs_slots(const la::SparsePattern& p, const MnaMap& m, int out_p,
                     int out_n, int c_p, int c_n) {
  VccsSlots s;
  const int ip = m.v(out_p);
  const int in = m.v(out_n);
  const int icp = m.v(c_p);
  const int icn = m.v(c_n);
  if (ip >= 0 && icp >= 0) s.pp = p.slot(ip, icp);
  if (ip >= 0 && icn >= 0) s.pn = p.slot(ip, icn);
  if (in >= 0 && icp >= 0) s.np = p.slot(in, icp);
  if (in >= 0 && icn >= 0) s.nn = p.slot(in, icn);
  return s;
}

}  // namespace

bool sparse_engine_enabled() {
  return g_sparse_enabled.load(std::memory_order_relaxed);
}

void set_sparse_engine_enabled(bool on) {
  g_sparse_enabled.store(on, std::memory_order_relaxed);
}

MnaStructure::MnaStructure(const circuit::Netlist& nl, const MnaMap& m) {
  // 1. Union of every coordinate any analysis stamps.
  std::vector<std::pair<int, int>> coords;
  for (const auto& res : nl.resistors()) quad_coords(coords, m, res.a, res.b);
  for (const auto& cap : nl.capacitors()) {
    quad_coords(coords, m, cap.a, cap.b);
  }
  for (const auto& mos : nl.mosfets()) {
    vccs_coords(coords, m, mos.d, mos.s, mos.g, mos.s);
    quad_coords(coords, m, mos.d, mos.s);
    quad_coords(coords, m, mos.g, mos.s);
    quad_coords(coords, m, mos.g, mos.d);
    quad_coords(coords, m, mos.d, mos.b);
    quad_coords(coords, m, mos.s, mos.b);
  }
  for (std::size_t k = 0; k < nl.vsources().size(); ++k) {
    const auto& src = nl.vsources()[k];
    const int b = m.branch(static_cast<int>(k));
    if (m.v(src.p) >= 0) {
      coords.emplace_back(m.v(src.p), b);
      coords.emplace_back(b, m.v(src.p));
    }
    if (m.v(src.n) >= 0) {
      coords.emplace_back(m.v(src.n), b);
      coords.emplace_back(b, m.v(src.n));
    }
  }
  for (int node = 1; node < m.num_nodes(); ++node) {
    coords.emplace_back(m.v(node), m.v(node));
  }
  // 2. Symmetrize (MNA stamps are already structurally symmetric; this
  // makes the invariant unconditional).
  const std::size_t base = coords.size();
  coords.reserve(2 * base);
  for (std::size_t i = 0; i < base; ++i) {
    coords.emplace_back(coords[i].second, coords[i].first);
  }
  pattern = la::SparsePattern::from_coords(m.dim(), std::move(coords));

  // 3. Per-element slot lists.
  resistors.reserve(nl.resistors().size());
  for (const auto& res : nl.resistors()) {
    resistors.push_back(quad_slots(pattern, m, res.a, res.b));
  }
  capacitors.reserve(nl.capacitors().size());
  for (const auto& cap : nl.capacitors()) {
    capacitors.push_back(quad_slots(pattern, m, cap.a, cap.b));
  }
  mosfets.reserve(nl.mosfets().size());
  for (const auto& mos : nl.mosfets()) {
    MosSlots ms;
    ms.gm = vccs_slots(pattern, m, mos.d, mos.s, mos.g, mos.s);
    ms.gds = quad_slots(pattern, m, mos.d, mos.s);
    ms.cgs = quad_slots(pattern, m, mos.g, mos.s);
    ms.cgd = quad_slots(pattern, m, mos.g, mos.d);
    ms.cdb = quad_slots(pattern, m, mos.d, mos.b);
    ms.csb = quad_slots(pattern, m, mos.s, mos.b);
    mosfets.push_back(ms);
  }
  vsources.reserve(nl.vsources().size());
  for (std::size_t k = 0; k < nl.vsources().size(); ++k) {
    const auto& src = nl.vsources()[k];
    const int b = m.branch(static_cast<int>(k));
    VsrcSlots vs;
    if (m.v(src.p) >= 0) {
      vs.pb = pattern.slot(m.v(src.p), b);
      vs.bp = pattern.slot(b, m.v(src.p));
    }
    if (m.v(src.n) >= 0) {
      vs.nb = pattern.slot(m.v(src.n), b);
      vs.bn = pattern.slot(b, m.v(src.n));
    }
    vsources.push_back(vs);
  }
  node_diag.reserve(m.num_nodes() - 1);
  for (int node = 1; node < m.num_nodes(); ++node) {
    node_diag.push_back(pattern.slot(m.v(node), m.v(node)));
  }
}

void assemble_ac_gc(const SimContext& ctx, const MnaStructure& st,
                    const OpPoint& op, std::vector<double>& g,
                    std::vector<double>& c) {
  const circuit::Netlist& nl = ctx.nl;
  g.assign(st.pattern.nnz(), 0.0);
  c.assign(st.pattern.nnz(), 0.0);
  for (std::size_t k = 0; k < nl.resistors().size(); ++k) {
    add_quad(g.data(), st.resistors[k],
             1.0 / std::max(nl.resistors()[k].r, kMinResistance));
  }
  for (std::size_t k = 0; k < nl.capacitors().size(); ++k) {
    add_quad(c.data(), st.capacitors[k], nl.capacitors()[k].c);
  }
  for (std::size_t k = 0; k < nl.mosfets().size(); ++k) {
    const MosSlots& ms = st.mosfets[k];
    add_vccs(g.data(), ms.gm, op.mos[k].gm);
    add_quad(g.data(), ms.gds, op.mos[k].gds);
    add_quad(c.data(), ms.cgs, op.caps[k].cgs);
    add_quad(c.data(), ms.cgd, op.caps[k].cgd);
    add_quad(c.data(), ms.cdb, op.caps[k].cdb);
    add_quad(c.data(), ms.csb, op.caps[k].csb);
  }
  for (const VsrcSlots& vs : st.vsources) {
    if (vs.pb >= 0) {
      g[vs.pb] += 1.0;
      g[vs.bp] += 1.0;
    }
    if (vs.nb >= 0) {
      g[vs.nb] -= 1.0;
      g[vs.bn] -= 1.0;
    }
  }
  for (const int d : st.node_diag) g[d] += 1e-12;
}

}  // namespace gcnrl::sim
