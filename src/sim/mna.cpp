#include "sim/mna.hpp"

#include <cmath>

#include "la/sparse.hpp"
#include "sim/structure.hpp"

namespace gcnrl::sim {

MnaMap::MnaMap(const circuit::Netlist& nl)
    : num_nodes_(nl.num_nodes()),
      dim_(nl.num_nodes() - 1 + static_cast<int>(nl.vsources().size())) {}

SimContext::SimContext(const circuit::Netlist& netlist,
                       const circuit::Technology& technology)
    : nl(netlist), tech(technology), map(netlist) {
  models.reserve(nl.mosfets().size());
  devices.reserve(nl.mosfets().size());
  for (const auto& mos : nl.mosfets()) {
    models.push_back(mos_model(tech, mos.is_pmos));
    devices.push_back(mos_device(models.back(), mos));
  }
  structure = std::make_unique<MnaStructure>(nl, map);
}

SimContext::~SimContext() = default;

void eval_mosfets(const SimContext& ctx, const std::vector<double>& x,
                  MosEval& e) {
  const MnaMap& m = ctx.map;
  const auto volt = [&](int node) { return node == 0 ? 0.0 : x[m.v(node)]; };
  const auto& mosfets = ctx.nl.mosfets();
  e.bias.resize(mosfets.size());
  e.op.resize(mosfets.size());
  for (std::size_t k = 0; k < mosfets.size(); ++k) {
    const auto& mos = mosfets[k];
    e.bias[k] = {volt(mos.g), volt(mos.d), volt(mos.s)};
  }
  eval_mos_batch(ctx.devices, e.bias, e.op);
}

void stamp_conductance(la::Mat& j, const MnaMap& m, int a, int b, double g) {
  const int ia = m.v(a);
  const int ib = m.v(b);
  if (ia >= 0) j(ia, ia) += g;
  if (ib >= 0) j(ib, ib) += g;
  if (ia >= 0 && ib >= 0) {
    j(ia, ib) -= g;
    j(ib, ia) -= g;
  }
}

void stamp_conductance(la::CMat& j, const MnaMap& m, int a, int b,
                       std::complex<double> g) {
  const int ia = m.v(a);
  const int ib = m.v(b);
  if (ia >= 0) j(ia, ia) += g;
  if (ib >= 0) j(ib, ib) += g;
  if (ia >= 0 && ib >= 0) {
    j(ia, ib) -= g;
    j(ib, ia) -= g;
  }
}

namespace {

template <typename T>
void stamp_vccs_impl(la::Matrix<T>& j, const MnaMap& m, int out_p, int out_n,
                     int c_p, int c_n, T g) {
  const int ip = m.v(out_p);
  const int in = m.v(out_n);
  const int icp = m.v(c_p);
  const int icn = m.v(c_n);
  if (ip >= 0 && icp >= 0) j(ip, icp) += g;
  if (ip >= 0 && icn >= 0) j(ip, icn) -= g;
  if (in >= 0 && icp >= 0) j(in, icp) -= g;
  if (in >= 0 && icn >= 0) j(in, icn) += g;
}

}  // namespace

void stamp_vccs(la::Mat& j, const MnaMap& m, int out_p, int out_n, int c_p,
                int c_n, double g) {
  stamp_vccs_impl(j, m, out_p, out_n, c_p, c_n, g);
}

void stamp_vccs(la::CMat& j, const MnaMap& m, int out_p, int out_n, int c_p,
                int c_n, std::complex<double> g) {
  stamp_vccs_impl(j, m, out_p, out_n, c_p, c_n, g);
}

std::vector<double> logspace(double f_lo, double f_hi, int n) {
  std::vector<double> f(n);
  if (n == 1) {
    f[0] = f_lo;
    return f;
  }
  const double ratio = std::log(f_hi / f_lo) / (n - 1);
  for (int i = 0; i < n; ++i) f[i] = f_lo * std::exp(ratio * i);
  return f;
}

}  // namespace gcnrl::sim
