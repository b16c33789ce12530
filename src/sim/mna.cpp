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
  structure = std::make_unique<MnaStructure>(*this);
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
