#include "sim/mosfet.hpp"

#include <algorithm>
#include <cmath>

namespace gcnrl::sim {
namespace {

constexpr double kBoltzmannT = 1.380649e-23 * 300.0;  // kT at 300 K
constexpr double kVtSub = 0.045;  // subthreshold smoothing voltage [V]

// Current and its two partial derivatives from one model evaluation.
struct IdGrad {
  double id = 0.0;
  double dvgs = 0.0;  // d id / d vgs
  double dvds = 0.0;  // d id / d vds
};

// Core NMOS-convention current for vds >= 0, with analytic derivatives
// propagated through every intermediate (softplus overdrive, mobility
// degradation, velocity-saturation voltage, the smooth triode->saturation
// clamp, and channel-length modulation). One transcendental set per call
// — this is the Newton-loop hot path, evaluated once per device per
// iteration where the previous finite-difference Jacobian needed five
// model evaluations.
IdGrad id_core(const MosModel& m, double w_eff, double l, double vgs,
               double vds) {
  IdGrad r;
  // Softplus overdrive and its slope (the logistic function).
  const double z = (vgs - m.vth0) / kVtSub;
  double vov, dvov;  // dvov = d vov / d vgs
  if (z > 30.0) {
    vov = vgs - m.vth0;
    dvov = 1.0;
  } else if (z < -30.0) {
    const double ez = std::exp(z);
    vov = kVtSub * ez;
    dvov = ez;
  } else {
    const double ez = std::exp(z);
    vov = kVtSub * std::log1p(ez);
    dvov = ez / (1.0 + ez);
  }
  if (vov <= 0.0) return r;
  const double mu_den = 1.0 + m.uc * vov;
  const double mu_eff = m.mu0 / mu_den;
  const double beta = mu_eff * m.cox * (w_eff / l);
  const double dbeta = -beta * m.uc / mu_den;             // d beta / d vov
  const double ec_l = 2.0 * m.vsat * l / mu_eff;          // = 2 vsat l mu_den / mu0
  const double dec_l = 2.0 * m.vsat * l * m.uc / m.mu0;   // d ec_l / d vov
  const double vse = vov + ec_l;
  const double vdsat = vov * ec_l / vse;
  const double dvdsat =                                   // d vdsat / d vov
      (ec_l * ec_l + vov * vov * dec_l) / (vse * vse);
  // Smooth triode->saturation clamp of the drain voltage.
  const double x = vds / vdsat;
  const double u = 1.0 + x * x * x;
  const double cr = std::cbrt(u);
  const double vde = vds / cr;
  // d vde / d vds at fixed vdsat collapses to u^(-4/3); the vdsat path
  // carries the gate dependence.
  const double dvde_dvds = 1.0 / (u * cr);
  const double dvde_dvdsat = vds * dvde_dvds * x * x * x / vdsat;
  const double dvde_g = dvde_dvdsat * dvdsat * dvov;      // d vde / d vgs
  const double lambda = m.lambda_um / (l * 1e6);
  const double a = vov - 0.5 * vde;
  const double cl = 1.0 + lambda * vds;
  const double den = 1.0 + vde / ec_l;
  r.id = beta * a * vde * cl / den;
  // Gate partial: beta, a, vde, and den all move with vov.
  const double dden_g = dvde_g / ec_l - vde * dec_l * dvov / (ec_l * ec_l);
  r.dvgs = dbeta * dvov * a * vde * cl / den +
           beta * cl *
               ((dvov - 0.5 * dvde_g) * vde + a * dvde_g -
                a * vde * dden_g / den) /
               den;
  // Drain partial: vde and the lambda term move with vds.
  const double dden_d = dvde_dvds / ec_l;
  r.dvds = beta *
           ((-0.5 * dvde_dvds) * vde * cl + a * dvde_dvds * cl +
            a * vde * lambda - a * vde * cl * dden_d / den) /
           den;
  return r;
}

// Symmetric wrapper: handles vds < 0 by swapping drain/source. The
// derivative mapping under reflection (id -> -id, vgs' = vg - vd,
// vds' = vs - vd) gives gm = -d/dvgs' and gds = d/dvgs' + d/dvds',
// matching the sign structure the finite differences used to produce.
IdGrad id_sym(const MosModel& m, double w_eff, double l, double vg, double vd,
              double vs) {
  if (vd >= vs) return id_core(m, w_eff, l, vg - vs, vd - vs);
  IdGrad c = id_core(m, w_eff, l, vg - vd, vs - vd);
  IdGrad r;
  r.id = -c.id;
  r.dvgs = -c.dvgs;
  r.dvds = c.dvgs + c.dvds;
  return r;
}

}  // namespace

MosModel mos_model(const circuit::Technology& tech, bool pmos) {
  MosModel m;
  m.pmos = pmos;
  m.vth0 = pmos ? tech.vth0_p : tech.vth0_n;
  m.mu0 = pmos ? tech.mu0_p : tech.mu0_n;
  m.vsat = tech.vsat;
  m.uc = tech.uc;
  m.cox = tech.cox;
  m.lambda_um = tech.lambda_um;
  m.cov = tech.cov;
  m.cj = tech.cj;
  m.kf = tech.kf;
  return m;
}

MosOp eval_mos(const MosModel& m, const circuit::Mosfet& geom, double vg,
               double vd, double vs) {
  const double w_eff = geom.w * geom.m;
  const double l = geom.l;
  // PMOS: mirror all voltages; the resulting current is mirrored back.
  const double sign = m.pmos ? -1.0 : 1.0;
  const double vg_i = sign * vg;
  const double vd_i = sign * vd;
  const double vs_i = sign * vs;

  const IdGrad g = id_sym(m, w_eff, l, vg_i, vd_i, vs_i);

  MosOp op;
  // Mirroring cancels: d(sign*id_i)/d(sign*v) = d id_i / d v.
  op.id = sign * g.id;
  op.gm = g.dvgs;
  op.gds = g.dvds;
  // Note: gm is negative w.r.t. the labeled gate terminal when the device
  // operates drain/source-reversed (vds < 0 internally). Do NOT clamp —
  // Newton needs the Jacobian consistent with the residual precisely in
  // those transitional states.
  return op;
}

MosCaps mos_caps(const MosModel& m, const circuit::Mosfet& geom) {
  const double w_eff = geom.w * geom.m;
  MosCaps c;
  c.cgs = (2.0 / 3.0) * m.cox * w_eff * geom.l + m.cov * w_eff;
  c.cgd = m.cov * w_eff;
  c.cdb = m.cj * w_eff;
  c.csb = m.cj * w_eff;
  return c;
}

double mos_thermal_psd(double gm) {
  return 4.0 * kBoltzmannT * (2.0 / 3.0) * std::max(gm, 0.0);
}

double mos_flicker_psd(const MosModel& m, const circuit::Mosfet& geom,
                       double gm, double freq) {
  if (m.kf <= 0.0 || freq <= 0.0) return 0.0;
  const double area = geom.w * geom.m * geom.l;
  return m.kf * gm * gm / (m.cox * area * freq);
}

double resistor_thermal_psd(double r) {
  return r > 0.0 ? 4.0 * kBoltzmannT / r : 0.0;
}

}  // namespace gcnrl::sim
