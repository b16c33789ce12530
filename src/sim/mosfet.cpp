#include "sim/mosfet.hpp"

#include <algorithm>
#include <cmath>

namespace gcnrl::sim {
namespace {

constexpr double kBoltzmannT = 1.380649e-23 * 300.0;  // kT at 300 K
constexpr double kVtSub = 0.045;  // subthreshold smoothing voltage [V]

// The scratch of one chunk, one array element per device. Every model
// step below is a loop over the chunk whose iterations are independent,
// and the arithmetic steps read only these arrays (the device constants
// are copied in by step 1), so the compiler may run them two devices per
// instruction. Left uninitialized: a step reads only elements an earlier
// step wrote.
struct Chunk {
  double vth0[kMosBatchChunk], mu0[kMosBatchChunk], uc[kMosBatchChunk],
      cox[kMosBatchChunk], w_over_l[kMosBatchChunk], vsat2l[kMosBatchChunk],
      dec_l[kMosBatchChunk], lambda[kMosBatchChunk];  // from MosDevice
  bool swapped[kMosBatchChunk];  // drain below source: evaluated reflected
  bool off[kMosBatchChunk];      // overdrive not positive: no current
  double vgs[kMosBatchChunk];    // NMOS-convention core inputs, vds >= 0
  double vds[kMosBatchChunk];
  double z[kMosBatchChunk];      // normalized overdrive (vgs - vth0) / vt
  double ez[kMosBatchChunk];     // exp(z), unused where z > 30
  double vov[kMosBatchChunk];    // softplus overdrive
  double dvov[kMosBatchChunk];   // d vov / d vgs (the logistic function)
  double beta[kMosBatchChunk];
  double dbeta[kMosBatchChunk];  // d beta / d vov
  double ec_l[kMosBatchChunk];   // velocity-saturation voltage ec * l
  double vdsat[kMosBatchChunk];
  double dvdsat[kMosBatchChunk]; // d vdsat / d vov
  double x[kMosBatchChunk];      // vds / vdsat
  double u[kMosBatchChunk];      // 1 + x^3
  double cr[kMosBatchChunk];     // cbrt(u)
  double id[kMosBatchChunk];     // core current and its partials
  double dvgs[kMosBatchChunk];
  double dvds[kMosBatchChunk];
};

// The model on n <= kMosBatchChunk devices, in six steps that each run
// across the chunk. The core is the NMOS-convention current for vds >= 0
// with analytic derivatives propagated through every intermediate
// (softplus overdrive, mobility degradation, velocity-saturation voltage,
// the smooth triode->saturation clamp, and channel-length modulation):
// one exp, log1p and cbrt per device. PMOS is evaluated mirrored, and a
// device with vds < 0 with drain and source swapped.
void eval_chunk(const MosDevice* dev, const MosBias* bias, MosOp* out,
                int n) {
  Chunk c;
  // 1. Terminal mapping and z. PMOS negates all voltages; vd < vs (or a
  // NaN terminal) evaluates the reflected device, vgs' = vg - vd and
  // vds' = vs - vd.
  for (int k = 0; k < n; ++k) {
    const MosDevice& d = dev[k];
    c.vth0[k] = d.vth0;
    c.mu0[k] = d.mu0;
    c.uc[k] = d.uc;
    c.cox[k] = d.cox;
    c.w_over_l[k] = d.w_over_l;
    c.vsat2l[k] = d.vsat2l;
    c.dec_l[k] = d.dec_l;
    c.lambda[k] = d.lambda;
    const double vg = d.pmos ? -bias[k].vg : bias[k].vg;
    const double vd = d.pmos ? -bias[k].vd : bias[k].vd;
    const double vs = d.pmos ? -bias[k].vs : bias[k].vs;
    c.swapped[k] = !(vd >= vs);
    c.vgs[k] = c.swapped[k] ? vg - vd : vg - vs;
    c.vds[k] = c.swapped[k] ? vs - vd : vd - vs;
    c.z[k] = (c.vgs[k] - d.vth0) / kVtSub;
  }
  // 2. exp.
  for (int k = 0; k < n; ++k) {
    if (!(c.z[k] > 30.0)) c.ez[k] = std::exp(c.z[k]);
  }
  // 3. Softplus overdrive and its slope. A device whose overdrive is not
  // positive carries no current: the next steps compute values for it
  // that the last step discards. A NaN overdrive is evaluated on.
  for (int k = 0; k < n; ++k) {
    if (c.z[k] > 30.0) {
      c.vov[k] = c.vgs[k] - c.vth0[k];
      c.dvov[k] = 1.0;
    } else if (c.z[k] < -30.0) {
      c.vov[k] = kVtSub * c.ez[k];
      c.dvov[k] = c.ez[k];
    } else {
      const double ez = c.ez[k];
      c.vov[k] = kVtSub * std::log1p(ez);
      c.dvov[k] = ez / (1.0 + ez);
    }
    c.off[k] = c.vov[k] <= 0.0;
  }
  // 4. Mobility degradation, velocity saturation, vdsat, and the clamp's
  // x and u.
  for (int k = 0; k < n; ++k) {
    const double vov = c.vov[k];
    const double mu_den = 1.0 + c.uc[k] * vov;
    const double mu_eff = c.mu0[k] / mu_den;
    c.beta[k] = mu_eff * c.cox[k] * c.w_over_l[k];
    c.dbeta[k] = -c.beta[k] * c.uc[k] / mu_den;
    const double ec_l = c.vsat2l[k] / mu_eff;  // = 2 vsat l mu_den / mu0
    c.ec_l[k] = ec_l;
    const double vse = vov + ec_l;
    c.vdsat[k] = vov * ec_l / vse;
    c.dvdsat[k] = (ec_l * ec_l + vov * vov * c.dec_l[k]) / (vse * vse);
    // Smooth triode->saturation clamp of the drain voltage.
    const double x = c.vds[k] / c.vdsat[k];
    c.x[k] = x;
    c.u[k] = 1.0 + x * x * x;
  }
  // 5. cbrt.
  for (int k = 0; k < n; ++k) c.cr[k] = std::cbrt(c.u[k]);
  // 6. Current and its partial derivatives.
  for (int k = 0; k < n; ++k) {
    const double vds = c.vds[k], vov = c.vov[k], dvov = c.dvov[k];
    const double beta = c.beta[k], ec_l = c.ec_l[k], x = c.x[k];
    const double vde = vds / c.cr[k];
    // d vde / d vds at fixed vdsat collapses to u^(-4/3); the vdsat path
    // carries the gate dependence.
    const double dvde_dvds = 1.0 / (c.u[k] * c.cr[k]);
    const double dvde_dvdsat = vds * dvde_dvds * x * x * x / c.vdsat[k];
    const double dvde_g = dvde_dvdsat * c.dvdsat[k] * dvov;  // d vde / d vgs
    const double a = vov - 0.5 * vde;
    const double cl = 1.0 + c.lambda[k] * vds;
    const double den = 1.0 + vde / ec_l;
    c.id[k] = beta * a * vde * cl / den;
    // Gate partial: beta, a, vde, and den all move with vov.
    const double dden_g =
        dvde_g / ec_l - vde * c.dec_l[k] * dvov / (ec_l * ec_l);
    c.dvgs[k] = c.dbeta[k] * dvov * a * vde * cl / den +
                beta * cl *
                    ((dvov - 0.5 * dvde_g) * vde + a * dvde_g -
                     a * vde * dden_g / den) /
                    den;
    // Drain partial: vde and the lambda term move with vds.
    const double dden_d = dvde_dvds / ec_l;
    c.dvds[k] = beta *
                ((-0.5 * dvde_dvds) * vde * cl + a * dvde_dvds * cl +
                 a * vde * c.lambda[k] - a * vde * cl * dden_d / den) /
                den;
  }
  // Back to terminal convention. The reflection (id -> -id) gives
  // gm = -d/dvgs' and gds = d/dvgs' + d/dvds'; the PMOS mirror negates
  // the current and cancels in the derivatives: d(-id_i)/d(-v) = d id_i/d v.
  for (int k = 0; k < n; ++k) {
    const double cid = c.off[k] ? 0.0 : c.id[k];
    const double cdg = c.off[k] ? 0.0 : c.dvgs[k];
    const double cdd = c.off[k] ? 0.0 : c.dvds[k];
    double id = cid, gm = cdg, gds = cdd;
    if (c.swapped[k]) {
      id = -cid;
      gm = -cdg;
      gds = cdg + cdd;
    }
    out[k].id = dev[k].pmos ? -id : id;
    out[k].gm = gm;
    out[k].gds = gds;
  }
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

MosDevice mos_device(const MosModel& m, const circuit::Mosfet& geom) {
  const double w_eff = geom.w * geom.m;
  const double l = geom.l;
  MosDevice d;
  d.pmos = m.pmos;
  d.vth0 = m.vth0;
  d.mu0 = m.mu0;
  d.uc = m.uc;
  d.cox = m.cox;
  d.w_over_l = w_eff / l;
  d.vsat2l = 2.0 * m.vsat * l;
  d.dec_l = 2.0 * m.vsat * l * m.uc / m.mu0;
  d.lambda = m.lambda_um / (l * 1e6);
  return d;
}

void eval_mos_batch(std::span<const MosDevice> dev,
                    std::span<const MosBias> bias, std::span<MosOp> out) {
  for (std::size_t k = 0; k < dev.size(); k += kMosBatchChunk) {
    const std::size_t n =
        std::min<std::size_t>(kMosBatchChunk, dev.size() - k);
    eval_chunk(dev.data() + k, bias.data() + k, out.data() + k,
               static_cast<int>(n));
  }
}

MosOp eval_mos(const MosModel& m, const circuit::Mosfet& geom, double vg,
               double vd, double vs) {
  const MosDevice dev = mos_device(m, geom);
  const MosBias bias{vg, vd, vs};
  MosOp op;
  eval_mos_batch({&dev, 1}, {&bias, 1}, {&op, 1});
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
