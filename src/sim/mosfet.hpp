// First-order MOSFET model ("GL1"): square law with velocity saturation,
// mobility degradation, channel-length modulation and a smooth
// subthreshold tail.
//
// Design goals, in order: (1) C1-continuous everywhere so Newton converges
// from cold starts across the whole random-sizing space; (2) physically
// sensible trends (gm/ID, ro ~ 1/(lambda Id), fT ~ mu Vov / L^2) so sizing
// trade-offs look like real analog design; (3) cheap. Accuracy against any
// particular foundry model is a non-goal (see README "Substitutions").
//
// Conventions: NMOS current flows drain->source and is positive for
// vds > 0. PMOS is handled by mirroring voltages and current. The model is
// symmetric in drain/source (internal swap for vds < 0).
#pragma once

#include <span>

#include "circuit/netlist.hpp"
#include "circuit/tech.hpp"

namespace gcnrl::sim {

struct MosModel {
  bool pmos = false;
  double vth0 = 0.5;    // [V]
  double mu0 = 0.04;    // [m^2/Vs]
  double vsat = 8e4;    // [m/s]
  double uc = 0.3;      // [1/V]
  double cox = 8e-3;    // [F/m^2]
  double lambda_um = 0.05;
  double cov = 0.0;     // overlap cap per width [F/m]
  double cj = 0.0;      // junction cap per width [F/m]
  double kf = 0.0;      // flicker coefficient
};

MosModel mos_model(const circuit::Technology& tech, bool pmos);

struct MosOp {
  double id = 0.0;   // drain current (terminal convention above) [A]
  double gm = 0.0;   // d id / d vgs [S]
  double gds = 0.0;  // d id / d vds [S]
};

// Terminal-voltage evaluation with analytic derivatives of the same
// smooth core, so the Newton Jacobian is consistent with the residual. A
// batch of one (see eval_mos_batch).
MosOp eval_mos(const MosModel& m, const circuit::Mosfet& geom, double vg,
               double vd, double vs);

// One device as the model evaluates it: its model parameters and the
// geometry-only factors of its current, computed once per device
// (SimContext::devices) instead of in every Newton iteration. Each factor
// is computed in the operand order of the model's expressions, so it
// carries the bits an inline computation would.
struct MosDevice {
  bool pmos = false;      // evaluated mirrored: voltages and current negated
  double vth0 = 0.5;      // [V]
  double mu0 = 0.04;      // [m^2/Vs]
  double uc = 0.3;        // [1/V]
  double cox = 8e-3;      // [F/m^2]
  double w_over_l = 1.0;  // w * m / l
  double vsat2l = 0.0;    // 2 vsat l [m^2/s]
  double dec_l = 0.0;     // 2 vsat l uc / mu0: d(ec * l) / d vov
  double lambda = 0.0;    // lambda_um / (l in um) [1/V]
};

MosDevice mos_device(const MosModel& m, const circuit::Mosfet& geom);

// One device's terminal voltages.
struct MosBias {
  double vg = 0.0;
  double vd = 0.0;
  double vs = 0.0;
};

// Devices per chunk of eval_mos_batch; the chunk's scratch is on the stack.
inline constexpr int kMosBatchChunk = 16;

// out[k] = the model at dev[k] and bias[k], bit for bit what eval_mos
// returns, for every k (the three spans have one size). The devices are
// evaluated kMosBatchChunk at a time, one model step across the whole
// chunk before the next (terminal mapping and z, exp, softplus, mobility
// and saturation voltage, cbrt, current and derivatives), so that
// independent devices' division and libm latency chains overlap.
void eval_mos_batch(std::span<const MosDevice> dev,
                    std::span<const MosBias> bias, std::span<MosOp> out);

struct MosCaps {
  double cgs = 0.0;
  double cgd = 0.0;
  double cdb = 0.0;
  double csb = 0.0;
};

// Bias-independent small-signal capacitances (saturation-mode split).
MosCaps mos_caps(const MosModel& m, const circuit::Mosfet& geom);

// Noise PSDs at an operating point.
// Thermal drain-current PSD: 4 k T gamma gm  [A^2/Hz], gamma = 2/3.
double mos_thermal_psd(double gm);
// Flicker drain-current PSD at frequency f: kf * gm^2 / (Cox W L M f).
double mos_flicker_psd(const MosModel& m, const circuit::Mosfet& geom,
                       double gm, double freq);
// Resistor thermal PSD: 4 k T / R  [A^2/Hz].
double resistor_thermal_psd(double r);

}  // namespace gcnrl::sim
