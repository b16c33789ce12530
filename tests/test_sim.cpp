// Simulator validation against closed-form circuit theory: DC, AC,
// transient and noise on circuits with known analytical answers.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <complex>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "circuit/analyze.hpp"
#include "circuit/gcir.hpp"
#include "circuit/netlist.hpp"
#include "circuit/tech.hpp"
#include "circuits/benchmark_circuits.hpp"
#include "common/rng.hpp"
#include "env/circuit_compile.hpp"
#include "heap_counter.hpp"
#include "meas/ac_metrics.hpp"
#include "meas/tran_metrics.hpp"
#include "sim/perf.hpp"
#include "sim/simulator.hpp"
#include "sim/structure.hpp"
#include "test_helpers.hpp"

namespace circuit = gcnrl::circuit;
namespace la = gcnrl::la;
namespace sim = gcnrl::sim;
namespace meas = gcnrl::meas;

namespace {

const circuit::Technology kTech = circuit::make_technology("180nm");

meas::AcCurve curve_of(const sim::AcResult& ac, int node) {
  meas::AcCurve c;
  c.freq = ac.freq;
  for (std::size_t i = 0; i < ac.freq.size(); ++i) {
    c.h.push_back(ac.phasor(static_cast<int>(i), node));
  }
  return c;
}

// Scoped override of the process-wide sparse-engine toggle.
class SparseEngineGuard {
 public:
  explicit SparseEngineGuard(bool on) : prev_(sim::sparse_engine_enabled()) {
    sim::set_sparse_engine_enabled(on);
  }
  ~SparseEngineGuard() { sim::set_sparse_engine_enabled(prev_); }

 private:
  bool prev_;
};

}  // namespace

TEST(Dc, ResistorDivider) {
  circuit::Netlist nl;
  const int vin = nl.node("vin");
  const int mid = nl.node("mid");
  nl.add_vsource("V1", vin, 0, 3.0);
  nl.add_resistor("R1", vin, mid, 1e3, false);
  nl.add_resistor("R2", mid, 0, 2e3, false);
  sim::Simulator s(nl, kTech);
  EXPECT_NEAR(s.op().node(mid), 2.0, 1e-6);
  // Power drawn from the source: V^2 / (R1+R2) = 3 mW.
  EXPECT_NEAR(s.supply_power(), 3.0e-3, 1e-8);
  EXPECT_NEAR(s.source_current("V1"), 1e-3, 1e-9);
}

TEST(Dc, CurrentSourceIntoResistor) {
  circuit::Netlist nl;
  const int n1 = nl.node("n1");
  // 1 mA injected INTO n1 (p=ground, n=n1), 2k to ground -> +2 V.
  nl.add_isource("I1", 0, n1, 1e-3);
  nl.add_resistor("R1", n1, 0, 2e3, false);
  sim::Simulator s(nl, kTech);
  EXPECT_NEAR(s.op().node(n1), 2.0, 1e-6);
}

TEST(Mosfet, SquareLawTrends) {
  const sim::MosModel m = sim::mos_model(kTech, false);
  circuit::Mosfet geom;
  geom.w = 10e-6;
  geom.l = 1e-6;
  geom.m = 1;
  const auto op1 = sim::eval_mos(m, geom, 0.9, 1.8, 0.0);
  const auto op2 = sim::eval_mos(m, geom, 1.2, 1.8, 0.0);
  EXPECT_GT(op2.id, op1.id);        // more gate drive, more current
  EXPECT_GT(op1.id, 0.0);
  EXPECT_GT(op1.gm, 0.0);
  EXPECT_GT(op1.gds, 0.0);
  // Saturation: gds much smaller than gm.
  EXPECT_LT(op1.gds, op1.gm);
  // Off device: negligible current.
  const auto off = sim::eval_mos(m, geom, 0.0, 1.8, 0.0);
  EXPECT_LT(off.id, 1e-9);
  // Zero vds: zero current (symmetric model).
  const auto sym = sim::eval_mos(m, geom, 1.2, 0.0, 0.0);
  EXPECT_NEAR(sym.id, 0.0, 1e-15);
}

TEST(Mosfet, WidthAndMultiplierScaleCurrent) {
  const sim::MosModel m = sim::mos_model(kTech, false);
  circuit::Mosfet g1;
  g1.w = 5e-6;
  g1.l = 0.5e-6;
  g1.m = 1;
  circuit::Mosfet g2 = g1;
  g2.m = 4;
  circuit::Mosfet g3 = g1;
  g3.w = 20e-6;
  const auto i1 = sim::eval_mos(m, g1, 1.0, 1.5, 0.0).id;
  const auto i2 = sim::eval_mos(m, g2, 1.0, 1.5, 0.0).id;
  const auto i3 = sim::eval_mos(m, g3, 1.0, 1.5, 0.0).id;
  EXPECT_NEAR(i2 / i1, 4.0, 1e-9);
  EXPECT_NEAR(i3 / i1, 4.0, 1e-9);
}

TEST(Mosfet, PmosMirrorsNmos) {
  const sim::MosModel mn = sim::mos_model(kTech, false);
  sim::MosModel mp = mn;
  mp.pmos = true;
  circuit::Mosfet geom;
  geom.w = 10e-6;
  geom.l = 0.5e-6;
  // PMOS with all voltages mirrored: current flips sign exactly.
  const auto n = sim::eval_mos(mn, geom, 1.0, 1.5, 0.0);
  const auto p = sim::eval_mos(mp, geom, -1.0, -1.5, 0.0);
  EXPECT_NEAR(n.id, -p.id, 1e-15);
  EXPECT_NEAR(n.gm, p.gm, 1e-9);
  EXPECT_NEAR(n.gds, p.gds, 1e-9);
}

TEST(Mosfet, ReversedDeviceIsSymmetric) {
  const sim::MosModel m = sim::mos_model(kTech, false);
  circuit::Mosfet geom;
  geom.w = 4e-6;
  geom.l = 0.3e-6;
  const auto fwd = sim::eval_mos(m, geom, 1.2, 0.9, 0.3);
  // Swap drain/source: same magnitude, opposite sign.
  const auto rev = sim::eval_mos(m, geom, 1.2, 0.3, 0.9);
  EXPECT_NEAR(fwd.id, -rev.id, 1e-12);
}

TEST(Dc, DiodeConnectedNmosCarriesBiasCurrent) {
  circuit::Netlist nl;
  const int n1 = nl.node("n1");
  nl.add_isource("IB", 0, n1, 50e-6);  // 50 uA into the diode
  nl.add_nmos("M1", n1, n1, 0, 0, 10e-6, 0.5e-6);
  sim::Simulator s(nl, kTech);
  const double v = s.op().node(n1);
  EXPECT_GT(v, kTech.vth0_n * 0.8);  // needs real gate drive
  EXPECT_LT(v, kTech.vdd);
  EXPECT_NEAR(s.op().mos[0].id, 50e-6, 1e-7);
}

TEST(Dc, NmosCommonSourceOperatingPoint) {
  // CS stage with resistor load; check KCL: I(R) == Id.
  circuit::Netlist nl;
  const int vdd = nl.node("vdd");
  nl.mark_supply("vdd");
  const int out = nl.node("out");
  const int in = nl.node("in");
  nl.add_vsource("VDD", vdd, 0, 1.8);
  nl.add_vsource("VIN", in, 0, 0.75);
  nl.add_resistor("RL", vdd, out, 10e3, false);
  nl.add_nmos("M1", out, in, 0, 0, 5e-6, 0.36e-6);
  sim::Simulator s(nl, kTech);
  const double vout = s.op().node(out);
  const double i_r = (1.8 - vout) / 10e3;
  EXPECT_NEAR(i_r, s.op().mos[0].id, 1e-9);
  EXPECT_GT(vout, 0.05);
  EXPECT_LT(vout, 1.75);
}

TEST(Ac, RcLowPassPole) {
  circuit::Netlist nl;
  const int in = nl.node("in");
  const int out = nl.node("out");
  nl.add_vsource("VIN", in, 0, 0.0, /*ac=*/1.0);
  nl.add_resistor("R1", in, out, 1e3, false);
  nl.add_capacitor("C1", out, 0, 1e-9, false);
  sim::Simulator s(nl, kTech);
  const double f_pole = 1.0 / (2.0 * M_PI * 1e3 * 1e-9);  // ~159 kHz
  const auto ac = s.ac(sim::logspace(1e2, 1e8, 121));
  const auto curve = curve_of(ac, out);
  EXPECT_NEAR(meas::dc_gain(curve), 1.0, 1e-6);
  EXPECT_NEAR(meas::bandwidth_3db(curve), f_pole, 0.02 * f_pole);
  EXPECT_NEAR(meas::peaking_db(curve), 0.0, 1e-6);
  // Phase at the pole is -45 degrees.
  const double mag_at_pole = meas::magnitude_at(curve, f_pole);
  EXPECT_NEAR(mag_at_pole, 1.0 / std::sqrt(2.0), 0.01);
}

TEST(Ac, CommonSourceGainMatchesSmallSignal) {
  circuit::Netlist nl;
  const int vdd = nl.node("vdd");
  nl.mark_supply("vdd");
  const int out = nl.node("out");
  const int in = nl.node("in");
  nl.add_vsource("VDD", vdd, 0, 1.8);
  nl.add_vsource("VIN", in, 0, 0.8, /*ac=*/1.0);
  nl.add_resistor("RL", vdd, out, 10e3, false);
  nl.add_nmos("M1", out, in, 0, 0, 20e-6, 0.36e-6);
  sim::Simulator s(nl, kTech);
  const auto& op = s.op();
  const double gm = op.mos[0].gm;
  const double gds = op.mos[0].gds;
  const double expected = gm / (gds + 1e-4);  // gm * (ro || RL)
  const auto ac = s.ac({10.0});
  const double gain = std::abs(ac.phasor(0, out));
  EXPECT_NEAR(gain, expected, 0.02 * expected);
}

TEST(Ac, SourceFollowerGainBelowUnity) {
  circuit::Netlist nl;
  const int vdd = nl.node("vdd");
  nl.mark_supply("vdd");
  const int in = nl.node("in");
  const int out = nl.node("out");
  nl.add_vsource("VDD", vdd, 0, 1.8);
  nl.add_vsource("VIN", in, 0, 1.3, 1.0);
  nl.add_nmos("M1", vdd, in, out, 0, 40e-6, 0.36e-6);
  nl.add_resistor("RS", out, 0, 20e3, false);
  sim::Simulator s(nl, kTech);
  const auto ac = s.ac({10.0});
  const double gain = std::abs(ac.phasor(0, out));
  EXPECT_GT(gain, 0.6);
  EXPECT_LT(gain, 1.0);
}

TEST(Tran, RcStepResponseTimeConstant) {
  circuit::Netlist nl;
  const int in = nl.node("in");
  const int out = nl.node("out");
  circuit::Pwl step{{{0.0, 0.0}, {1e-9, 0.0}, {1.1e-9, 1.0}}};
  nl.add_vsource("VIN", in, 0, 0.0, 0.0, step);
  nl.add_resistor("R1", in, out, 1e3, false);
  nl.add_capacitor("C1", out, 0, 1e-9, false);
  sim::Simulator s(nl, kTech);
  sim::TranOptions opt;
  opt.tstop = 10e-6;
  opt.dt = 5e-9;
  const auto tr = s.tran(opt);
  meas::TranCurve c;
  c.t = tr.t;
  for (std::size_t i = 0; i < tr.t.size(); ++i) {
    c.v.push_back(tr.v(static_cast<int>(i), out));
  }
  // After one tau (1 us) from the step, v = 1 - e^-1.
  EXPECT_NEAR(meas::value_at(c, 1.1e-9 + 1e-6), 1.0 - std::exp(-1.0), 0.02);
  EXPECT_NEAR(c.v.back(), 1.0, 1e-3);
  // Settling to 1%: about 4.6 tau.
  const double ts = meas::settling_time(c, 1.1e-9, 0.01);
  EXPECT_NEAR(ts, 4.6e-6, 0.5e-6);
}

TEST(Tran, CapacitorHoldsInitialCondition) {
  // No stimulus change: output stays at DC level.
  circuit::Netlist nl;
  const int in = nl.node("in");
  const int out = nl.node("out");
  nl.add_vsource("VIN", in, 0, 1.0);
  nl.add_resistor("R1", in, out, 1e3, false);
  nl.add_capacitor("C1", out, 0, 1e-12, false);
  sim::Simulator s(nl, kTech);
  sim::TranOptions opt;
  opt.tstop = 1e-7;
  opt.dt = 1e-9;
  const auto tr = s.tran(opt);
  for (std::size_t i = 0; i < tr.t.size(); ++i) {
    EXPECT_NEAR(tr.v(static_cast<int>(i), out), 1.0, 1e-6);
  }
}

TEST(Noise, ResistorDividerThermalNoise) {
  // Output noise of a divider = 4kT * (R1 || R2).
  circuit::Netlist nl;
  const int vin = nl.node("vin");
  const int mid = nl.node("mid");
  nl.add_vsource("V1", vin, 0, 1.0);
  nl.add_resistor("R1", vin, mid, 1e4, false);
  nl.add_resistor("R2", mid, 0, 1e4, false);
  sim::Simulator s(nl, kTech);
  const auto nr = s.noise({1e3, 1e6}, mid, 0);
  const double kT = 1.380649e-23 * 300.0;
  const double expected = 4.0 * kT * 5e3;  // R1 || R2 = 5k
  EXPECT_NEAR(nr.out_psd[0], expected, 0.01 * expected);
  EXPECT_NEAR(nr.out_psd[1], expected, 0.01 * expected);
}

TEST(Noise, MosfetAddsFlickerAtLowFreq) {
  circuit::Netlist nl;
  const int vdd = nl.node("vdd");
  nl.mark_supply("vdd");
  const int out = nl.node("out");
  const int in = nl.node("in");
  nl.add_vsource("VDD", vdd, 0, 1.8);
  nl.add_vsource("VIN", in, 0, 0.8);
  nl.add_resistor("RL", vdd, out, 10e3, false);
  nl.add_nmos("M1", out, in, 0, 0, 20e-6, 0.36e-6);
  sim::Simulator s(nl, kTech);
  const auto nr = s.noise({10.0, 1e6}, out, 0);
  // 1/f noise dominates at 10 Hz: PSD there must exceed the 1 MHz PSD.
  EXPECT_GT(nr.out_psd[0], nr.out_psd[1] * 2.0);
}

TEST(Dc, FailsCleanlyOnIllConditionedCircuit) {
  // A voltage source loop (V1 parallel V2 with different values) is
  // genuinely singular; expect SimError, not UB.
  circuit::Netlist nl;
  const int a = nl.node("a");
  nl.add_vsource("V1", a, 0, 1.0);
  nl.add_vsource("V2", a, 0, 2.0);
  sim::Simulator s(nl, kTech);
  EXPECT_THROW(s.op(), sim::SimError);
}

TEST(Meas, PhaseMarginOfSinglePole) {
  // H(s) = A / (1 + s/p): PM at unity crossing ~ 90 deg for A >> 1.
  meas::AcCurve c;
  const double a0 = 1000.0, p = 1e3;
  for (double f = 1.0; f < 1e8; f *= 1.2) {
    c.freq.push_back(f);
    c.h.push_back(a0 / std::complex<double>(1.0, f / p));
  }
  EXPECT_NEAR(meas::phase_margin_deg(c), 90.0, 2.0);
  EXPECT_NEAR(meas::unity_crossing(c), a0 * p, 0.05 * a0 * p);
}

TEST(Meas, PhaseMarginTwoPoleLowMargin) {
  meas::AcCurve c;
  const double a0 = 1000.0, p1 = 1e3, p2 = 3e4;
  for (double f = 1.0; f < 1e9; f *= 1.15) {
    c.freq.push_back(f);
    c.h.push_back(a0 / (std::complex<double>(1.0, f / p1) *
                        std::complex<double>(1.0, f / p2)));
  }
  const double pm = meas::phase_margin_deg(c);
  EXPECT_LT(pm, 35.0);
  EXPECT_GT(pm, 0.0);
}

TEST(Meas, StableLoopReports180) {
  meas::AcCurve c;
  for (double f = 1.0; f < 1e6; f *= 2.0) {
    c.freq.push_back(f);
    c.h.push_back(0.5 / std::complex<double>(1.0, f / 1e3));
  }
  EXPECT_DOUBLE_EQ(meas::phase_margin_deg(c), 180.0);
}

TEST(Meas, Logspace) {
  const auto f = sim::logspace(1.0, 1000.0, 4);
  ASSERT_EQ(f.size(), 4u);
  EXPECT_NEAR(f[0], 1.0, 1e-12);
  EXPECT_NEAR(f[1], 10.0, 1e-9);
  EXPECT_NEAR(f[3], 1000.0, 1e-9);
}

// --- G/C split and DC warm start ------------------------------------------

namespace {

// The legacy single-pass AC assembly (one netlist walk per frequency),
// kept here as the reference for the split G/C assembly the solvers use.
la::CMat build_ac_matrix(const sim::SimContext& ctx, const sim::OpPoint& op,
                         double omega) {
  using cd = std::complex<double>;
  const sim::MnaMap& m = ctx.map;
  const circuit::Netlist& nl = ctx.nl;
  la::CMat y(m.dim(), m.dim());

  for (const auto& res : nl.resistors()) {
    sim::stamp_conductance(y, m, res.a, res.b,
                           cd(1.0 / std::max(res.r, sim::kMinResistance)));
  }
  for (const auto& cap : nl.capacitors()) {
    sim::stamp_conductance(y, m, cap.a, cap.b, cd(0.0, omega * cap.c));
  }
  for (std::size_t k = 0; k < nl.mosfets().size(); ++k) {
    const auto& mos = nl.mosfets()[k];
    const sim::MosOp& mop = op.mos[k];
    const sim::MosCaps& c = op.caps[k];
    sim::stamp_vccs(y, m, mos.d, mos.s, mos.g, mos.s, cd(mop.gm));
    sim::stamp_conductance(y, m, mos.d, mos.s, cd(mop.gds));
    sim::stamp_conductance(y, m, mos.g, mos.s, cd(0.0, omega * c.cgs));
    sim::stamp_conductance(y, m, mos.g, mos.d, cd(0.0, omega * c.cgd));
    sim::stamp_conductance(y, m, mos.d, mos.b, cd(0.0, omega * c.cdb));
    sim::stamp_conductance(y, m, mos.s, mos.b, cd(0.0, omega * c.csb));
  }
  for (std::size_t k = 0; k < nl.vsources().size(); ++k) {
    const auto& src = nl.vsources()[k];
    const int b = m.branch(static_cast<int>(k));
    if (m.v(src.p) >= 0) {
      y(m.v(src.p), b) += 1.0;
      y(b, m.v(src.p)) += 1.0;
    }
    if (m.v(src.n) >= 0) {
      y(m.v(src.n), b) -= 1.0;
      y(b, m.v(src.n)) -= 1.0;
    }
  }
  for (int node = 1; node < m.num_nodes(); ++node) {
    y(m.v(node), m.v(node)) += cd(1e-12);
  }
  return y;
}

}  // namespace

// The split assembly Y = G + j*omega*C must reproduce the legacy
// walk-per-frequency matrix on every benchmark circuit: real parts are
// accumulated in the identical order (bitwise equal); imaginary parts
// regroup omega*(c1+c2) vs omega*c1 + omega*c2 and may differ in the last
// ulp, hence the relative tolerance.
TEST(Ac, SplitStampsMatchLegacyAssembly) {
  for (const char* name : {"Two-TIA", "Two-Volt", "Three-TIA", "LDO"}) {
    auto bc = gcnrl::circuits::make_benchmark(name, kTech);
    circuit::Netlist nl = bc.netlist;
    bc.space.apply(nl, bc.human_expert);
    sim::Simulator s(nl, kTech);
    const sim::OpPoint& op = s.op();
    const sim::AcStamps stamps = sim::build_ac_stamps(s.context(), op);
    for (const double f : {1e2, 1e5, 1e8, 1e10}) {
      const double omega = 2.0 * M_PI * f;
      const la::CMat legacy = build_ac_matrix(s.context(), op, omega);
      const la::CMat split = sim::assemble_ac_matrix(stamps, omega);
      ASSERT_EQ(legacy.rows(), split.rows());
      for (int i = 0; i < legacy.rows(); ++i) {
        for (int j = 0; j < legacy.cols(); ++j) {
          EXPECT_EQ(legacy(i, j).real(), split(i, j).real())
              << name << " (" << i << "," << j << ") at f=" << f;
          const double tol =
              1e-12 * std::max(1.0, std::fabs(legacy(i, j).imag()));
          EXPECT_NEAR(legacy(i, j).imag(), split(i, j).imag(), tol)
              << name << " (" << i << "," << j << ") at f=" << f;
        }
      }
    }
  }
}

// A converged operating point handed back as the warm start must converge
// directly (strategy 0) in a handful of iterations and land on the same
// solution as the cold ladder within solver tolerance.
TEST(Dc, WarmStartFromConvergedOpSkipsTheLadder) {
  for (const char* name : {"Two-TIA", "Two-Volt", "Three-TIA", "LDO"}) {
    auto bc = gcnrl::circuits::make_benchmark(name, kTech);
    circuit::Netlist nl = bc.netlist;
    bc.space.apply(nl, bc.human_expert);
    const sim::SimContext ctx(nl, kTech);
    sim::DcStats cold_stats;
    const sim::OpPoint cold =
        sim::solve_dc(ctx, {}, nullptr, &cold_stats);
    EXPECT_FALSE(cold_stats.warm_attempted) << name;

    const std::vector<double> guess = sim::project_op(cold, ctx.map);
    sim::DcStats warm_stats;
    const sim::OpPoint warm =
        sim::solve_dc(ctx, {}, &guess, &warm_stats);
    EXPECT_TRUE(warm_stats.warm_attempted) << name;
    EXPECT_TRUE(warm_stats.warm_converged) << name;
    EXPECT_EQ(warm_stats.strategy, 0) << name;
    EXPECT_LT(warm_stats.newton_iters, cold_stats.newton_iters) << name;
    ASSERT_EQ(cold.v.size(), warm.v.size());
    for (std::size_t i = 0; i < cold.v.size(); ++i) {
      EXPECT_NEAR(cold.v[i], warm.v[i], 1e-5) << name << " node " << i;
    }
  }
}

// A hopeless warm guess must fall back to the untouched ladder, and the
// fallback has to reproduce the cold solution BITWISE: the ladder starts
// from zeros either way, so the guess can cost iterations but never
// change the result.
TEST(Dc, WarmStartFallbackIsBitwiseIdenticalToCold) {
  auto bc = gcnrl::circuits::make_two_tia(kTech);
  circuit::Netlist nl = bc.netlist;
  bc.space.apply(nl, bc.human_expert);
  const sim::SimContext ctx(nl, kTech);
  const sim::OpPoint cold = sim::solve_dc(ctx);

  // +-1 MV alternating: Newton under the 0.5 V/iteration damping cannot
  // reach any physical solution within warm_max_iter from here.
  std::vector<double> garbage(static_cast<std::size_t>(ctx.map.dim()));
  for (std::size_t i = 0; i < garbage.size(); ++i) {
    garbage[i] = (i % 2 == 0) ? 1e6 : -1e6;
  }
  sim::DcStats stats;
  const sim::OpPoint warm = sim::solve_dc(ctx, {}, &garbage, &stats);
  EXPECT_TRUE(stats.warm_attempted);
  EXPECT_FALSE(stats.warm_converged);
  EXPECT_GE(stats.strategy, 1);
  ASSERT_EQ(cold.v.size(), warm.v.size());
  for (std::size_t i = 0; i < cold.v.size(); ++i) {
    EXPECT_EQ(cold.v[i], warm.v[i]) << "node " << i;
  }
  ASSERT_EQ(cold.branch_i.size(), warm.branch_i.size());
  for (std::size_t i = 0; i < cold.branch_i.size(); ++i) {
    EXPECT_EQ(cold.branch_i[i], warm.branch_i[i]) << "branch " << i;
  }
}

// op_at_time_zero() is memoized like op(): the second call must return
// the same object without another DC solve.
TEST(Dc, OpAtTimeZeroIsMemoized) {
  auto bc = gcnrl::circuits::make_two_tia(kTech);
  circuit::Netlist nl = bc.netlist;
  bc.space.apply(nl, bc.human_expert);
  sim::Simulator s(nl, kTech);
  const sim::OpPoint& first = s.op_at_time_zero();
  const long calls_after_first = sim::sim_perf_snapshot().dc.calls;
  const sim::OpPoint& second = s.op_at_time_zero();
  EXPECT_EQ(&first, &second);
  EXPECT_EQ(sim::sim_perf_snapshot().dc.calls, calls_after_first);
}

// The per-analysis perf registry attributes calls/items to the right
// analysis and never charges wall time to analyses that did not run.
TEST(Perf, RegistryAttributesPerAnalysis) {
  auto bc = gcnrl::circuits::make_two_tia(kTech);
  circuit::Netlist nl = bc.netlist;
  bc.space.apply(nl, bc.human_expert);
  sim::sim_perf_reset();
  sim::Simulator s(nl, kTech);
  s.op();
  s.ac(sim::logspace(1e3, 1e9, 13));
  const sim::SimPerf p = sim::sim_perf_snapshot();
  EXPECT_EQ(p.dc.calls, 1);
  EXPECT_GT(p.dc.items, 0);  // Newton iterations
  EXPECT_EQ(p.ac.calls, 1);
  EXPECT_EQ(p.ac.items, 13);
  EXPECT_EQ(p.noise.calls, 0);
  EXPECT_EQ(p.tran.calls, 0);
  EXPECT_GE(p.dc.seconds, 0.0);
  sim::sim_perf_reset();
  EXPECT_EQ(sim::sim_perf_snapshot().dc.calls, 0);
}

// ---------------------------------------------------------------------
// Sparse structure-reuse engine vs the legacy dense path.
// ---------------------------------------------------------------------

// All four analyses on a realistic MOS circuit must agree between the
// two engines: both converge to the same root, so the results differ
// only at the level of floating-point solve ordering.
TEST(Sparse, AllAnalysesAgreeWithDense) {
  auto bc = gcnrl::circuits::make_two_tia(kTech);
  circuit::Netlist nl = bc.netlist;
  bc.space.apply(nl, bc.human_expert);
  const auto freqs = sim::logspace(1e3, 1e10, 21);
  sim::TranOptions topt;
  topt.tstop = 20e-9;
  topt.dt = 0.5e-9;

  sim::OpPoint op[2];
  sim::AcResult ac[2];
  sim::NoiseResult noise[2];
  sim::TranResult tran[2];
  for (const bool sparse : {false, true}) {
    SparseEngineGuard guard(sparse);
    sim::Simulator s(nl, kTech);
    const int k = sparse ? 1 : 0;
    op[k] = s.op();
    ac[k] = s.ac(freqs);
    noise[k] = s.noise(freqs, 1);
    tran[k] = s.tran(topt);
  }
  for (std::size_t i = 0; i < op[0].v.size(); ++i) {
    EXPECT_NEAR(op[1].v[i], op[0].v[i],
                1e-12 * std::max(1.0, std::fabs(op[0].v[i])))
        << "node " << i;
  }
  for (std::size_t fi = 0; fi < freqs.size(); ++fi) {
    const int f = static_cast<int>(fi);
    for (int n = 1; n < static_cast<int>(op[0].v.size()); ++n) {
      const auto d = ac[1].phasor(f, n) - ac[0].phasor(f, n);
      EXPECT_NEAR(std::abs(d), 0.0,
                  1e-10 * std::max(1.0, std::abs(ac[0].phasor(f, n))))
          << "f=" << freqs[fi] << " node=" << n;
    }
    // Floor guards supply-pinned probes whose PSD is rounding dust
    // (~1e-48): real PSDs on these circuits sit many decades above it.
    EXPECT_NEAR(noise[1].out_psd[fi], noise[0].out_psd[fi],
                1e-10 * std::max(noise[0].out_psd[fi], 1e-30))
        << "f=" << freqs[fi];
  }
  ASSERT_EQ(tran[0].t.size(), tran[1].t.size());
  for (std::size_t st = 0; st < tran[0].t.size(); ++st) {
    for (int n = 1; n < static_cast<int>(op[0].v.size()); ++n) {
      EXPECT_NEAR(tran[1].at(static_cast<int>(st), n),
                  tran[0].at(static_cast<int>(st), n),
                  1e-10 * std::max(1.0, std::fabs(tran[0].at(
                                       static_cast<int>(st), n))))
          << "step=" << st << " node=" << n;
    }
  }
}

// A structurally singular system must not crash the sparse engine. DC
// runs dense only, so it throws SimError without counting a fallback; the
// AC sweep counts a fallback, reruns densely, and the dense path reports
// the same SimError the legacy engine always threw.
TEST(Sparse, SingularCircuitFallsBackThenFailsCleanly) {
  circuit::Netlist nl;
  const int a = nl.node("a");
  nl.add_vsource("V1", a, 0, 1.0);
  nl.add_vsource("V2", a, 0, 2.0);
  SparseEngineGuard guard(true);
  sim::sim_perf_reset();
  sim::Simulator s(nl, kTech);
  EXPECT_THROW(s.op(), sim::SimError);
  EXPECT_EQ(sim::sim_perf_snapshot().dc.sparse_fallbacks, 0);

  // The DC solve (correctly) fails, so hand AC a zero operating point.
  sim::OpPoint op;
  op.v.assign(2, 0.0);
  op.branch_i.assign(2, 0.0);
  try {
    sim::solve_ac(s.context(), op, {1e3});
    FAIL() << "expected SimError";
  } catch (const sim::SimError& e) {
    EXPECT_STREQ(e.what(), "AC matrix singular at f=1.000000e+03 Hz");
  }
  EXPECT_EQ(sim::sim_perf_snapshot().ac.sparse_fallbacks, 1);
  sim::sim_perf_reset();
}

// A singular noise sweep fails as a SimError on either engine, like the
// AC sweep: EvalService counts only SimError as a failed design, and any
// other exception (la::SingularMatrixError from the dense LU) would end
// the whole batch. The failed sweep is still recorded.
TEST(Noise, SingularMatrixFailsAsSimError) {
  circuit::Netlist nl;
  const int a = nl.node("a");
  nl.add_vsource("V1", a, 0, 1.0);
  nl.add_vsource("V2", a, 0, 2.0);
  sim::Simulator s(nl, kTech);
  sim::OpPoint op;
  op.v.assign(2, 0.0);
  op.branch_i.assign(2, 0.0);
  for (const bool sparse : {false, true}) {
    SparseEngineGuard guard(sparse);
    sim::sim_perf_reset();
    try {
      sim::solve_noise(s.context(), op, {1e3}, a, 0);
      FAIL() << "expected SimError (sparse=" << sparse << ")";
    } catch (const sim::SimError& e) {
      EXPECT_STREQ(e.what(), "noise matrix singular at f=1.000000e+03 Hz");
    }
    const sim::SimPerf p = sim::sim_perf_snapshot();
    EXPECT_EQ(p.noise.calls, 1) << "sparse=" << sparse;
    EXPECT_EQ(p.noise.sparse_fallbacks, sparse ? 1 : 0);
  }
  sim::sim_perf_reset();
}

// The transient LU-failure diagnostic must name both the timestep (in
// scientific notation — ns-scale times collapse to 0.000000 otherwise)
// and the Newton iteration, on either engine (the sparse path falls back
// and reruns densely, so the dense diagnostic is the one that surfaces).
TEST(Tran, SingularJacobianDiagnosticNamesStepAndIteration) {
  circuit::Netlist nl;
  const int a = nl.node("a");
  nl.add_vsource("V1", a, 0, 1.0);
  nl.add_vsource("V2", a, 0, 2.0);
  for (const bool sparse : {false, true}) {
    SparseEngineGuard guard(sparse);
    sim::Simulator s(nl, kTech);
    // Hand the solver a zero initial condition directly: the DC solve on
    // this netlist (correctly) fails, but the transient Jacobian path is
    // what this test pins down.
    sim::OpPoint ic;
    ic.v.assign(2, 0.0);
    ic.branch_i.assign(2, 0.0);
    sim::TranOptions opt;
    opt.tstop = 4e-9;
    opt.dt = 1e-9;
    try {
      sim::solve_tran(s.context(), ic, opt);
      FAIL() << "expected SimError (sparse=" << sparse << ")";
    } catch (const sim::SimError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("(Newton iteration "), std::string::npos) << msg;
      EXPECT_NE(msg.find("at t="), std::string::npos) << msg;
      EXPECT_NE(msg.find("e-"), std::string::npos)
          << "timestep not in scientific notation: " << msg;
    }
  }
  sim::sim_perf_reset();
}

// Toggling the engine off forces the legacy dense path unconditionally:
// no sparse fallbacks can be recorded while it is disabled.
TEST(Sparse, DisabledEngineNeverRecordsFallbacks) {
  auto bc = gcnrl::circuits::make_two_tia(kTech);
  circuit::Netlist nl = bc.netlist;
  bc.space.apply(nl, bc.human_expert);
  SparseEngineGuard guard(false);
  sim::sim_perf_reset();
  sim::Simulator s(nl, kTech);
  s.op();
  s.ac(sim::logspace(1e3, 1e9, 13));
  const sim::SimPerf p = sim::sim_perf_snapshot();
  EXPECT_EQ(p.dc.sparse_fallbacks, 0);
  EXPECT_EQ(p.ac.sparse_fallbacks, 0);
  sim::sim_perf_reset();
}

namespace {

// RC low-pass (R = 1 kOhm, C = 1 pF, so tau = 1 ns) driven through VIN by
// `drive`, run for `tstop` at dt = 0.5 ns. Also returns the number of
// steps the transient filled by replay.
struct RcRun {
  sim::TranResult tr;
  long replayed = 0;
  int out = 0;
};

RcRun run_rc(const circuit::Pwl& drive, double tstop) {
  circuit::Netlist nl;
  const int in = nl.node("in");
  const int out = nl.node("out");
  nl.add_vsource("VIN", in, 0, 0.0, 0.0, drive);
  nl.add_resistor("R1", in, out, 1e3, false);
  nl.add_capacitor("C1", out, 0, 1e-12, false);
  sim::Simulator s(nl, kTech);
  sim::TranOptions opt;
  opt.tstop = tstop;
  opt.dt = 0.5e-9;
  sim::sim_perf_reset();
  RcRun r;
  r.tr = s.tran(opt);
  r.replayed = sim::sim_perf_snapshot().tran.replayed;
  r.out = out;
  sim::sim_perf_reset();
  return r;
}

}  // namespace

// A transient replays the steps of a settled stretch and solves every step
// whose sources moved: the RC settles to the last bit after each edge and
// replays the rest of the level, a ramp that moves VIN at every step
// replays nothing, and the edge after a long replayed stretch still gets
// the backward-Euler RC response.
TEST(Tran, ReplayEngagesOnlyWhileSourcesHold) {
  constexpr double kTstop = 300e-9;
  const circuit::Pwl edges{
      {{0.0, 0.0}, {1e-9, 0.0}, {2e-9, 1.0}, {150e-9, 1.0}, {151e-9, 0.25}}};
  const circuit::Pwl ramp{{{0.0, 0.0}, {kTstop, 1.0}}};
  for (const bool sparse : {false, true}) {
    SparseEngineGuard guard(sparse);
    const RcRun held = run_rc(edges, kTstop);
    // 600 steps; each level holds for ~300 of them and settles in ~100.
    EXPECT_GT(held.replayed, 300) << "sparse=" << sparse;
    // Backward Euler on the RC: v_n = (v_{n-1} + a u_n) / (1 + a) with
    // a = dt / tau; gmin moves v by ~1e-9 relative.
    const double a = 0.5;
    double v = 0.0;
    for (std::size_t n = 1; n < held.tr.t.size(); ++n) {
      v = (v + a * edges.at(held.tr.t[n])) / (1.0 + a);
      ASSERT_NEAR(held.tr.at(static_cast<int>(n), held.out), v, 1e-8)
          << "sparse=" << sparse << " t=" << held.tr.t[n];
    }
    // The run ends settled on the second edge's level.
    EXPECT_NEAR(held.tr.v(held.tr.v.rows() - 1, held.out), 0.25, 1e-8);

    const RcRun ramped = run_rc(ramp, kTstop);
    EXPECT_EQ(ramped.replayed, 0) << "sparse=" << sparse;
    EXPECT_EQ(ramped.tr.t.size(), held.tr.t.size());
  }
}

// ceil(tstop / dt) must be a step count an int holds. dt = 0 from the C++
// API and `tran tstop=1 dt=1f` from a .gcir (which plan.tran-range
// accepts) are not; the transient throws a SimError naming tstop and dt
// instead of converting the quotient.
TEST(Tran, RejectsUnrepresentableStepCount) {
  circuit::Netlist nl;
  const int in = nl.node("in");
  const int out = nl.node("out");
  nl.add_vsource("VIN", in, 0, 1.0);
  nl.add_resistor("R1", in, out, 1e3, false);
  nl.add_capacitor("C1", out, 0, 1e-12, false);
  sim::Simulator s(nl, kTech);
  const double kNan = std::nan("");
  const std::pair<double, double> bad[] = {
      {1e-6, 0.0}, {0.0, 0.0}, {1.0, 1e-15}, {1e-6, -1e-9}, {kNan, 1e-9}};
  for (const auto& [tstop, dt] : bad) {
    sim::TranOptions opt;
    opt.tstop = tstop;
    opt.dt = dt;
    try {
      s.tran(opt);
      ADD_FAILURE() << "tstop=" << tstop << " dt=" << dt << " ran";
    } catch (const sim::SimError& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find("tstop="), std::string::npos) << msg;
      EXPECT_NE(msg.find("dt="), std::string::npos) << msg;
    }
  }
  // tstop = 0 is a valid run of zero steps: the initial condition alone.
  EXPECT_EQ(s.tran({0.0, 1e-9}).t.size(), 1u);

  const auto desc = circuit::parse_gcir(
      "circuit Tran-Step-Count\n"
      "net a out\n"
      "vsource VIN a 0 dc=0 pwl=(0,0)(1n,1)\n"
      "resistor R1 a out r=1k\n"
      "capacitor C1 out 0 c=1p fixed\n"
      "metric ts unit=s weight=-1\n"
      "bench tb\n"
      "tran tb tstop=1 dt=1f\n"
      "extract ts settling_time bench=tb probe=out window=0,1 edge=0 "
      "tol=0.01\n",
      "<test>");
  for (const auto& d : circuit::analyze_circuit(desc, kTech)) {
    EXPECT_NE(d.check, "plan.tran-range") << d.format();
  }
  const auto bc = gcnrl::env::compile_circuit(desc, kTech);
  try {
    bc.evaluate(bc.netlist);
    ADD_FAILURE() << "tran tstop=1 dt=1f ran";
  } catch (const sim::SimError& e) {
    EXPECT_NE(std::string(e.what()).find("dt=1.000000e-15"),
              std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------
// Transient waveforms pinned bit for bit.
// ---------------------------------------------------------------------

namespace {

using gcnrl::testing::fnv1a;
using gcnrl::testing::kFnvBasis;

// The LDO's load-step and line-step edges and time grid, as
// circuits/ldo.cpp sets them up.
constexpr double kLdoEdge1 = 0.2e-6, kLdoEdge2 = 1.1e-6, kLdoRise = 10e-9;
constexpr double kLdoTranDt = 2e-9;

// A sized LDO netlist with its load-step PWL on ILOAD.
circuit::Netlist ldo_load_step_bench(const circuit::Netlist& sized) {
  constexpr double kLoadNom = 5e-3, kLoadHigh = 10e-3;
  circuit::Netlist load = sized;
  load.find_isource("ILOAD")->pwl =
      circuit::Pwl{{{0.0, kLoadNom},
                    {kLdoEdge1, kLoadNom},
                    {kLdoEdge1 + kLdoRise, kLoadHigh},
                    {kLdoEdge2, kLoadHigh},
                    {kLdoEdge2 + kLdoRise, kLoadNom}}};
  return load;
}

// One LDO design's load-step and line-step transients, set up the way
// circuits/ldo.cpp sets them up (same PWL edges, tstop, dt, and DC warm
// start from the nominal operating point), folded into one FNV-1a digest
// of the raw bytes of `t` and `v`. A SimError folds in its message
// instead, so failing designs are pinned too. Unlike the circuit's
// evaluate, this runs the transients on collapsed designs as well.
std::uint64_t ldo_transient_digest(const gcnrl::env::BenchmarkCircuit& bc,
                                   const circuit::DesignParams& p) {
  circuit::Netlist sized = bc.netlist;
  bc.space.apply(sized, p);
  std::uint64_t h = kFnvBasis;
  sim::OpPoint nom;
  try {
    nom = sim::Simulator(sized, kTech).op();
  } catch (const sim::SimError& e) {
    return fnv1a(h, std::string("dc: ") + e.what());
  }
  circuit::Netlist load = ldo_load_step_bench(sized);
  circuit::Netlist line = sized;
  const double v0 = kTech.vdd;
  line.find_vsource("VDD")->pwl =
      circuit::Pwl{{{0.0, v0},
                    {kLdoEdge1, v0},
                    {kLdoEdge1 + kLdoRise, v0 + 0.2},
                    {kLdoEdge2, v0 + 0.2},
                    {kLdoEdge2 + kLdoRise, v0}}};
  for (const circuit::Netlist* nl : {&load, &line}) {
    sim::Simulator s(*nl, kTech);
    s.warm_start_from(nom);
    sim::TranOptions opt;
    opt.tstop = 2.0e-6;
    opt.dt = kLdoTranDt;
    try {
      const sim::TranResult tr = s.tran(opt);
      h = fnv1a(h, tr.t.data(), tr.t.size() * sizeof(double));
      h = fnv1a(h, tr.v.data(),
                static_cast<std::size_t>(tr.v.rows()) *
                    static_cast<std::size_t>(tr.v.cols()) * sizeof(double));
    } catch (const sim::SimError& e) {
      h = fnv1a(h, std::string("tran: ") + e.what());
    }
  }
  return h;
}

}  // namespace

// The LDO's load-step and line-step waveforms on the human-expert design
// and 16 seeded random designs, on both engines, must hash to the digests
// captured before the transient learned to replay settled steps: the
// replay may skip work, never change a bit. The digests depend on the
// platform's libm and on the build having no FMA contraction. Sparse
// designs 1, 3, 4 and 11 were re-captured when DC became dense-only:
// their t=0 initial condition moved at rounding level, which the sparse
// transient carries into its waveform. kDense was already on dense DC.
TEST(Tran, WaveformsMatchParentDigests) {
  constexpr int kDesigns = 17;  // human expert, then 16 random designs
  constexpr std::uint64_t kDense[kDesigns] = {
      0xd6e1a7ad8ea5c7cf, 0xab6a4d30e223abab, 0x2b93e65b021d8c66,
      0x5bdaa91836b726b6, 0xa0095afdf88e5612, 0x9b2d43036b81767f,
      0xf41498319d841e00, 0xea20282770e6566d, 0xd87dd1da4a55f7ba,
      0xb55933db076532cb, 0x3fcd1c7e0a8b4e81, 0xcf24c8b7bb532ad8,
      0xe1c0d0be0e2af6de, 0xff5260e8fbaa3262, 0x8e1659580d8f8875,
      0x4761746dfa7c9e5f, 0x19cd402ae1d7a59c};
  constexpr std::uint64_t kSparse[kDesigns] = {
      0x7be3aa027eec067f, 0xb032b6ec52e136c3, 0x8b318fd089060d1b,
      0x5bdaa91836b726b6, 0x35c6a404ab27d43a, 0x10d47b0d597ece94,
      0xf41498319d841e00, 0x737f42f5d88e9acc, 0x24fa1d120e51f4b9,
      0xc23d06fd1fa0a5fe, 0x94a5711416a6ca07, 0x49a2540c0e4e262b,
      0x9fb1fc81c7ce7045, 0x02ca2defc26a1045, 0x943b7273566e51ea,
      0xf6bec7f0626177e7, 0x19cd402ae1d7a59c};
  const auto bc = gcnrl::circuits::make_ldo(kTech);
  std::vector<circuit::DesignParams> designs{bc.human_expert};
  gcnrl::Rng rng(2020);
  while (static_cast<int>(designs.size()) < kDesigns) {
    designs.push_back(bc.space.refine(bc.space.random_actions(rng)));
  }
  for (const bool sparse : {false, true}) {
    SparseEngineGuard guard(sparse);
    const std::uint64_t* want = sparse ? kSparse : kDense;
    for (int d = 0; d < kDesigns; ++d) {
      const std::uint64_t got = ldo_transient_digest(bc, designs[d]);
      EXPECT_EQ(got, want[d]) << (sparse ? "sparse" : "dense") << " design "
                              << d << ": 0x" << std::hex << got;
    }
  }
}

// The transient's Newton loops allocate nothing per iteration: on both
// engines, solving the LDO's load-step bench from its t=0 operating point
// for 200 and for 1000 steps makes the same number of heap allocations
// (the run's workspace and its result). The longer run must solve more
// steps, not only replay them: at 400 steps every step past 200 is a
// replay, so a per-iteration allocation would not show.
TEST(Tran, AllocationsDoNotGrowWithSteps) {
  const auto bc = gcnrl::circuits::make_ldo(kTech);
  circuit::Netlist sized = bc.netlist;
  bc.space.apply(sized, bc.human_expert);
  const circuit::Netlist load = ldo_load_step_bench(sized);
  for (const bool sparse : {false, true}) {
    SparseEngineGuard guard(sparse);
    sim::Simulator s(load, kTech);
    const sim::OpPoint& ic = s.op_at_time_zero();
    std::vector<long> allocs, solved;
    for (const int steps : {200, 1000}) {
      sim::TranOptions opt;
      opt.dt = kLdoTranDt;
      opt.tstop = steps * kLdoTranDt;
      sim::sim_perf_reset();
      const long before = gcnrl::testing::g_heap_allocs.load();
      sim::solve_tran(s.context(), ic, opt);
      allocs.push_back(gcnrl::testing::g_heap_allocs.load() - before);
      const sim::AnalysisPerf tran = sim::sim_perf_snapshot().tran;
      solved.push_back(tran.items - tran.replayed);
    }
    const char* engine = sparse ? "sparse" : "dense";
    EXPECT_GT(solved[1], solved[0]) << engine;
    EXPECT_EQ(allocs[0], allocs[1]) << engine;
  }
}

// ---------------------------------------------------------------------
// Device model pinned bit for bit.
// ---------------------------------------------------------------------

namespace {

// One evaluation of the device-model grid.
struct MosCase {
  sim::MosModel model;
  circuit::Mosfet geom;
  double vg = 0.0, vd = 0.0, vs = 0.0;
};

// A seeded grid over every branch of the model: NMOS and PMOS at 180 nm
// and 45 nm, multipliers above 1, drain below source (the swap), strong
// inversion (z > 30), deep subthreshold (z < -30), the softplus middle,
// an overdrive that underflows to 0 and one that is subnormal, and NaN
// and +-inf terminal voltages. PMOS cases mirror the NMOS voltages, so
// both polarities reach every branch.
std::vector<MosCase> mos_model_grid() {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double kNan = std::nan("");
  std::vector<MosCase> grid;
  gcnrl::Rng rng(2026);
  for (const char* node : {"180nm", "45nm"}) {
    const circuit::Technology tech = circuit::make_technology(node);
    for (const bool pmos : {false, true}) {
      const sim::MosModel model = sim::mos_model(tech, pmos);
      const double sgn = pmos ? -1.0 : 1.0;
      const double vth = model.vth0;
      std::vector<circuit::Mosfet> geoms(3);
      geoms[0].w = tech.wmin;
      geoms[0].l = tech.lmin;
      geoms[1].w = rng.uniform(tech.wmin, tech.wmax);
      geoms[1].l = rng.uniform(tech.lmin, tech.lmax);
      geoms[1].m = 2 + static_cast<int>(rng.uniform_index(tech.mmax - 1));
      geoms[2].w = tech.wmax;
      geoms[2].l = tech.lmax;
      geoms[2].m = tech.mmax;
      for (auto& g : geoms) g.is_pmos = pmos;
      for (const auto& g : geoms) {
        std::vector<std::array<double, 3>> v = {
            {vth + 2.0, 1.0, 0.0},      // z > 30
            {vth + 2.0, 0.0, 1.0},      // z > 30, swapped
            {vth - 2.0, 1.0, 0.0},      // z < -30
            {vth + 0.1, 0.2, 0.9},      // softplus middle, swapped
            {vth, 0.5, 0.0},            // z = 0
            {vth + 0.05, 1e-3, 0.0},    // deep triode
            {vth + 0.3, 0.4, 0.4},      // vds = 0
            {vth - 40.0, 1.0, 0.0},     // overdrive underflows to 0
            {vth - 32.4, 1.0, 0.0},     // subnormal overdrive
            {vth - 33.4, 1.0, 0.0},     // smallest overdrives
            {kInf, kInf, kInf},
            {kNan, kNan, kNan},
        };
        for (int t = 0; t < 3; ++t) {
          for (const double special : {kNan, kInf, -kInf}) {
            std::array<double, 3> e = {vth + 0.3, 0.8, 0.1};
            e[t] = special;
            v.push_back(e);
          }
        }
        for (int k = 0; k < 40; ++k) {
          v.push_back({rng.uniform(-0.5, tech.vdd + 0.5),
                       rng.uniform(-0.2, tech.vdd + 0.2),
                       rng.uniform(-0.2, tech.vdd + 0.2)});
        }
        for (const auto& e : v) {
          grid.push_back({model, g, sgn * e[0], sgn * e[1], sgn * e[2]});
        }
      }
    }
  }
  return grid;
}

// Every NaN is hashed as one canonical NaN. Which NaN operand an
// instruction passes on, and so its sign bit, is the compiler's choice:
// the grid's raw bytes hash differently in a Debug and a Release build of
// the same model source. Every other double, +-0 and +-inf included, is
// hashed by its bytes.
std::uint64_t fnv1a_value(std::uint64_t h, double v) {
  if (std::isnan(v)) v = std::numeric_limits<double>::quiet_NaN();
  return fnv1a(h, &v, sizeof v);
}

std::uint64_t fnv1a_op(std::uint64_t h, const sim::MosOp& op) {
  return fnv1a_value(fnv1a_value(fnv1a_value(h, op.id), op.gm), op.gds);
}

}  // namespace

// (id, gm, gds) over the model grid, hashed byte for byte, must equal the
// digest captured before the model was evaluated in batches, both through
// eval_mos and through eval_mos_batch at batch sizes around its chunk
// width, where each device must also equal its own single call. The
// digest depends on the platform's libm (exp, log1p, cbrt) and on the
// build having no FMA contraction, like the transient digests above.
TEST(Mosfet, ModelMatchesParentDigests) {
  constexpr std::uint64_t kDigest = 0x86263df386a1ad6c;
  const std::vector<MosCase> grid = mos_model_grid();
  std::vector<sim::MosOp> single;
  std::uint64_t h = kFnvBasis;
  for (const MosCase& c : grid) {
    single.push_back(sim::eval_mos(c.model, c.geom, c.vg, c.vd, c.vs));
    h = fnv1a_op(h, single.back());
  }
  EXPECT_EQ(h, kDigest) << "eval_mos over " << grid.size()
                        << " cases: 0x" << std::hex << h;

  std::vector<sim::MosDevice> dev;
  std::vector<sim::MosBias> bias;
  for (const MosCase& c : grid) {
    dev.push_back(sim::mos_device(c.model, c.geom));
    bias.push_back({c.vg, c.vd, c.vs});
  }
  constexpr std::size_t kChunk = sim::kMosBatchChunk;
  for (const std::size_t batch :
       {std::size_t{1}, std::size_t{7}, kChunk - 1, kChunk, kChunk + 1,
        2 * kChunk + 3}) {
    std::vector<sim::MosOp> out(grid.size());
    for (std::size_t k = 0; k < grid.size(); k += batch) {
      const std::size_t n = std::min(batch, grid.size() - k);
      sim::eval_mos_batch({dev.data() + k, n}, {bias.data() + k, n},
                          {out.data() + k, n});
    }
    std::uint64_t hb = kFnvBasis;
    for (std::size_t k = 0; k < grid.size(); ++k) {
      hb = fnv1a_op(hb, out[k]);
      EXPECT_EQ(fnv1a_op(kFnvBasis, out[k]), fnv1a_op(kFnvBasis, single[k]))
          << "batch " << batch << ", case " << k;
    }
    EXPECT_EQ(hb, kDigest) << "batch " << batch << ": 0x" << std::hex << hb;
  }
}
