// Property-based suites: physical invariants of the device model and the
// simulator that must hold across every technology node and bias point,
// and cross-analysis consistency checks (DC vs AC vs transient).
#include <gtest/gtest.h>

#include <cmath>
#include <optional>

#include "api/registry.hpp"
#include "circuit/tech.hpp"
#include "meas/ac_metrics.hpp"
#include "sim/simulator.hpp"
#include "sim/structure.hpp"
#include "common/rng.hpp"

namespace circuit = gcnrl::circuit;
namespace sim = gcnrl::sim;
namespace meas = gcnrl::meas;
using gcnrl::Rng;

// ---------------------------------------------------------------------
// Device-model invariants, swept over all five technology nodes.
// ---------------------------------------------------------------------
class MosModelProperties : public ::testing::TestWithParam<std::string> {
 protected:
  circuit::Technology tech_ = circuit::make_technology(GetParam());
};

TEST_P(MosModelProperties, CurrentMonotoneInVgs) {
  const sim::MosModel m = sim::mos_model(tech_, false);
  circuit::Mosfet g;
  g.w = 10e-6;
  g.l = 2 * tech_.lmin;
  const double vds = tech_.vdd * 0.6;
  double prev = -1.0;
  for (double vgs = 0.0; vgs <= tech_.vdd; vgs += 0.05) {
    const double id = sim::eval_mos(m, g, vgs, vds, 0.0).id;
    EXPECT_GE(id, prev - 1e-15) << "vgs=" << vgs;
    prev = id;
  }
}

TEST_P(MosModelProperties, CurrentMonotoneInVds) {
  const sim::MosModel m = sim::mos_model(tech_, false);
  circuit::Mosfet g;
  g.w = 10e-6;
  g.l = 2 * tech_.lmin;
  const double vgs = tech_.vth0_n + 0.25;
  double prev = -1.0;
  for (double vds = 0.0; vds <= tech_.vdd; vds += 0.02) {
    const double id = sim::eval_mos(m, g, vgs, vds, 0.0).id;
    EXPECT_GE(id, prev - 1e-15) << "vds=" << vds;
    prev = id;
  }
}

TEST_P(MosModelProperties, DerivativesMatchSecants) {
  const sim::MosModel m = sim::mos_model(tech_, false);
  circuit::Mosfet g;
  g.w = 8e-6;
  g.l = 3 * tech_.lmin;
  Rng rng(42);
  for (int trial = 0; trial < 30; ++trial) {
    const double vgs = rng.uniform(0.0, tech_.vdd);
    const double vds = rng.uniform(0.0, tech_.vdd);
    const auto op = sim::eval_mos(m, g, vgs, vds, 0.0);
    const double h = 1e-4;
    const double sg =
        (sim::eval_mos(m, g, vgs + h, vds, 0.0).id -
         sim::eval_mos(m, g, vgs - h, vds, 0.0).id) /
        (2.0 * h);
    const double sd =
        (sim::eval_mos(m, g, vgs, vds + h, 0.0).id -
         sim::eval_mos(m, g, vgs, vds - h, 0.0).id) /
        (2.0 * h);
    const double tol = 1e-6 + 0.02 * (std::fabs(sg) + std::fabs(sd));
    EXPECT_NEAR(op.gm, sg, tol);
    EXPECT_NEAR(op.gds, sd, tol);
  }
}

TEST_P(MosModelProperties, SourceDrainExchangeAntisymmetry) {
  const sim::MosModel m = sim::mos_model(tech_, false);
  circuit::Mosfet g;
  g.w = 6e-6;
  g.l = 2 * tech_.lmin;
  Rng rng(7);
  for (int trial = 0; trial < 30; ++trial) {
    const double vg = rng.uniform(0.0, tech_.vdd);
    const double va = rng.uniform(0.0, tech_.vdd);
    const double vb = rng.uniform(0.0, tech_.vdd);
    const double fwd = sim::eval_mos(m, g, vg, va, vb).id;
    const double rev = sim::eval_mos(m, g, vg, vb, va).id;
    EXPECT_NEAR(fwd, -rev, 1e-12 + 1e-9 * std::fabs(fwd));
  }
}

TEST_P(MosModelProperties, PmosComplementSymmetry) {
  const sim::MosModel mn = sim::mos_model(tech_, false);
  sim::MosModel mp = mn;
  mp.pmos = true;
  circuit::Mosfet g;
  g.w = 12e-6;
  g.l = 2 * tech_.lmin;
  Rng rng(9);
  for (int trial = 0; trial < 20; ++trial) {
    const double vg = rng.uniform(-tech_.vdd, tech_.vdd);
    const double vd = rng.uniform(-tech_.vdd, tech_.vdd);
    const double vs = rng.uniform(-tech_.vdd, tech_.vdd);
    const auto n = sim::eval_mos(mn, g, vg, vd, vs);
    const auto p = sim::eval_mos(mp, g, -vg, -vd, -vs);
    EXPECT_NEAR(n.id, -p.id, 1e-12 + 1e-9 * std::fabs(n.id));
    EXPECT_NEAR(n.gm, p.gm, 1e-9 + 1e-6 * std::fabs(n.gm));
  }
}

TEST_P(MosModelProperties, CapsScaleWithGeometry) {
  const sim::MosModel m = sim::mos_model(tech_, false);
  circuit::Mosfet g1;
  g1.w = 5e-6;
  g1.l = 2 * tech_.lmin;
  circuit::Mosfet g2 = g1;
  g2.m = 3;
  const auto c1 = sim::mos_caps(m, g1);
  const auto c2 = sim::mos_caps(m, g2);
  EXPECT_NEAR(c2.cgs / c1.cgs, 3.0, 1e-9);
  EXPECT_NEAR(c2.cgd / c1.cgd, 3.0, 1e-9);
  EXPECT_GT(c1.cgs, c1.cgd);  // channel cap dominates overlap
}

INSTANTIATE_TEST_SUITE_P(AllNodes, MosModelProperties,
                         ::testing::ValuesIn(circuit::available_nodes()));

// ---------------------------------------------------------------------
// Simulator cross-analysis consistency.
// ---------------------------------------------------------------------
namespace {

const auto kTech = circuit::make_technology("180nm");

}  // namespace

TEST(SimConsistency, AcSuperpositionOfSources) {
  // Two AC sources driving a linear network: response equals the sum of
  // individual responses (the solver is linear in the RHS).
  auto build = [](double ac1, double ac2) {
    circuit::Netlist nl;
    const int a = nl.node("a");
    const int b = nl.node("b");
    const int out = nl.node("out");
    nl.add_vsource("V1", a, 0, 0.0, ac1);
    nl.add_vsource("V2", b, 0, 0.0, ac2);
    nl.add_resistor("R1", a, out, 1e3, false);
    nl.add_resistor("R2", b, out, 2e3, false);
    nl.add_capacitor("C1", out, 0, 1e-9, false);
    return nl;
  };
  const double f = 2e5;
  auto v_out = [&](double a1, double a2) {
    circuit::Netlist nl = build(a1, a2);
    sim::Simulator s(nl, kTech);
    return s.ac({f}).phasor(0, nl.find_node("out").value());
  };
  const auto both = v_out(1.0, 0.7);
  const auto only1 = v_out(1.0, 0.0);
  const auto only2 = v_out(0.0, 0.7);
  EXPECT_NEAR(std::abs(both - (only1 + only2)), 0.0, 1e-12);
}

TEST(SimConsistency, TransientSettlesToDcSolution) {
  // A nonlinear circuit driven by constant sources: the transient must
  // remain at the DC operating point.
  circuit::Netlist nl;
  const int vdd = nl.node("vdd");
  nl.mark_supply("vdd");
  const int out = nl.node("out");
  const int in = nl.node("in");
  nl.add_vsource("VDD", vdd, 0, 1.8);
  nl.add_vsource("VIN", in, 0, 0.75);
  nl.add_resistor("RL", vdd, out, 10e3, false);
  nl.add_nmos("M1", out, in, 0, 0, 5e-6, 0.36e-6);
  nl.add_capacitor("CL", out, 0, 1e-12, false);
  sim::Simulator s(nl, kTech);
  const double v_dc = s.op().node(out);
  sim::TranOptions opt;
  opt.tstop = 50e-9;
  opt.dt = 0.5e-9;
  const auto tr = s.tran(opt);
  for (std::size_t i = 0; i < tr.t.size(); ++i) {
    EXPECT_NEAR(tr.at(static_cast<int>(i), out), v_dc, 2e-4);
  }
}

TEST(SimConsistency, AcGainMatchesTransientSmallSignal) {
  // Small sinusoid through a CS amp: transient amplitude ratio must match
  // the AC gain at that frequency.
  const double f = 1e6;
  const double amp = 1e-3;
  circuit::Netlist nl;
  const int vdd = nl.node("vdd");
  nl.mark_supply("vdd");
  const int out = nl.node("out");
  const int in = nl.node("in");
  nl.add_vsource("VDD", vdd, 0, 1.8);
  // Sine approximated by a fine PWL over two periods.
  circuit::Pwl sine;
  for (int i = 0; i <= 400; ++i) {
    const double t = 2.0 / f * i / 400.0;
    sine.points.push_back({t, 0.75 + amp * std::sin(2.0 * M_PI * f * t)});
  }
  nl.add_vsource("VIN", in, 0, 0.75, 1.0, sine);
  nl.add_resistor("RL", vdd, out, 10e3, false);
  nl.add_nmos("M1", out, in, 0, 0, 5e-6, 0.36e-6);
  sim::Simulator s(nl, kTech);
  const double ac_gain = std::abs(s.ac({f}).phasor(0, out));
  sim::TranOptions opt;
  opt.tstop = 2.0 / f;
  opt.dt = 1.0 / f / 400.0;
  const auto tr = s.tran(opt);
  // Peak-to-peak of the second period (first settles).
  double vmin = 1e9, vmax = -1e9;
  for (std::size_t i = 0; i < tr.t.size(); ++i) {
    if (tr.t[i] < 1.0 / f) continue;
    vmin = std::min(vmin, tr.at(static_cast<int>(i), out));
    vmax = std::max(vmax, tr.at(static_cast<int>(i), out));
  }
  const double tran_gain = (vmax - vmin) / (2.0 * amp);
  EXPECT_NEAR(tran_gain, ac_gain, 0.1 * ac_gain);
}

TEST(SimConsistency, NoiseScalesWithResistance) {
  auto psd_of = [&](double r) {
    circuit::Netlist nl;
    const int a = nl.node("a");
    nl.add_vsource("V1", a, 0, 1.0);
    const int mid = nl.node("mid");
    nl.add_resistor("R1", a, mid, r, false);
    nl.add_resistor("R2", mid, 0, r, false);
    sim::Simulator s(nl, kTech);
    return s.noise({1e4}, mid, 0).out_psd[0];
  };
  // Divider of two equal resistors: output PSD = 4kT*(R/2); doubling R
  // doubles the PSD.
  EXPECT_NEAR(psd_of(2e4) / psd_of(1e4), 2.0, 1e-6);
}

// ---------------------------------------------------------------------
// Measurement properties.
// ---------------------------------------------------------------------
class BandwidthProperty : public ::testing::TestWithParam<double> {};

TEST_P(BandwidthProperty, SinglePoleBandwidthRecovered) {
  const double pole = GetParam();
  meas::AcCurve c;
  for (double f = pole / 1e3; f < pole * 1e3; f *= 1.12) {
    c.freq.push_back(f);
    c.h.push_back(10.0 / std::complex<double>(1.0, f / pole));
  }
  EXPECT_NEAR(meas::bandwidth_3db(c), pole, 0.03 * pole);
  EXPECT_NEAR(meas::gbw(c), 10.0 * pole, 0.35 * pole);
  EXPECT_NEAR(meas::peaking_db(c), 0.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Decades, BandwidthProperty,
                         ::testing::Values(1e3, 1e5, 1e7, 1e9));

TEST(MeasProperty, PeakingDetectsResonance) {
  // Second-order low-Q vs high-Q: peaking must rank them correctly.
  auto curve = [](double q) {
    meas::AcCurve c;
    const double f0 = 1e6;
    for (double f = 1e3; f < 1e9; f *= 1.1) {
      const double w = f / f0;
      c.freq.push_back(f);
      c.h.push_back(1.0 /
                    std::complex<double>(1.0 - w * w, w / q));
    }
    return c;
  };
  EXPECT_GT(meas::peaking_db(curve(5.0)), meas::peaking_db(curve(0.5)));
  EXPECT_NEAR(meas::peaking_db(curve(5.0)), 20.0 * std::log10(5.0), 0.6);
}

// ---------------------------------------------------------------------
// Sparse-vs-dense engine parity over randomized designs of every
// registered benchmark circuit: the structure-reuse sparse engine is a
// drop-in replacement for the dense path, so every metric of the full
// measurement plan must match to solver-rounding precision (1e-12
// relative), and a design that fails to simulate must fail identically
// on both engines.
// ---------------------------------------------------------------------

namespace {

class SparseEngineScope {
 public:
  explicit SparseEngineScope(bool on) : prev_(sim::sparse_engine_enabled()) {
    sim::set_sparse_engine_enabled(on);
  }
  ~SparseEngineScope() { sim::set_sparse_engine_enabled(prev_); }

 private:
  bool prev_;
};

}  // namespace

class SparseDenseParity : public ::testing::TestWithParam<std::string> {};

TEST_P(SparseDenseParity, RandomDesignsMatchWithin1em12) {
  namespace api = gcnrl::api;
  const auto bc =
      api::build_circuit(GetParam(), circuit::make_technology("180nm"));
  Rng rng(20260808);
  // Trial 0 is the human-expert sizing and trials 1-2 perturb it — these
  // are guaranteed (or near-guaranteed) to simulate, so the parity check
  // cannot go vacuous on circuits where fully random sizings rarely
  // converge (the LDO). The remaining trials are uniform random.
  constexpr int kTrials = 7;
  const gcnrl::la::Mat expert = bc.space.actions_from_params(bc.human_expert);
  int simulated = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    gcnrl::la::Mat actions;
    if (trial == 0) {
      actions = expert;
    } else if (trial <= 2) {
      actions = expert;
      for (int i = 0; i < actions.rows(); ++i) {
        for (int j = 0; j < actions.cols(); ++j) {
          actions(i, j) += 0.05 * rng.normal();
        }
      }
    } else {
      actions = bc.space.random_actions(rng);
    }
    circuit::Netlist nl = bc.netlist;
    bc.space.apply(nl, bc.space.refine(actions));
    const auto run =
        [&](bool sparse) -> std::optional<gcnrl::env::MetricMap> {
      SparseEngineScope scope(sparse);
      try {
        return bc.evaluate(nl);
      } catch (const sim::SimError&) {
        return std::nullopt;
      }
    };
    const auto dense = run(false);
    const auto sparse = run(true);
    ASSERT_EQ(dense.has_value(), sparse.has_value())
        << GetParam() << " trial " << trial
        << ": engines disagree on simulability";
    if (!dense.has_value()) continue;
    ++simulated;
    ASSERT_EQ(dense->size(), sparse->size());
    for (const auto& [key, dv] : *dense) {
      const auto it = sparse->find(key);
      ASSERT_NE(it, sparse->end()) << key;
      const double sv = it->second;
      const double scale =
          std::max({std::fabs(dv), std::fabs(sv), 1e-15});
      EXPECT_NEAR(sv, dv, 1e-12 * scale)
          << GetParam() << " trial " << trial << " metric " << key;
    }
  }
  EXPECT_GT(simulated, 0) << "every trial failed to simulate: parity "
                             "comparison never ran";
}

INSTANTIATE_TEST_SUITE_P(
    AllCircuits, SparseDenseParity,
    ::testing::ValuesIn(gcnrl::api::circuit_names()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& ch : name) {
        if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
      }
      return name;
    });
