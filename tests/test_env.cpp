// Tests for the FoM machinery and the sizing environment using a
// synthetic (simulator-free) benchmark circuit, so env semantics are
// verified independently of the analog substrate.
#include <gtest/gtest.h>

#include <cmath>

#include "env/fom.hpp"
#include "env/sizing_env.hpp"

namespace env = gcnrl::env;
namespace circuit = gcnrl::circuit;
namespace la = gcnrl::la;
using gcnrl::Rng;

namespace {

// A 3-component synthetic circuit: metrics are simple closed forms of the
// parameters, so every env behaviour has a predictable answer.
env::BenchmarkCircuit make_synthetic() {
  env::BenchmarkCircuit bc;
  bc.name = "Synthetic";
  bc.tech = circuit::make_technology("180nm");
  auto& nl = bc.netlist;
  const int a = nl.node("a");
  const int b = nl.node("b");
  nl.add_nmos("M1", a, b, 0, 0, 1e-6, 1e-6);
  nl.add_resistor("R1", a, b, 1e3);
  nl.add_capacitor("C1", b, 0, 1e-12);
  bc.space = circuit::DesignSpace::from_netlist(nl, bc.tech);
  env::FomSpec fom;
  fom.metrics = {
      {"speed", "Hz", +1.0, {}, {}, {}, true},
      {"cost", "W", -1.0, {}, {}, {}, true},
  };
  bc.fom = fom;
  bc.evaluate = [](const circuit::Netlist& sized) {
    env::MetricMap m;
    // speed ~ W/L, cost ~ W*M/R: both positive, decades of range.
    const auto& mos = sized.mosfets()[0];
    const auto& res = sized.resistors()[0];
    m["speed"] = mos.w / mos.l;
    m["cost"] = mos.w * mos.m / res.r * 1e9;
    return m;
  };
  bc.human_expert.v = {{10e-6, 0.5e-6, 2}, {10e3, 0, 0}, {1e-12, 0, 0}};
  return bc;
}

}  // namespace

TEST(Fom, LinearNormalizationDirections) {
  env::MetricDef larger{"m", "", +1.0, {}, {}, {}, false, 0.0, 10.0};
  EXPECT_DOUBLE_EQ(larger.normalized(0.0), 0.0);
  EXPECT_DOUBLE_EQ(larger.normalized(5.0), 0.5);
  EXPECT_DOUBLE_EQ(larger.normalized(10.0), 1.0);
  EXPECT_DOUBLE_EQ(larger.normalized(20.0), 1.0);  // saturates
  env::MetricDef smaller{"m", "", -1.0, {}, {}, {}, false, 0.0, 10.0};
  EXPECT_DOUBLE_EQ(smaller.normalized(0.0), 1.0);
  EXPECT_DOUBLE_EQ(smaller.normalized(10.0), 0.0);
  EXPECT_DOUBLE_EQ(smaller.normalized(-5.0), 1.0);  // saturates
}

TEST(Fom, LogNormalization) {
  env::MetricDef md{"m", "", +1.0, {}, {}, {}, true, 1.0, 10000.0};
  EXPECT_DOUBLE_EQ(md.normalized(1.0), 0.0);
  EXPECT_NEAR(md.normalized(100.0), 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(md.normalized(10000.0), 1.0);
  EXPECT_DOUBLE_EQ(md.normalized(0.5), 0.0);  // below range clamps
}

TEST(Fom, BoundCapsContribution) {
  env::MetricDef md{"m", "", +1.0, 5.0, {}, {}, false, 0.0, 10.0};
  EXPECT_DOUBLE_EQ(md.normalized(8.0), 0.5);  // capped at bound=5
  env::MetricDef md2{"m", "", -1.0, 2.0, {}, {}, false, 0.0, 10.0};
  EXPECT_DOUBLE_EQ(md2.normalized(1.0), 0.8);  // floored at bound=2
}

TEST(Fom, SpecWindows) {
  env::MetricDef md{"m", "", +1.0, {}, 1.0, 5.0, false, 0.0, 10.0};
  EXPECT_TRUE(md.spec_ok(3.0));
  EXPECT_FALSE(md.spec_ok(0.5));
  EXPECT_FALSE(md.spec_ok(6.0));
}

TEST(Fom, SpecFailureYieldsFixedNegative) {
  env::FomSpec spec;
  spec.metrics = {{"a", "", +1.0, {}, 2.0, {}, false, 0.0, 10.0}};
  env::MetricMap bad{{"a", 1.0}};
  env::MetricMap good{{"a", 5.0}};
  EXPECT_DOUBLE_EQ(spec.fom(bad), spec.spec_fail_fom);
  EXPECT_DOUBLE_EQ(spec.fom(good), 0.5);
  spec.enforce_spec = false;
  EXPECT_DOUBLE_EQ(spec.fom(bad), 0.1);
}

TEST(Fom, MissingMetricIsFailure) {
  env::FomSpec spec;
  spec.enforce_spec = false;
  spec.metrics = {{"a", "", +1.0, {}, {}, {}, false, 0.0, 1.0}};
  EXPECT_DOUBLE_EQ(spec.fom({}), spec.sim_fail_fom);
}

TEST(Fom, WeightMagnitudeScales) {
  env::FomSpec spec;
  spec.enforce_spec = false;
  spec.metrics = {{"a", "", +10.0, {}, {}, {}, false, 0.0, 1.0}};
  EXPECT_DOUBLE_EQ(spec.fom({{"a", 0.5}}), 5.0);
  EXPECT_DOUBLE_EQ(spec.max_fom(), 10.0);
  spec.set_weight("a", -2.0);
  EXPECT_DOUBLE_EQ(spec.fom({{"a", 0.5}}), 1.0);
  EXPECT_THROW(spec.set_weight("nope", 1.0), std::invalid_argument);
}

TEST(Fom, CalibrateFromSamples) {
  env::FomSpec spec;
  spec.metrics = {{"a", "", +1.0, {}, {}, {}, false},
                  {"b", "", -1.0, {}, {}, {}, true}};
  spec.calibrate({{{"a", 1.0}, {"b", 10.0}},
                  {{"a", 3.0}, {"b", 1000.0}},
                  {{"a", 2.0}, {"b", 0.0}}});  // b=0 ignored for log mmin
  EXPECT_DOUBLE_EQ(spec.find("a")->mmin, 1.0);
  EXPECT_DOUBLE_EQ(spec.find("a")->mmax, 3.0);
  EXPECT_DOUBLE_EQ(spec.find("b")->mmin, 10.0);
  EXPECT_DOUBLE_EQ(spec.find("b")->mmax, 1000.0);
}

TEST(SizingEnv, StateShapesOneHot) {
  env::SizingEnv e(make_synthetic(), env::IndexMode::OneHot);
  EXPECT_EQ(e.n(), 3);
  // one-hot index (3) + type one-hot (4) + 5 model features.
  EXPECT_EQ(e.state_dim(), 3 + 4 + 5);
  EXPECT_EQ(e.adjacency().rows(), 3);
  EXPECT_EQ(e.kinds()[0], circuit::Kind::Nmos);
  EXPECT_EQ(e.kinds()[2], circuit::Kind::Capacitor);
}

TEST(SizingEnv, StateShapesScalarModeTopologyIndependent) {
  env::SizingEnv e(make_synthetic(), env::IndexMode::Scalar);
  EXPECT_EQ(e.state_dim(), 1 + 4 + 5);
}

TEST(SizingEnv, StateIsColumnNormalized) {
  env::SizingEnv e(make_synthetic(), env::IndexMode::OneHot);
  const auto& s = e.state();
  for (int c = 0; c < s.cols(); ++c) {
    double mean = 0.0;
    for (int r = 0; r < s.rows(); ++r) mean += s(r, c);
    EXPECT_NEAR(mean / s.rows(), 0.0, 1e-9);
  }
}

TEST(SizingEnv, StepPipelineRefinesAndEvaluates) {
  env::SizingEnv e(make_synthetic());
  Rng rng(3);
  e.calibrate(50, rng);
  const auto r = e.step(e.random_actions(rng));
  EXPECT_TRUE(r.sim_ok);
  EXPECT_TRUE(std::isfinite(r.fom));
  EXPECT_EQ(r.metrics.count("speed"), 1u);
  // Refined parameters respect the design space.
  const auto& cs = e.bench().space.comp(0);
  EXPECT_GE(r.params.v[0][0], cs.p[0].lo);
  EXPECT_LE(r.params.v[0][0], cs.p[0].hi);
}

TEST(SizingEnv, FlatViewMatchesMatrixView) {
  env::SizingEnv e(make_synthetic());
  Rng rng(4);
  e.calibrate(50, rng);
  const la::Mat a = e.random_actions(rng);
  // The black-box optimizers search the flattened view; unflattening it
  // must evaluate the same design.
  const auto flat = e.bench().space.flatten(a);
  ASSERT_EQ(static_cast<int>(flat.size()), e.flat_dim());
  const auto r1 = e.step(a);
  const auto r2 = e.step(e.bench().space.unflatten(flat));
  EXPECT_DOUBLE_EQ(r1.fom, r2.fom);
}

TEST(SizingEnv, EvaluateParamsMatchesManualPipeline) {
  env::SizingEnv e(make_synthetic());
  Rng rng(5);
  e.calibrate(50, rng);
  const auto r = e.evaluate_params(e.bench().human_expert);
  EXPECT_TRUE(r.sim_ok);
  // speed = W/L = 10e-6 / 0.5e-6 = 20 (grid-rounded W/L).
  EXPECT_NEAR(r.metrics.at("speed"), 20.0, 0.5);
}

TEST(SizingEnv, CountsEvaluations) {
  env::SizingEnv e(make_synthetic());
  Rng rng(6);
  e.calibrate(10, rng);
  const long before = e.num_evals();
  e.step(e.random_actions(rng));
  e.step(e.random_actions(rng));
  EXPECT_EQ(e.num_evals(), before + 2);
}

TEST(SizingEnvProperty, RefinedParamsAlwaysLegal) {
  env::SizingEnv e(make_synthetic());
  Rng rng(7);
  for (int trial = 0; trial < 100; ++trial) {
    const la::Mat a = e.random_actions(rng);
    const auto p = e.bench().space.refine(a);
    for (int i = 0; i < e.n(); ++i) {
      const auto& cs = e.bench().space.comp(i);
      for (int d = 0; d < cs.nparams(); ++d) {
        EXPECT_GE(p.v[i][d], cs.p[d].lo);
        EXPECT_LE(p.v[i][d], cs.p[d].hi);
      }
    }
  }
}

// Parameterized sweep: the FoM respects monotonicity in a single metric —
// for any calibrated normalizer, improving one metric while holding the
// rest cannot decrease the FoM.
class FomMonotonicity : public ::testing::TestWithParam<double> {};

TEST_P(FomMonotonicity, ImprovingMetricNeverHurts) {
  env::FomSpec spec;
  spec.enforce_spec = false;
  spec.metrics = {{"up", "", +1.0, {}, {}, {}, false, 0.0, 10.0},
                  {"down", "", -1.0, {}, {}, {}, false, 0.0, 10.0}};
  const double base = GetParam();
  const double f1 = spec.fom({{"up", base}, {"down", 5.0}});
  const double f2 = spec.fom({{"up", base + 1.0}, {"down", 5.0}});
  EXPECT_GE(f2, f1);
  const double f3 = spec.fom({{"up", 5.0}, {"down", base}});
  const double f4 = spec.fom({{"up", 5.0}, {"down", base + 1.0}});
  EXPECT_LE(f4, f3);
}

INSTANTIATE_TEST_SUITE_P(Sweep, FomMonotonicity,
                         ::testing::Values(0.0, 2.5, 5.0, 7.5, 9.0, 12.0));
