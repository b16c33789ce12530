// Integration tests over the four benchmark circuits: construction,
// topology-graph sanity, human-expert evaluation, determinism, cross-node
// builds, and randomized robustness of the full evaluate pipeline.
#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <thread>
#include <vector>

#include "circuit/graph.hpp"
#include "circuit/gcir.hpp"
#include "circuits/benchmark_circuits.hpp"
#include "env/circuit_compile.hpp"
#include "meas/plan.hpp"
#include "env/sizing_env.hpp"
#include "sim/simulator.hpp"

using namespace gcnrl;
namespace sim = gcnrl::sim;

namespace {

const auto kTech = circuit::make_technology("180nm");

}  // namespace

class BenchmarkCircuitTest : public ::testing::TestWithParam<std::string> {};

TEST_P(BenchmarkCircuitTest, BuildsWithConnectedGraph) {
  const auto bc = circuits::make_benchmark(GetParam(), kTech);
  EXPECT_GT(bc.netlist.num_design_components(), 5);
  const auto adj = circuit::build_adjacency(bc.netlist);
  EXPECT_EQ(circuit::connected_components(adj), 1)
      << "topology graph must be connected";
  // The paper's 7-layer GCN receptive-field claim needs diameter <= 7.
  EXPECT_LE(circuit::graph_diameter(adj), 7);
}

TEST_P(BenchmarkCircuitTest, HumanExpertSimulatesAndMeetsSpec) {
  const auto bc = circuits::make_benchmark(GetParam(), kTech);
  env::SizingEnv env(bc);
  const auto r = env.evaluate_params(bc.human_expert);
  EXPECT_TRUE(r.sim_ok);
  EXPECT_TRUE(r.spec_ok);
  for (const auto& md : bc.fom.metrics) {
    ASSERT_EQ(r.metrics.count(md.name), 1u) << md.name;
    EXPECT_TRUE(std::isfinite(r.metrics.at(md.name))) << md.name;
  }
}

TEST_P(BenchmarkCircuitTest, EvaluationIsDeterministic) {
  const auto bc = circuits::make_benchmark(GetParam(), kTech);
  env::SizingEnv e1(bc);
  env::SizingEnv e2(bc);
  Rng r1(42), r2(42);
  const auto a1 = e1.random_actions(r1);
  const auto a2 = e2.random_actions(r2);
  const auto v1 = e1.step(a1);
  const auto v2 = e2.step(a2);
  EXPECT_EQ(v1.sim_ok, v2.sim_ok);
  if (v1.sim_ok) {
    for (const auto& [k, v] : v1.metrics) {
      EXPECT_DOUBLE_EQ(v, v2.metrics.at(k)) << k;
    }
  }
}

TEST_P(BenchmarkCircuitTest, BuildsOnEveryTechnologyNode) {
  for (const auto& node : circuit::available_nodes()) {
    const auto tech = circuit::make_technology(node);
    const auto bc = circuits::make_benchmark(GetParam(), tech);
    env::SizingEnv env(bc);
    const auto r = env.evaluate_params(bc.human_expert);
    // The 180nm-tuned human sizing need not be optimal elsewhere, but the
    // netlist must build and the simulator must run on every node.
    EXPECT_TRUE(r.sim_ok || !r.sim_ok);  // no throw is the contract
    EXPECT_EQ(env.n(), env::SizingEnv(bc).n());
  }
}

TEST_P(BenchmarkCircuitTest, RandomDesignsNeverCrash) {
  const auto bc = circuits::make_benchmark(GetParam(), kTech);
  env::SizingEnv env(bc);
  Rng rng(7);
  int ok = 0;
  for (int i = 0; i < 15; ++i) {
    const auto r = env.step(env.random_actions(rng));
    if (r.sim_ok) {
      ++ok;
      for (const auto& md : bc.fom.metrics) {
        EXPECT_TRUE(std::isfinite(r.metrics.at(md.name)));
      }
    } else {
      EXPECT_DOUBLE_EQ(r.fom, bc.fom.sim_fail_fom);
    }
    EXPECT_GE(r.fom, bc.fom.sim_fail_fom);
    EXPECT_LE(r.fom, bc.fom.max_fom());
  }
  EXPECT_GT(ok, 0) << "at least some random designs must simulate";
}

TEST_P(BenchmarkCircuitTest, CalibrationPopulatesNormalizers) {
  auto bc = circuits::make_benchmark(GetParam(), kTech);
  env::SizingEnv env(std::move(bc));
  Rng rng(11);
  const int ok = env.calibrate(30, rng);
  EXPECT_GT(ok, 0);
  for (const auto& md : env.bench().fom.metrics) {
    EXPECT_LT(md.mmin, md.mmax) << md.name;
  }
}

INSTANTIATE_TEST_SUITE_P(AllCircuits, BenchmarkCircuitTest,
                         ::testing::Values("Two-TIA", "Two-Volt",
                                           "Three-TIA", "LDO"));

TEST(BenchmarkRegistry, NamesAndUnknown) {
  // The four paper benchmarks lead the registry; runtime registrations
  // (api::register_circuit / register_circuit_file) may follow.
  ASSERT_GE(circuits::benchmark_names().size(), 4u);
  EXPECT_THROW(circuits::make_benchmark("nope", kTech),
               std::invalid_argument);
}

TEST(TwoTia, SpecCreatesGainBandwidthTension) {
  // The BW floor must reject the "huge RF" corner: set RF to its maximum
  // and check the spec fails on bandwidth.
  auto bc = circuits::make_two_tia(kTech);
  env::SizingEnv env(bc);
  Rng rng(13);
  env.calibrate(40, rng);
  auto p = bc.human_expert;
  p.v[7][0] = 1e6;  // RF -> 1 MOhm
  const auto r = env.evaluate_params(p);
  ASSERT_TRUE(r.sim_ok);
  EXPECT_LT(r.metrics.at("bw"), 5e7);
  EXPECT_FALSE(r.spec_ok);
  EXPECT_DOUBLE_EQ(r.fom, env.bench().fom.spec_fail_fom);
}

TEST(ThreeTia, MatchedPairsStayMatched) {
  const auto bc = circuits::make_benchmark("Three-TIA", kTech);
  Rng rng(17);
  const auto p = bc.space.refine(bc.space.random_actions(rng));
  const int t1 = bc.netlist.find_design("T1");
  const int t2 = bc.netlist.find_design("T2");
  for (int d = 0; d < 3; ++d) EXPECT_DOUBLE_EQ(p.v[t1][d], p.v[t2][d]);
  // Mirror legs share L only.
  const int t13 = bc.netlist.find_design("T13");
  const int t15 = bc.netlist.find_design("T15");
  EXPECT_DOUBLE_EQ(p.v[t13][1], p.v[t15][1]);
}

TEST(Ldo, RegulatesAtNominalLoad) {
  const auto bc = circuits::make_benchmark("LDO", kTech);
  circuit::Netlist nl = bc.netlist;
  bc.space.apply(nl, bc.human_expert);
  sim::Simulator s(nl, kTech);
  const double vout = s.op().node(nl.find_node("vout").value());
  // Target = vref * (1 + R1/R2) = 0.9 * 1.5 = 1.35 V.
  EXPECT_NEAR(vout, 1.35, 0.08);
}

TEST(TwoVolt, OutputCommonModeFollowsReference) {
  const auto bc = circuits::make_benchmark("Two-Volt", kTech);
  circuit::Netlist nl = bc.netlist;
  bc.space.apply(nl, bc.human_expert);
  sim::Simulator s(nl, kTech);
  const double voa = s.op().node(nl.find_node("voa").value());
  const double vob = s.op().node(nl.find_node("vob").value());
  EXPECT_NEAR((voa + vob) / 2.0, kTech.vdd / 2.0, 0.12);
  EXPECT_NEAR(voa, vob, 1e-6);  // symmetric circuit
}

// Concurrency audit companion (see BenchmarkCircuit::evaluate's contract):
// the measurement closures must be pure functions of the sized netlist, so
// 8 threads evaluating the same circuit concurrently — each on its own
// netlist copy, sharing one closure — must agree bit-for-bit with a serial
// reference evaluation. Run under -DGCNRL_SANITIZE=address or =thread to
// turn latent data races into hard failures.
TEST_P(BenchmarkCircuitTest, EvaluateClosureIsThreadSafe) {
  const auto bc = circuits::make_benchmark(GetParam(), kTech);
  circuit::Netlist sized = bc.netlist;
  bc.space.apply(sized, bc.human_expert);
  const env::MetricMap reference = bc.evaluate(sized);

  constexpr int kThreads = 8;
  std::vector<env::MetricMap> got(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&bc, &sized, &got, t] {
      circuit::Netlist own = sized;  // per-thread copy, as EvalService does
      got[static_cast<std::size_t>(t)] = bc.evaluate(own);
    });
  }
  for (auto& th : threads) th.join();

  for (const auto& m : got) {
    ASSERT_EQ(m.size(), reference.size());
    for (const auto& [k, v] : reference) {
      ASSERT_EQ(m.count(k), 1u) << k;
      EXPECT_DOUBLE_EQ(m.at(k), v) << k;
    }
  }
}

// --- .gcir parity -----------------------------------------------------------
// The shipped .gcir ports must be *bit-identical* twins of their C++
// builders: same search space, same expert sizing, and the same metric
// values for any design (the file front end is a refactor of the builders
// into data, not an approximation of them).

#ifndef GCNRL_SOURCE_DIR
#define GCNRL_SOURCE_DIR "."
#endif

namespace {

struct GcirPort {
  const char* builtin;  // C++ builder registry name
  const char* file;     // repo-relative .gcir path
};

// Without this gtest prints the struct's raw bytes — two pointers, which
// differ from run to run — and ctest names the discovered cases after them.
void PrintTo(const GcirPort& p, std::ostream* os) { *os << p.builtin; }

class GcirParityTest : public ::testing::TestWithParam<GcirPort> {};

void expect_bitwise_metrics(const env::MetricMap& a, const env::MetricMap& b,
                            const char* where) {
  ASSERT_EQ(a.size(), b.size()) << where;
  for (const auto& [k, v] : a) {
    ASSERT_EQ(b.count(k), 1u) << where << ": " << k;
    EXPECT_EQ(v, b.at(k)) << where << ": " << k;  // bitwise, not NEAR
  }
}

}  // namespace

TEST_P(GcirParityTest, SpaceFomAndExpertMatchBuilder) {
  const auto ref = circuits::make_benchmark(GetParam().builtin, kTech);
  const auto desc = circuit::load_gcir(std::string(GCNRL_SOURCE_DIR "/") +
                                       GetParam().file);
  const auto got = env::compile_circuit(desc, kTech);

  // Netlist structure.
  EXPECT_EQ(got.netlist.num_nodes(), ref.netlist.num_nodes());
  ASSERT_EQ(got.netlist.num_design_components(),
            ref.netlist.num_design_components());
  for (int i = 0; i < ref.netlist.num_design_components(); ++i) {
    EXPECT_EQ(got.netlist.design_kind(i), ref.netlist.design_kind(i)) << i;
  }

  // Search space: every range endpoint and scaling flag, bit for bit.
  ASSERT_EQ(got.space.num_components(), ref.space.num_components());
  for (int i = 0; i < ref.space.num_components(); ++i) {
    const auto& rc = ref.space.comp(i);
    const auto& gc = got.space.comp(i);
    EXPECT_EQ(gc.name, rc.name);
    for (int d = 0; d < rc.nparams(); ++d) {
      EXPECT_EQ(gc.p[d].lo, rc.p[d].lo) << rc.name << " p" << d;
      EXPECT_EQ(gc.p[d].hi, rc.p[d].hi) << rc.name << " p" << d;
      EXPECT_EQ(gc.p[d].log_scale, rc.p[d].log_scale) << rc.name;
      EXPECT_EQ(gc.p[d].integer, rc.p[d].integer) << rc.name;
    }
  }
  // Match groups: same refinement of the same random actions.
  Rng ra(23), rb(23);
  const auto pa = ref.space.refine(ref.space.random_actions(ra));
  const auto pb = got.space.refine(got.space.random_actions(rb));
  ASSERT_EQ(pa.v.size(), pb.v.size());
  for (std::size_t i = 0; i < pa.v.size(); ++i) {
    for (int d = 0; d < 3; ++d) EXPECT_EQ(pa.v[i][d], pb.v[i][d]) << i;
  }

  // FoM table.
  ASSERT_EQ(got.fom.metrics.size(), ref.fom.metrics.size());
  for (std::size_t i = 0; i < ref.fom.metrics.size(); ++i) {
    const auto& rm = ref.fom.metrics[i];
    const auto& gm = got.fom.metrics[i];
    EXPECT_EQ(gm.name, rm.name);
    EXPECT_EQ(gm.unit, rm.unit);
    EXPECT_EQ(gm.weight, rm.weight);
    EXPECT_EQ(gm.bound, rm.bound);
    EXPECT_EQ(gm.spec_min, rm.spec_min);
    EXPECT_EQ(gm.spec_max, rm.spec_max);
    EXPECT_EQ(gm.log_norm, rm.log_norm);
  }

  // Human-expert sizing.
  ASSERT_EQ(got.human_expert.v.size(), ref.human_expert.v.size());
  for (std::size_t i = 0; i < ref.human_expert.v.size(); ++i) {
    for (int d = 0; d < 3; ++d) {
      EXPECT_EQ(got.human_expert.v[i][d], ref.human_expert.v[i][d]) << i;
    }
  }
}

TEST_P(GcirParityTest, MetricsAreBitIdenticalToBuilder) {
  // 180nm and a second node, so the technology symbols in the file (vdd,
  // lmin, ...) are proven to re-evaluate, not to have been baked in.
  for (const char* node : {"180nm", "65nm"}) {
    const auto tech = circuit::make_technology(node);
    const auto ref = circuits::make_benchmark(GetParam().builtin, tech);
    const auto got = env::compile_circuit(
        circuit::load_gcir(std::string(GCNRL_SOURCE_DIR "/") +
                           GetParam().file),
        tech);

    // Human-expert design.
    circuit::Netlist sized_ref = ref.netlist;
    ref.space.apply(sized_ref, ref.human_expert);
    circuit::Netlist sized_got = got.netlist;
    got.space.apply(sized_got, got.human_expert);
    expect_bitwise_metrics(ref.evaluate(sized_ref), got.evaluate(sized_got),
                           node);

    // Random designs through the builder's space (proven equal above).
    Rng rng(31);
    for (int i = 0; i < 3; ++i) {
      const auto p = ref.space.refine(ref.space.random_actions(rng));
      circuit::Netlist a = ref.netlist;
      ref.space.apply(a, p);
      circuit::Netlist b = got.netlist;
      got.space.apply(b, p);
      expect_bitwise_metrics(ref.evaluate(a), got.evaluate(b), node);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Ports, GcirParityTest,
    ::testing::Values(GcirPort{"Two-TIA", "specs/circuits/two_tia.gcir"},
                      GcirPort{"Three-TIA",
                               "specs/circuits/three_tia.gcir"}));

// The plan-interpreter paths no shipped port exercises: PWL sources,
// transient analysis + windowed settling extraction, per-bench source
// overrides (`set`) and DC warm starts (`warm`) — checked bitwise against
// a hand-driven Simulator running the identical sequence.
TEST(GcirPlan, TranPwlSetAndWarmMatchHandDrivenSimulator) {
  const char* text =
      "circuit Tran-Check\n"
      "supply vdd\n"
      "net a out\n"
      "vsource VDD vdd 0 dc=vdd\n"
      "vsource VIN a 0 dc=0 pwl=(0,0)(1u,0)(1.01u,1)(10u,1)\n"
      "resistor R1 a out r=10k\n"
      "capacitor C1 out 0 c=10p fixed\n"
      "metric tsettle unit=s weight=-1 log\n"
      "metric gain unit=V/V weight=1\n"
      "bench tb\n"
      "tran tb tstop=10u dt=10n\n"
      "bench acb\n"
      "set acb VIN dc=0.5 ac=1\n"
      "ac acb 1k 1G 21\n"
      "warm acb from=tb\n"
      "extract tsettle settling_time bench=tb probe=out window=1u,10u "
      "edge=1u tol=0.02\n"
      "extract gain dc_gain bench=acb probe=out\n";
  const auto bc =
      env::compile_circuit(circuit::parse_gcir(text, "<test>"), kTech);
  const auto metrics = bc.evaluate(bc.netlist);
  ASSERT_EQ(metrics.count("tsettle"), 1u);
  ASSERT_EQ(metrics.count("gain"), 1u);

  // Hand-driven reference: same netlist, same bench order and analyses.
  circuit::Netlist nl = bc.netlist;
  sim::Simulator s_tb(nl, kTech);
  const auto tr = s_tb.tran({10e-6, 10e-9});
  auto curve = gcnrl::meas::tran_curve(tr, nl.find_node("out").value());
  curve = gcnrl::meas::window(curve, 1e-6, 10e-6);
  EXPECT_EQ(metrics.at("tsettle"),
            gcnrl::meas::settling_time(curve, 1e-6, 0.02));
  // The RC settles well before the window closes.
  EXPECT_LT(metrics.at("tsettle"), 2e-6);

  circuit::Netlist nl2 = bc.netlist;
  auto* vin = nl2.find_vsource("VIN");
  ASSERT_NE(vin, nullptr);
  vin->dc = 0.5;
  vin->ac = 1.0;
  sim::Simulator s_ac(nl2, kTech);
  s_ac.warm_start_from(s_tb.op());
  const auto ac = s_ac.ac(sim::logspace(1e3, 1e9, 21));
  const auto h =
      gcnrl::meas::curve_at(ac, bc.netlist.find_node("out").value());
  EXPECT_EQ(metrics.at("gain"), gcnrl::meas::dc_gain(h));
  EXPECT_NEAR(metrics.at("gain"), 1.0, 1e-3);  // RC lowpass at DC
}
