// Integration tests over the four benchmark circuits: construction,
// topology-graph sanity, human-expert evaluation, determinism, cross-node
// builds, randomized robustness of the full evaluate pipeline, the .gcir
// plan interpreter against hand-driven simulators, and the digests that
// pin every circuit's definition and results.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/registry.hpp"
#include "circuit/graph.hpp"
#include "circuit/gcir.hpp"
#include "env/circuit_compile.hpp"
#include "meas/plan.hpp"
#include "env/sizing_env.hpp"
#include "sim/perf.hpp"
#include "sim/simulator.hpp"
#include "test_helpers.hpp"

using namespace gcnrl;
namespace sim = gcnrl::sim;

namespace {

const auto kTech = circuit::make_technology("180nm");

}  // namespace

class BenchmarkCircuitTest : public ::testing::TestWithParam<std::string> {};

TEST_P(BenchmarkCircuitTest, BuildsWithConnectedGraph) {
  const auto bc = api::build_circuit(GetParam(), kTech);
  EXPECT_GT(bc.netlist.num_design_components(), 5);
  const auto adj = circuit::build_adjacency(bc.netlist);
  EXPECT_EQ(circuit::connected_components(adj), 1)
      << "topology graph must be connected";
  // The paper's 7-layer GCN receptive-field claim needs diameter <= 7.
  EXPECT_LE(circuit::graph_diameter(adj), 7);
}

TEST_P(BenchmarkCircuitTest, HumanExpertSimulatesAndMeetsSpec) {
  const auto bc = api::build_circuit(GetParam(), kTech);
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
  const auto bc = api::build_circuit(GetParam(), kTech);
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
    const auto bc = api::build_circuit(GetParam(), tech);
    env::SizingEnv env(bc);
    const auto r = env.evaluate_params(bc.human_expert);
    // The 180nm-tuned human sizing need not be optimal elsewhere, but the
    // netlist must build and the simulator must run on every node.
    EXPECT_TRUE(r.sim_ok || !r.sim_ok);  // no throw is the contract
    EXPECT_EQ(env.n(), env::SizingEnv(bc).n());
  }
}

TEST_P(BenchmarkCircuitTest, RandomDesignsNeverCrash) {
  const auto bc = api::build_circuit(GetParam(), kTech);
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
  auto bc = api::build_circuit(GetParam(), kTech);
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
  ASSERT_GE(api::circuit_names().size(), 4u);
  EXPECT_THROW(api::build_circuit("nope", kTech),
               std::invalid_argument);
}

// A shipped circuit is parsed on its first build and the description is
// shared: first builds racing on 8 threads (run it under
// -DGCNRL_SANITIZE=thread) must all produce the same circuit.
TEST(BenchmarkRegistry, ConcurrentFirstBuildsAgree) {
  constexpr int kThreads = 8;
  std::vector<env::MetricMap> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&got, t] {
      const auto bc = api::build_circuit("Two-Volt", kTech);
      circuit::Netlist sized = bc.netlist;
      bc.space.apply(sized, bc.human_expert);
      got[static_cast<std::size_t>(t)] = bc.evaluate(sized);
    });
  }
  for (auto& th : threads) th.join();
  for (const auto& m : got) EXPECT_EQ(m, got.front());
  EXPECT_FALSE(got.front().empty());
}

TEST(TwoTia, SpecCreatesGainBandwidthTension) {
  // The BW floor must reject the "huge RF" corner: set RF to its maximum
  // and check the spec fails on bandwidth.
  auto bc = api::build_circuit("Two-TIA", kTech);
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
  const auto bc = api::build_circuit("Three-TIA", kTech);
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
  const auto bc = api::build_circuit("LDO", kTech);
  circuit::Netlist nl = bc.netlist;
  bc.space.apply(nl, bc.human_expert);
  sim::Simulator s(nl, kTech);
  const double vout = s.op().node(nl.find_node("vout").value());
  // Target = vref * (1 + R1/R2) = 0.9 * 1.5 = 1.35 V.
  EXPECT_NEAR(vout, 1.35, 0.08);
}

TEST(TwoVolt, OutputCommonModeFollowsReference) {
  const auto bc = api::build_circuit("Two-Volt", kTech);
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
  const auto bc = api::build_circuit(GetParam(), kTech);
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

// --- .gcir plan interpreter ------------------------------------------------

// The plan interpreter checked bitwise against a hand-driven Simulator
// running the identical sequence: PWL sources, transient analysis +
// windowed settling extraction, per-bench source overrides (`set`) and DC
// warm starts (`warm`).
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

// The same for derived benches (`add` nets and sources, `set` gate
// moves), run-time expressions over DC values, component parameters and
// earlier metrics, `temp` values, a one-point AC analysis and
// phase_margin's scale and divisor.
TEST(GcirPlan, DerivedBenchesAndExpressionsMatchHandDrivenSimulator) {
  const char* text =
      "circuit Derived-Check\n"
      "supply vdd\n"
      "net a out\n"
      "vsource VDD vdd 0 dc=vdd\n"
      "vsource VIN a 0 dc=0.6 ac=1\n"
      "nmos M1 out a 0 0 w=10u l=lmin m=1\n"
      "resistor RL out vdd r=10k\n"
      "capacitor CL out 0 c=1p fixed\n"
      "metric gain unit=V/V weight=1\n"
      "metric pm unit=deg weight=1\n"
      "metric idd unit=A weight=-1\n"
      "bench op\n"
      "bench ol\n"
      "set ol VIN ac=0\n"
      "add ol net x\n"
      "set ol M1 g=x\n"
      "add ol vsource VX x 0 dc=v(op,a) ac=1\n"
      "warm ol from=op\n"
      "ac ol 1k 10G 31\n"
      "bench spot\n"
      "ac spot 1M 1M 1\n"
      "extract gain dc_gain bench=ol probe=out\n"
      "extract pm phase_margin bench=ol probe=out scale=-RL.r/1k over=x\n"
      "extract h1m dc_gain bench=spot probe=out temp\n"
      "extract idd expr=max(abs(i(op,VDD)),h1m*1p)+gain*0\n";
  const auto bc =
      env::compile_circuit(circuit::parse_gcir(text, "<test>"), kTech);
  const auto metrics = bc.evaluate(bc.netlist);
  ASSERT_EQ(metrics.size(), 3u);  // the temp value stays out of the map

  circuit::Netlist nl = bc.netlist;
  const int a = nl.find_node("a").value();
  const int out = nl.find_node("out").value();
  sim::Simulator s_op(nl, kTech);
  const double va = s_op.op().node(a);
  circuit::Netlist ol = bc.netlist;
  ol.find_vsource("VIN")->ac = 0.0;
  const int x = ol.node("x");
  ol.set_mos_gate("M1", x);
  ol.add_vsource("VX", x, 0, va, 1.0);
  sim::Simulator s_ol(ol, kTech);
  s_ol.warm_start_from(s_op.op());
  const auto ac = s_ol.ac(sim::logspace(1e3, 1e10, 31));
  const auto h = gcnrl::meas::curve_at(ac, out);
  EXPECT_EQ(metrics.at("gain"), gcnrl::meas::dc_gain(h));
  gcnrl::meas::AcCurve t = h;
  const auto vx = gcnrl::meas::curve_at(ac, x);
  for (std::size_t i = 0; i < t.h.size(); ++i) {
    t.h[i] = -(10e3 / 1e3) * h.h[i] / vx.h[i];
  }
  EXPECT_EQ(metrics.at("pm"), gcnrl::meas::phase_margin_deg(t));

  circuit::Netlist spot_nl = bc.netlist;
  sim::Simulator s_spot(spot_nl, kTech);
  const double h1m = std::abs(s_spot.ac({1e6}).phasor(0, out));
  EXPECT_EQ(metrics.at("idd"),
            std::max(std::fabs(s_op.source_current("VDD")), h1m * 1e-12) +
                metrics.at("gain") * 0.0);
}

// A guard runs before every later bench: an LDO design it rejects fails
// with the guard's message and runs no transient, while the expert design
// runs both.
TEST(GcirPlan, GuardRejectsBeforeLaterBenches) {
  const auto bc = api::build_circuit("LDO", kTech);
  const auto tran_calls = [&](const circuit::DesignParams& p) {
    circuit::Netlist sized = bc.netlist;
    bc.space.apply(sized, p);
    const long before = sim::sim_perf_snapshot().tran.calls;
    std::string error;
    try {
      (void)bc.evaluate(sized);
    } catch (const sim::SimError& e) {
      error = e.what();
    }
    return std::make_pair(sim::sim_perf_snapshot().tran.calls - before,
                          error);
  };
  EXPECT_EQ(tran_calls(bc.human_expert), std::make_pair(2L, std::string()));

  Rng rng(3);
  int rejected = 0;
  for (int i = 0; i < 20 && rejected == 0; ++i) {
    const auto [calls, error] =
        tran_calls(bc.space.refine(bc.space.random_actions(rng)));
    if (error == "LDO output collapsed") {
      ++rejected;
      EXPECT_EQ(calls, 0L);
    }
  }
  EXPECT_EQ(rejected, 1);
}

// --- CircuitDigest ----------------------------------------------------------
// Pins every shipped circuit, at every technology node, to digests captured
// from the C++ builders the .gcir files replaced. The static half hashes
// the netlist (nodes, elements, design components), the design space
// (ranges, match groups, the refinement of fixed random actions), the FoM
// table and the expert sizing; the result half hashes every metric of the
// expert design and of 8 fixed random designs as %.17g in name order, or
// the SimError message of a design that fails. Never re-capture these: a
// digest that moves means a circuit's definition or results moved.

namespace {

using gcnrl::testing::fnv1a;

std::uint64_t mix(std::uint64_t h, double v) { return fnv1a(h, &v, sizeof v); }
std::uint64_t mix(std::uint64_t h, long v) { return fnv1a(h, &v, sizeof v); }
std::uint64_t mix(std::uint64_t h, const std::string& s) {
  return fnv1a(mix(h, static_cast<long>(s.size())), s);
}
std::uint64_t mix(std::uint64_t h, const std::optional<double>& v) {
  return v ? mix(mix(h, 1L), *v) : mix(h, 0L);
}

std::uint64_t mix_pwl(std::uint64_t h, const circuit::Pwl& pwl) {
  h = mix(h, static_cast<long>(pwl.points.size()));
  for (const auto& [t, v] : pwl.points) h = mix(mix(h, t), v);
  return h;
}

std::uint64_t static_digest(const env::BenchmarkCircuit& bc) {
  std::uint64_t h = mix(gcnrl::testing::kFnvBasis, bc.name);
  const circuit::Netlist& nl = bc.netlist;
  h = mix(h, static_cast<long>(nl.num_nodes()));
  for (int i = 0; i < nl.num_nodes(); ++i) {
    h = mix(mix(h, nl.node_name(i)), static_cast<long>(nl.is_supply(i)));
  }
  for (const auto& m : nl.mosfets()) {
    h = mix(h, m.name);
    for (const long v : {long{m.is_pmos}, long{m.d}, long{m.g}, long{m.s},
                         long{m.b}, long{m.m}}) {
      h = mix(h, v);
    }
    h = mix(mix(h, m.w), m.l);
  }
  for (const auto& r : nl.resistors()) {
    h = mix(mix(mix(mix(h, r.name), long{r.a}), long{r.b}), r.r);
  }
  for (const auto& c : nl.capacitors()) {
    h = mix(mix(mix(mix(h, c.name), long{c.a}), long{c.b}), c.c);
  }
  for (const auto& v : nl.vsources()) {
    h = mix(mix(mix(mix(mix(h, v.name), long{v.p}), long{v.n}), v.dc), v.ac);
    h = mix_pwl(h, v.pwl);
  }
  for (const auto& s : nl.isources()) {
    h = mix(mix(mix(mix(mix(h, s.name), long{s.p}), long{s.n}), s.dc), s.ac);
    h = mix_pwl(h, s.pwl);
  }
  for (const auto& d : nl.design_components()) {
    h = mix(mix(mix(h, static_cast<long>(d.kind)), long{d.elem_index}),
            d.name);
  }

  const circuit::DesignSpace& space = bc.space;
  for (int i = 0; i < space.num_components(); ++i) {
    const auto& c = space.comp(i);
    h = mix(mix(h, c.name), static_cast<long>(c.kind));
    for (int d = 0; d < c.nparams(); ++d) {
      const auto& r = c.p[static_cast<std::size_t>(d)];
      h = mix(mix(mix(mix(mix(h, r.lo), r.hi), long{r.log_scale}), r.grid),
              long{r.integer});
    }
  }
  for (const auto& g : space.match_groups()) {
    h = mix(h, long{g.l_only});
    for (const int c : g.comps) h = mix(h, long{c});
  }
  Rng rng(23);
  for (int k = 0; k < 3; ++k) {
    for (const auto& v : space.refine(space.random_actions(rng)).v) {
      for (const double x : v) h = mix(h, x);
    }
  }

  const env::FomSpec& fom = bc.fom;
  h = mix(mix(mix(h, long{fom.enforce_spec}), fom.spec_fail_fom),
          fom.sim_fail_fom);
  for (const auto& m : fom.metrics) {
    h = mix(mix(mix(h, m.name), m.unit), m.weight);
    h = mix(mix(mix(h, m.bound), m.spec_min), m.spec_max);
    h = mix(mix(mix(h, long{m.log_norm}), m.mmin), m.mmax);
  }
  for (const auto& v : bc.human_expert.v) {
    for (const double x : v) h = mix(h, x);
  }
  return h;
}

std::uint64_t result_digest(const env::BenchmarkCircuit& bc) {
  std::vector<circuit::DesignParams> designs = {bc.human_expert};
  Rng rng(97);
  for (int k = 0; k < 8; ++k) {
    designs.push_back(bc.space.refine(bc.space.random_actions(rng)));
  }
  std::uint64_t h = gcnrl::testing::kFnvBasis;
  for (const auto& p : designs) {
    circuit::Netlist sized = bc.netlist;
    bc.space.apply(sized, p);
    try {
      for (const auto& [name, v] : bc.evaluate(sized)) {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        h = mix(mix(h, name), std::string(buf));
      }
    } catch (const sim::SimError& e) {
      h = mix(mix(h, std::string("SimError")), std::string(e.what()));
    }
  }
  return h;
}

struct CircuitPin {
  const char* circuit;
  const char* node;
  std::uint64_t static_part;
  std::uint64_t results;
};

constexpr CircuitPin kCircuitPins[] = {
    {"Two-TIA", "250nm", 0x5b36945ac9158472ULL, 0xc05d6e4867013eb1ULL},
    {"Two-TIA", "180nm", 0x4bb6b2b692568cc8ULL, 0x17e857b7fc417263ULL},
    {"Two-TIA", "130nm", 0xdab12e4a4bde190bULL, 0x8545a7978d5a7224ULL},
    {"Two-TIA", "65nm", 0xfe6e5384b42153c7ULL, 0xff7524b6952fab8dULL},
    {"Two-TIA", "45nm", 0xf48bf9fe37701e03ULL, 0xf9f069fe5cc7aea1ULL},
    {"Two-Volt", "250nm", 0x084cef1e049d7a7fULL, 0xa4d5eb5b8e976a11ULL},
    {"Two-Volt", "180nm", 0xbcb0b0a2970c9a1bULL, 0x138ca6972bfbb059ULL},
    {"Two-Volt", "130nm", 0xd9f651186158ce81ULL, 0x0ca9de9510d6b0dfULL},
    {"Two-Volt", "65nm", 0xccd2ee5136d78a25ULL, 0x40944cbbef74c11cULL},
    {"Two-Volt", "45nm", 0x1c9a496a7bef747eULL, 0xc88355b51e23e604ULL},
    {"Three-TIA", "250nm", 0x8cf89f95e75500d1ULL, 0x2d115c55447d9fe8ULL},
    {"Three-TIA", "180nm", 0xda8b33b74a3e16ecULL, 0x0d2d2f50b31fe9f9ULL},
    {"Three-TIA", "130nm", 0x83c4f29604c9fe8dULL, 0xcada13f7330429ddULL},
    {"Three-TIA", "65nm", 0x78bd739c7230acf8ULL, 0x56e941b9ea504d3dULL},
    {"Three-TIA", "45nm", 0x1f61f70f823a5ac6ULL, 0x57e9a2d2f23c5f6aULL},
    {"LDO", "250nm", 0x27b95f2422ba178bULL, 0x265ceb8d836d46d4ULL},
    {"LDO", "180nm", 0x1c1710d6efaadf40ULL, 0x58f935477a0ccba3ULL},
    {"LDO", "130nm", 0x6dc601b140e7e92dULL, 0xc10dec4ffbc0a104ULL},
    {"LDO", "65nm", 0x3216ed2707c65aaeULL, 0xf841ed38153db07fULL},
    {"LDO", "45nm", 0x2750dd414e7396daULL, 0xe2f31b4160790350ULL},
};

}  // namespace

TEST(CircuitDigest, MatchesParent) {
  for (const char* name : {"Two-TIA", "Two-Volt", "Three-TIA", "LDO"}) {
    for (const std::string& node : circuit::available_nodes()) {
      const auto bc =
          api::build_circuit(name, circuit::make_technology(node));
      const std::uint64_t s = static_digest(bc);
      const std::uint64_t r = result_digest(bc);
      const CircuitPin* pin = nullptr;
      for (const CircuitPin& p : kCircuitPins) {
        if (name == std::string(p.circuit) && node == p.node) pin = &p;
      }
      ASSERT_NE(pin, nullptr) << name << " " << node;
      EXPECT_EQ(s, pin->static_part) << name << " " << node;
      EXPECT_EQ(r, pin->results) << name << " " << node;
    }
  }
}
