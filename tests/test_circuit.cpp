// Tests for netlist construction, topology-graph extraction, the
// technology library and design-space refinement.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "circuit/analyze.hpp"
#include "circuit/design_space.hpp"
#include "circuit/expr.hpp"
#include "circuit/gcir.hpp"
#include "circuit/graph.hpp"
#include "circuit/netlist.hpp"
#include "circuit/tech.hpp"
#include "common/rng.hpp"

namespace circuit = gcnrl::circuit;
namespace la = gcnrl::la;
using circuit::Kind;
using gcnrl::Rng;

namespace {

// A little 2-transistor + R + C test circuit:
//   vdd supply; M1 NMOS (drain n1, gate nin), M2 PMOS load (drain n1),
//   R1 from n1 to nout, C1 from nout to ground.
circuit::Netlist tiny_netlist() {
  circuit::Netlist nl;
  const int vdd = nl.node("vdd");
  nl.mark_supply("vdd");
  const int nin = nl.node("nin");
  const int n1 = nl.node("n1");
  const int nout = nl.node("nout");
  nl.add_vsource("vsup", vdd, 0, 1.8);
  nl.add_nmos("M1", n1, nin, 0, 0, 2e-6, 0.2e-6);
  nl.add_pmos("M2", n1, nin, vdd, vdd, 4e-6, 0.2e-6);
  nl.add_resistor("R1", n1, nout, 1e4);
  nl.add_capacitor("C1", nout, 0, 1e-12);
  return nl;
}

}  // namespace

TEST(Netlist, GroundAliases) {
  circuit::Netlist nl;
  EXPECT_EQ(nl.node("0"), 0);
  EXPECT_EQ(nl.node("gnd"), 0);
  EXPECT_EQ(nl.node("vss"), 0);
  EXPECT_TRUE(nl.is_supply(0));
}

TEST(Netlist, NodeDeduplication) {
  circuit::Netlist nl;
  const int a = nl.node("x");
  const int b = nl.node("x");
  EXPECT_EQ(a, b);
  EXPECT_EQ(nl.num_nodes(), 2);  // ground + x
  EXPECT_FALSE(nl.find_node("missing").has_value());
  EXPECT_TRUE(nl.find_node("x").has_value());
}

TEST(Netlist, DesignComponentOrderAndKinds) {
  circuit::Netlist nl = tiny_netlist();
  ASSERT_EQ(nl.num_design_components(), 4);
  EXPECT_EQ(nl.design_kind(0), Kind::Nmos);
  EXPECT_EQ(nl.design_kind(1), Kind::Pmos);
  EXPECT_EQ(nl.design_kind(2), Kind::Resistor);
  EXPECT_EQ(nl.design_kind(3), Kind::Capacitor);
  EXPECT_EQ(nl.find_design("R1"), 2);
  EXPECT_EQ(nl.find_design("nope"), -1);
}

TEST(Netlist, NonDesignableExcluded) {
  circuit::Netlist nl;
  nl.add_resistor("Rfixed", nl.node("a"), 0, 1e3, /*designable=*/false);
  EXPECT_EQ(nl.num_design_components(), 0);
  EXPECT_EQ(nl.resistors().size(), 1u);
}

TEST(Netlist, SetDesignParams) {
  circuit::Netlist nl = tiny_netlist();
  nl.set_design_params(0, {5e-6, 0.5e-6, 3.0});
  EXPECT_DOUBLE_EQ(nl.mosfets()[0].w, 5e-6);
  EXPECT_DOUBLE_EQ(nl.mosfets()[0].l, 0.5e-6);
  EXPECT_EQ(nl.mosfets()[0].m, 3);
  nl.set_design_params(2, {4.7e3, 0.0, 0.0});
  EXPECT_DOUBLE_EQ(nl.resistors()[0].r, 4.7e3);
  const auto back = nl.design_params(0);
  EXPECT_DOUBLE_EQ(back[0], 5e-6);
}

TEST(Pwl, InterpolationAndEdges) {
  circuit::Pwl pwl{{{1.0, 0.0}, {2.0, 10.0}}};
  EXPECT_DOUBLE_EQ(pwl.at(0.0), 0.0);
  EXPECT_DOUBLE_EQ(pwl.at(1.5), 5.0);
  EXPECT_DOUBLE_EQ(pwl.at(3.0), 10.0);
}

TEST(Graph, AdjacencyExcludesSupply) {
  circuit::Netlist nl = tiny_netlist();
  const la::Mat a = circuit::build_adjacency(nl);
  ASSERT_EQ(a.rows(), 4);
  // M1-M2 share n1 and nin; M1/M2-R1 share n1; R1-C1 share nout.
  EXPECT_EQ(a(0, 1), 1.0);
  EXPECT_EQ(a(0, 2), 1.0);
  EXPECT_EQ(a(1, 2), 1.0);
  EXPECT_EQ(a(2, 3), 1.0);
  // M1/M2 do not touch C1 except through R1.
  EXPECT_EQ(a(0, 3), 0.0);
  EXPECT_EQ(a(1, 3), 0.0);
  // No self loops; symmetric.
  for (int i = 0; i < 4; ++i) EXPECT_EQ(a(i, i), 0.0);
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) EXPECT_EQ(a(i, j), a(j, i));
  }
}

TEST(Graph, SupplyInclusionFlag) {
  circuit::Netlist nl = tiny_netlist();
  const la::Mat with_supply =
      circuit::build_adjacency(nl, /*exclude_supply_nets=*/false);
  // Including ground connects C1 to M1 (both touch ground).
  EXPECT_EQ(with_supply(0, 3), 1.0);
}

TEST(Graph, ConnectivityAndDiameter) {
  circuit::Netlist nl = tiny_netlist();
  const la::Mat a = circuit::build_adjacency(nl);
  EXPECT_EQ(circuit::connected_components(a), 1);
  EXPECT_EQ(circuit::graph_diameter(a), 2);  // M1 .. C1 via R1
  // Empty graph: every vertex its own component.
  la::Mat empty(3, 3);
  EXPECT_EQ(circuit::connected_components(empty), 3);
}

TEST(Tech, AllNodesConstruct) {
  for (const auto& name : circuit::available_nodes()) {
    const circuit::Technology t = circuit::make_technology(name);
    EXPECT_EQ(t.name, name);
    EXPECT_GT(t.vdd, 0.0);
    EXPECT_GT(t.cox, 0.0);
    EXPECT_LT(t.lmin, t.lmax);
    EXPECT_LT(t.wmin, t.wmax);
  }
  EXPECT_THROW(circuit::make_technology("7nm"), std::invalid_argument);
}

TEST(Tech, ScalingTrendsAcrossNodes) {
  const auto t250 = circuit::make_technology("250nm");
  const auto t45 = circuit::make_technology("45nm");
  EXPECT_GT(t250.vdd, t45.vdd);
  EXPECT_GT(t250.vth0_n, t45.vth0_n);
  EXPECT_LT(t250.cox, t45.cox);  // thinner oxide -> higher Cox
  EXPECT_GT(t250.lmin, t45.lmin);
}

TEST(Tech, ModelFeaturesPerKind) {
  const auto t = circuit::make_technology("180nm");
  const auto fn = t.model_features(Kind::Nmos);
  const auto fp = t.model_features(Kind::Pmos);
  const auto fr = t.model_features(Kind::Resistor);
  EXPECT_GT(fn[1], 0.0);  // NMOS vth positive
  EXPECT_LT(fp[1], 0.0);  // PMOS feature sign-flipped
  for (double v : fr) EXPECT_EQ(v, 0.0);
}

TEST(ParamRange, DenormalizeEndpointsAndMid) {
  circuit::ParamRange lin{0.0, 10.0, false, 0.0, false};
  EXPECT_DOUBLE_EQ(lin.denormalize(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(lin.denormalize(1.0), 10.0);
  EXPECT_DOUBLE_EQ(lin.denormalize(0.0), 5.0);
  circuit::ParamRange log{1.0, 100.0, true, 0.0, false};
  EXPECT_DOUBLE_EQ(log.denormalize(-1.0), 1.0);
  EXPECT_NEAR(log.denormalize(0.0), 10.0, 1e-12);
  EXPECT_NEAR(log.denormalize(1.0), 100.0, 1e-9);
}

TEST(ParamRange, NormalizeIsInverse) {
  circuit::ParamRange log{2.0, 2000.0, true, 0.0, false};
  for (double a : {-1.0, -0.3, 0.0, 0.7, 1.0}) {
    EXPECT_NEAR(log.normalize(log.denormalize(a)), a, 1e-9);
  }
}

TEST(ParamRange, RefineQuantizes) {
  circuit::ParamRange grid{0.0, 1.0, false, 0.25, false};
  EXPECT_DOUBLE_EQ(grid.refine_value(0.30), 0.25);
  EXPECT_DOUBLE_EQ(grid.refine_value(0.40), 0.50);
  EXPECT_DOUBLE_EQ(grid.refine_value(2.0), 1.0);  // clamped
  circuit::ParamRange integer{1.0, 8.0, false, 0.0, true};
  EXPECT_DOUBLE_EQ(integer.refine_value(3.4), 3.0);
  EXPECT_DOUBLE_EQ(integer.refine_value(0.2), 1.0);
}

TEST(DesignSpace, FromNetlistShapes) {
  circuit::Netlist nl = tiny_netlist();
  const auto tech = circuit::make_technology("180nm");
  const auto ds = circuit::DesignSpace::from_netlist(nl, tech);
  EXPECT_EQ(ds.num_components(), 4);
  EXPECT_EQ(ds.flat_dim(), 3 + 3 + 1 + 1);
}

TEST(DesignSpace, RefineRespectsBoundsAndGrid) {
  circuit::Netlist nl = tiny_netlist();
  const auto tech = circuit::make_technology("180nm");
  const auto ds = circuit::DesignSpace::from_netlist(nl, tech);
  Rng rng(10);
  for (int trial = 0; trial < 50; ++trial) {
    const la::Mat a = ds.random_actions(rng);
    const auto p = ds.refine(a);
    for (int i = 0; i < ds.num_components(); ++i) {
      for (int d = 0; d < ds.comp(i).nparams(); ++d) {
        const auto& pr = ds.comp(i).p[d];
        EXPECT_GE(p.v[i][d], pr.lo - 1e-15);
        EXPECT_LE(p.v[i][d], pr.hi + 1e-15);
        if (pr.grid > 0.0) {
          const double steps = p.v[i][d] / pr.grid;
          EXPECT_NEAR(steps, std::round(steps), 1e-6);
        }
        if (pr.integer) {
          EXPECT_NEAR(p.v[i][d], std::round(p.v[i][d]), 1e-12);
        }
      }
    }
  }
}

TEST(DesignSpace, MatchGroupsForceEquality) {
  circuit::Netlist nl;
  const int n1 = nl.node("n1");
  const int n2 = nl.node("n2");
  nl.add_nmos("Ma", n1, n2, 0, 0, 1e-6, 1e-6);
  nl.add_nmos("Mb", n2, n1, 0, 0, 1e-6, 1e-6);
  nl.add_nmos("Mc", n1, n1, 0, 0, 1e-6, 1e-6);
  const auto tech = circuit::make_technology("180nm");
  auto ds = circuit::DesignSpace::from_netlist(nl, tech);
  ds.add_match_group(nl, {"Ma", "Mb"});           // full match
  ds.add_match_group(nl, {"Mb", "Mc"}, true);     // L-only
  Rng rng(11);
  const la::Mat a = ds.random_actions(rng);
  const auto p = ds.refine(a);
  EXPECT_DOUBLE_EQ(p.v[0][0], p.v[1][0]);  // W matched
  EXPECT_DOUBLE_EQ(p.v[0][1], p.v[1][1]);  // L matched
  EXPECT_DOUBLE_EQ(p.v[0][2], p.v[1][2]);  // M matched
  EXPECT_DOUBLE_EQ(p.v[1][1], p.v[2][1]);  // L chained via group 2
  EXPECT_THROW(ds.add_match_group(nl, {"Ma", "nothere"}),
               std::invalid_argument);
}

TEST(DesignSpace, FlattenUnflattenRoundTrip) {
  circuit::Netlist nl = tiny_netlist();
  const auto tech = circuit::make_technology("180nm");
  const auto ds = circuit::DesignSpace::from_netlist(nl, tech);
  Rng rng(12);
  const la::Mat a = ds.random_actions(rng);
  const auto flat = ds.flatten(a);
  EXPECT_EQ(static_cast<int>(flat.size()), ds.flat_dim());
  const la::Mat back = ds.unflatten(flat);
  for (int i = 0; i < a.rows(); ++i) {
    for (int d = 0; d < ds.comp(i).nparams(); ++d) {
      EXPECT_DOUBLE_EQ(a(i, d), back(i, d));
    }
  }
}

TEST(DesignSpace, ActionsFromParamsInverse) {
  circuit::Netlist nl = tiny_netlist();
  const auto tech = circuit::make_technology("180nm");
  const auto ds = circuit::DesignSpace::from_netlist(nl, tech);
  Rng rng(13);
  const la::Mat a = ds.random_actions(rng);
  const auto p = ds.refine(a);
  const la::Mat a2 = ds.actions_from_params(p);
  const auto p2 = ds.refine(a2);
  for (std::size_t i = 0; i < p.v.size(); ++i) {
    for (int d = 0; d < ds.comp(static_cast<int>(i)).nparams(); ++d) {
      // Round-trip through normalized space must be grid-stable.
      EXPECT_NEAR(p.v[i][d], p2.v[i][d],
                  1e-6 * std::max(1.0, std::fabs(p.v[i][d])));
    }
  }
}

TEST(DesignSpace, ApplyWritesNetlist) {
  circuit::Netlist nl = tiny_netlist();
  const auto tech = circuit::make_technology("180nm");
  const auto ds = circuit::DesignSpace::from_netlist(nl, tech);
  Rng rng(14);
  const auto p = ds.refine(ds.random_actions(rng));
  ds.apply(nl, p);
  EXPECT_DOUBLE_EQ(nl.mosfets()[0].w, p.v[0][0]);
  EXPECT_DOUBLE_EQ(nl.resistors()[0].r, p.v[2][0]);
  EXPECT_DOUBLE_EQ(nl.capacitors()[0].c, p.v[3][0]);
}

// --- source lookup / Pwl edge cases ---------------------------------------

TEST(Netlist, FindSourcesHitAndMiss) {
  circuit::Netlist nl = tiny_netlist();
  nl.add_isource("ib", nl.node("vdd"), nl.node("n1"), 10e-6);
  ASSERT_NE(nl.find_vsource("vsup"), nullptr);
  EXPECT_DOUBLE_EQ(nl.find_vsource("vsup")->dc, 1.8);
  ASSERT_NE(nl.find_isource("ib"), nullptr);
  EXPECT_DOUBLE_EQ(nl.find_isource("ib")->dc, 10e-6);
  // Misses return null rather than throwing — and never cross kinds.
  EXPECT_EQ(nl.find_vsource("nope"), nullptr);
  EXPECT_EQ(nl.find_isource("nope"), nullptr);
  EXPECT_EQ(nl.find_vsource("ib"), nullptr);
  EXPECT_EQ(nl.find_isource("vsup"), nullptr);
}

TEST(Pwl, SinglePointHoldsEverywhere) {
  circuit::Pwl pwl{{{1.0, 5.0}}};
  EXPECT_DOUBLE_EQ(pwl.at(0.0), 5.0);
  EXPECT_DOUBLE_EQ(pwl.at(1.0), 5.0);
  EXPECT_DOUBLE_EQ(pwl.at(42.0), 5.0);
}

// --- sizing expressions ----------------------------------------------------

TEST(Expr, SiSuffixesAreBitExact) {
  const auto tech = circuit::make_technology("180nm");
  // Suffix expansion is textual ("50u" -> strtod("50e-6")), so literals
  // must equal the same C++ source literal bit for bit.
  EXPECT_EQ(circuit::Expr::parse("50u").eval(tech), 50e-6);
  EXPECT_EQ(circuit::Expr::parse("100G").eval(tech), 1e11);
  EXPECT_EQ(circuit::Expr::parse("18m").eval(tech), 18e-3);
  EXPECT_EQ(circuit::Expr::parse("200p").eval(tech), 200e-12);
  EXPECT_EQ(circuit::Expr::parse("100f").eval(tech), 100e-15);
  EXPECT_EQ(circuit::Expr::parse("-0.5").eval(tech), -0.5);
}

TEST(Expr, SymbolsAndPrecedenceMatchBuilders) {
  const auto tech = circuit::make_technology("65nm");
  EXPECT_EQ(circuit::Expr::parse("vdd").eval(tech), tech.vdd);
  EXPECT_EQ(circuit::Expr::parse("2*lmin").eval(tech), 2 * tech.lmin);
  // The exact multiply/divide sequence of `50e-6 * (tech.vdd / 1.8)`.
  EXPECT_EQ(circuit::Expr::parse("50u*(vdd/1.8)").eval(tech),
            50e-6 * (tech.vdd / 1.8));
  // Left-associativity: a-b+c, not a-(b+c).
  EXPECT_EQ(circuit::Expr::parse("4-2+1").eval(tech), 3.0);
}

TEST(Expr, MalformedInputsThrowWithOffset) {
  EXPECT_THROW(circuit::Expr::parse(""), std::invalid_argument);
  EXPECT_THROW(circuit::Expr::parse("2*"), std::invalid_argument);
  EXPECT_THROW(circuit::Expr::parse("(1+2"), std::invalid_argument);
  EXPECT_THROW(circuit::Expr::parse("bogus"), std::invalid_argument);
  try {
    circuit::Expr::parse("1+@");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("offset 2"), std::string::npos)
        << e.what();
  }
}

// --- .gcir parser ----------------------------------------------------------

namespace {

// A minimal valid description used as the mutation base below.
const char* kTinyGcir =
    "circuit Tiny\n"
    "supply vdd\n"
    "net a out\n"
    "vsource VDD vdd 0 dc=vdd\n"
    "vsource VIN a 0 dc=0.5 ac=1\n"
    "nmos M1 out a 0 0 w=10u l=lmin m=1\n"
    "resistor RL out vdd r=10k\n"
    "metric gain unit=V/V weight=1 log\n"
    "bench main\n"
    "ac main 1k 1G 11\n"
    "extract gain dc_gain bench=main probe=out\n";

// Parses `text` expecting failure; asserts the diagnostic carries the
// given "line:column" position and message fragment.
void expect_gcir_error(const std::string& text, const std::string& pos,
                       const std::string& fragment) {
  try {
    circuit::parse_gcir(text);
    FAIL() << "expected parse error (" << fragment << ")";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("<string>:" + pos), std::string::npos) << what;
    EXPECT_NE(what.find(fragment), std::string::npos) << what;
  }
}

}  // namespace

TEST(Gcir, ParsesMinimalDescription) {
  const circuit::CircuitDescription d = circuit::parse_gcir(kTinyGcir);
  EXPECT_EQ(d.name, "Tiny");
  ASSERT_EQ(d.nets.size(), 3u);  // vdd, a, out (ground is implicit)
  EXPECT_EQ(d.sources.size(), 2u);
  EXPECT_EQ(d.devices.size(), 2u);
  ASSERT_EQ(d.metrics.size(), 1u);
  EXPECT_EQ(d.metrics[0].unit, "V/V");
  EXPECT_TRUE(d.metrics[0].log_norm);
  ASSERT_EQ(d.benches.size(), 1u);
  ASSERT_TRUE(d.benches[0].ac.has_value());
  EXPECT_EQ(d.benches[0].ac->npoints, 11);
  ASSERT_EQ(d.extracts.size(), 1u);
  EXPECT_EQ(d.extracts[0].fn, circuit::ExtractFn::DcGain);
}

TEST(Gcir, DiagnosticsCarryLineAndColumn) {
  // Line 1 must open with the circuit directive.
  expect_gcir_error("net a\ncircuit X\n", "1:1", "first directive");
  // Unknown directive, with position at the directive token.
  expect_gcir_error("circuit X\nfrobnicate a b\n", "2:1",
                    "unknown directive \"frobnicate\"");
  // Undeclared net in a device line: position of the net token.
  expect_gcir_error(
      "circuit X\nsupply vdd\nnmos M1 out g 0 0 w=1u l=lmin m=1\n", "3:9",
      "undeclared net \"out\"");
  // Malformed expression inside a key=value: the column lands on the
  // offending character inside the value, not the token start.
  expect_gcir_error(
      "circuit X\nsupply vdd\nnet a\nvsource V a 0 dc=1++2\n", "4:20",
      "unexpected character '+'");
  // Unknown key lists the known set.
  expect_gcir_error(std::string(kTinyGcir) + "tran main tstep=1u dt=1n\n",
                    "12:11", "known: tstop, dt");
}

TEST(Gcir, WholeFileInvariantsFailLoudly) {
  // Duplicate metric.
  expect_gcir_error(std::string(kTinyGcir) +
                        "metric gain unit=V/V weight=1\n",
                    "12:8", "duplicate metric");
  // warm= must reference an earlier bench.
  expect_gcir_error(std::string(kTinyGcir) + "warm main from=main\n",
                    "12:11", "earlier bench");
}

// --- measurement-plan forms --------------------------------------------------
// Each form the plan grammar gained rejects malformed input at the
// offending token (line 12 is the first line after kTinyGcir).

TEST(Gcir, ParsesDerivedBenchesGuardsAndExpressions) {
  const circuit::CircuitDescription d = circuit::parse_gcir(
      std::string(kTinyGcir) +
      "bench ol\n"
      "add ol net x\n"
      "set ol M1 g=x\n"
      "add ol vsource VX x 0 dc=v(main,a) ac=1\n"
      "ac ol 1k 1k 1\n"
      "guard value=v(main,out) min=0.1 max=vdd message=\"out of range\"\n"
      "extract pm phase_margin bench=ol probe=out scale=-RL.r/1k over=x\n"
      "extract h dc_gain bench=ol probe=out temp\n"
      "extract db expr=20*log10(max(abs(h),1n))+gain*0\n");
  ASSERT_EQ(d.benches.size(), 2u);
  const circuit::BenchDesc& ol = d.benches[1];
  ASSERT_EQ(ol.adds.size(), 2u);
  EXPECT_EQ(ol.adds[0].net, "x");
  ASSERT_TRUE(ol.adds[1].source.has_value());
  EXPECT_EQ(ol.adds[1].source->dc.refs().size(), 1u);
  ASSERT_EQ(ol.gates.size(), 1u);
  EXPECT_EQ(ol.gates[0].net, "x");
  EXPECT_EQ(ol.ac->npoints, 1);
  ASSERT_EQ(d.guards.size(), 1u);
  EXPECT_EQ(d.guards[0].after, 2);
  EXPECT_EQ(d.guards[0].message, "out of range");
  ASSERT_EQ(d.extracts.size(), 4u);
  EXPECT_EQ(d.extracts[1].fn, circuit::ExtractFn::PhaseMargin);
  EXPECT_EQ(d.extracts[1].over_p, "x");
  EXPECT_TRUE(d.extracts[2].temp);
  EXPECT_EQ(d.extracts[3].fn, circuit::ExtractFn::Expression);
  EXPECT_EQ(d.extracts[3].value->refs().size(), 2u);
}

TEST(Gcir, AddRejectsMalformedInput) {
  expect_gcir_error(std::string(kTinyGcir) + "add main net out\n", "12:14",
                    "duplicate net \"out\"");
  expect_gcir_error(std::string(kTinyGcir) + "add main diode D1\n", "12:10",
                    "expected net, vsource or isource");
  expect_gcir_error(
      std::string(kTinyGcir) + "add main vsource V2 nowhere 0 dc=1\n",
      "12:21", "undeclared net \"nowhere\" in bench \"main\"");
  expect_gcir_error(
      std::string(kTinyGcir) + "add main vsource VIN a 0 dc=1\n", "12:18",
      "duplicate element name \"VIN\"");
  // A bench edit reads only benches that ran before it.
  expect_gcir_error(
      std::string(kTinyGcir) + "add main vsource V2 a 0 dc=v(main,a)\n",
      "12:28", "not a bench that runs before this point");
}

TEST(Gcir, SetGateRejectsMalformedInput) {
  expect_gcir_error(std::string(kTinyGcir) + "set main M1 d=out\n", "12:13",
                    "a MOSFET takes only g=NET");
  expect_gcir_error(std::string(kTinyGcir) + "set main M1 g=nowhere\n",
                    "12:15", "undeclared net \"nowhere\"");
  expect_gcir_error(std::string(kTinyGcir) + "set main RL g=out\n", "12:10",
                    "unknown source or MOSFET \"RL\"");
}

TEST(Gcir, SpotAcNeedsOnePointAtLeast) {
  expect_gcir_error(
      std::string(kTinyGcir) + "bench spot\nac spot 1k 1k 0\n", "13:15",
      "NPOINTS must be an integer in [1, 100000]");
}

TEST(Gcir, PhaseMarginRejectsMalformedInput) {
  expect_gcir_error(std::string(kTinyGcir) +
                        "extract pm phase_margin bench=main probe=out "
                        "over=nowhere\n",
                    "12:46", "over= names an undeclared net");
  expect_gcir_error(std::string(kTinyGcir) +
                        "extract pm phase_margin bench=main\n",
                    "12:1", "needs probe=NODE[,NODE]");
  expect_gcir_error(std::string(kTinyGcir) +
                        "extract g2 dc_gain bench=main probe=out scale=2\n",
                    "12:1", "scale= and over= belong to phase_margin");
}

TEST(Gcir, ExpressionsRejectMalformedInput) {
  const auto expr_error = [](const std::string& expr, const std::string& pos,
                             const std::string& fragment) {
    expect_gcir_error(std::string(kTinyGcir) + "extract x expr=" + expr + "\n",
                      pos, fragment);
  };
  expr_error("foo(1)", "12:16", "unknown function \"foo\"");
  expr_error("max(1)", "12:21", "expected ','");
  expr_error("abs(1,2)", "12:21", "expected ')'");
  expr_error("log10(", "12:22", "unexpected end of expression");
  expr_error("v(nob,out)", "12:16", "not a bench that runs before");
  expr_error("v(main,nowhere)", "12:16", "v(): unknown net");
  expr_error("i(main,RL)", "12:16", "is not a voltage source");
  expr_error("M1.q", "12:20", "must be one of w, l, m, r, c");
  expr_error("M1.r", "12:16", "\"r\" is not a parameter of nmos \"M1\"");
  expr_error("later", "12:16", "unknown metric \"later\"");
  expect_gcir_error(std::string(kTinyGcir) + "extract x expr=1 bogus=2\n",
                    "12:18", "unknown key \"bogus\"");
  expect_gcir_error(
      std::string(kTinyGcir) +
          "extract x dc_gain bench=main probe=out temp=1\n",
      "12:40", "unknown key \"temp\"");
  // Sizing expressions read technology symbols only.
  expect_gcir_error(
      std::string(kTinyGcir) + "nmos M2 out a 0 0 w=v(main,a) l=lmin m=1\n",
      "12:21", "unknown function \"v\"");
}

TEST(Gcir, GuardRejectsMalformedInput) {
  expect_gcir_error(std::string(kTinyGcir) + "guard value=1 min=0\n", "12:1",
                    "guard: needs value=, min= and/or max=, and message=");
  expect_gcir_error(
      std::string(kTinyGcir) + "guard value=gain min=0 message=\"x\"\n",
      "12:13", "only extract expressions read metrics");
  expect_gcir_error(
      std::string(kTinyGcir) + "guard value=1 min=0 message=\"oops\n",
      "12:29", "unterminated quoted string");
  expect_gcir_error(
      std::string(kTinyGcir) + "guard value=1 min=0 level=2 message=\"x\"\n",
      "12:21", "known: value, min, max, message");
}

// The whole-file semantic invariants (unproduced metrics, partial expert
// sizing) moved from the parser to circuit::analyze_circuit; they now
// parse fine and come back as positioned analyzer errors instead
// (test_analyze.cpp pins the full catalog — this guards the handoff).
TEST(Gcir, MovedInvariantsSurfaceAsAnalyzerErrors) {
  const circuit::Technology tech = circuit::make_technology("180nm");
  {
    const circuit::CircuitDescription d = circuit::parse_gcir(
        "circuit X\nsupply vdd\nnet a\n"
        "vsource V a 0 dc=1\n"
        "nmos M1 a a 0 0 w=1u l=lmin m=1\n"
        "metric gain unit=V/V weight=1\n");
    bool found = false;
    for (const circuit::Diagnostic& diag :
         circuit::analyze_circuit(d, tech)) {
      found = found || (diag.check == "plan.metric-unproduced" &&
                        diag.line == 6 && diag.col == 1);
    }
    EXPECT_TRUE(found);
  }
  {
    const circuit::CircuitDescription d = circuit::parse_gcir(
        std::string(kTinyGcir) + "expert M1 10u lmin 1\n");
    bool found = false;
    for (const circuit::Diagnostic& diag :
         circuit::analyze_circuit(d, tech)) {
      found = found || (diag.check == "sizing.expert-incomplete" &&
                        diag.line == 7 && diag.col == 1);
    }
    EXPECT_TRUE(found);
  }
}
