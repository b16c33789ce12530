// Tests for the .gcir semantic analyzer (circuit/analyze.hpp): the
// seeded-fault corpus under tests/lint_corpus/ (golden check id +
// line:column per file), unit tests for the graph walks on hand-built
// minimal descriptions, the registration gate, and the shipped-circuit
// lint-clean guarantee.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/registry.hpp"
#include "circuit/analyze.hpp"
#include "circuit/gcir.hpp"
#include "circuit/tech.hpp"

namespace circuit = gcnrl::circuit;
namespace api = gcnrl::api;

#ifndef GCNRL_SOURCE_DIR
#define GCNRL_SOURCE_DIR "."
#endif

namespace {

circuit::Technology tech180() { return circuit::make_technology("180nm"); }

bool has_check(const std::vector<circuit::Diagnostic>& diags,
               const std::string& id) {
  for (const circuit::Diagnostic& d : diags) {
    if (d.check == id) return true;
  }
  return false;
}

std::vector<circuit::Diagnostic> analyze_text(const std::string& text) {
  return circuit::analyze_circuit(circuit::parse_gcir(text), tech180());
}

// --- corpus golden ---------------------------------------------------------

// One "#expect ..." line from a corpus file. severity "parse" means the
// file must be rejected by the parser itself at line:col.
struct Expectation {
  std::string severity;  // "error", "warning", "parse"
  std::string check;     // empty for "parse"
  int line = 0;
  int col = 0;
};

std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) throw std::runtime_error("cannot read " + path);
  std::string text;
  char buf[4096];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  return text;
}

std::vector<std::string> split_ws(const std::string& s) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\t' || s[i] == '\r')) {
      ++i;
    }
    const std::size_t start = i;
    while (i < s.size() && s[i] != ' ' && s[i] != '\t' && s[i] != '\r') {
      ++i;
    }
    if (i > start) out.push_back(s.substr(start, i - start));
  }
  return out;
}

std::vector<Expectation> parse_expectations(const std::string& text) {
  std::vector<Expectation> out;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    if (line.rfind("#expect ", 0) == 0) {
      const std::vector<std::string> toks = split_ws(line.substr(8));
      Expectation e;
      e.severity = toks.at(0);
      const std::string& span = e.severity == "parse" ? toks.at(1)
                                                      : toks.at(2);
      if (e.severity != "parse") e.check = toks.at(1);
      const std::size_t colon = span.find(':');
      e.line = std::stoi(span.substr(0, colon));
      e.col = std::stoi(span.substr(colon + 1));
      out.push_back(std::move(e));
    }
    if (eol == text.size()) break;
    pos = eol + 1;
  }
  return out;
}

std::vector<std::string> corpus_files() {
  std::vector<std::string> files;
  const std::string dir =
      std::string(GCNRL_SOURCE_DIR) + "/tests/lint_corpus";
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".gcir") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::string span_key(const std::string& severity, const std::string& check,
                     int line, int col) {
  return severity + " " + (check.empty() ? "-" : check) + " " +
         std::to_string(line) + ":" + std::to_string(col);
}

}  // namespace

// Every corpus file pins its diagnostics exactly: same check ids at the
// same line:column, nothing extra, nothing missing. Files without
// "#expect" lines must analyze clean.
TEST(LintCorpus, GoldenDiagnostics) {
  const std::vector<std::string> files = corpus_files();
  ASSERT_GE(files.size(), 20u);
  for (const std::string& file : files) {
    SCOPED_TRACE(file);
    const std::string text = read_file(file);
    const std::vector<Expectation> expects = parse_expectations(text);

    const bool parse_fault =
        !expects.empty() && expects.front().severity == "parse";
    if (parse_fault) {
      try {
        (void)circuit::parse_gcir(text, file);
        FAIL() << "expected a parse error";
      } catch (const std::runtime_error& e) {
        const std::string pos = std::to_string(expects.front().line) + ":" +
                                std::to_string(expects.front().col) + ":";
        EXPECT_NE(std::string(e.what()).find(pos), std::string::npos)
            << e.what();
      }
      continue;
    }

    const std::vector<circuit::Diagnostic> diags =
        circuit::analyze_circuit(circuit::parse_gcir(text, file), tech180());
    std::vector<std::string> got, want;
    for (const circuit::Diagnostic& d : diags) {
      got.push_back(span_key(
          d.severity == circuit::Severity::Error ? "error" : "warning",
          d.check, d.line, d.col));
    }
    for (const Expectation& e : expects) {
      want.push_back(span_key(e.severity, e.check, e.line, e.col));
    }
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want) << circuit::format_diagnostics(diags);
  }
}

// Every check in the catalog has a witness: either a corpus #expect line
// or (for faults the parser already rejects / only hand-built
// descriptions can express) a unit test below. This test guards the
// corpus half so a new check cannot land without one.
TEST(LintCorpus, EveryExpressibleCheckHasAWitness) {
  std::vector<std::string> witnessed;
  for (const std::string& file : corpus_files()) {
    for (const Expectation& e : parse_expectations(read_file(file))) {
      if (!e.check.empty()) witnessed.push_back(e.check);
    }
  }
  // Checks only reachable from hand-built descriptions (the parser
  // resolves these names at parse time) — covered by AnalyzeUnit below.
  const std::vector<std::string> unit_only = {
      "connectivity.unknown-net", "connectivity.bad-terminals",
      "sizing.unknown-comp",      "plan.unknown-ref",
      "plan.extract-requires",
  };
  for (const circuit::CheckInfo& c : circuit::analyzer_checks()) {
    const bool in_corpus =
        std::find(witnessed.begin(), witnessed.end(), c.id) !=
        witnessed.end();
    const bool in_unit = std::find(unit_only.begin(), unit_only.end(),
                                   c.id) != unit_only.end();
    EXPECT_TRUE(in_corpus || in_unit) << "check without witness: " << c.id;
  }
}

// All shipped circuits hold the same bar user submissions do: zero
// diagnostics (errors or warnings) after pragmas.
TEST(LintCorpus, ShippedCircuitsLintClean) {
  std::vector<std::string> files;
  const std::string root = GCNRL_SOURCE_DIR;
  for (const auto& entry :
       std::filesystem::directory_iterator(root + "/specs/circuits")) {
    if (entry.path().extension() == ".gcir") {
      files.push_back(entry.path().string());
    }
  }
  files.push_back(root + "/examples/five_t_ota.gcir");
  ASSERT_GE(files.size(), 3u);
  for (const std::string& file : files) {
    SCOPED_TRACE(file);
    const std::vector<circuit::Diagnostic> diags = circuit::analyze_circuit(
        circuit::load_gcir(file), tech180());
    EXPECT_TRUE(diags.empty()) << circuit::format_diagnostics(diags);
  }
}

// register_circuit_file must reject every corpus error file with the
// analyzer's diagnostic (check id visible in the exception), never an MNA
// failure — and must let warning-only files through.
TEST(LintCorpus, RegistrationRejectsErrorFiles) {
  for (const std::string& file : corpus_files()) {
    SCOPED_TRACE(file);
    const std::vector<Expectation> expects =
        parse_expectations(read_file(file));
    const bool parse_fault =
        !expects.empty() && expects.front().severity == "parse";
    std::string first_error;
    for (const Expectation& e : expects) {
      if (e.severity == "error" && first_error.empty()) {
        first_error = e.check;
      }
    }
    if (parse_fault) {
      EXPECT_THROW((void)api::register_circuit_file(file),
                   std::runtime_error);
    } else if (!first_error.empty()) {
      try {
        (void)api::register_circuit_file(file);
        FAIL() << "expected rejection";
      } catch (const std::runtime_error& e) {
        EXPECT_NE(std::string(e.what()).find("[" + first_error + "]"),
                  std::string::npos)
            << e.what();
      }
    } else {
      // Warning-only (or clean): registers fine, warnings on stderr.
      EXPECT_NO_THROW((void)api::register_circuit_file(file));
    }
  }
}

// --- hand-built descriptions: graph-walk unit tests ------------------------

namespace {

// Smallest analyzable core: one net "a" tied to ground through a vsource
// and an NMOS diode, one produced+consumed metric over an ac bench.
std::string base_gcir() {
  return "circuit hand\n"
         "net a\n"
         "vsource VIN a 0 dc=1 ac=1\n"
         "nmos M1 a a 0 0 w=1u l=lmin m=1\n"
         "metric g unit=x weight=1\n"
         "bench b\n"
         "ac b 1k 1M 3\n"
         "extract g dc_gain bench=b probe=a\n";
}

circuit::CircuitDescription base_desc() {
  return circuit::parse_gcir(base_gcir(), "<hand>");
}

}  // namespace

TEST(AnalyzeUnit, CleanBaseHasNoDiagnostics) {
  const std::vector<circuit::Diagnostic> diags =
      circuit::analyze_circuit(base_desc(), tech180());
  EXPECT_TRUE(diags.empty()) << circuit::format_diagnostics(diags);
  EXPECT_FALSE(circuit::has_errors(diags));
}

TEST(AnalyzeUnit, MosChannelConductsGateDoesNot) {
  // d/s tie a net to ground at DC; a gate-only net does not.
  auto diags = analyze_text(
      "circuit hand\n"
      "net a gate\n"
      "vsource VIN a 0 dc=1 ac=1\n"
      "nmos M1 a gate 0 0 w=1u l=lmin m=1\n"
      "capacitor C1 gate 0 c=1p\n"
      "metric g unit=x weight=1\n"
      "bench b\n"
      "ac b 1k 1M 3\n"
      "extract g dc_gain bench=b probe=a\n");
  EXPECT_TRUE(has_check(diags, "connectivity.no-dc-path"));
  // Grounding the gate through a resistor clears it.
  diags = analyze_text(
      "circuit hand\n"
      "net a gate\n"
      "vsource VIN a 0 dc=1 ac=1\n"
      "nmos M1 a gate 0 0 w=1u l=lmin m=1\n"
      "resistor RB gate 0 r=1M\n"
      "metric g unit=x weight=1\n"
      "bench b\n"
      "ac b 1k 1M 3\n"
      "extract g dc_gain bench=b probe=a\n");
  EXPECT_TRUE(diags.empty()) << circuit::format_diagnostics(diags);
}

TEST(AnalyzeUnit, ShortedVsourceIsALoop) {
  const auto diags = analyze_text(
      "circuit hand\n"
      "net a\n"
      "vsource VIN a 0 dc=1 ac=1\n"
      "vsource VX a a dc=0\n"
      "nmos M1 a a 0 0 w=1u l=lmin m=1\n"
      "metric g unit=x weight=1\n"
      "bench b\n"
      "ac b 1k 1M 3\n"
      "extract g dc_gain bench=b probe=a\n");
  EXPECT_TRUE(has_check(diags, "singular.vsource-loop"));
  EXPECT_TRUE(circuit::has_errors(diags));
}

TEST(AnalyzeUnit, VsourceChainThroughResistorIsFine) {
  // V-R-V between two grounded nets is solvable, not a V-loop.
  const auto diags = analyze_text(
      "circuit hand\n"
      "net a c\n"
      "vsource VIN a 0 dc=1 ac=1\n"
      "vsource V2 c 0 dc=2\n"
      "resistor R1 a c r=1k\n"
      "nmos M1 a a 0 0 w=1u l=lmin m=1\n"
      "metric g unit=x weight=1\n"
      "bench b\n"
      "ac b 1k 1M 3\n"
      "extract g dc_gain bench=b probe=a\n");
  EXPECT_FALSE(has_check(diags, "singular.vsource-loop"));
}

TEST(AnalyzeUnit, IsourceWithResistiveReturnIsFine) {
  const auto diags = analyze_text(
      "circuit hand\n"
      "net a x\n"
      "vsource VIN a 0 dc=1 ac=1\n"
      "isource I1 x 0 dc=1u\n"
      "resistor R1 x 0 r=1k\n"
      "nmos M1 a a 0 0 w=1u l=lmin m=1\n"
      "metric g unit=x weight=1\n"
      "bench b\n"
      "ac b 1k 1M 3\n"
      "extract g dc_gain bench=b probe=a\n");
  EXPECT_FALSE(has_check(diags, "singular.isource-cutset"));
  EXPECT_FALSE(has_check(diags, "connectivity.no-dc-path"));
}

TEST(AnalyzeUnit, UnknownNetOnHandBuiltDevice) {
  circuit::CircuitDescription d = base_desc();
  d.devices[0].nodes[1] = "ghost";  // gate onto an undeclared net
  const auto diags = circuit::analyze_circuit(d, tech180());
  EXPECT_TRUE(has_check(diags, "connectivity.unknown-net"));
  EXPECT_TRUE(circuit::has_errors(diags));
}

TEST(AnalyzeUnit, BadTerminalCount) {
  circuit::CircuitDescription d = base_desc();
  d.devices[0].nodes.pop_back();  // MOS with 3 terminals
  const auto diags = circuit::analyze_circuit(d, tech180());
  EXPECT_TRUE(has_check(diags, "connectivity.bad-terminals"));
}

TEST(AnalyzeUnit, SizingUnknownComp) {
  circuit::CircuitDescription d = base_desc();
  circuit::BoundDesc b;
  b.comp = "QX";  // no such component
  b.param = 0;
  b.value = circuit::Expr::parse("1u");
  b.line = 99;
  d.bounds.push_back(b);
  auto diags = circuit::analyze_circuit(d, tech180());
  EXPECT_TRUE(has_check(diags, "sizing.unknown-comp"));

  d = base_desc();
  b.comp = "M1";
  b.param = 7;  // no such parameter
  d.bounds.push_back(b);
  diags = circuit::analyze_circuit(d, tech180());
  EXPECT_TRUE(has_check(diags, "sizing.unknown-comp"));
}

TEST(AnalyzeUnit, PlanUnknownRefs) {
  // Unknown bench on a hand-edited extract.
  circuit::CircuitDescription d = base_desc();
  d.extracts[0].bench = "nope";
  EXPECT_TRUE(has_check(circuit::analyze_circuit(d, tech180()),
                        "plan.unknown-ref"));
  // Unknown source in a bench set.
  d = base_desc();
  circuit::SourceSetDesc set;
  set.source = "nosrc";
  d.benches[0].sets.push_back(set);
  EXPECT_TRUE(has_check(circuit::analyze_circuit(d, tech180()),
                        "plan.unknown-ref"));
  // Self-referential warm start.
  d = base_desc();
  d.benches[0].warm_from = "b";
  EXPECT_TRUE(has_check(circuit::analyze_circuit(d, tech180()),
                        "plan.unknown-ref"));
}

TEST(AnalyzeUnit, ExtractRequiresAnalysis) {
  // dc_gain against a bench whose ac sweep was removed.
  circuit::CircuitDescription d = base_desc();
  d.benches[0].ac.reset();
  EXPECT_TRUE(has_check(circuit::analyze_circuit(d, tech180()),
                        "plan.extract-requires"));
}

TEST(AnalyzeUnit, PlanExpressionsCountAsUses) {
  // A bench read only through v()/i(), a temp value read by an
  // expression, a probe on a net the bench adds, and a spot AC point: all
  // clean.
  auto diags = analyze_text(base_gcir() +
                            "bench op\n"
                            "bench spot\n"
                            "add spot net x\n"
                            "add spot vsource VX x 0 dc=v(op,a) ac=1\n"
                            "ac spot 1k 1k 1\n"
                            "extract h dc_gain bench=spot probe=x temp\n"
                            "extract g2 expr=h*i(op,VIN)\n"
                            "metric g2 unit=x weight=1\n");
  EXPECT_TRUE(diags.empty()) << circuit::format_diagnostics(diags);
  // A temp value nothing reads is unconsumed, and a FoM metric only a temp
  // extraction produces is unproduced.
  diags = analyze_text(base_gcir() +
                       "extract h dc_gain bench=b probe=a temp\n"
                       "metric h unit=x weight=1\n");
  EXPECT_TRUE(has_check(diags, "plan.metric-unconsumed"));
  EXPECT_TRUE(has_check(diags, "plan.metric-unproduced"));
  // One point needs fmin == fmax.
  diags = analyze_text(base_gcir() + "bench s\nac s 1k 2k 1\n"
                       "extract s1 dc_gain bench=s probe=a\n"
                       "metric s1 unit=x weight=1\n");
  EXPECT_TRUE(has_check(diags, "plan.ac-sweep"));
}

TEST(AnalyzeUnit, AllowSuppressesWarningsButNeverErrors) {
  // Warning suppressed by pragma.
  auto diags = analyze_text(base_gcir() +
                            "net spare\n"
                            "#lint: allow connectivity.unused-net\n");
  EXPECT_TRUE(diags.empty()) << circuit::format_diagnostics(diags);
  // Errors are not suppressible; the allow itself is flagged unused.
  diags = analyze_text(base_gcir() +
                       "vsource V2 a 0 dc=1\n"
                       "#lint: allow singular.vsource-loop\n");
  EXPECT_TRUE(has_check(diags, "singular.vsource-loop"));
  EXPECT_TRUE(has_check(diags, "lint.unused-allow"));
}

TEST(AnalyzeUnit, DiagnosticFormatIsCompilerStyle) {
  circuit::Diagnostic d;
  d.severity = circuit::Severity::Warning;
  d.check = "plan.bench-unused";
  d.message = "bench \"x\" is simulated but nothing extracts from it";
  d.origin = "foo.gcir";
  d.line = 12;
  d.col = 3;
  EXPECT_EQ(d.format(),
            "foo.gcir:12:3: warning: bench \"x\" is simulated but nothing "
            "extracts from it [plan.bench-unused]");
}
