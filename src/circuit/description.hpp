// Textual circuit descriptions: the parsed, unresolved form of a .gcir
// file (see gcir.hpp for the format and parser).
//
// A CircuitDescription is pure data — names, expressions, declaration
// order — with no dependency on the simulator or a concrete technology
// node. Numeric fields are circuit::Expr so one description ports across
// nodes ("l=2*lmin"); nothing is evaluated until env::compile_circuit()
// binds the description to a Technology and produces a runnable
// env::BenchmarkCircuit.
//
// Declaration order is load-bearing and preserved everywhere:
//   * nets in declaration order define the node-id assignment (and so the
//     MNA unknown ordering);
//   * elements (sources and devices interleaved, in file order) define
//     both element insertion order and the design-component/graph-vertex
//     order;
//   * metrics, match groups and plan entries keep file order.
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "circuit/expr.hpp"
#include "circuit/netlist.hpp"

namespace gcnrl::circuit {

// A designable (or fixed) device: NMOS/PMOS (nodes d g s b; params w l m)
// or R/C (nodes a b; params[0] = r or c).
struct DeviceDesc {
  Kind kind = Kind::Nmos;
  std::string name;
  std::vector<std::string> nodes;      // 4 for MOS, 2 for R/C
  std::array<Expr, kMaxActionDim> params;
  bool designable = true;
  int line = 0;
  int col = 1;
};

// Independent V/I source with optional AC magnitude and PWL waveform.
struct SourceDesc {
  bool is_vsource = true;
  std::string name;
  std::string p, n;
  Expr dc;
  Expr ac;                                   // empty = 0
  std::vector<std::pair<Expr, Expr>> pwl;    // (time, value) pairs
  int line = 0;
  int col = 1;
};

// File-order element sequence: index into `devices` or `sources`.
struct ElementRef {
  bool is_source = false;
  int index = 0;
};

struct NetDesc {
  std::string name;
  bool supply = false;
  int line = 0;
  int col = 1;
};

// Search-range override: `bound T6 w.hi=wmax` tightens/widens one side of
// one parameter's default range from DesignSpace::from_netlist.
struct BoundDesc {
  std::string comp;
  int param = 0;      // 0 = w/r/c, 1 = l, 2 = m
  bool hi = true;     // which side of the range
  Expr value;
  int line = 0;
  int col = 1;
};

struct MatchDesc {
  std::vector<std::string> comps;
  bool l_only = false;
  int line = 0;
  int col = 1;
};

// One row of the FoM metric table (env::MetricDef with Expr bounds).
struct MetricDesc {
  std::string name;
  std::string unit;
  double weight = 1.0;
  std::optional<Expr> bound;
  std::optional<Expr> spec_min;
  std::optional<Expr> spec_max;
  bool log_norm = false;
  int line = 0;
  int col = 1;
};

// Human-expert sizing for one component (3 values for MOS, 1 for R/C).
struct ExpertDesc {
  std::string comp;
  std::vector<Expr> values;
  int line = 0;
  int col = 1;
};

// --- declarative measurement plan (unresolved) -----------------------------

// Per-bench source override (`set BENCH SOURCE ...`), e.g. AC on the
// supply for a PSRR bench.
struct SourceSetDesc {
  std::string source;
  std::optional<Expr> dc;
  std::optional<Expr> ac;
  std::optional<std::vector<std::pair<Expr, Expr>>> pwl;
  int line = 0;
  int col = 1;
};

// Per-bench gate move (`set BENCH MOS g=NET`): the MOSFET's gate is
// rewired to NET in the bench's copy only, e.g. to break a loop.
struct GateMoveDesc {
  std::string mos;
  std::string net;
  int line = 0;
  int col = 1;
};

// A net or a source appended to one bench's copy of the sized netlist
// (`add BENCH net NET` / `add BENCH vsource|isource ...`). Additions keep
// file order, which fixes the bench's node and MNA unknown order.
struct BenchAddDesc {
  std::string net;                   // an added net, or
  std::optional<SourceDesc> source;  // an added source
  int line = 0;
  int col = 1;
};

struct AcSweepDesc {
  Expr fmin, fmax;
  int npoints = 0;
  int line = 0;
  int col = 1;
};

struct NoiseDesc {
  std::vector<Expr> freqs;
  std::string out_p;
  std::string out_n;  // empty = ground
  int line = 0;
  int col = 1;
};

struct TranDesc {
  Expr tstop, dt;
  int line = 0;
  int col = 1;
};

// One testbench: a (possibly edited) copy of the sized netlist driven
// through one Simulator. Analyses run in the fixed order ac -> noise ->
// tran (each at most once per bench); the DC operating point is solved
// when an analysis or a run-time input first needs it.
struct BenchDesc {
  std::string name;
  std::vector<SourceSetDesc> sets;
  std::vector<GateMoveDesc> gates;
  std::vector<BenchAddDesc> adds;
  std::optional<AcSweepDesc> ac;
  std::optional<NoiseDesc> noise;
  std::optional<TranDesc> tran;
  std::string warm_from;  // earlier bench whose DC op seeds this one
  int line = 0;
  int col = 1;
};

// Measurement vocabulary (meas::run_plan implements each of these).
enum class ExtractFn {
  SupplyPower,   // sim supply power (no probe)
  DcGain,        // meas::dc_gain of the probe's AC curve
  Bandwidth3db,  // meas::bandwidth_3db
  PeakingDb,     // meas::peaking_db
  Gbw,           // meas::gbw (= dc_gain * bandwidth_3db)
  InputNoise,    // input-referred spot noise at `at_freq`
  SettlingTime,  // settling after `edge` within [win_t0, win_t1], tol `tol`
  PhaseMargin,   // meas::phase_margin_deg of probe * scale [/ over]
  Expression,    // `value`, a run-time expression (no bench)
};

// Extractions that measure the probe's curve of the bench's AC sweep.
constexpr bool reads_ac(ExtractFn fn) {
  return fn == ExtractFn::DcGain || fn == ExtractFn::Bandwidth3db ||
         fn == ExtractFn::PeakingDb || fn == ExtractFn::Gbw ||
         fn == ExtractFn::InputNoise || fn == ExtractFn::PhaseMargin;
}

struct ExtractDesc {
  std::string metric;  // MetricMap key this extraction produces
  ExtractFn fn = ExtractFn::DcGain;
  std::string bench;
  std::string probe_p;  // AC/tran probe node ("" = none)
  std::string probe_n;  // non-empty = differential probe
  std::optional<Expr> at_freq;                  // InputNoise
  std::optional<Expr> win_t0, win_t1, edge, tol;  // SettlingTime
  std::optional<Expr> scale;                      // PhaseMargin
  std::string over_p, over_n;                     // PhaseMargin divisor
  std::optional<Expr> value;                      // Expression
  bool temp = false;  // plan-internal: later expressions read it, the
                      // metric map does not carry it
  int line = 0;
  int col = 1;
};

// A design check between benches: when `value` leaves [min, max] the
// evaluation throws sim::SimError(message), so no later bench runs.
struct GuardDesc {
  Expr value;
  std::optional<Expr> min, max;
  std::string message;
  int after = 0;  // the number of benches declared before the guard
  int line = 0;
  int col = 1;
};

// --- the description -------------------------------------------------------

// Warning suppression, from a "#lint: allow CHECK-ID" pragma line. Only
// warnings are suppressible; circuit::analyze_circuit ignores allows that
// name error-severity checks (see analyze.hpp).
struct LintAllowDesc {
  std::string check;
  int line = 0;
  int col = 1;
};

struct CircuitDescription {
  std::string name;
  std::string origin;               // diagnostic source label ("<string>",
                                    // or the .gcir path it was loaded from)
  int name_line = 1;                // position of the "circuit" directive
  int name_col = 1;
  std::vector<NetDesc> nets;        // declaration order = node-id order
  std::vector<DeviceDesc> devices;
  std::vector<SourceDesc> sources;
  std::vector<ElementRef> element_order;
  std::vector<BoundDesc> bounds;
  std::vector<MatchDesc> matches;
  std::vector<MetricDesc> metrics;
  std::vector<ExpertDesc> expert;
  std::vector<BenchDesc> benches;
  std::vector<ExtractDesc> extracts;
  std::vector<GuardDesc> guards;
  std::vector<LintAllowDesc> lint_allows;
};

}  // namespace gcnrl::circuit
