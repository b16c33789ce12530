// Resolved measurement plans: the runnable form of a .gcir description's
// testbenches and extractions.
//
// A Plan is fully resolved — node ids instead of net names, bench and
// extraction indices instead of names, doubles wherever the value does not
// depend on the design — and is built once per (description, technology)
// by env::compile_circuit(). run_plan() is the interpreter and the body of
// a compiled circuit's `evaluate` closure.
//
// Concurrency contract (env::BenchmarkCircuit::evaluate): run_plan is a
// pure function of (plan, sized netlist, technology). It constructs its
// Simulators locally — one per bench, in bench order — and touches no
// shared mutable state, so a closure capturing an immutable Plan by
// shared_ptr satisfies the contract.
#pragma once

#include <cmath>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "circuit/description.hpp"
#include "circuit/netlist.hpp"
#include "circuit/tech.hpp"
#include "meas/ac_metrics.hpp"
#include "meas/tran_metrics.hpp"
#include "sim/simulator.hpp"

namespace gcnrl::meas {

using MetricMap = std::map<std::string, double>;

// --- curve extraction helpers ----------------------------------------------

// Single-ended transfer curve at `node`.
inline AcCurve curve_at(const sim::AcResult& ac, int node) {
  AcCurve c;
  c.freq = ac.freq;
  c.h.reserve(ac.freq.size());
  for (std::size_t i = 0; i < ac.freq.size(); ++i) {
    c.h.push_back(ac.phasor(static_cast<int>(i), node));
  }
  return c;
}

// Differential transfer curve between nodes p and n.
inline AcCurve curve_diff(const sim::AcResult& ac, int p, int n) {
  AcCurve c;
  c.freq = ac.freq;
  c.h.reserve(ac.freq.size());
  for (std::size_t i = 0; i < ac.freq.size(); ++i) {
    c.h.push_back(ac.diff(static_cast<int>(i), p, n));
  }
  return c;
}

// Transient node waveform extraction.
inline TranCurve tran_curve(const sim::TranResult& tr, int node) {
  TranCurve c;
  c.t = tr.t;
  c.v.reserve(tr.t.size());
  for (std::size_t i = 0; i < tr.t.size(); ++i) {
    c.v.push_back(tr.at(static_cast<int>(i), node));
  }
  return c;
}

// Sub-curve restricted to [t0, t1].
inline TranCurve window(const TranCurve& c, double t0, double t1) {
  TranCurve w;
  for (std::size_t i = 0; i < c.t.size(); ++i) {
    if (c.t[i] >= t0 && c.t[i] <= t1) {
      w.t.push_back(c.t[i]);
      w.v.push_back(c.v[i]);
    }
  }
  return w;
}

// Input-referred spot noise density at frequency f: sqrt(Sout / |H(f)|^2).
inline double input_referred_noise(const sim::NoiseResult& nr,
                                   const AcCurve& h, double f) {
  // Locate the PSD sample nearest to f (noise grids are small).
  std::size_t best = 0;
  for (std::size_t i = 1; i < nr.freq.size(); ++i) {
    if (std::fabs(std::log(nr.freq[i] / f)) <
        std::fabs(std::log(nr.freq[best] / f))) {
      best = i;
    }
  }
  const double gain = magnitude_at(h, nr.freq[best]);
  if (gain <= 0.0) return 1.0;  // degenerate design: huge noise
  return std::sqrt(nr.out_psd[best]) / gain;
}

// --- the resolved plan -------------------------------------------------------

// A run-time input of a Scalar, resolved to indices.
struct InputPlan {
  circuit::ExprRef::Kind kind = circuit::ExprRef::Kind::Metric;
  int bench = -1;      // NodeVoltage, SourceCurrent
  int node = 0;        // NodeVoltage: node id in the bench's netlist
  std::string source;  // SourceCurrent: voltage source name
  int comp = -1;       // Param: design component index
  int slot = 0;        // Param: parameter slot (0 = w/r/c, 1 = l, 2 = m)
  int extract = -1;    // Metric: index into Plan::extracts
};

// A number a plan step needs: an Expr plus its resolved run-time inputs
// (none for a constant).
struct Scalar {
  circuit::Expr expr;
  std::vector<InputPlan> inputs;  // one per expr.refs() entry
};

// Per-bench source edit, applied to a copy of the sized netlist.
struct SourceOverride {
  bool is_vsource = true;
  std::string name;
  std::optional<double> dc;
  std::optional<double> ac;
  std::optional<circuit::Pwl> pwl;
};

// A net (empty `source`) or a source appended to a bench's copy.
struct BenchAddition {
  std::string net;
  std::string source;
  bool is_vsource = true;
  int p = 0, n = 0;  // node ids in the bench's netlist
  Scalar dc, ac;
  circuit::Pwl pwl;
};

// One testbench: one Simulator over the (possibly edited) sized netlist.
// Analyses run in the fixed order ac -> noise -> tran; all derive from the
// bench's single cached DC operating point, which is solved when first
// needed.
struct BenchPlan {
  std::string name;
  std::vector<SourceOverride> sets;
  std::vector<BenchAddition> adds;                 // in file order
  std::vector<std::pair<std::string, int>> gates;  // MOSFET -> gate node
  std::optional<std::vector<double>> ac_freqs;
  std::optional<std::vector<double>> noise_freqs;
  int noise_p = 0, noise_n = 0;
  std::optional<sim::TranOptions> tran;
  int warm_from = -1;  // earlier bench whose op() seeds this DC solve
};

struct ExtractPlan {
  std::string metric;  // MetricMap key produced
  circuit::ExtractFn fn = circuit::ExtractFn::DcGain;
  int bench = -1;
  int probe_p = -1;  // node id; -1 = no probe (SupplyPower)
  int probe_n = -1;  // node id; -1 = single-ended probe
  double at_freq = 0.0;                              // InputNoise
  double win_t0 = 0.0, win_t1 = 0.0;                 // SettlingTime
  double edge = 0.0, tol = 0.0;                      // SettlingTime
  std::optional<Scalar> scale;                       // PhaseMargin
  int over_p = -1, over_n = -1;                      // PhaseMargin divisor
  Scalar value;                                      // Expression
  bool temp = false;  // read by later expressions, left out of the map
};

struct GuardPlan {
  Scalar value;
  std::optional<Scalar> min, max;
  std::string message;
};

// One entry of the execution order.
struct PlanStep {
  enum class Kind { Bench, Extract, Guard };
  Kind kind = Kind::Bench;
  int index = 0;  // into benches, extracts or guards
};

struct Plan {
  std::vector<BenchPlan> benches;
  std::vector<ExtractPlan> extracts;
  std::vector<GuardPlan> guards;
  // Benches in declaration order. Each extraction runs right after the
  // last bench it reads, guards run where they are declared, both in file
  // order. A bench's analysis results are dropped after the last step
  // that measures them (`last_result_use`), its simulator and operating
  // point after the last step that reads the bench at all (`last_use`).
  std::vector<PlanStep> steps;
  std::vector<int> last_result_use;
  std::vector<int> last_use;
};

// Runs the plan's steps against a sized netlist and returns the metric
// map. Throws sim::SimError when an analysis fails or a guard trips.
MetricMap run_plan(const Plan& plan, const circuit::Netlist& sized,
                   const circuit::Technology& tech);

}  // namespace gcnrl::meas
