// Resolved measurement plans: the runnable form of a .gcir description's
// testbenches and extractions.
//
// A Plan is fully resolved — node ids instead of net names, doubles
// instead of Exprs, bench indices instead of bench names — and is built
// once per (description, technology) by env::compile_circuit(). run_plan()
// is the interpreter: it plays the plan against a *sized* netlist exactly
// the way the hand-written builders in src/circuits/ run their analyses,
// and is the body of a compiled circuit's `evaluate` closure.
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
// (Shared with the hand-written builders; circuits/helpers.hpp re-exports
// them under gcnrl::circuits::detail.)

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

// Per-bench source edit, applied to a copy of the sized netlist (the .gcir
// twin of `nl.find_vsource("VDD")->ac = 1.0` in a builder).
struct SourceOverride {
  bool is_vsource = true;
  std::string name;
  std::optional<double> dc;
  std::optional<double> ac;
  std::optional<circuit::Pwl> pwl;
};

// One testbench: one Simulator over the (possibly edited) sized netlist.
// Analyses run in the fixed order ac -> noise -> tran; all derive from the
// bench's single cached DC operating point, so this order is numerically
// interchangeable with any builder's.
struct BenchPlan {
  std::string name;
  std::vector<SourceOverride> sets;
  std::optional<std::vector<double>> ac_freqs;
  std::optional<std::vector<double>> noise_freqs;
  int noise_p = 0, noise_n = 0;
  std::optional<sim::TranOptions> tran;
  int warm_from = -1;  // earlier bench whose op() seeds this DC solve
};

struct ExtractPlan {
  std::string metric;  // MetricMap key produced
  circuit::ExtractFn fn = circuit::ExtractFn::DcGain;
  int bench = 0;
  int probe_p = -1;  // node id; -1 = no probe (SupplyPower)
  int probe_n = -1;  // node id; -1 = single-ended probe
  double at_freq = 0.0;                              // InputNoise
  double win_t0 = 0.0, win_t1 = 0.0;                 // SettlingTime
  double edge = 0.0, tol = 0.0;                      // SettlingTime
};

struct Plan {
  std::vector<BenchPlan> benches;
  std::vector<ExtractPlan> extracts;
};

// Runs every bench (simulations) then every extraction (pure math) and
// returns the metric map. Throws sim::SimError when an analysis fails.
MetricMap run_plan(const Plan& plan, const circuit::Netlist& sized,
                   const circuit::Technology& tech);

}  // namespace gcnrl::meas
