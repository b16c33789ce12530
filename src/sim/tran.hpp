// Large-signal transient analysis (backward Euler).
//
// Backward Euler is L-stable, which matters more than second-order
// accuracy here: the LDO settling benchmarks drive the loop with abrupt
// load/line steps and we must never ring numerically. Capacitors use the
// standard companion model (G = C/h plus a history current); MOSFETs are
// re-linearized by Newton at every timestep starting from the previous
// solution, which converges in a couple of iterations along a smooth
// waveform.
//
// Step contract. Step n is a pure function of three inputs: the unknown
// vector after step n-1 (node voltages and source branch currents), the
// independent sources' values at t_n, evaluated once per step, and, on
// the sparse engine, the pivot order the LU recorded in step 1 or at its
// last re-pivot. Nothing else carries over between steps: the Jacobian,
// the residual and the LU values are rebuilt in every Newton iteration,
// and t_n enters only through the source values. So once step n ends
// bit for bit where step n-p ended (1 <= p <= 16, n-p >= 1), with one
// source vector over steps n-p+1..n and no re-pivot since step n-p, every
// following step m whose sources still equal that vector ends where step
// m-p ended. solve_tran copies those steps instead of solving them, until
// a source value changes. The results are the bits a full solve gives;
// AnalysisPerf::replayed counts the copied steps.
#pragma once

#include "sim/dc.hpp"
#include "sim/mna.hpp"

namespace gcnrl::sim {

struct TranOptions {
  double tstop = 1e-6;   // [s]
  double dt = 1e-9;      // fixed timestep [s]
  int max_newton = 60;
  double gmin = 1e-12;
  double step_limit = 1.0;  // Newton voltage damping [V]
  double tol_residual = 1e-8;
  double tol_step = 2e-5;
};

struct TranResult {
  std::vector<double> t;  // timestamps (t[0] = 0 = DC initial condition)
  la::Mat v;              // t.size() x num_nodes node voltages

  [[nodiscard]] double at(int step, int node) const { return v(step, node); }
};

// `ic` must be the operating point with sources evaluated at t=0 (use
// DcOptions::source_time = 0 when transient sources are present). Runs
// ceil(tstop / dt) steps; throws SimError, before allocating, when that
// is not a finite, non-negative int (dt = 0, for one).
TranResult solve_tran(const SimContext& ctx, const OpPoint& ic,
                      const TranOptions& opt);

}  // namespace gcnrl::sim
