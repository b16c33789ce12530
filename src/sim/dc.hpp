// Nonlinear DC operating-point solver.
//
// Newton-Raphson on the MNA residual with three robustness layers that the
// random-sizing workload genuinely needs (the optimizers routinely ask for
// pathological geometries):
//   * gmin stepping — solve with a large shunt conductance on every node
//     and relax it geometrically to the target;
//   * per-iteration voltage-step damping;
//   * source stepping fallback — ramp all independent sources from 0.
// Throws SimError if every strategy fails; the environment maps that to a
// large negative FoM (a failed design), mirroring how a real flow treats
// non-convergent corners.
#pragma once

#include "sim/mna.hpp"

namespace gcnrl::sim {

struct DcOptions {
  int max_iter = 120;
  double gmin = 1e-12;     // final shunt conductance to ground
  double tol_residual = 1e-9;   // max KCL residual [A]
  // Voltage-step tolerance. Kept well above the finite-difference
  // granularity of the device-model Jacobian: an exactly-satisfied KCL
  // residual can coexist with a uV-scale dx limit cycle, and 20 uV is
  // orders of magnitude below anything the measurements resolve.
  double tol_step = 2e-5;  // max voltage update [V]
  double step_limit = 0.5; // Newton damping: max |dv| per iteration [V]
  // Evaluate transient sources at this time instead of their DC value
  // (used to get the t=0 initial condition of a transient run).
  double source_time = -1.0;  // < 0: use dc fields
  // Iteration budget for the direct-from-warm-start Newton attempt. Kept
  // below max_iter: a good guess converges in a handful of iterations,
  // and a bad one should hand over to the robust ladder quickly instead
  // of burning the full budget on a doomed descent.
  int warm_max_iter = 40;
};

// Per-solve diagnostics, filled when a non-null pointer is passed.
struct DcStats {
  int newton_iters = 0;   // Newton iterations summed over all attempts
  bool warm_attempted = false;  // a warm-start guess was supplied and tried
  bool warm_converged = false;  // ...and Newton converged directly from it
  int strategy = 0;       // 0 = warm start, 1..3 = ladder strategy that won
};

// Solves for the DC operating point on the dense LU. `warm_start`, when
// non-null, is a full MNA unknown vector (node voltages + branch
// currents, e.g. from project_op) used as the initial guess for a direct
// Newton attempt at the target gmin; on non-convergence the solver falls
// back to the unchanged three-strategy ladder from scratch, so robustness
// is identical to a cold solve. Throws SimError if every strategy fails.
OpPoint solve_dc(const SimContext& ctx, const DcOptions& opt = {},
                 const std::vector<double>* warm_start = nullptr,
                 DcStats* stats = nullptr);

// Projects an operating point solved on one netlist onto the unknown
// vector of a (possibly structurally different) netlist: node voltages
// are copied by node id, voltage-source branch currents by source index,
// anything the source op does not cover starts at zero. Derived benches
// (the `add` lines of a .gcir plan) only ever *append* nodes and sources
// to the sized netlist, so the shared prefix lines up exactly.
std::vector<double> project_op(const OpPoint& op, const MnaMap& map);

}  // namespace gcnrl::sim
