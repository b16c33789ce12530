// Simulator facade: the drop-in for Spectre/Hspice in the sizing loop.
//
// One Simulator instance wraps a *sized* netlist plus a technology node;
// analyses are lazily driven off the (cached) DC operating point. Circuit
// builders construct one Simulator per analysis configuration (closed
// loop, open loop, loop-gain injection, ...) because the configurations
// differ structurally, exactly as separate testbenches would in a real
// flow.
//
// DC warm starts come only from the design under evaluation, so a result
// stays a pure function of the design: warm_start_from(op) takes an
// explicit guess from the caller, typically the solved operating point of
// a sibling testbench, and op_at_time_zero() starts from op() once that
// is solved. Newton tries the guess directly at the target gmin and falls
// back to the unchanged cold ladder on non-convergence, so a bad guess can
// cost iterations but never a different failure behavior.
#pragma once

#include <optional>

#include "sim/ac.hpp"
#include "sim/dc.hpp"
#include "sim/noise.hpp"
#include "sim/tran.hpp"

namespace gcnrl::sim {

class Simulator {
 public:
  Simulator(const circuit::Netlist& nl, const circuit::Technology& tech);

  // Supplies an explicit DC initial guess (projected onto this netlist's
  // unknowns). Call before the first analysis; no effect once op() has
  // been solved.
  void warm_start_from(const OpPoint& guess);

  // DC operating point (computed once, cached). Throws SimError.
  const OpPoint& op();
  // Re-solve with transient sources evaluated at t=0 (for tran ICs);
  // computed once and cached like op(). Warm-started from op() when that
  // is already solved — the t=0 point differs only through PWL sources.
  const OpPoint& op_at_time_zero();

  // Diagnostics of the most recent op()/op_at_time_zero() DC solve.
  [[nodiscard]] const DcStats& dc_stats() const { return dc_stats_; }

  AcResult ac(const std::vector<double>& freqs);
  NoiseResult noise(const std::vector<double>& freqs, int outp, int outn = 0);
  TranResult tran(const TranOptions& opt);

  // Power drawn from all supply-like voltage sources: sum of V * I_source
  // for sources delivering power (I out of + terminal, same sign as V).
  double supply_power();
  // Current delivered by a named voltage source (positive out of +).
  double source_current(const std::string& vsrc_name);

  [[nodiscard]] const SimContext& context() const { return ctx_; }

 private:
  SimContext ctx_;
  std::optional<OpPoint> op_;
  std::optional<OpPoint> op_t0_;
  std::optional<std::vector<double>> warm_guess_;
  DcStats dc_stats_;
};

}  // namespace gcnrl::sim
