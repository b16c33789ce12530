#include "sim/simulator.hpp"

#include <cmath>

namespace gcnrl::sim {

Simulator::Simulator(const circuit::Netlist& nl,
                     const circuit::Technology& tech)
    : ctx_(nl, tech) {}

void Simulator::warm_start_from(const OpPoint& guess) {
  if (op_.has_value()) return;
  warm_guess_ = project_op(guess, ctx_.map);
}

const OpPoint& Simulator::op() {
  if (op_.has_value()) return *op_;
  op_ = solve_dc(ctx_, DcOptions{}, warm_guess_ ? &*warm_guess_ : nullptr,
                 &dc_stats_);
  return *op_;
}

const OpPoint& Simulator::op_at_time_zero() {
  if (op_t0_.has_value()) return *op_t0_;
  DcOptions opt;
  opt.source_time = 0.0;
  std::optional<std::vector<double>> guess;
  if (op_.has_value()) {
    guess = project_op(*op_, ctx_.map);
  } else if (warm_guess_) {
    guess = warm_guess_;
  }
  op_t0_ = solve_dc(ctx_, opt, guess ? &*guess : nullptr, &dc_stats_);
  return *op_t0_;
}

AcResult Simulator::ac(const std::vector<double>& freqs) {
  return solve_ac(ctx_, op(), freqs);
}

NoiseResult Simulator::noise(const std::vector<double>& freqs, int outp,
                             int outn) {
  return solve_noise(ctx_, op(), freqs, outp, outn);
}

TranResult Simulator::tran(const TranOptions& opt) {
  const OpPoint& ic = op_at_time_zero();
  return solve_tran(ctx_, ic, opt);
}

double Simulator::supply_power() {
  const OpPoint& o = op();
  double p = 0.0;
  for (std::size_t k = 0; k < ctx_.nl.vsources().size(); ++k) {
    const auto& src = ctx_.nl.vsources()[k];
    const double delivered = src.dc * o.source_current(static_cast<int>(k));
    if (delivered > 0.0) p += delivered;
  }
  return p;
}

double Simulator::source_current(const std::string& vsrc_name) {
  const OpPoint& o = op();
  for (std::size_t k = 0; k < ctx_.nl.vsources().size(); ++k) {
    if (ctx_.nl.vsources()[k].name == vsrc_name) {
      return o.source_current(static_cast<int>(k));
    }
  }
  throw SimError("unknown voltage source: " + vsrc_name);
}

}  // namespace gcnrl::sim
