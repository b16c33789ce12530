// Small-signal noise analysis via the adjoint method.
//
// At each frequency the AC matrix Y is factored once and the transposed
// system Y^T y = e_out is solved, where e_out selects the (differential)
// output. The transfer from a unit noise current injected between nodes
// (a, b) to the output is then just y_a - y_b, so every device's
// contribution costs O(1) after one adjoint solve. Output PSD is the sum
// of |transfer|^2 * source PSD over all thermal and flicker sources.
// solve_noise runs on the AC analysis' sweep (sim/ac.cpp) with a
// transposed solve.
#pragma once

#include "sim/mna.hpp"

namespace gcnrl::sim {

struct NoiseResult {
  std::vector<double> freq;     // [Hz]
  std::vector<double> out_psd;  // output voltage PSD [V^2/Hz]
};

// outp/outn: output nodes (outn may be ground). Noise sources: every
// resistor (thermal) and every MOSFET (thermal + flicker).
NoiseResult solve_noise(const SimContext& ctx, const OpPoint& op,
                        const std::vector<double>& freqs, int outp, int outn);

}  // namespace gcnrl::sim
