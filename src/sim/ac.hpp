// Small-signal AC analysis.
//
// Linearizes every MOSFET at the DC operating point (gm VCCS, gds, and the
// four capacitances) and solves the complex MNA system Y(w) x = rhs at
// each frequency, where rhs carries the `ac` magnitudes of the independent
// sources. Results are node-voltage phasors per frequency.
#pragma once

#include <complex>
#include <string>

#include "sim/mna.hpp"

namespace gcnrl::sim {

struct AcResult {
  std::vector<double> freq;  // [Hz]
  la::CMat v;                // freq.size() x num_nodes node phasors

  [[nodiscard]] std::complex<double> phasor(int f_index, int node) const {
    return v(f_index, node);
  }
  // Differential phasor between two nodes.
  [[nodiscard]] std::complex<double> diff(int f_index, int p, int n) const {
    return v(f_index, p) - v(f_index, n);
  }
};

// Frequency-independent split of the small-signal MNA system:
//   Y(omega) = G + j*omega*C
// G carries everything resistive (resistor conductances, gm/gds stamps,
// voltage-source branch rows, the regularization shunt); C carries every
// capacitance (explicit capacitors plus the four MOS caps). Both are
// built once per operating point by a single netlist walk, and each
// sweep/noise frequency assembles Y by scaled addition instead of
// re-walking the netlist.
struct AcStamps {
  la::Mat g;  // conductance matrix, frequency-independent
  la::Mat c;  // capacitance matrix; contributes j*omega*c per entry
};

AcStamps build_ac_stamps(const SimContext& ctx, const OpPoint& op);

// Y(omega) = G + j*omega*C from a prebuilt split.
la::CMat assemble_ac_matrix(const AcStamps& stamps, double omega);

// Frequencies span mHz to tens of GHz; fixed-notation std::to_string
// renders both "0.000001" and huge digit strings. The AC and noise
// diagnostics print frequencies in scientific notation instead ("%.6e").
std::string format_freq(double f);

AcResult solve_ac(const SimContext& ctx, const OpPoint& op,
                  const std::vector<double>& freqs);

}  // namespace gcnrl::sim
