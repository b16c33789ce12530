// Synthetic scalable technology library.
//
// The paper ports designs across commercial 250/180/130/65/45 nm nodes; we
// substitute a first-order-physics node family (see README
// "Substitutions"). Each node carries exactly the model parameters the
// paper exposes to the RL state vector (Vsat, Vth0, Vfb, mu0, Uc) plus the
// quantities the simulator needs (Cox, lambda, caps, noise coefficients,
// supply, geometry limits).
#pragma once

#include <array>
#include <string>
#include <vector>

#include "circuit/netlist.hpp"

namespace gcnrl::circuit {

struct Technology {
  std::string name;   // "180nm" etc.
  double lnode;       // feature size [m]
  double vdd;         // nominal supply [V]

  // Geometry limits and quantization for W/L/M.
  double lmin, lmax;  // [m]
  double wmin, wmax;  // [m]
  double grid;        // W/L rounding grid [m]
  int mmax;           // max multiplier

  // Device physics (NMOS / PMOS where split).
  double cox;         // gate capacitance per area [F/m^2]
  double vth0_n, vth0_p;  // threshold magnitude [V]
  double mu0_n, mu0_p;    // low-field mobility [m^2/Vs]
  double vsat;        // saturation velocity [m/s]
  double uc;          // mobility degradation [1/V]
  double vfb;         // flat-band voltage [V] (state feature only)
  double lambda_um;   // CLM: lambda = lambda_um / (L in um)  [1/V]
  double cov;         // gate overlap cap per width [F/m]
  double cj;          // junction cap per width [F/m]
  double kf;          // flicker-noise coefficient [C^2/m^2] (per device)

  // Passive component design ranges.
  double rmin, rmax;  // [ohm]
  double cmin, cmax;  // [F]

  // The 5-dimensional model-feature vector h of the paper's state
  // (Vsat, Vth0, Vfb, mu0, Uc), scaled to O(1); zeros for R and C.
  [[nodiscard]] std::array<double, 5> model_features(Kind kind) const;
};

// Supported node names: "250nm", "180nm", "130nm", "65nm", "45nm".
Technology make_technology(const std::string& node);
std::vector<std::string> available_nodes();

}  // namespace gcnrl::circuit
