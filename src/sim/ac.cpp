#include "sim/ac.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "sim/noise.hpp"
#include "sim/perf.hpp"
#include "sim/stamps.hpp"
#include "sim/structure.hpp"

namespace gcnrl::sim {
namespace {

using cd = std::complex<double>;

// Frequency-independent AC excitation vector (shared by every sweep
// point and by both engines).
std::vector<cd> build_ac_rhs(const SimContext& ctx) {
  const MnaMap& m = ctx.map;
  const circuit::Netlist& nl = ctx.nl;
  std::vector<cd> rhs(m.dim(), cd(0.0));
  for (const auto& src : nl.isources()) {
    if (src.ac == 0.0) continue;
    // Current p -> n through the source injects into n.
    if (m.v(src.p) >= 0) rhs[m.v(src.p)] -= src.ac;
    if (m.v(src.n) >= 0) rhs[m.v(src.n)] += src.ac;
  }
  for (std::size_t k = 0; k < nl.vsources().size(); ++k) {
    const auto& src = nl.vsources()[k];
    if (src.ac != 0.0) rhs[m.branch(static_cast<int>(k))] += src.ac;
  }
  return rhs;
}

// Unit output-probe excitation for the noise analysis' adjoint solves.
std::vector<cd> probe_vector(const MnaMap& m, int outp, int outn) {
  std::vector<cd> e(m.dim(), cd(0.0));
  if (m.v(outp) >= 0) e[m.v(outp)] += 1.0;
  if (m.v(outn) >= 0) e[m.v(outn)] -= 1.0;
  return e;
}

// Output PSD at one frequency given the adjoint solution ytr for that
// frequency: |transfer|^2-weighted sum of every noise generator.
double accumulate_psd(const SimContext& ctx, const OpPoint& op, double f,
                      const cd* ytr) {
  const MnaMap& m = ctx.map;
  const circuit::Netlist& nl = ctx.nl;
  auto transfer_sq = [&](int a, int b) {
    const cd ta = m.v(a) >= 0 ? ytr[m.v(a)] : cd(0.0);
    const cd tb = m.v(b) >= 0 ? ytr[m.v(b)] : cd(0.0);
    return std::norm(ta - tb);
  };
  double psd = 0.0;
  for (const auto& res : nl.resistors()) {
    psd += transfer_sq(res.a, res.b) * resistor_thermal_psd(res.r);
  }
  for (std::size_t k = 0; k < nl.mosfets().size(); ++k) {
    const auto& mos = nl.mosfets()[k];
    const double gm = std::max(op.mos[k].gm, 0.0);
    const double s_th = mos_thermal_psd(gm);
    const double s_fl = mos_flicker_psd(ctx.models[k], mos, gm, f);
    psd += transfer_sq(mos.d, mos.s) * (s_th + s_fl);
  }
  return psd;
}

// One sweep of Y(w) = G + j*w*C over `freqs`: solves Y x = rhs at every
// point, or Y^T x = rhs when `adjoint` (the noise analysis), and hands
// each solution to consume(point index, x). Recorded under AC or noise.
//
// The sparse engine assembles G and C once into pattern-aligned arrays,
// then factors blocks of up to kMaxLanes points over one symbolic
// factorization. When it rejects a block, the whole sweep reruns on the
// dense engine (one complex factorization per point), whose results and
// diagnostics are bitwise those of the legacy sweep; consume then sees
// every point again.
template <typename Consume>
void sweep(const SimContext& ctx, const OpPoint& op,
           const std::vector<double>& freqs, const std::vector<cd>& rhs,
           bool adjoint, const Consume& consume) {
  const Analysis which = adjoint ? Analysis::Noise : Analysis::Ac;
  const int dim = ctx.map.dim();
  const int nf = static_cast<int>(freqs.size());
  if (sparse_engine_enabled() && ctx.structure) {
    constexpr int kLanes = la::SparseSweepLu::kMaxLanes;
    const auto t0 = PhaseClock::now();
    const MnaStructure& st = *ctx.structure;
    PhaseSeconds phase;
    std::vector<double> g(st.pattern.nnz(), 0.0), c(st.pattern.nnz(), 0.0);
    SlotSink gs(st.g_slots, g.data());
    SlotSink cs(st.c_slots, c.data());
    small_signal_stamps(ctx, op.mos, op.caps, gs, cs);
    phase.assembly += seconds_between(t0, PhaseClock::now());
    if (!ctx.sweep_cache) {
      ctx.sweep_cache = std::make_unique<la::SparseSweepLu>(st.pattern);
    }
    la::SparseSweepLu& lu = *ctx.sweep_cache;
    std::vector<cd> xs(static_cast<std::size_t>(kLanes) * dim);
    double omega[kLanes];
    bool ok = true;
    for (int fi = 0; fi < nf; fi += kLanes) {
      const int count = std::min(kLanes, nf - fi);
      for (int f = 0; f < count; ++f) {
        omega[f] = 2.0 * M_PI * freqs[fi + f];
      }
      // Per-frequency scatter inside factor_block is attributed to the
      // factor phase (see PhaseSeconds).
      const auto a1 = PhaseClock::now();
      if (!lu.factor_block(g.data(), c.data(), omega, count)) {
        ok = false;
        break;
      }
      const auto a2 = PhaseClock::now();
      if (adjoint) {
        lu.solve_transposed_block(rhs.data(), xs.data(), dim);
      } else {
        lu.solve_block(rhs.data(), xs.data(), dim);
      }
      const auto a3 = PhaseClock::now();
      phase.factor += seconds_between(a1, a2);
      phase.solve += seconds_between(a2, a3);
      for (int f = 0; f < count; ++f) {
        consume(fi + f, xs.data() + static_cast<std::size_t>(f) * dim);
      }
    }
    if (ok) {
      sim_perf_record(which, nf, seconds_between(t0, PhaseClock::now()), 0,
                      0, &phase);
      return;
    }
    sim_perf_sparse_fallback(which);
  }

  const auto t0 = PhaseClock::now();
  PhaseSeconds phase;
  const AcStamps stamps = build_ac_stamps(ctx, op);
  phase.assembly += seconds_between(t0, PhaseClock::now());
  la::Lu<cd> lu;
  std::vector<cd> x;
  for (int fi = 0; fi < nf; ++fi) {
    const double omega = 2.0 * M_PI * freqs[fi];
    const auto a0 = PhaseClock::now();
    la::CMat y = assemble_ac_matrix(stamps, omega);
    const auto a1 = PhaseClock::now();
    try {
      lu.factor_swap(y);
    } catch (const la::SingularMatrixError&) {
      phase.factor += seconds_between(a1, PhaseClock::now());
      phase.assembly += seconds_between(a0, a1);
      sim_perf_record(which, fi, seconds_between(t0, PhaseClock::now()), 0,
                      0, &phase);
      throw SimError(std::string(adjoint ? "noise" : "AC") +
                     " matrix singular at f=" + format_freq(freqs[fi]) +
                     " Hz");
    }
    const auto a2 = PhaseClock::now();
    if (adjoint) {
      lu.solve_transposed_into(rhs, x, /*conjugate=*/false);
    } else {
      lu.solve_into(rhs, x);
    }
    const auto a3 = PhaseClock::now();
    phase.assembly += seconds_between(a0, a1);
    phase.factor += seconds_between(a1, a2);
    phase.solve += seconds_between(a2, a3);
    consume(fi, x.data());
  }
  sim_perf_record(which, nf, seconds_between(t0, PhaseClock::now()), 0, 0,
                  &phase);
}

}  // namespace

std::string format_freq(double f) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6e", f);
  return buf;
}

AcStamps build_ac_stamps(const SimContext& ctx, const OpPoint& op) {
  const int n = ctx.map.dim();
  AcStamps s{la::Mat(n, n), la::Mat(n, n)};
  small_signal_stamps(ctx, op.mos, op.caps, s.g, s.c);
  return s;
}

la::CMat assemble_ac_matrix(const AcStamps& stamps, double omega) {
  const int n = stamps.g.rows();
  la::CMat y(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      y(i, j) = cd(stamps.g(i, j), omega * stamps.c(i, j));
    }
  }
  return y;
}

AcResult solve_ac(const SimContext& ctx, const OpPoint& op,
                  const std::vector<double>& freqs) {
  const MnaMap& m = ctx.map;
  AcResult out;
  out.freq = freqs;
  out.v = la::CMat(static_cast<int>(freqs.size()), m.num_nodes());
  sweep(ctx, op, freqs, build_ac_rhs(ctx), /*adjoint=*/false,
        [&](int fi, const cd* x) {
          for (int node = 1; node < m.num_nodes(); ++node) {
            out.v(fi, node) = x[m.v(node)];
          }
        });
  return out;
}

NoiseResult solve_noise(const SimContext& ctx, const OpPoint& op,
                        const std::vector<double>& freqs, int outp,
                        int outn) {
  NoiseResult out;
  out.freq = freqs;
  out.out_psd.resize(freqs.size(), 0.0);
  // Adjoint: Y^T ytr = e  =>  v_out(unit injection a->b) = ytr_a - ytr_b.
  sweep(ctx, op, freqs, probe_vector(ctx.map, outp, outn), /*adjoint=*/true,
        [&](int fi, const cd* ytr) {
          out.out_psd[fi] = accumulate_psd(ctx, op, freqs[fi], ytr);
        });
  return out;
}

}  // namespace gcnrl::sim
