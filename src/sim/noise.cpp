#include "sim/noise.hpp"

#include <chrono>
#include <cmath>

#include "sim/ac.hpp"
#include "sim/perf.hpp"
#include "sim/structure.hpp"

namespace gcnrl::sim {
namespace {

using cd = std::complex<double>;
using clock_type = std::chrono::steady_clock;

double seconds_between(clock_type::time_point a, clock_type::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Unit output-probe excitation for the adjoint solves; shared across the
// whole sweep.
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

// Legacy dense sweep (and the fallback when the sparse engine rejects a
// block): one complex factorization + adjoint solve per frequency.
NoiseResult solve_noise_dense(const SimContext& ctx, const OpPoint& op,
                              const std::vector<double>& freqs, int outp,
                              int outn) {
  const auto t0 = clock_type::now();
  const MnaMap& m = ctx.map;
  PhaseSeconds phase;

  NoiseResult out;
  out.freq = freqs;
  out.out_psd.resize(freqs.size(), 0.0);

  const std::vector<cd> e = probe_vector(m, outp, outn);

  // One netlist walk for the whole sweep; each frequency assembles
  // Y = G + j*omega*C by scaled addition.
  const auto s0 = clock_type::now();
  const AcStamps stamps = build_ac_stamps(ctx, op);
  phase.assembly += seconds_between(s0, clock_type::now());

  la::Lu<cd> lu;
  std::vector<cd> ytr;
  for (std::size_t fi = 0; fi < freqs.size(); ++fi) {
    const double f = freqs[fi];
    const double omega = 2.0 * M_PI * f;
    const auto a0 = clock_type::now();
    la::CMat y = assemble_ac_matrix(stamps, omega);
    const auto a1 = clock_type::now();
    try {
      lu.factor_swap(y);
    } catch (const la::SingularMatrixError&) {
      phase.factor += seconds_between(a1, clock_type::now());
      phase.assembly += seconds_between(a0, a1);
      sim_perf_record(Analysis::Noise, static_cast<long>(fi),
                      seconds_between(t0, clock_type::now()), 0, 0, &phase);
      throw SimError("noise matrix singular at f=" + format_freq(f) + " Hz");
    }
    const auto a2 = clock_type::now();
    // Adjoint: Y^T ytr = e  =>  v_out(unit injection a->b) = ytr_a - ytr_b.
    lu.solve_transposed_into(e, ytr, /*conjugate=*/false);
    const auto a3 = clock_type::now();
    phase.assembly += seconds_between(a0, a1);
    phase.factor += seconds_between(a1, a2);
    phase.solve += seconds_between(a2, a3);
    out.out_psd[fi] = accumulate_psd(ctx, op, f, ytr.data());
  }
  sim_perf_record(Analysis::Noise, static_cast<long>(freqs.size()),
                  seconds_between(t0, clock_type::now()), 0, 0, &phase);
  return out;
}

// Sparse SoA sweep: assemble G/C once into pattern slots, factor blocks
// of frequency points over one symbolic factorization, adjoint-solve all
// lanes at once.
NoiseResult solve_noise_sparse(const SimContext& ctx, const OpPoint& op,
                               const std::vector<double>& freqs, int outp,
                               int outn) {
  constexpr int kLanes = la::SparseSweepLu::kMaxLanes;
  const auto t0 = clock_type::now();
  const MnaMap& m = ctx.map;
  const MnaStructure& st = *ctx.structure;
  PhaseSeconds phase;

  NoiseResult out;
  out.freq = freqs;
  out.out_psd.resize(freqs.size(), 0.0);

  const std::vector<cd> e = probe_vector(m, outp, outn);

  const auto s0 = clock_type::now();
  std::vector<double> g, c;
  assemble_ac_gc(ctx, st, op, g, c);
  phase.assembly += seconds_between(s0, clock_type::now());

  if (!ctx.sweep_cache) {
    ctx.sweep_cache = std::make_unique<la::SparseSweepLu>(st.pattern);
  }
  la::SparseSweepLu& sweep = *ctx.sweep_cache;
  std::vector<cd> ys(static_cast<std::size_t>(kLanes) * m.dim());
  double omega[kLanes];
  const int nf = static_cast<int>(freqs.size());
  for (int fi = 0; fi < nf; fi += kLanes) {
    const int count = std::min(kLanes, nf - fi);
    for (int f = 0; f < count; ++f) {
      omega[f] = 2.0 * M_PI * freqs[fi + f];
    }
    const auto a1 = clock_type::now();
    if (!sweep.factor_block(g.data(), c.data(), omega, count)) {
      throw SparseEngineFallback{};
    }
    const auto a2 = clock_type::now();
    sweep.solve_transposed_block(e.data(), ys.data(), m.dim());
    const auto a3 = clock_type::now();
    phase.factor += seconds_between(a1, a2);
    phase.solve += seconds_between(a2, a3);
    for (int f = 0; f < count; ++f) {
      const cd* ytr = ys.data() + static_cast<std::size_t>(f) * m.dim();
      out.out_psd[fi + f] = accumulate_psd(ctx, op, freqs[fi + f], ytr);
    }
  }
  sim_perf_record(Analysis::Noise, static_cast<long>(freqs.size()),
                  seconds_between(t0, clock_type::now()), 0, 0, &phase);
  return out;
}

}  // namespace

NoiseResult solve_noise(const SimContext& ctx, const OpPoint& op,
                        const std::vector<double>& freqs, int outp,
                        int outn) {
  if (sparse_engine_enabled() && ctx.structure) {
    try {
      return solve_noise_sparse(ctx, op, freqs, outp, outn);
    } catch (const SparseEngineFallback&) {
      sim_perf_sparse_fallback(Analysis::Noise);
    }
  }
  return solve_noise_dense(ctx, op, freqs, outp, outn);
}

}  // namespace gcnrl::sim
