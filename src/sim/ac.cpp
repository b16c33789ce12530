#include "sim/ac.hpp"

#include <chrono>
#include <cstdio>

#include "sim/perf.hpp"
#include "sim/structure.hpp"

namespace gcnrl::sim {
namespace {

using clock_type = std::chrono::steady_clock;

double seconds_between(clock_type::time_point a, clock_type::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Frequency-independent AC excitation vector (shared by every sweep
// point and by both engines).
std::vector<std::complex<double>> build_ac_rhs(const SimContext& ctx) {
  using cd = std::complex<double>;
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

// Legacy dense sweep: one complex factorization per frequency point.
// Also the fallback target when the sparse engine rejects a block, so
// its arithmetic must stay bitwise what PR 6 shipped.
AcResult solve_ac_dense(const SimContext& ctx, const OpPoint& op,
                        const std::vector<double>& freqs) {
  using cd = std::complex<double>;
  const auto t0 = clock_type::now();
  const MnaMap& m = ctx.map;
  PhaseSeconds phase;

  const std::vector<cd> rhs = build_ac_rhs(ctx);

  const auto s0 = clock_type::now();
  const AcStamps stamps = build_ac_stamps(ctx, op);
  phase.assembly += seconds_between(s0, clock_type::now());

  AcResult out;
  out.freq = freqs;
  out.v = la::CMat(static_cast<int>(freqs.size()), m.num_nodes());
  la::Lu<cd> lu;
  std::vector<cd> x;
  for (std::size_t fi = 0; fi < freqs.size(); ++fi) {
    const double omega = 2.0 * M_PI * freqs[fi];
    const auto a0 = clock_type::now();
    la::CMat y = assemble_ac_matrix(stamps, omega);
    const auto a1 = clock_type::now();
    try {
      lu.factor_swap(y);
    } catch (const la::SingularMatrixError&) {
      phase.factor += seconds_between(a1, clock_type::now());
      phase.assembly += seconds_between(a0, a1);
      sim_perf_record(Analysis::Ac, static_cast<long>(fi),
                      seconds_between(t0, clock_type::now()), 0, 0, &phase);
      throw SimError("AC matrix singular at f=" + format_freq(freqs[fi]) +
                     " Hz");
    }
    const auto a2 = clock_type::now();
    lu.solve_into(rhs, x);
    const auto a3 = clock_type::now();
    phase.assembly += seconds_between(a0, a1);
    phase.factor += seconds_between(a1, a2);
    phase.solve += seconds_between(a2, a3);
    for (int node = 1; node < m.num_nodes(); ++node) {
      out.v(static_cast<int>(fi), node) = x[m.v(node)];
    }
  }
  sim_perf_record(Analysis::Ac, static_cast<long>(freqs.size()),
                  seconds_between(t0, clock_type::now()), 0, 0, &phase);
  return out;
}

// Sparse SoA sweep: G and C assembled once into pattern-aligned arrays,
// then blocks of up to kMaxLanes frequency points factored and solved
// over one symbolic factorization per block. Any rejected block aborts
// the whole sweep to the dense path above.
AcResult solve_ac_sparse(const SimContext& ctx, const OpPoint& op,
                         const std::vector<double>& freqs) {
  using cd = std::complex<double>;
  constexpr int kLanes = la::SparseSweepLu::kMaxLanes;
  const auto t0 = clock_type::now();
  const MnaMap& m = ctx.map;
  const MnaStructure& st = *ctx.structure;
  PhaseSeconds phase;

  const std::vector<cd> rhs = build_ac_rhs(ctx);

  const auto s0 = clock_type::now();
  std::vector<double> g, c;
  assemble_ac_gc(ctx, st, op, g, c);
  phase.assembly += seconds_between(s0, clock_type::now());

  AcResult out;
  out.freq = freqs;
  out.v = la::CMat(static_cast<int>(freqs.size()), m.num_nodes());

  if (!ctx.sweep_cache) {
    ctx.sweep_cache = std::make_unique<la::SparseSweepLu>(st.pattern);
  }
  la::SparseSweepLu& sweep = *ctx.sweep_cache;
  std::vector<cd> xs(static_cast<std::size_t>(kLanes) * m.dim());
  double omega[kLanes];
  const int nf = static_cast<int>(freqs.size());
  for (int fi = 0; fi < nf; fi += kLanes) {
    const int count = std::min(kLanes, nf - fi);
    for (int f = 0; f < count; ++f) {
      omega[f] = 2.0 * M_PI * freqs[fi + f];
    }
    // Per-frequency scatter inside factor_block is attributed to the
    // factor phase (see PhaseSeconds).
    const auto a1 = clock_type::now();
    if (!sweep.factor_block(g.data(), c.data(), omega, count)) {
      throw SparseEngineFallback{};
    }
    const auto a2 = clock_type::now();
    sweep.solve_block(rhs.data(), xs.data(), m.dim());
    const auto a3 = clock_type::now();
    phase.factor += seconds_between(a1, a2);
    phase.solve += seconds_between(a2, a3);
    for (int f = 0; f < count; ++f) {
      const cd* xf = xs.data() + static_cast<std::size_t>(f) * m.dim();
      for (int node = 1; node < m.num_nodes(); ++node) {
        out.v(fi + f, node) = xf[m.v(node)];
      }
    }
  }
  sim_perf_record(Analysis::Ac, static_cast<long>(freqs.size()),
                  seconds_between(t0, clock_type::now()), 0, 0, &phase);
  return out;
}

}  // namespace

std::string format_freq(double f) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6e", f);
  return buf;
}

AcStamps build_ac_stamps(const SimContext& ctx, const OpPoint& op) {
  const MnaMap& m = ctx.map;
  const circuit::Netlist& nl = ctx.nl;
  AcStamps s{la::Mat(m.dim(), m.dim()), la::Mat(m.dim(), m.dim())};

  for (const auto& res : nl.resistors()) {
    stamp_conductance(s.g, m, res.a, res.b, 1.0 / std::max(res.r,
                                                           kMinResistance));
  }
  for (const auto& cap : nl.capacitors()) {
    stamp_conductance(s.c, m, cap.a, cap.b, cap.c);
  }
  for (std::size_t k = 0; k < nl.mosfets().size(); ++k) {
    const auto& mos = nl.mosfets()[k];
    const MosOp& mop = op.mos[k];
    const MosCaps& c = op.caps[k];
    stamp_vccs(s.g, m, mos.d, mos.s, mos.g, mos.s, mop.gm);
    stamp_conductance(s.g, m, mos.d, mos.s, mop.gds);
    stamp_conductance(s.c, m, mos.g, mos.s, c.cgs);
    stamp_conductance(s.c, m, mos.g, mos.d, c.cgd);
    stamp_conductance(s.c, m, mos.d, mos.b, c.cdb);
    stamp_conductance(s.c, m, mos.s, mos.b, c.csb);
  }
  for (std::size_t k = 0; k < nl.vsources().size(); ++k) {
    const auto& src = nl.vsources()[k];
    const int b = m.branch(static_cast<int>(k));
    if (m.v(src.p) >= 0) {
      s.g(m.v(src.p), b) += 1.0;
      s.g(b, m.v(src.p)) += 1.0;
    }
    if (m.v(src.n) >= 0) {
      s.g(m.v(src.n), b) -= 1.0;
      s.g(b, m.v(src.n)) -= 1.0;
    }
  }
  // Regularization shunt mirroring the DC gmin keeps floating AC nodes
  // (e.g. gates only driven through capacitors) solvable.
  for (int node = 1; node < m.num_nodes(); ++node) {
    s.g(m.v(node), m.v(node)) += 1e-12;
  }
  return s;
}

la::CMat assemble_ac_matrix(const AcStamps& stamps, double omega) {
  using cd = std::complex<double>;
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
  if (sparse_engine_enabled() && ctx.structure) {
    try {
      return solve_ac_sparse(ctx, op, freqs);
    } catch (const SparseEngineFallback&) {
      sim_perf_sparse_fallback(Analysis::Ac);
    }
  }
  return solve_ac_dense(ctx, op, freqs);
}

}  // namespace gcnrl::sim
