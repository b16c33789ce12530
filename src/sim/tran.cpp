#include "sim/tran.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <optional>

#include "sim/perf.hpp"
#include "sim/structure.hpp"

namespace gcnrl::sim {
namespace {

using clock_type = std::chrono::steady_clock;

double seconds_between(clock_type::time_point a, clock_type::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Every independent source's value at time t: isources first, then
// vsources, in netlist order. This is a step's only time input.
void eval_sources(const circuit::Netlist& nl, double t,
                  std::vector<double>& out) {
  const auto at = [t](const auto& src) {
    return src.pwl.empty() ? src.dc : src.pwl.at(t);
  };
  std::size_t k = 0;
  for (const auto& src : nl.isources()) out[k++] = at(src);
  for (const auto& src : nl.vsources()) out[k++] = at(src);
}

// Bitwise equality: unlike ==, tells -0.0 from +0.0.
bool same_bits(const double* a, const double* b, std::size_t n) {
  return n == 0 || std::memcmp(a, b, n * sizeof(double)) == 0;
}

// Time steps are ns-to-us scale; fixed-notation std::to_string collapses
// them to "0.000000". Scientific notation keeps the diagnostic useful.
std::string format_time(double t) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6e", t);
  return buf;
}

// Per-run workspace reused across every timestep and Newton iteration —
// the sparse LU keeps its symbolic factorization alive for the whole
// transient run (the pattern never changes), so after the first timestep
// each iteration is a numeric refactor only.
struct TranWork {
  la::Mat j;
  la::Lu<double> lu;
  const MnaStructure* st = nullptr;
  la::SparseLuD* slu = nullptr;
  std::vector<double> vals;
  std::vector<double> f, rhs, dx;
  MosEval mos;
  PhaseSeconds phase;
};

// Dense residual + Jacobian for one Newton iteration under the step's
// source values (see eval_sources). The MOSFETs are evaluated in one
// batch up front; the stamps and their order are the legacy inline
// assembly verbatim, and only the storage is reused between calls.
void build_tran_dense(const SimContext& ctx, const OpPoint& ic,
                      const std::vector<double>& x,
                      const std::vector<double>& x_prev,
                      const double* sources, double gh, double gmin,
                      la::Mat& j, std::vector<double>& f, MosEval& mos_eval) {
  const MnaMap& m = ctx.map;
  const circuit::Netlist& nl = ctx.nl;
  if (j.rows() != m.dim() || j.cols() != m.dim()) {
    j = la::Mat(m.dim(), m.dim());
  } else {
    j.fill(0.0);
  }
  f.assign(m.dim(), 0.0);

  auto volt = [&](const std::vector<double>& xx, int node) {
    return node == 0 ? 0.0 : xx[m.v(node)];
  };

  for (const auto& res : nl.resistors()) {
    const double g = 1.0 / std::max(res.r, kMinResistance);
    stamp_conductance(j, m, res.a, res.b, g);
    const double i = g * (volt(x, res.a) - volt(x, res.b));
    if (m.v(res.a) >= 0) f[m.v(res.a)] += i;
    if (m.v(res.b) >= 0) f[m.v(res.b)] -= i;
  }

  // Linear capacitors: backward-Euler companion model.
  auto stamp_cap = [&](int a, int b, double c) {
    const double g = c * gh;
    stamp_conductance(j, m, a, b, g);
    const double dv_now = volt(x, a) - volt(x, b);
    const double dv_prev = volt(x_prev, a) - volt(x_prev, b);
    const double i = g * (dv_now - dv_prev);
    if (m.v(a) >= 0) f[m.v(a)] += i;
    if (m.v(b) >= 0) f[m.v(b)] -= i;
  };
  for (const auto& cap : nl.capacitors()) stamp_cap(cap.a, cap.b, cap.c);

  eval_mosfets(ctx, x, mos_eval);
  for (std::size_t k = 0; k < nl.mosfets().size(); ++k) {
    const auto& mos = nl.mosfets()[k];
    const MosOp& op = mos_eval.op[k];
    const int id_row = m.v(mos.d);
    const int is_row = m.v(mos.s);
    if (id_row >= 0) f[id_row] += op.id;
    if (is_row >= 0) f[is_row] -= op.id;
    const int cg = m.v(mos.g);
    const int cd = m.v(mos.d);
    const int cs = m.v(mos.s);
    auto add = [&](int row, double sign) {
      if (row < 0) return;
      if (cg >= 0) j(row, cg) += sign * op.gm;
      if (cd >= 0) j(row, cd) += sign * op.gds;
      if (cs >= 0) j(row, cs) -= sign * (op.gm + op.gds);
    };
    add(id_row, 1.0);
    add(is_row, -1.0);
    // Device capacitances, same companion treatment.
    const MosCaps& c = ic.caps[k];
    stamp_cap(mos.g, mos.s, c.cgs);
    stamp_cap(mos.g, mos.d, c.cgd);
    stamp_cap(mos.d, mos.b, c.cdb);
    stamp_cap(mos.s, mos.b, c.csb);
  }

  const std::size_t ni = nl.isources().size();
  for (std::size_t k = 0; k < ni; ++k) {
    const auto& src = nl.isources()[k];
    const double i = sources[k];
    if (m.v(src.p) >= 0) f[m.v(src.p)] += i;
    if (m.v(src.n) >= 0) f[m.v(src.n)] -= i;
  }
  for (std::size_t k = 0; k < nl.vsources().size(); ++k) {
    const auto& src = nl.vsources()[k];
    const int b = m.branch(static_cast<int>(k));
    const double i = x[b];
    if (m.v(src.p) >= 0) {
      f[m.v(src.p)] += i;
      j(m.v(src.p), b) += 1.0;
      j(b, m.v(src.p)) += 1.0;
    }
    if (m.v(src.n) >= 0) {
      f[m.v(src.n)] -= i;
      j(m.v(src.n), b) -= 1.0;
      j(b, m.v(src.n)) -= 1.0;
    }
    f[b] = volt(x, src.p) - volt(x, src.n) - sources[ni + k];
  }

  for (int node = 1; node < m.num_nodes(); ++node) {
    const int row = m.v(node);
    j(row, row) += gmin;
    f[row] += gmin * x[row];
  }
}

// Sparse variant: identical residual, Jacobian written through the
// precomputed stamp slots.
void build_tran_sparse(const SimContext& ctx, const MnaStructure& st,
                       const OpPoint& ic, const std::vector<double>& x,
                       const std::vector<double>& x_prev,
                       const double* sources, double gh, double gmin,
                       std::vector<double>& vals, std::vector<double>& f,
                       MosEval& mos_eval) {
  const MnaMap& m = ctx.map;
  const circuit::Netlist& nl = ctx.nl;
  vals.assign(st.pattern.nnz(), 0.0);
  f.assign(m.dim(), 0.0);

  auto volt = [&](const std::vector<double>& xx, int node) {
    return node == 0 ? 0.0 : xx[m.v(node)];
  };
  // Residual contribution of a backward-Euler companion capacitor whose
  // conductance quad is already slot-resolved.
  auto cap_residual = [&](int a, int b, double g) {
    const double dv_now = volt(x, a) - volt(x, b);
    const double dv_prev = volt(x_prev, a) - volt(x_prev, b);
    const double i = g * (dv_now - dv_prev);
    if (m.v(a) >= 0) f[m.v(a)] += i;
    if (m.v(b) >= 0) f[m.v(b)] -= i;
  };

  for (std::size_t k = 0; k < nl.resistors().size(); ++k) {
    const auto& res = nl.resistors()[k];
    const double g = 1.0 / std::max(res.r, kMinResistance);
    add_quad(vals.data(), st.resistors[k], g);
    const double i = g * (volt(x, res.a) - volt(x, res.b));
    if (m.v(res.a) >= 0) f[m.v(res.a)] += i;
    if (m.v(res.b) >= 0) f[m.v(res.b)] -= i;
  }

  for (std::size_t k = 0; k < nl.capacitors().size(); ++k) {
    const auto& cap = nl.capacitors()[k];
    const double g = cap.c * gh;
    add_quad(vals.data(), st.capacitors[k], g);
    cap_residual(cap.a, cap.b, g);
  }

  eval_mosfets(ctx, x, mos_eval);
  for (std::size_t k = 0; k < nl.mosfets().size(); ++k) {
    const auto& mos = nl.mosfets()[k];
    const MosOp& op = mos_eval.op[k];
    const int id_row = m.v(mos.d);
    const int is_row = m.v(mos.s);
    if (id_row >= 0) f[id_row] += op.id;
    if (is_row >= 0) f[is_row] -= op.id;
    const MosSlots& ms = st.mosfets[k];
    add_mos_g(vals.data(), ms, op.gm, op.gds);
    const MosCaps& c = ic.caps[k];
    add_quad(vals.data(), ms.cgs, c.cgs * gh);
    cap_residual(mos.g, mos.s, c.cgs * gh);
    add_quad(vals.data(), ms.cgd, c.cgd * gh);
    cap_residual(mos.g, mos.d, c.cgd * gh);
    add_quad(vals.data(), ms.cdb, c.cdb * gh);
    cap_residual(mos.d, mos.b, c.cdb * gh);
    add_quad(vals.data(), ms.csb, c.csb * gh);
    cap_residual(mos.s, mos.b, c.csb * gh);
  }

  const std::size_t ni = nl.isources().size();
  for (std::size_t k = 0; k < ni; ++k) {
    const auto& src = nl.isources()[k];
    const double i = sources[k];
    if (m.v(src.p) >= 0) f[m.v(src.p)] += i;
    if (m.v(src.n) >= 0) f[m.v(src.n)] -= i;
  }
  for (std::size_t k = 0; k < nl.vsources().size(); ++k) {
    const auto& src = nl.vsources()[k];
    const int b = m.branch(static_cast<int>(k));
    const double i = x[b];
    const VsrcSlots& vs = st.vsources[k];
    if (m.v(src.p) >= 0) {
      f[m.v(src.p)] += i;
      vals[vs.pb] += 1.0;
      vals[vs.bp] += 1.0;
    }
    if (m.v(src.n) >= 0) {
      f[m.v(src.n)] -= i;
      vals[vs.nb] -= 1.0;
      vals[vs.bn] -= 1.0;
    }
    f[b] = volt(x, src.p) - volt(x, src.n) - sources[ni + k];
  }

  for (int node = 1; node < m.num_nodes(); ++node) {
    const int row = m.v(node);
    vals[st.node_diag[node - 1]] += gmin;
    f[row] += gmin * x[row];
  }
}

// One backward-Euler step: Newton from x (the previous step's solution,
// also x_prev) to this step's solution, in place. Throws SimError when
// Newton fails, SparseEngineFallback when the sparse LU rejects a matrix.
void newton_step(const SimContext& ctx, const OpPoint& ic,
                 const TranOptions& opt, const double* sources, double t_now,
                 double gh, TranWork& w, std::vector<double>& x,
                 const std::vector<double>& x_prev) {
  const int nv = ctx.map.num_nodes() - 1;
  for (int iter = 0; iter < opt.max_newton; ++iter) {
    if (w.slu) {
      const auto a0 = clock_type::now();
      build_tran_sparse(ctx, *w.st, ic, x, x_prev, sources, gh, opt.gmin,
                        w.vals, w.f, w.mos);
      const auto a1 = clock_type::now();
      if (!w.slu->factor_values(w.vals.data())) throw SparseEngineFallback{};
      const auto a2 = clock_type::now();
      w.rhs.resize(w.f.size());
      for (std::size_t i = 0; i < w.f.size(); ++i) w.rhs[i] = -w.f[i];
      w.dx.resize(w.f.size());
      w.slu->solve_into(w.rhs.data(), w.dx.data());
      const auto a3 = clock_type::now();
      w.phase.assembly += seconds_between(a0, a1);
      w.phase.factor += seconds_between(a1, a2);
      w.phase.solve += seconds_between(a2, a3);
    } else {
      const auto a0 = clock_type::now();
      build_tran_dense(ctx, ic, x, x_prev, sources, gh, opt.gmin, w.j, w.f,
                       w.mos);
      const auto a1 = clock_type::now();
      w.rhs.resize(w.f.size());
      for (std::size_t i = 0; i < w.f.size(); ++i) w.rhs[i] = -w.f[i];
      try {
        w.lu.factor_swap(w.j);
      } catch (const la::SingularMatrixError&) {
        throw SimError("transient: singular Jacobian at t=" +
                       format_time(t_now) + " s (Newton iteration " +
                       std::to_string(iter + 1) + ")");
      }
      const auto a2 = clock_type::now();
      w.lu.solve_into(w.rhs, w.dx);
      const auto a3 = clock_type::now();
      w.phase.assembly += seconds_between(a0, a1);
      w.phase.factor += seconds_between(a1, a2);
      w.phase.solve += seconds_between(a2, a3);
    }
    double max_dv = 0.0;
    for (int i = 0; i < nv; ++i) {
      max_dv = std::max(max_dv, std::fabs(w.dx[i]));
    }
    const double scale =
        max_dv > opt.step_limit ? opt.step_limit / max_dv : 1.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      x[i] += scale * w.dx[i];
      if (!std::isfinite(x[i])) {
        throw SimError("transient: divergence at t=" + format_time(t_now) +
                       " s");
      }
    }
    double max_res = 0.0;
    for (int i = 0; i < nv; ++i) {
      max_res = std::max(max_res, std::fabs(w.f[i]));
    }
    if (scale == 1.0 && max_dv < opt.tol_step &&
        max_res < opt.tol_residual) {
      return;
    }
  }
  throw SimError("transient: Newton failed at t=" + format_time(t_now) +
                 " s");
}

// The post-step unknown vectors (branch currents included) of the current
// step and the kMaxPeriod steps before it, each with the sparse LU's
// re-pivot count after that step. Slot s % kSlots holds step s.
class StepRing {
 public:
  static constexpr int kMaxPeriod = 16;

  explicit StepRing(std::size_t dim) : dim_(dim), x_(kSlots * dim) {}

  [[nodiscard]] const double* x(int step) const {
    return x_.data() + slot(step) * dim_;
  }
  void store(int step, const std::vector<double>& x, long repivots) {
    std::copy(x.begin(), x.end(), x_.begin() + slot(step) * dim_);
    repivots_[slot(step)] = repivots;
  }
  // The smallest period p such that step repeats step - p bit for bit,
  // under the same recorded pivot order, with steps step-p+1..step all on
  // one source vector (the last `held` steps are) and a base step of at
  // least 1 (the LU records its pivot order in step 1). 0 when none.
  [[nodiscard]] int period(int step, int held) const {
    const int max_p = std::min({kMaxPeriod, held, step - 1});
    for (int p = 1; p <= max_p; ++p) {
      if (repivots_[slot(step - p)] == repivots_[slot(step)] &&
          same_bits(x(step - p), x(step), dim_)) {
        return p;
      }
    }
    return 0;
  }

 private:
  static constexpr int kSlots = kMaxPeriod + 1;
  static std::size_t slot(int step) {
    return static_cast<std::size_t>(step % kSlots);
  }

  std::size_t dim_;
  std::vector<double> x_;
  long repivots_[kSlots] = {};
};

// ceil(tstop / dt) when it is a step count whose output rows fit in an
// int; SimError otherwise (dt = 0, a non-finite or negative quotient, or
// one too large), before anything is allocated.
int step_count(const TranOptions& opt) {
  const double q = std::ceil(opt.tstop / opt.dt);
  if (!(q >= 0.0 &&
        q < static_cast<double>(std::numeric_limits<int>::max()))) {
    throw SimError("transient: tstop=" + format_time(opt.tstop) +
                   " s and dt=" + format_time(opt.dt) +
                   " s do not give a representable step count");
  }
  return static_cast<int>(q);
}

TranResult solve_tran_impl(const SimContext& ctx, const OpPoint& ic,
                           const TranOptions& opt, bool use_sparse) {
  const auto t0 = clock_type::now();
  const MnaMap& m = ctx.map;
  const circuit::Netlist& nl = ctx.nl;
  const int steps = step_count(opt);

  TranResult out;
  out.t.reserve(steps + 1);
  out.v = la::Mat(steps + 1, m.num_nodes());

  TranWork w;
  std::optional<la::SparseLuD> slu_store;
  if (use_sparse) {
    w.st = ctx.structure.get();
    slu_store.emplace(ctx.structure->pattern);
    w.slu = &*slu_store;
  }

  // Unknown vector from the initial condition.
  std::vector<double> x(m.dim(), 0.0);
  for (int node = 1; node < m.num_nodes(); ++node) x[m.v(node)] = ic.v[node];
  for (std::size_t k = 0; k < nl.vsources().size(); ++k) {
    x[m.branch(static_cast<int>(k))] = ic.branch_i[k];
  }
  out.t.push_back(0.0);
  for (int node = 0; node < m.num_nodes(); ++node) out.v(0, node) = ic.v[node];

  std::vector<double> x_prev = x;

  // A step is a pure function of x_prev, the step's source values and the
  // sparse LU's recorded pivot order. Once a settled cycle of `period`
  // steps repeats that triple, each following step whose sources still
  // match is copied from the ring instead of solved.
  StepRing ring(x.size());
  ring.store(0, x, 0);
  const std::size_t nsrc = nl.isources().size() + nl.vsources().size();
  std::vector<double> src(nsrc), src_prev(nsrc);
  int held = 0;    // consecutive steps, ending at this one, on these sources
  int period = 0;  // > 0 while replaying a cycle of this many steps
  long replayed = 0;

  const double gh = 1.0 / opt.dt;
  for (int step = 1; step <= steps; ++step) {
    const double t_now = step * opt.dt;
    eval_sources(nl, t_now, src);
    if (step > 1 && same_bits(src.data(), src_prev.data(), nsrc)) {
      ++held;
    } else {
      held = 1;
      period = 0;
    }
    if (period > 0) {
      const double* from = ring.x(step - period);
      std::copy(from, from + x.size(), x.begin());
      ++replayed;
    } else {
      newton_step(ctx, ic, opt, src.data(), t_now, gh, w, x, x_prev);
    }
    ring.store(step, x, w.slu ? w.slu->repivots() : 0);
    if (period == 0) period = ring.period(step, held);
    out.t.push_back(t_now);
    for (int node = 1; node < m.num_nodes(); ++node) {
      out.v(step, node) = x[m.v(node)];
    }
    x_prev = x;
    src.swap(src_prev);
  }
  sim_perf_record(Analysis::Tran, steps, seconds_between(t0, clock_type::now()),
                  0, 0, &w.phase, replayed);
  return out;
}

}  // namespace

TranResult solve_tran(const SimContext& ctx, const OpPoint& ic,
                      const TranOptions& opt) {
  if (sparse_engine_enabled() && ctx.structure) {
    try {
      return solve_tran_impl(ctx, ic, opt, /*use_sparse=*/true);
    } catch (const SparseEngineFallback&) {
      sim_perf_sparse_fallback(Analysis::Tran);
    }
  }
  return solve_tran_impl(ctx, ic, opt, /*use_sparse=*/false);
}

}  // namespace gcnrl::sim
