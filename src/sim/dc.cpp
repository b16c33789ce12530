#include "sim/dc.hpp"

#include <cmath>

#include "sim/perf.hpp"
#include "sim/stamps.hpp"

namespace gcnrl::sim {
namespace {

double source_value(double dc, const circuit::Pwl& pwl, double time) {
  if (time >= 0.0 && !pwl.empty()) return pwl.at(time);
  return dc;
}

// Per-solve workspace: every buffer the Newton loop touches, reused
// across iterations and ladder strategies so the loop performs no heap
// allocation after its first iteration. The assembly matrix and its
// factorization ping-pong through Lu::factor_swap (see la/lu.hpp).
struct DcWork {
  la::Mat j;
  la::Lu<double> lu;
  std::vector<double> src, f, rhs, dx;
  MosEval mos;
  PhaseSeconds phase;
};

struct NewtonResult {
  bool converged = false;
  std::vector<double> x;
  int iters = 0;  // iterations actually spent
};

NewtonResult newton(const SimContext& ctx, DcWork& w, std::vector<double> x,
                    double alpha, double gmin, const DcOptions& opt,
                    int max_iter_override = -1) {
  const int nv = ctx.map.num_nodes() - 1;
  const int max_iter = max_iter_override > 0 ? max_iter_override
                                             : opt.max_iter;
  // Every source's value, scaled by alpha (source stepping): isources,
  // then vsources, as newton_stamps reads them.
  w.src.clear();
  for (const auto& src : ctx.nl.isources()) {
    w.src.push_back(alpha * source_value(src.dc, src.pwl, opt.source_time));
  }
  for (const auto& src : ctx.nl.vsources()) {
    w.src.push_back(alpha * source_value(src.dc, src.pwl, opt.source_time));
  }
  int iters = 0;
  for (int iter = 0; iter < max_iter; ++iter) {
    ++iters;
    const auto a0 = PhaseClock::now();
    eval_mosfets(ctx, x, w.mos);
    clear_dense(w.j, ctx.map.dim());
    newton_stamps(ctx, x, w.mos.op, w.src.data(), gmin, nullptr, w.j, w.f);
    const auto a1 = PhaseClock::now();
    w.rhs.resize(w.f.size());
    for (std::size_t i = 0; i < w.f.size(); ++i) w.rhs[i] = -w.f[i];
    try {
      w.lu.factor_swap(w.j);
    } catch (const la::SingularMatrixError&) {
      return {false, std::move(x), iters};
    }
    const auto a2 = PhaseClock::now();
    w.lu.solve_into(w.rhs, w.dx);
    const auto a3 = PhaseClock::now();
    w.phase.assembly += seconds_between(a0, a1);
    w.phase.factor += seconds_between(a1, a2);
    w.phase.solve += seconds_between(a2, a3);
    // Damping: limit the largest voltage step.
    double max_dv = 0.0;
    for (int i = 0; i < nv; ++i) max_dv = std::max(max_dv, std::fabs(w.dx[i]));
    const double scale = max_dv > opt.step_limit ? opt.step_limit / max_dv
                                                 : 1.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      x[i] += scale * w.dx[i];
      if (!std::isfinite(x[i])) return {false, std::move(x), iters};
    }
    double max_res = 0.0;
    for (int i = 0; i < nv; ++i) {
      max_res = std::max(max_res, std::fabs(w.f[i]));
    }
    // Converged when undamped and both criteria hold — or when the
    // residual alone is at numerical noise level (dx can limit-cycle on
    // Jacobian granularity while KCL is already exactly satisfied).
    if (scale == 1.0 &&
        ((max_dv < opt.tol_step && max_res < opt.tol_residual) ||
         max_res < 1e-3 * opt.tol_residual)) {
      return {true, std::move(x), iters};
    }
  }
  return {false, std::move(x), iters};
}

OpPoint finalize(const SimContext& ctx, const std::vector<double>& x,
                 MosEval& mos_eval) {
  const MnaMap& m = ctx.map;
  OpPoint op;
  op.v.resize(m.num_nodes(), 0.0);
  for (int node = 1; node < m.num_nodes(); ++node) op.v[node] = x[m.v(node)];
  op.branch_i.resize(ctx.nl.vsources().size());
  for (std::size_t k = 0; k < op.branch_i.size(); ++k) {
    op.branch_i[k] = x[m.branch(static_cast<int>(k))];
  }
  eval_mosfets(ctx, x, mos_eval);
  op.mos = mos_eval.op;
  op.caps.reserve(ctx.nl.mosfets().size());
  for (std::size_t k = 0; k < ctx.nl.mosfets().size(); ++k) {
    op.caps.push_back(mos_caps(ctx.models[k], ctx.nl.mosfets()[k]));
  }
  return op;
}

}  // namespace

std::vector<double> project_op(const OpPoint& op, const MnaMap& map) {
  std::vector<double> x(static_cast<std::size_t>(map.dim()), 0.0);
  const int shared_nodes =
      std::min(map.num_nodes(), static_cast<int>(op.v.size()));
  for (int node = 1; node < shared_nodes; ++node) {
    x[static_cast<std::size_t>(map.v(node))] = op.v[node];
  }
  const int shared_branches =
      std::min(map.dim() - (map.num_nodes() - 1),
               static_cast<int>(op.branch_i.size()));
  for (int k = 0; k < shared_branches; ++k) {
    x[static_cast<std::size_t>(map.branch(k))] = op.branch_i[k];
  }
  return x;
}

OpPoint solve_dc(const SimContext& ctx, const DcOptions& opt,
                 const std::vector<double>* warm_start, DcStats* stats) {
  const auto t0 = PhaseClock::now();
  DcStats local;
  DcStats& st = stats ? *stats : local;
  st = DcStats{};

  DcWork w;

  // Record once per solve no matter which return/throw path is taken.
  auto record = [&](bool ok) {
    const double secs = seconds_between(t0, PhaseClock::now());
    const long warm_hit = (ok && st.warm_converged) ? 1 : 0;
    const long warm_fallback =
        (st.warm_attempted && !st.warm_converged) ? 1 : 0;
    sim_perf_record(Analysis::Dc, st.newton_iters, secs, warm_hit,
                    warm_fallback, &w.phase);
  };

  // Strategy 0: direct Newton from the supplied warm-start guess at the
  // target gmin. A good guess (previous operating point of the same or a
  // structurally identical netlist) converges in a handful of iterations;
  // a bad one is cut off at warm_max_iter and we fall through to the
  // untouched ladder below, which starts from zeros exactly as a cold
  // solve would — fallback results are bitwise-identical to cold.
  if (warm_start && static_cast<int>(warm_start->size()) == ctx.map.dim()) {
    st.warm_attempted = true;
    NewtonResult nr =
        newton(ctx, w, *warm_start, 1.0, opt.gmin, opt, opt.warm_max_iter);
    st.newton_iters += nr.iters;
    if (nr.converged) {
      st.warm_converged = true;
      st.strategy = 0;
      record(true);
      return finalize(ctx, nr.x, w.mos);
    }
  }
  // Best converged unknown vector seen so far across strategies; later
  // strategies start from it instead of discarding the progress.
  std::vector<double> best(ctx.map.dim(), 0.0);

  // Strategy 1: gmin stepping from a strong shunt down to the target.
  // Three geometric rungs (strong shunt, geometric midpoint, target)
  // instead of the previous decade-by-decade descent: the heavy first
  // rung pins every node near ground and establishes the operating
  // branch, the midpoint keeps Newton inside its basin across the ten
  // decades, and the cold solve drops from ~11 rungs to 3 — roughly
  // halving cold Newton iterations. Verified against the decade ladder
  // on all registered circuits (same operating branch to ~1e-13; the
  // two-rung version of this schedule loses the Two-Volt bias branch,
  // which is why the midpoint rung exists).
  // A partial failure mid-ladder keeps the best solution found so far as
  // the starting point for the next strategy instead of discarding it:
  // circuits with bistable subloops often converge on retry.
  {
    const double g_hi = 1e-2;
    double rungs[3];
    int num_rungs = 0;
    if (opt.gmin >= g_hi * 0.99) {
      rungs[num_rungs++] = opt.gmin;
    } else {
      rungs[num_rungs++] = g_hi;
      rungs[num_rungs++] = std::sqrt(g_hi * opt.gmin);
      rungs[num_rungs++] = opt.gmin;
    }
    std::vector<double> xg = best;
    bool ok = true;
    for (int ri = 0; ri < num_rungs; ++ri) {
      NewtonResult nr = newton(ctx, w, xg, 1.0, rungs[ri], opt);
      st.newton_iters += nr.iters;
      if (!nr.converged) {
        ok = false;
        break;
      }
      xg = std::move(nr.x);
      best = xg;  // last converged rung — carried into Strategy 2
    }
    // The rung schedule ends exactly at opt.gmin, so the converged xg is
    // already the target-gmin solution — no final tightening solve.
    if (ok) {
      st.strategy = 1;
      record(true);
      return finalize(ctx, xg, w.mos);
    }
  }

  // Strategy 2: source stepping at a relaxed gmin, then final tightening.
  // Starts from the best solution Strategy 1 converged to (zeros if its
  // very first rung already failed), as documented above.
  {
    std::vector<double> xs = best;
    bool ok = true;
    for (int step = 1; step <= 20; ++step) {
      const double alpha = step / 20.0;
      NewtonResult nr =
          newton(ctx, w, xs, alpha, std::max(opt.gmin, 1e-9), opt);
      st.newton_iters += nr.iters;
      if (!nr.converged) {
        ok = false;
        break;
      }
      xs = std::move(nr.x);
    }
    if (ok) {
      for (double gmin = 1e-9; gmin >= opt.gmin * 0.99; gmin *= 1e-1) {
        NewtonResult nr = newton(ctx, w, xs, 1.0, gmin, opt);
        st.newton_iters += nr.iters;
        if (!nr.converged) {
          ok = false;
          break;
        }
        xs = std::move(nr.x);
      }
      if (ok) {
        st.strategy = 2;
        record(true);
        return finalize(ctx, xs, w.mos);
      }
    }
  }

  // Strategy 3: heavily damped Newton from a mid-rail start — a last
  // resort that trades iterations for basin robustness. Deliberately
  // *not* seeded from `best`: when both ladders fail, the accumulated
  // iterate usually sits in the wrong basin, and mid-rail is an
  // independent restart.
  {
    std::vector<double> xm(ctx.map.dim(), 0.0);
    for (int node = 1; node < ctx.map.num_nodes(); ++node) {
      xm[ctx.map.v(node)] = 0.5;
    }
    DcOptions heavy = opt;
    heavy.step_limit = 0.1;
    heavy.max_iter = 400;
    NewtonResult nr =
        newton(ctx, w, xm, 1.0, std::max(opt.gmin, 1e-10), heavy);
    st.newton_iters += nr.iters;
    if (nr.converged) {
      nr = newton(ctx, w, nr.x, 1.0, opt.gmin, opt);
      st.newton_iters += nr.iters;
      if (nr.converged) {
        st.strategy = 3;
        record(true);
        return finalize(ctx, nr.x, w.mos);
      }
    }
  }

  record(false);
  throw SimError("DC operating point did not converge");
}

}  // namespace gcnrl::sim
