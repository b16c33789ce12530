#include "sim/tran.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <optional>

#include "sim/perf.hpp"
#include "sim/stamps.hpp"
#include "sim/structure.hpp"

namespace gcnrl::sim {
namespace {

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

// One backward-Euler step: Newton from x (the previous step's solution,
// also x_prev) to this step's solution, in place. Throws SimError when
// Newton fails, SparseEngineFallback when the sparse LU rejects a matrix.
void newton_step(const SimContext& ctx, const OpPoint& ic,
                 const TranOptions& opt, const double* sources, double t_now,
                 double gh, TranWork& w, std::vector<double>& x,
                 const std::vector<double>& x_prev) {
  const int nv = ctx.map.num_nodes() - 1;
  const Companions be{x_prev, ic.caps, gh};
  for (int iter = 0; iter < opt.max_newton; ++iter) {
    const auto a0 = PhaseClock::now();
    eval_mosfets(ctx, x, w.mos);
    if (w.slu) {
      w.vals.assign(w.st->pattern.nnz(), 0.0);
      SlotSink jac(w.st->newton_slots, w.vals.data());
      newton_stamps(ctx, x, w.mos.op, sources, opt.gmin, &be, jac, w.f);
    } else {
      clear_dense(w.j, ctx.map.dim());
      newton_stamps(ctx, x, w.mos.op, sources, opt.gmin, &be, w.j, w.f);
    }
    const auto a1 = PhaseClock::now();
    w.rhs.resize(w.f.size());
    for (std::size_t i = 0; i < w.f.size(); ++i) w.rhs[i] = -w.f[i];
    if (w.slu) {
      if (!w.slu->factor_values(w.vals.data())) throw SparseEngineFallback{};
    } else {
      try {
        w.lu.factor_swap(w.j);
      } catch (const la::SingularMatrixError&) {
        throw SimError("transient: singular Jacobian at t=" +
                       format_time(t_now) + " s (Newton iteration " +
                       std::to_string(iter + 1) + ")");
      }
    }
    const auto a2 = PhaseClock::now();
    if (w.slu) {
      w.dx.resize(w.f.size());
      w.slu->solve_into(w.rhs.data(), w.dx.data());
    } else {
      w.lu.solve_into(w.rhs, w.dx);
    }
    const auto a3 = PhaseClock::now();
    w.phase.assembly += seconds_between(a0, a1);
    w.phase.factor += seconds_between(a1, a2);
    w.phase.solve += seconds_between(a2, a3);
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
  const auto t0 = PhaseClock::now();
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
  sim_perf_record(Analysis::Tran, steps,
                  seconds_between(t0, PhaseClock::now()), 0, 0, &w.phase,
                  replayed);
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
