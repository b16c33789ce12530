#include "traced.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <unordered_set>

#include "api/registry.hpp"
#include "circuit/tech.hpp"
#include "env/eval_service.hpp"
#include "sim/perf.hpp"

namespace perfbench {
namespace {

namespace api = gcnrl::api;
namespace env = gcnrl::env;
namespace rl = gcnrl::rl;
namespace sim = gcnrl::sim;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Calls and wall time of one layer entry point, with per-call samples for
// the percentiles.
struct Span {
  long calls = 0;
  double seconds = 0.0;
  std::vector<double> ms;

  void add(double s) {
    ++calls;
    seconds += s;
    ms.push_back(s * 1e3);
  }
};

// Linear interpolation between closest ranks; 0 for no samples.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

class TimedOptimizer final : public gcnrl::opt::Optimizer {
 public:
  TimedOptimizer(std::unique_ptr<gcnrl::opt::Optimizer> inner, Span& ask,
                 Span& tell)
      : inner_(std::move(inner)), ask_(ask), tell_(tell) {}

  std::vector<std::vector<double>> ask() override {
    const Clock::time_point t0 = Clock::now();
    std::vector<std::vector<double>> xs = inner_->ask();
    ask_.add(since(t0));
    return xs;
  }
  void tell(const std::vector<std::vector<double>>& xs,
            const std::vector<double>& ys) override {
    const Clock::time_point t0 = Clock::now();
    inner_->tell(xs, ys);
    tell_.add(since(t0));
  }
  [[nodiscard]] int dim() const override { return inner_->dim(); }

 private:
  std::unique_ptr<gcnrl::opt::Optimizer> inner_;
  Span& ask_;
  Span& tell_;
};

// Run-local simulated cost, charged through env::design_key the way the
// library's run loops charge RunResult::sims.
class SimLedger {
 public:
  long charge(const gcnrl::circuit::DesignSpace& space,
              const gcnrl::circuit::DesignParams& params) {
    return seen_.insert(env::design_key(space, params)).second ? 1 : 0;
  }

 private:
  std::unordered_set<env::EvalCache::Key, env::EvalCache::KeyHash,
                     env::EvalCache::KeyEqual>
      seen_;
};

std::uint64_t task_seed(const api::TaskSpec& t, int s) {
  if (t.seed_base) {
    return *t.seed_base + t.seed_stride * static_cast<std::uint64_t>(s);
  }
  return api::seed_of(s);
}

}  // namespace

TracedRun run_traced(const std::vector<api::TaskSpec>& tasks,
                     const api::RunOptions& opts, const EvalProbe& probe) {
  const std::shared_ptr<env::EvalService>& svc = opts.service;
  Span act, observe, update, ask, tell, batch;
  double calibrate_s = 0.0;
  const sim::SimPerf sim0 = sim::sim_perf_snapshot();
  const Clock::time_point t_run = Clock::now();

  // Calibration: one factory per distinct (circuit, node), in
  // first-appearance order, all drawing from one Rng(calib_seed).
  gcnrl::Rng calib_rng(opts.calib_seed);
  std::vector<std::pair<std::string, std::unique_ptr<api::EnvFactory>>>
      factories;
  const auto factory_of = [&](const api::TaskSpec& t) -> api::EnvFactory* {
    for (auto& [key, f] : factories) {
      if (key == t.circuit + "\n" + t.node) return f.get();
    }
    return nullptr;
  };
  for (const api::TaskSpec& t : tasks) {
    if (factory_of(t) != nullptr) continue;
    const Clock::time_point t0 = Clock::now();
    factories.emplace_back(
        t.circuit + "\n" + t.node,
        std::make_unique<api::EnvFactory>(
            t.circuit, gcnrl::circuit::make_technology(t.node), opts.mode,
            opts.calib_samples, calib_rng, svc));
    calibrate_s += since(t0);
  }
  const double calib_eval_s = probe.eval_s();

  // Pairs, built in task order as run_tasks builds them.
  struct RlPair {
    std::unique_ptr<env::SizingEnv> env;
    std::unique_ptr<rl::DdpgAgent> agent;
    int steps = 0;
    std::size_t out = 0;
  };
  struct BbPair {
    std::unique_ptr<env::SizingEnv> env;
    std::unique_ptr<TimedOptimizer> opt;
    int steps = 0;
    std::size_t out = 0;
  };
  std::vector<RlPair> rl_pairs;
  std::vector<BbPair> bb_pairs;
  TracedRun run;
  for (const api::TaskSpec& t : tasks) {
    const api::MethodInfo& mi = api::method_info(t.method);
    const api::EnvFactory& factory = *factory_of(t);
    int warmup = std::max(t.warmup, 0);
    if (warmup >= t.steps) warmup = t.steps / 3;
    for (int s = 0; s < t.seeds; ++s) {
      const std::size_t out = run.seeds.size();
      run.seeds.push_back(SeedOutcome{t.label, s, "", 0.0, 0, 0, t.steps});
      std::unique_ptr<env::SizingEnv> e = factory.make(svc);
      if (mi.kind == api::MethodKind::Ddpg) {
        rl::DdpgConfig cfg = t.ddpg;
        if (mi.configure) mi.configure(cfg);
        cfg.warmup = warmup;
        auto agent = std::make_unique<rl::DdpgAgent>(
            e->state(), e->adjacency(), e->kinds(), cfg,
            gcnrl::Rng(task_seed(t, s)));
        rl_pairs.push_back(
            RlPair{std::move(e), std::move(agent), t.steps, out});
      } else {
        auto opt = std::make_unique<TimedOptimizer>(
            api::make_ask_tell(t.method, e->flat_dim(),
                               gcnrl::Rng(task_seed(t, s))),
            ask, tell);
        bb_pairs.push_back(BbPair{std::move(e), std::move(opt), t.steps, out});
      }
    }
  }
  std::vector<rl::RunResult> results(run.seeds.size());
  std::vector<env::EvalJob> jobs;
  const auto eval_round = [&] {
    const Clock::time_point t0 = Clock::now();
    std::vector<env::EvalResult> r = svc->eval_batch_multi(jobs);
    batch.add(since(t0));
    return r;
  };

  // DDPG rounds (rl::run_ddpg_lockstep): act in pair order, one merged
  // batch, observe in pair order.
  if (!rl_pairs.empty()) {
    int max_steps = 0;
    for (const RlPair& p : rl_pairs) max_steps = std::max(max_steps, p.steps);
    std::vector<gcnrl::la::Mat> actions(rl_pairs.size());
    std::vector<SimLedger> ledgers(rl_pairs.size());
    std::vector<std::size_t> active;
    for (int step = 0; step < max_steps; ++step) {
      jobs.clear();
      active.clear();
      for (std::size_t k = 0; k < rl_pairs.size(); ++k) {
        RlPair& p = rl_pairs[k];
        if (p.steps <= step) continue;
        const Clock::time_point t0 = Clock::now();
        actions[k] = p.agent->act_explore();
        act.add(since(t0));
        jobs.push_back(
            env::EvalJob{&p.env->bench(), &actions[k], p.env->eval_attr()});
        active.push_back(k);
      }
      const std::vector<env::EvalResult> res = eval_round();
      for (std::size_t j = 0; j < active.size(); ++j) {
        const std::size_t k = active[j];
        RlPair& p = rl_pairs[k];
        // observe() runs the critic/actor updates once the episode count
        // it is about to reach exceeds the warm-up.
        const bool updates = p.agent->episode() >= p.agent->config().warmup;
        const Clock::time_point t0 = Clock::now();
        p.agent->observe(actions[k], res[j].fom);
        const double s = since(t0);
        observe.add(s);
        if (updates) update.add(s);
        rl::RunResult& r = results[p.out];
        r.sims += ledgers[k].charge(p.env->bench().space, res[j].params);
        r.commit(actions[k], res[j]);
      }
    }
  }

  // Ask/tell rounds (rl::run_optimizer_lockstep): truncated asks in pair
  // order, one merged batch, commits and tell in pair order.
  if (!bb_pairs.empty()) {
    struct PairState {
      SimLedger ledger;
      std::vector<std::vector<double>> xs;
      std::vector<gcnrl::la::Mat> mats;
      bool done = false;
    };
    std::vector<PairState> state(bb_pairs.size());
    std::vector<std::size_t> asked;
    for (;;) {
      jobs.clear();
      asked.clear();
      for (std::size_t k = 0; k < bb_pairs.size(); ++k) {
        PairState& st = state[k];
        BbPair& p = bb_pairs[k];
        const rl::RunResult& r = results[p.out];
        if (st.done || r.evals >= p.steps) {
          st.done = true;
          continue;
        }
        st.xs = p.opt->ask();
        if (st.xs.empty()) {
          st.done = true;
          continue;
        }
        const auto room = static_cast<std::size_t>(p.steps - r.evals);
        if (st.xs.size() > room) st.xs.resize(room);
        st.mats.clear();
        for (const auto& x : st.xs) {
          st.mats.push_back(p.env->bench().space.unflatten(x));
        }
        for (const gcnrl::la::Mat& m : st.mats) {
          jobs.push_back(env::EvalJob{&p.env->bench(), &m, p.env->eval_attr()});
        }
        asked.push_back(k);
      }
      if (jobs.empty()) break;
      const std::vector<env::EvalResult> res = eval_round();
      std::size_t offset = 0;
      for (const std::size_t k : asked) {
        PairState& st = state[k];
        BbPair& p = bb_pairs[k];
        rl::RunResult& r = results[p.out];
        const gcnrl::circuit::DesignSpace& space = p.env->bench().space;
        std::vector<double> ys;
        for (std::size_t i = 0; i < st.xs.size(); ++i) {
          const env::EvalResult& e = res[offset + i];
          ys.push_back(e.fom);
          r.sims += st.ledger.charge(space, e.params);
          r.commit_flat(space, st.xs[i], e);
        }
        p.opt->tell(st.xs, ys);
        offset += st.xs.size();
      }
    }
  }
  run.run_s = since(t_run);
  const sim::SimPerf sim1 = sim::sim_perf_snapshot();

  for (std::size_t i = 0; i < run.seeds.size(); ++i) {
    SeedOutcome& o = run.seeds[i];
    o.fingerprint = api::trace_fingerprint(results[i].best_trace);
    o.best = results[i].best_fom;
    o.sims = results[i].sims;
    o.evals = results[i].evals;
  }

  std::vector<LayerMetric>& m = run.layers;
  const auto add = [&m](std::string name, double value, const char* unit) {
    m.push_back(LayerMetric{std::move(name), value, unit});
  };
  const auto count = [](long n) { return static_cast<double>(n); };

  add("rl.act_calls", count(act.calls), "count");
  add("rl.act_s", act.seconds, "s");
  add("rl.observe_calls", count(observe.calls), "count");
  add("rl.observe_s", observe.seconds, "s");
  add("rl.update_calls", count(update.calls), "count");
  add("rl.update_ms_p50", percentile(update.ms, 0.50), "ms");
  add("rl.update_ms_p95", percentile(update.ms, 0.95), "ms");
  for (const auto& [name, span] :
       {std::pair<const char*, const Span*>{"ask", &ask}, {"tell", &tell}}) {
    const std::string p = std::string("opt.") + name;
    add(p + "_calls", count(span->calls), "count");
    add(p + "_s", span->seconds, "s");
    add(p + "_ms_p50", percentile(span->ms, 0.50), "ms");
    add(p + "_ms_p95", percentile(span->ms, 0.95), "ms");
  }

  const double eval_s = probe.eval_s();
  add("env.calibrate_s", calibrate_s, "s");
  add("env.batches", count(batch.calls), "count");
  add("env.batch_s", batch.seconds, "s");
  add("env.batch_ms_p50", percentile(batch.ms, 0.50), "ms");
  add("env.batch_ms_p95", percentile(batch.ms, 0.95), "ms");
  add("env.requested", count(svc->requested()), "count");
  add("env.sims", count(svc->sims()), "count");
  add("env.cache_hits", count(svc->cache_hits()), "count");
  add("env.cache_hit_frac",
      svc->requested() > 0 ? count(svc->cache_hits()) / count(svc->requested())
                           : 0.0,
      "ratio");
  add("env.pool_util",
      batch.seconds > 0.0
          ? (eval_s - calib_eval_s) / (batch.seconds * svc->threads())
          : 0.0,
      "ratio");

  const std::vector<double> eval_ms = probe.eval_ms();
  add("circuits.evals", count(probe.evals()), "count");
  add("circuits.eval_s", eval_s, "s");
  add("circuits.eval_ms_p50", percentile(eval_ms, 0.50), "ms");
  add("circuits.eval_ms_p95", percentile(eval_ms, 0.95), "ms");
  add("circuits.fails", count(probe.fails()), "count");
  for (std::size_t r = 0; r < kFailReasons; ++r) {
    add(std::string("circuits.fail.") + kFailReasonNames[r],
        count(probe.fails(static_cast<FailReason>(r))), "count");
  }

  double sim_s = 0.0;
  long sparse_fallbacks = 0;
  const std::pair<const char*, sim::AnalysisPerf sim::SimPerf::*> analyses[] = {
      {"dc", &sim::SimPerf::dc},
      {"ac", &sim::SimPerf::ac},
      {"noise", &sim::SimPerf::noise},
      {"tran", &sim::SimPerf::tran}};
  for (const auto& [name, field] : analyses) {
    const sim::AnalysisPerf& a = sim0.*field;
    const sim::AnalysisPerf& b = sim1.*field;
    const std::string p = std::string("sim.") + name;
    add(p + ".calls", count(b.calls - a.calls), "count");
    add(p + ".items", count(b.items - a.items), "count");
    add(p + ".s", b.seconds - a.seconds, "s");
    add(p + ".assembly_s", b.phase.assembly - a.phase.assembly, "s");
    add(p + ".factor_s", b.phase.factor - a.phase.factor, "s");
    add(p + ".solve_s", b.phase.solve - a.phase.solve, "s");
    sim_s += b.seconds - a.seconds;
    sparse_fallbacks += b.sparse_fallbacks - a.sparse_fallbacks;
  }
  add("sim.sparse_fallbacks", count(sparse_fallbacks), "count");
  add("circuits.residual_s", eval_s - sim_s, "s");

  const double attributed = calibrate_s + batch.seconds + act.seconds +
                            observe.seconds + ask.seconds + tell.seconds;
  add("trace.unattributed_frac", (run.run_s - attributed) / run.run_s,
      "ratio");
  return run;
}

}  // namespace perfbench
