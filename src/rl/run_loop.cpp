#include "rl/run_loop.hpp"

#include <algorithm>
#include <numeric>
#include <set>
#include <stdexcept>
#include <unordered_set>

#include "env/eval_service.hpp"

namespace gcnrl::rl {

namespace {

// Simulated-cost ledger of one run: charges a simulation the first time
// the run evaluates a refined design, nothing on within-run repeats. The
// charge is computed from the run's own history only, so it equals the
// simulator runs an isolated run (private service, unbounded cache) would
// execute — independent of shared-cache warmth, cache capacity, and
// thread count. This is the quantity sim-cost budgets count.
class SimLedger {
 public:
  // Returns 1 when the design is new to this run (one simulation charged).
  long charge(const circuit::DesignSpace& space,
              const circuit::DesignParams& params) {
    return seen_.insert(env::design_key(space, params)).second ? 1 : 0;
  }

 private:
  std::unordered_set<env::EvalCache::Key, env::EvalCache::KeyHash,
                     env::EvalCache::KeyEqual>
      seen_;
};

// Partition pair indices by EvalService in first-appearance order: pairs
// on different services cannot share a batch, so each group runs its own
// lockstep loop back-to-back. Per-pair results are independent of the
// grouping (every optimizer stream is strictly per-pair).
std::vector<std::vector<std::size_t>> group_by_service(
    std::span<env::SizingEnv* const> envs) {
  std::vector<env::EvalService*> services;
  std::vector<std::vector<std::size_t>> groups;
  for (std::size_t i = 0; i < envs.size(); ++i) {
    env::EvalService* svc = &envs[i]->eval_service();
    const auto it = std::find(services.begin(), services.end(), svc);
    if (it == services.end()) {
      services.push_back(svc);
      groups.emplace_back();
      groups.back().push_back(i);
    } else {
      groups[static_cast<std::size_t>(it - services.begin())].push_back(i);
    }
  }
  return groups;
}

}  // namespace

void RunResult::record(double fom) {
  best_fom = std::max(best_fom, fom);
  best_trace.push_back(best_fom);
}

void RunResult::commit(const la::Mat& actions, const env::EvalResult& r) {
  ++evals;
  if (r.cached) ++cache_hits;
  if (r.fom > best_fom) {
    best_actions = actions;
    best_metrics = r.metrics;
  }
  record(r.fom);
}

void RunResult::commit_flat(const circuit::DesignSpace& space,
                            std::span<const double> x,
                            const env::EvalResult& r) {
  ++evals;
  if (r.cached) ++cache_hits;
  if (r.fom > best_fom) {
    best_actions = space.unflatten(x);
    best_metrics = r.metrics;
  }
  record(r.fom);
}

RunResult run_ddpg(env::SizingEnv& env, DdpgAgent& agent, int steps) {
  // DDPG is inherently sequential (each action depends on the previous
  // observation), so it steps one evaluation at a time; the EvalService
  // cache still short-circuits revisited designs. For parallelism across
  // independent runs, see run_optimizer_lockstep and DdpgOptimizer below.
  RunResult out;
  SimLedger ledger;
  for (int step = 0; step < steps; ++step) {
    const la::Mat actions = agent.act_explore();
    const env::EvalResult r = env.step(actions);
    agent.observe(actions, r.fom);
    out.sims += ledger.charge(env.bench().space, r.params);
    out.commit(actions, r);
  }
  return out;
}

std::vector<std::vector<double>> DdpgOptimizer::ask() {
  actions_ = agent_.act_explore();
  return {space_.flatten(actions_)};
}

void DdpgOptimizer::tell(const std::vector<std::vector<double>>& xs,
                         const std::vector<double>& ys) {
  if (xs.size() != 1 || ys.size() != 1) {
    throw std::invalid_argument(
        "DdpgOptimizer::tell: expects the one result of the last ask()");
  }
  agent_.observe(actions_, ys.front());
}

namespace {

void run_optimizer_lockstep_group(std::span<const OptimizerPair> pairs,
                                  const std::vector<std::size_t>& members,
                                  std::vector<RunResult>& out) {
  env::EvalService& svc = pairs[members.front()].env->eval_service();
  struct PairState {
    SimLedger ledger;
    std::vector<std::vector<double>> xs;  // this round's (truncated) ask()
    std::vector<double> ys;               // their FoMs, told next round
    std::vector<la::Mat> mats;            // unflattened, alive for the batch
    bool done = false;
  };
  std::vector<PairState> state(members.size());
  std::vector<std::size_t> active(members.size());  // slots, pair order
  std::iota(active.begin(), active.end(), std::size_t{0});
  std::vector<env::EvalJob> jobs;
  while (!active.empty()) {
    // Ask/tell phase: ask/tell is sequential within a pair but the pairs
    // are independent and share no mutable state, so each active pair runs
    // one task on the service's workers: tell() of last round's results,
    // the budget check, ask() truncated to the remaining budget, and the
    // unflatten. A pair whose budget is exhausted or whose
    // ask() comes back empty drops out instead of padding the batch.
    svc.parallel_for(active.size(), [&](std::size_t j) {
      const std::size_t k = active[j];
      PairState& st = state[k];
      const OptimizerPair& p = pairs[members[k]];
      const RunResult& res = out[members[k]];
      if (!st.ys.empty()) {
        p.opt->tell(st.xs, st.ys);
        st.ys.clear();
      }
      st.mats.clear();
      if (res.evals >= p.steps ||
          (p.max_sims >= 0 && res.sims >= p.max_sims)) {
        st.done = true;
        return;
      }
      st.xs = p.opt->ask();
      if (st.xs.empty()) {
        st.done = true;
        return;
      }
      std::size_t room = static_cast<std::size_t>(p.steps - res.evals);
      if (p.max_sims >= 0) {
        room = std::min(room, static_cast<std::size_t>(p.max_sims - res.sims));
      }
      if (st.xs.size() > room) st.xs.resize(room);
      st.mats.reserve(st.xs.size());
      for (const auto& x : st.xs) {
        st.mats.push_back(p.env->bench().space.unflatten(x));
      }
    });
    std::erase_if(active, [&](std::size_t k) { return state[k].done; });
    if (active.empty()) break;
    // One merged multi-circuit batch, pair order: all populations of the
    // round for the thread pool at once.
    jobs.clear();
    for (const std::size_t k : active) {
      const OptimizerPair& p = pairs[members[k]];
      for (const la::Mat& m : state[k].mats) {
        jobs.push_back(env::EvalJob{&p.env->bench(), &m, p.env->eval_attr()});
      }
    }
    const std::vector<env::EvalResult> results = svc.eval_batch_multi(jobs);
    // Ledger charges and commits, pair order; tell() follows next round.
    std::size_t offset = 0;
    for (const std::size_t k : active) {
      PairState& st = state[k];
      RunResult& res = out[members[k]];
      const circuit::DesignSpace& space = pairs[members[k]].env->bench().space;
      st.ys.reserve(st.xs.size());
      for (std::size_t i = 0; i < st.xs.size(); ++i) {
        const env::EvalResult& r = results[offset + i];
        st.ys.push_back(r.fom);
        res.sims += st.ledger.charge(space, r.params);
        res.commit_flat(space, st.xs[i], r);
      }
      offset += st.xs.size();
    }
  }
}

}  // namespace

std::vector<RunResult> run_optimizer_lockstep(
    std::span<const OptimizerPair> pairs) {
  std::vector<RunResult> out(pairs.size());
  if (pairs.empty()) return out;
  std::vector<env::SizingEnv*> envs;
  std::set<const opt::Optimizer*> opts;
  envs.reserve(pairs.size());
  for (const OptimizerPair& p : pairs) {
    if (p.env == nullptr || p.opt == nullptr) {
      throw std::invalid_argument(
          "run_optimizer_lockstep: every pair needs an env and an optimizer");
    }
    if (!opts.insert(p.opt).second) {
      throw std::invalid_argument(
          "run_optimizer_lockstep: an optimizer appears in more than one pair");
    }
    envs.push_back(p.env);
  }
  for (const auto& members : group_by_service(envs)) {
    run_optimizer_lockstep_group(pairs, members, out);
  }
  return out;
}

}  // namespace gcnrl::rl
