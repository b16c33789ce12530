// The optimization-loop drivers behind api::run_tasks and the examples:
// run a method against SizingEnvs for a budget and record the best-so-far
// FoM trace (the quantity plotted in the paper's Figs. 5/7/8).
//
// run_optimizer_lockstep is the one driver of api::run_tasks. Every method
// reaches it as an opt::Optimizer: ES, BO, MACE and Random directly, the
// DDPG agents of NG-RL and GCN-RL through DdpgOptimizer, and Human as a
// one-proposal optimizer. It steps S independent (env, optimizer) pairs
// side by side: every round's proposals go to the pairs' shared
// EvalService as one batch, and each pair's own work (a DDPG observe() and
// its next action, an optimizer's tell() and ask()) runs concurrently on
// the service's workers. Each pair's result is exactly what a serial loop
// over that pair alone would produce — its RNG stream, its history and its
// batches do not depend on the other pairs or on the thread count — so
// best_trace is bit-identical under GCNRL_EVAL_THREADS=1 and =N and under
// any grouping of pairs. The serial references the tests compare against
// are run_ddpg below and a serial ask/tell loop kept in tests/.
//
// Budgets are deterministic. An evaluation budget caps trace commits; a
// simulated-cost budget caps RunResult::sims, the number of simulations
// the run would execute in isolation: the first evaluation of each
// distinct refined design costs one simulation, repeats of a design the
// run already evaluated are free. This charge is a pure function of the
// run's own proposal stream — independent of thread count, cache capacity,
// and whatever other runs warmed a shared cache — which is what makes
// sim-budgeted tables bit-reproducible. (The paper's Table I matched
// BO/MACE to the RL methods by wall-clock, which is nondeterministic;
// OptimizerPair::max_sims replaces it.)
#pragma once

#include <span>
#include <vector>

#include "env/sizing_env.hpp"
#include "opt/optimizer.hpp"
#include "rl/ddpg.hpp"

namespace gcnrl::rl {

struct RunResult {
  std::vector<double> best_trace;  // best FoM after each evaluation
  double best_fom = -1e300;
  la::Mat best_actions;            // n x kMaxActionDim
  env::MetricMap best_metrics;
  long evals = 0;       // evaluations committed to the trace
  long sims = 0;        // simulated cost: first-in-run distinct designs
  long cache_hits = 0;  // subset served by the EvalService result cache

  void record(double fom);
  // Commit one evaluation: counters, best-so-far bookkeeping, and the
  // trace. Cached and freshly simulated results are handled identically —
  // a cache hit carries the same metrics/actions a fresh simulation would.
  void commit(const la::Mat& actions, const env::EvalResult& r);
  // Flat-vector variant: unflattens into best_actions only when the
  // result improves on the best, keeping the cache-hit fast path cheap.
  void commit_flat(const circuit::DesignSpace& space,
                   std::span<const double> x, const env::EvalResult& r);
};

// Run `agent` for `steps` episodes of Algorithm 1 against `env`, one
// evaluation at a time.
RunResult run_ddpg(env::SizingEnv& env, DdpgAgent& agent, int steps);

// A DDPG agent behind the ask/tell interface, so that
// run_optimizer_lockstep drives the RL methods too. ask() proposes one
// act_explore() action, flattened, and keeps the full action matrix;
// tell() hands that matrix and its FoM to observe(). The agent thus sees
// the action/reward sequence of run_ddpg, bit for bit. The agent and the
// design space must outlive the optimizer.
class DdpgOptimizer final : public opt::Optimizer {
 public:
  DdpgOptimizer(DdpgAgent& agent, const circuit::DesignSpace& space)
      : agent_(agent), space_(space) {}

  std::vector<std::vector<double>> ask() override;
  // Expects the one result of the last ask(); throws std::invalid_argument
  // otherwise.
  void tell(const std::vector<std::vector<double>>& xs,
            const std::vector<double>& ys) override;
  [[nodiscard]] int dim() const override { return space_.flat_dim(); }

 private:
  DdpgAgent& agent_;
  const circuit::DesignSpace& space_;
  la::Mat actions_;  // the last ask()'s action matrix, unused columns kept
};

// One (env, optimizer) pair of a lockstep sweep, with its own budgets:
// `steps` caps trace commits (<= 0: the pair never runs); `max_sims` >= 0
// additionally caps the simulated cost (RunResult::sims), < 0 means no
// simulated-cost cap. Each ask() population is truncated to the remaining
// budget (an evaluation costs at most one simulation, so neither budget
// can be overshot).
struct OptimizerPair {
  env::SizingEnv* env = nullptr;
  opt::Optimizer* opt = nullptr;
  int steps = 0;
  long max_sims = -1;
};

// The lockstep multi-seed driver. Each round, every still-active pair
// runs one task on the pairs' shared EvalService
// (EvalService::parallel_for): tell() of its previous round's results,
// the budget check, then ask(), truncated to the remaining budget. Then,
// in pair order, the populations are merged into one multi-circuit batch
// and the sim charges and commits follow. Ask/tell is sequential within a
// pair, but the pairs are independent, so both the evaluations and the
// pairs' own work (a DDPG seed's critic/actor updates, a BO/MACE seed's GP
// fit and acquisition, a CMA-ES update) run across seeds on the thread
// pool. A pair drops out once its evaluation or simulated-cost budget is
// exhausted or its ask() comes back empty (the optimizer has nothing left
// to propose), instead of padding later batches. Pairs may mix circuits,
// technologies, FoM specs and methods freely; pairs on different services
// cannot share a batch, so they are grouped by service and the groups run
// back-to-back. Per-pair best_trace/sims are bit-identical to a serial
// ask/tell loop over the pair alone (run_ddpg, for a DdpgOptimizer) at any
// GCNRL_EVAL_THREADS and under any grouping: FoM values never depend on
// cache state, each optimizer sees the identical ask/tell sequence, and
// the batches hold the same jobs in the same order.
//
// Paired optimizers must not share mutable state (two DdpgOptimizers over
// one agent do), since their ask() and tell() calls run at the same time.
// Throws std::invalid_argument when a pair lacks an env or optimizer, or
// when one optimizer appears in more than one pair. An exception from
// ask() or tell() reaches the caller after the round's other tasks
// finish; when several pairs throw in one round, the lowest pair index
// wins.
std::vector<RunResult> run_optimizer_lockstep(
    std::span<const OptimizerPair> pairs);

}  // namespace gcnrl::rl
