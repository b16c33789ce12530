// The optimization-loop drivers behind api::run_tasks and the examples:
// run DDPG agents or black-box optimizers against SizingEnvs for a budget
// and record the best-so-far FoM trace (the quantity plotted in the
// paper's Figs. 5/7/8).
//
// The lockstep drivers step S independent (env, agent) or (env,
// optimizer) pairs side by side: every round's proposals go to the pairs'
// shared EvalService as one batch, and each pair's own work (a DDPG
// observe(), an optimizer's tell() and ask()) runs concurrently on the
// service's workers. Each pair's result is exactly what a serial loop over
// that pair alone would produce — its RNG stream, its history and its
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

#include <memory>
#include <span>
#include <string>
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

// Run `agent` for `steps` episodes of Algorithm 1 against `env`.
RunResult run_ddpg(env::SizingEnv& env, DdpgAgent& agent, int steps);

// Lockstep multi-seed DDPG: step S independent (env, agent) pairs side by
// side. Per step, the exploration actions of every still-active pair are
// collected in pair order and submitted to the pairs' shared EvalService
// as one multi-circuit batch. DDPG is sequential within a seed but the
// seeds are independent, so the active pairs' observe() calls (replay
// push plus the critic/actor updates, the bulk of a step) then run
// concurrently, one task per pair on the service's workers
// (EvalService::parallel_for), and the sim charges and commits follow
// sequentially in pair order. Each agent's RNG stream, replay history, and
// reward sequence are exactly what serial run_ddpg would produce, so
// per-pair results are bit-identical to S serial runs at any
// GCNRL_EVAL_THREADS.
//
// Pairs may mix circuits, technologies, and FoM specs freely. Pairs on
// different EvalServices cannot share a batch, so they are transparently
// grouped by service and the groups run back-to-back (results are
// independent of the grouping). The span overload gives each pair its own
// step budget: a pair whose budget is exhausted drops out of subsequent
// batches instead of padding them with wasted simulations.
//
// Requirements: envs, agents (and steps, for the span overload) must have
// equal sizes, and paired agents must not share mutable state, since their
// observe() calls run at the same time. Throws std::invalid_argument on a
// size mismatch or when one agent appears in more than one pair.
std::vector<RunResult> run_ddpg_lockstep(std::span<env::SizingEnv* const> envs,
                                         std::span<DdpgAgent* const> agents,
                                         std::span<const int> steps);
std::vector<RunResult> run_ddpg_lockstep(std::span<env::SizingEnv* const> envs,
                                         std::span<DdpgAgent* const> agents,
                                         int steps);

// One (env, optimizer) pair of a lockstep black-box sweep, with its own
// budgets: `steps` caps trace commits (<= 0: the pair never runs);
// `max_sims` >= 0 additionally caps the simulated cost (RunResult::sims),
// < 0 means no simulated-cost cap. Each ask() population is truncated to
// the remaining budget (an evaluation costs at most one simulation, so
// neither budget can be overshot).
struct OptimizerPair {
  env::SizingEnv* env = nullptr;
  opt::Optimizer* opt = nullptr;
  int steps = 0;
  long max_sims = -1;
};

// Lockstep multi-seed black-box driver, mirroring run_ddpg_lockstep. Each
// round, every still-active pair runs one task on the pairs' shared
// EvalService (EvalService::parallel_for): tell() of its previous round's
// results, the budget check, then ask(), truncated to the remaining
// budget. Then, in pair order, the populations are merged into one
// multi-circuit batch and the sim charges and commits follow. Ask/tell is
// sequential within a pair, but the pairs are independent, so both the
// evaluations and the optimizers' own work (a BO/MACE seed's GP fit and
// acquisition, a CMA-ES update) run across seeds on the thread pool.
// A pair drops out once its evaluation or simulated-cost budget is
// exhausted or its ask() comes back empty (the optimizer has nothing left
// to propose). Pairs on different services are grouped and the groups run
// back-to-back. Per-pair best_trace/sims are bit-identical to a serial
// ask/tell loop over the pair alone at any GCNRL_EVAL_THREADS (FoM values
// never depend on cache state, each optimizer sees the identical ask/tell
// sequence, and the batches hold the same jobs in the same order).
//
// Paired optimizers must not share mutable state, since their ask() and
// tell() calls run at the same time. Throws std::invalid_argument when a
// pair lacks an env or optimizer, or when one optimizer appears in more
// than one pair. An exception from ask() or tell() reaches the caller
// after the round's other tasks finish; when several pairs throw in one
// round, the lowest pair index wins.
std::vector<RunResult> run_optimizer_lockstep(
    std::span<const OptimizerPair> pairs);

// Evaluate `steps` uniform random designs (the paper's Random baseline),
// pre-generated and submitted in fixed-size batches.
RunResult run_random(env::SizingEnv& env, int steps, Rng rng);

}  // namespace gcnrl::rl
