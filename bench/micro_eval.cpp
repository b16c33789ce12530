// google-benchmark for the EvalService: evaluations/sec on the two_tia
// benchmark circuit at 1/2/4/8 worker threads, plus the cache-hit fast
// path. This is the scaling number behind GCNRL_EVAL_THREADS — on an
// N-core machine the thread-pool rows should approach N x the serial row
// (the sims are independent and share no mutable state).
//
// Counters: items_per_second is evaluations/sec; use
// --benchmark_counters_tabular=true for a compact table.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "api/registry.hpp"
#include "common/rng.hpp"
#include "env/eval_service.hpp"
#include "env/sizing_env.hpp"
#include "opt/bayes_opt.hpp"
#include "rl/ddpg.hpp"
#include "rl/run_loop.hpp"
#include "sim/perf.hpp"

using namespace gcnrl;

namespace {

const auto kTech = circuit::make_technology("180nm");

// Distinct random designs through the full refine -> simulate -> FoM
// pipeline, cache disabled: pure simulation throughput vs thread count.
void BM_EvalBatch_TwoTia(benchmark::State& state) {
  env::EvalServiceConfig cfg;
  cfg.threads = static_cast<int>(state.range(0));
  cfg.cache_capacity = 0;
  env::SizingEnv env(api::build_circuit("Two-TIA", kTech), env::IndexMode::OneHot,
                     cfg);
  constexpr int kBatch = 32;
  Rng rng(7);
  std::vector<la::Mat> batch;
  batch.reserve(kBatch);
  for (int i = 0; i < kBatch; ++i) batch.push_back(env.random_actions(rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(env.step_batch(batch).front().fom);
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_EvalBatch_TwoTia)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// The same batch revisited: after the first iteration every design is a
// cache hit, so this bounds the per-evaluation engine overhead (refine +
// key + LRU + FoM recompute, no simulation).
void BM_EvalBatch_TwoTia_CacheHit(benchmark::State& state) {
  env::EvalServiceConfig cfg;
  cfg.threads = 1;
  cfg.cache_capacity = 1024;
  env::SizingEnv env(api::build_circuit("Two-TIA", kTech), env::IndexMode::OneHot,
                     cfg);
  constexpr int kBatch = 32;
  Rng rng(7);
  std::vector<la::Mat> batch;
  batch.reserve(kBatch);
  for (int i = 0; i < kBatch; ++i) batch.push_back(env.random_actions(rng));
  benchmark::DoNotOptimize(env.step_batch(batch).front().fom);  // warm
  for (auto _ : state) {
    benchmark::DoNotOptimize(env.step_batch(batch).front().fom);
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_EvalBatch_TwoTia_CacheHit)->Unit(benchmark::kMillisecond);

// Cache-disabled single-eval path with per-analysis attribution: every
// counter row below lands in the --benchmark_out JSON, so CI publishes a
// machine-readable breakdown of where an evaluation spends its time
// (DC solve, AC sweep, noise, transient) and how often the DC warm starts
// within one evaluation (sibling testbenches, the transient's t=0 point)
// converge. The workload is an optimizer-like trajectory: small
// perturbations around one base design.
void BM_SingleEval_PerAnalysis(benchmark::State& state, const char* name) {
  env::EvalServiceConfig cfg;
  cfg.threads = 1;
  cfg.cache_capacity = 0;  // cache disabled: every step simulates
  env::SizingEnv env(api::build_circuit(name, kTech),
                     env::IndexMode::OneHot, cfg);
  Rng rng(11);
  const la::Mat base = env.random_actions(rng);
  constexpr int kTraj = 8;
  std::vector<la::Mat> traj(kTraj, base);
  for (auto& a : traj) {
    for (int i = 0; i < a.rows(); ++i) {
      for (int j = 0; j < a.cols(); ++j) a(i, j) += 0.05 * rng.normal();
    }
  }
  sim::sim_perf_reset();
  long evals = 0;
  for (auto _ : state) {
    for (const auto& a : traj) benchmark::DoNotOptimize(env.step(a).fom);
    evals += kTraj;
  }
  const sim::SimPerf p = sim::sim_perf_snapshot();
  const double inv = evals > 0 ? 1.0 / static_cast<double>(evals) : 0.0;
  auto& c = state.counters;
  c["dc_ms_per_eval"] = 1e3 * p.dc.seconds * inv;
  c["ac_ms_per_eval"] = 1e3 * p.ac.seconds * inv;
  c["noise_ms_per_eval"] = 1e3 * p.noise.seconds * inv;
  c["tran_ms_per_eval"] = 1e3 * p.tran.seconds * inv;
  // Phase split within each analysis (see sim::PhaseSeconds): the phases
  // deliberately do not sum to the analysis total — convergence checks
  // and bookkeeping live between them. In DC and the transient, device-
  // model evaluation is part of assembly.
  const auto phase_rows = [&](const char* tag, const sim::AnalysisPerf& a) {
    c[std::string(tag) + "_assembly_ms_per_eval"] =
        1e3 * a.phase.assembly * inv;
    c[std::string(tag) + "_factor_ms_per_eval"] = 1e3 * a.phase.factor * inv;
    c[std::string(tag) + "_solve_ms_per_eval"] = 1e3 * a.phase.solve * inv;
  };
  phase_rows("dc", p.dc);
  phase_rows("ac", p.ac);
  phase_rows("noise", p.noise);
  phase_rows("tran", p.tran);
  c["sparse_fallbacks"] = static_cast<double>(
      p.ac.sparse_fallbacks + p.noise.sparse_fallbacks +
      p.tran.sparse_fallbacks);
  c["dc_solves_per_eval"] = static_cast<double>(p.dc.calls) * inv;
  c["dc_iters_per_eval"] = static_cast<double>(p.dc.items) * inv;
  c["ac_points_per_eval"] = static_cast<double>(p.ac.items) * inv;
  c["tran_steps_per_eval"] = static_cast<double>(p.tran.items) * inv;
  // Share of transient steps copied from a settled cycle, not solved.
  c["tran_replayed_frac"] =
      p.tran.items > 0 ? static_cast<double>(p.tran.replayed) /
                             static_cast<double>(p.tran.items)
                       : 0.0;
  c["warm_hit_rate"] =
      p.dc.calls > 0
          ? static_cast<double>(p.dc.warm_hits) /
                static_cast<double>(p.dc.calls)
          : 0.0;
  c["warm_fallback_rate"] =
      p.dc.calls > 0
          ? static_cast<double>(p.dc.warm_fallbacks) /
                static_cast<double>(p.dc.calls)
          : 0.0;
  state.SetItemsProcessed(evals);
}
BENCHMARK_CAPTURE(BM_SingleEval_PerAnalysis, two_tia, "Two-TIA")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SingleEval_PerAnalysis, two_volt, "Two-Volt")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SingleEval_PerAnalysis, three_tia, "Three-TIA")
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_SingleEval_PerAnalysis, ldo, "LDO")
    ->Unit(benchmark::kMillisecond);

// Lockstep multi-seed DDPG throughput: 4 (env, agent) pairs sharing one
// EvalService, each agent behind an rl::DdpgOptimizer, stepped via
// rl::run_optimizer_lockstep. items_per_second counts seed-steps (one
// simulation each, cache disabled); agents stay in their warm-up phase so
// the number measures the sweep engine + simulator, not network updates.
// On an N-core machine the multi-thread rows should pull ahead of serial
// — this is the "seeds/sec" scaling number behind api::run_tasks' DDPG
// seeds.
void BM_DdpgLockstep_TwoTia(benchmark::State& state) {
  env::EvalServiceConfig cfg;
  cfg.threads = static_cast<int>(state.range(0));
  cfg.cache_capacity = 0;
  const auto svc = std::make_shared<env::EvalService>(cfg);
  constexpr int kSeeds = 4;
  constexpr int kSteps = 8;
  std::vector<std::unique_ptr<env::SizingEnv>> envs;
  std::vector<std::unique_ptr<rl::DdpgAgent>> agents;
  std::vector<std::unique_ptr<rl::DdpgOptimizer>> opts;
  std::vector<rl::OptimizerPair> pairs;
  rl::DdpgConfig rl_cfg;
  rl_cfg.warmup = 1 << 30;  // never leave warm-up: no NN updates measured
  for (int s = 0; s < kSeeds; ++s) {
    envs.push_back(std::make_unique<env::SizingEnv>(
        api::build_circuit("Two-TIA", kTech), env::IndexMode::OneHot, svc));
    agents.push_back(std::make_unique<rl::DdpgAgent>(
        envs.back()->state(), envs.back()->adjacency(), envs.back()->kinds(),
        rl_cfg, Rng(100 + s)));
    opts.push_back(std::make_unique<rl::DdpgOptimizer>(
        *agents.back(), envs.back()->bench().space));
    pairs.push_back(
        rl::OptimizerPair{envs.back().get(), opts.back().get(), kSteps, -1});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        rl::run_optimizer_lockstep(pairs).front().best_fom);
  }
  state.SetItemsProcessed(state.iterations() * kSeeds * kSteps);
}
BENCHMARK(BM_DdpgLockstep_TwoTia)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

// Lockstep multi-seed black-box throughput: 4 (env, BayesOpt) pairs
// sharing one EvalService, stepped via rl::run_optimizer_lockstep — the
// driver behind the budgeted BO/MACE seed sweeps. items_per_second counts
// seed-evaluations (cache disabled). Ask/tell is sequential within a
// seed, so just like the DDPG row this is the cross-seed scaling number:
// multi-thread rows should pull ahead of serial on an N-core machine.
void BM_BayesOptLockstep_TwoTia(benchmark::State& state) {
  env::EvalServiceConfig cfg;
  cfg.threads = static_cast<int>(state.range(0));
  cfg.cache_capacity = 0;
  constexpr int kSeeds = 4;
  constexpr int kSteps = 8;
  for (auto _ : state) {
    state.PauseTiming();  // fresh optimizers/envs: identical work per iter
    const auto svc = std::make_shared<env::EvalService>(cfg);
    std::vector<std::unique_ptr<env::SizingEnv>> envs;
    std::vector<std::unique_ptr<opt::BayesOpt>> opts;
    std::vector<rl::OptimizerPair> pairs;
    for (int s = 0; s < kSeeds; ++s) {
      envs.push_back(std::make_unique<env::SizingEnv>(
          api::build_circuit("Two-TIA", kTech), env::IndexMode::OneHot, svc));
      opts.push_back(std::make_unique<opt::BayesOpt>(envs.back()->flat_dim(),
                                                     Rng(200 + s)));
      pairs.push_back(rl::OptimizerPair{envs.back().get(), opts.back().get(),
                                        kSteps, -1});
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        rl::run_optimizer_lockstep(pairs).front().best_fom);
  }
  state.SetItemsProcessed(state.iterations() * kSeeds * kSteps);
}
BENCHMARK(BM_BayesOptLockstep_TwoTia)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace
