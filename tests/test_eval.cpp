// Tests for the batched evaluation engine: the LRU result cache, in-batch
// deduplication, serial-vs-thread-pool equivalence (the determinism
// guarantee behind GCNRL_EVAL_THREADS), FoM recomputation on cache hits,
// the shared-service / multi-circuit batch API behind the lockstep
// multi-seed sweeps, and an 8-thread run over a real benchmark circuit
// (the TSan target).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "circuits/benchmark_circuits.hpp"
#include "env/eval_service.hpp"
#include "env/sizing_env.hpp"
#include "opt/bayes_opt.hpp"
#include "opt/cma_es.hpp"
#include "opt/mace.hpp"
#include "opt/random_search.hpp"
#include "rl/ddpg.hpp"
#include "rl/run_loop.hpp"
#include "serial_reference.hpp"
#include "sim/mna.hpp"
#include "test_helpers.hpp"

namespace env = gcnrl::env;
namespace circuit = gcnrl::circuit;
namespace la = gcnrl::la;
using gcnrl::Rng;

namespace {

// Simulator-free benchmark (mirror of test_env's synthetic): metrics are
// closed forms of the parameters, and designs with W below a threshold
// "fail to converge" so the sim-failure path is exercised too.
env::BenchmarkCircuit make_synthetic() {
  env::BenchmarkCircuit bc;
  bc.name = "Synthetic";
  bc.tech = circuit::make_technology("180nm");
  auto& nl = bc.netlist;
  const int a = nl.node("a");
  const int b = nl.node("b");
  nl.add_nmos("M1", a, b, 0, 0, 1e-6, 1e-6);
  nl.add_resistor("R1", a, b, 1e3);
  nl.add_capacitor("C1", b, 0, 1e-12);
  bc.space = circuit::DesignSpace::from_netlist(nl, bc.tech);
  env::FomSpec fom;
  fom.metrics = {
      {"speed", "Hz", +1.0, {}, {}, {}, true},
      {"cost", "W", -1.0, {}, {}, {}, true},
  };
  bc.fom = fom;
  bc.evaluate = [](const circuit::Netlist& sized) {
    const auto& mos = sized.mosfets()[0];
    const auto& res = sized.resistors()[0];
    if (mos.w < 0.4e-6) throw gcnrl::sim::SimError("did not converge");
    env::MetricMap m;
    m["speed"] = mos.w / mos.l;
    m["cost"] = mos.w * mos.m / res.r * 1e9;
    return m;
  };
  bc.human_expert.v = {{10e-6, 0.5e-6, 2}, {10e3, 0, 0}, {1e-12, 0, 0}};
  return bc;
}

env::EvalServiceConfig config(int threads, std::size_t cache) {
  env::EvalServiceConfig cfg;
  cfg.threads = threads;
  cfg.cache_capacity = cache;
  return cfg;
}

env::CachedEval cached(double v) {
  env::CachedEval c;
  c.sim_ok = true;
  c.metrics["m"] = v;
  return c;
}

}  // namespace

// --- EvalCache unit tests ------------------------------------------------

TEST(EvalCache, CapacityEvictionIsLeastRecentlyUsed) {
  env::EvalCache cache(2);
  cache.insert({1.0}, cached(1.0));
  cache.insert({2.0}, cached(2.0));
  ASSERT_NE(cache.find({1.0}), nullptr);  // touches {1.0}: {2.0} is now LRU
  cache.insert({3.0}, cached(3.0));       // evicts {2.0}
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_NE(cache.find({1.0}), nullptr);
  EXPECT_EQ(cache.find({2.0}), nullptr);
  ASSERT_NE(cache.find({3.0}), nullptr);
  EXPECT_DOUBLE_EQ(cache.find({3.0})->metrics.at("m"), 3.0);
}

TEST(EvalCache, ZeroCapacityDisablesCaching) {
  env::EvalCache cache(0);
  cache.insert({1.0}, cached(1.0));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.find({1.0}), nullptr);
}

TEST(EvalCache, ReinsertRefreshesValueWithoutGrowth) {
  env::EvalCache cache(4);
  cache.insert({1.0, 2.0}, cached(1.0));
  cache.insert({1.0, 2.0}, cached(9.0));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_DOUBLE_EQ(cache.find({1.0, 2.0})->metrics.at("m"), 9.0);
}

TEST(EvalCache, NanKeysAreWellBehaved) {
  // Key hashing AND equality are bitwise, so a NaN key (diverged agent)
  // behaves like any other: refreshes in place, evicts cleanly, and never
  // grows the map past capacity.
  env::EvalCache cache(2);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  cache.insert({nan}, cached(1.0));
  ASSERT_NE(cache.find({nan}), nullptr);  // bitwise: NaN key finds itself
  cache.insert({nan}, cached(2.0));
  EXPECT_EQ(cache.size(), 1u);  // refresh, not a duplicate entry
  EXPECT_DOUBLE_EQ(cache.find({nan})->metrics.at("m"), 2.0);
  cache.insert({1.0}, cached(3.0));
  cache.insert({2.0}, cached(4.0));  // evicts the NaN entry cleanly
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.find({nan}), nullptr);
}

TEST(EvalCache, DistinctKeysWithEqualHashInputsStayDistinct) {
  // Keys of different lengths and near-identical contents must not alias.
  env::EvalCache cache(8);
  cache.insert({1.0, 2.0}, cached(1.0));
  cache.insert({1.0, 2.0, 0.0}, cached(2.0));
  cache.insert({1.0}, cached(3.0));
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_DOUBLE_EQ(cache.find({1.0, 2.0})->metrics.at("m"), 1.0);
  EXPECT_DOUBLE_EQ(cache.find({1.0, 2.0, 0.0})->metrics.at("m"), 2.0);
  EXPECT_DOUBLE_EQ(cache.find({1.0})->metrics.at("m"), 3.0);
}

// --- quantization-collision behaviour ------------------------------------

TEST(EvalService, QuantizationCollisionsShareOneSimulation) {
  // Two raw action matrices that differ by less than the refinement grid
  // land on the same legal design, hence the same cache key: one sim.
  env::SizingEnv e(make_synthetic(), env::IndexMode::OneHot, config(1, 64));
  Rng rng(11);
  const la::Mat a1 = e.random_actions(rng);
  la::Mat a2 = a1;
  a2(0, 0) += 1e-9;  // sub-grid nudge: refines onto the identical W
  const auto r1 = e.step(a1);
  const auto r2 = e.step(a2);
  ASSERT_EQ(e.bench().space.refine(a1).v[0][0],
            e.bench().space.refine(a2).v[0][0]);
  EXPECT_FALSE(r1.cached);
  EXPECT_TRUE(r2.cached);
  EXPECT_EQ(e.num_evals(), 2);
  EXPECT_EQ(e.num_sims(), 1);
  EXPECT_EQ(e.cache_hits(), 1);
  EXPECT_DOUBLE_EQ(r1.fom, r2.fom);
  EXPECT_EQ(r1.metrics, r2.metrics);
}

TEST(EvalService, InBatchDuplicatesAreDeduplicated) {
  env::SizingEnv e(make_synthetic(), env::IndexMode::OneHot, config(4, 64));
  Rng rng(12);
  const la::Mat a = e.random_actions(rng);
  const std::vector<la::Mat> batch = {a, a, a};
  const auto rs = e.step_batch(batch);
  ASSERT_EQ(rs.size(), 3u);
  EXPECT_EQ(e.num_sims(), 1);
  EXPECT_EQ(e.cache_hits(), 2);
  EXPECT_FALSE(rs[0].cached);
  EXPECT_TRUE(rs[1].cached);
  EXPECT_TRUE(rs[2].cached);
  for (const auto& r : rs) {
    EXPECT_DOUBLE_EQ(r.fom, rs[0].fom);
    EXPECT_EQ(r.metrics, rs[0].metrics);
  }
}

TEST(EvalService, ZeroCacheCapacityForcesEverySimulation) {
  // "Cache=0 disables caching" means exactly that: even duplicate designs
  // inside one batch must each pay a simulation, so simulation-count cost
  // accounting stays exact.
  env::SizingEnv e(make_synthetic(), env::IndexMode::OneHot, config(4, 0));
  Rng rng(12);
  const la::Mat a = e.random_actions(rng);
  const std::vector<la::Mat> batch = {a, a, a};
  const auto rs = e.step_batch(batch);
  EXPECT_EQ(e.num_sims(), 3);
  EXPECT_EQ(e.cache_hits(), 0);
  for (const auto& r : rs) {
    EXPECT_FALSE(r.cached);
    EXPECT_DOUBLE_EQ(r.fom, rs[0].fom);
  }
}

TEST(EvalService, SimFailuresAreCachedToo) {
  auto bc = make_synthetic();
  env::SizingEnv e(std::move(bc), env::IndexMode::OneHot, config(1, 64));
  // Force W to its minimum: below the synthetic convergence threshold.
  la::Mat a(3, circuit::kMaxActionDim, -1.0);
  const auto r1 = e.step(a);
  const auto r2 = e.step(a);
  EXPECT_FALSE(r1.sim_ok);
  EXPECT_DOUBLE_EQ(r1.fom, e.bench().fom.sim_fail_fom);
  EXPECT_TRUE(r2.cached);
  EXPECT_FALSE(r2.sim_ok);
  EXPECT_DOUBLE_EQ(r2.fom, r1.fom);
  EXPECT_EQ(e.num_sims(), 1);
}

TEST(EvalService, CacheHitsRecomputeFomFromCurrentSpec) {
  // The cache stores raw metrics, not FoMs: recalibrating the normalizers
  // must change the FoM served for a cached design.
  env::SizingEnv e(make_synthetic(), env::IndexMode::OneHot, config(1, 64));
  const la::Mat a =
      e.bench().space.actions_from_params(e.bench().human_expert);
  const auto r1 = e.step(a);
  ASSERT_TRUE(r1.sim_ok);
  for (auto& md : e.bench().fom.metrics) {
    md.mmin = 1e-3;
    md.mmax = 1e12;
  }
  const auto r2 = e.step(a);
  EXPECT_TRUE(r2.cached);
  EXPECT_EQ(r2.metrics, r1.metrics);
  EXPECT_NE(r2.fom, r1.fom);
}

TEST(EvalService, StepMatchesStepBatch) {
  env::SizingEnv serial(make_synthetic(), env::IndexMode::OneHot,
                        config(1, 0));
  env::SizingEnv batched(make_synthetic(), env::IndexMode::OneHot,
                         config(4, 0));
  Rng rng(14);
  std::vector<la::Mat> batch;
  for (int i = 0; i < 16; ++i) batch.push_back(serial.random_actions(rng));
  const auto rs = batched.step_batch(batch);
  for (int i = 0; i < 16; ++i) {
    const auto r = serial.step(batch[static_cast<std::size_t>(i)]);
    EXPECT_DOUBLE_EQ(r.fom, rs[static_cast<std::size_t>(i)].fom);
    EXPECT_EQ(r.metrics, rs[static_cast<std::size_t>(i)].metrics);
  }
}

// --- serial vs parallel equivalence (the determinism guarantee) ----------

// Random is RandomSearch(dim, rng, 64) in the lockstep driver: it
// evaluates the designs DesignSpace::random_actions draws from the same
// stream, in the same order, and its trace, counters and cache use are the
// same at 1 and 4 eval threads.
TEST(EvalService, RunRandomTraceIsThreadCountInvariant) {
  env::SizingEnv ref(make_synthetic(), env::IndexMode::OneHot, config(1, 0));
  Rng draws(77);
  std::vector<la::Mat> designs;
  for (int i = 0; i < 200; ++i) designs.push_back(ref.random_actions(draws));
  std::vector<double> want_trace;
  double best = -1e300;
  for (const env::EvalResult& r : ref.step_batch(designs)) {
    best = std::max(best, r.fom);
    want_trace.push_back(best);
  }

  std::vector<gcnrl::rl::RunResult> runs;
  std::vector<long> env_sims;
  for (const int threads : {1, 4}) {
    env::SizingEnv e(make_synthetic(), env::IndexMode::OneHot,
                     config(threads, 256));
    gcnrl::opt::RandomSearch random(e.flat_dim(), Rng(77), 64);
    const gcnrl::rl::OptimizerPair pair{&e, &random, 200, -1};
    runs.push_back(gcnrl::rl::run_optimizer_lockstep({&pair, 1}).front());
    env_sims.push_back(e.num_sims());
    EXPECT_EQ(runs.back().best_trace, want_trace) << "threads " << threads;
  }
  const gcnrl::rl::RunResult& r1 = runs[0];
  const gcnrl::rl::RunResult& r4 = runs[1];
  EXPECT_EQ(r1.best_fom, r4.best_fom);
  EXPECT_EQ(r1.evals, 200);
  EXPECT_EQ(r1.evals, r4.evals);
  EXPECT_EQ(r1.sims, r4.sims);
  EXPECT_EQ(r1.cache_hits, r4.cache_hits);
  EXPECT_EQ(env_sims[0], env_sims[1]);
  EXPECT_EQ(r1.best_metrics, r4.best_metrics);
}

TEST(EvalService, RunOptimizerTraceIsThreadCountInvariant) {
  env::SizingEnv e1(make_synthetic(), env::IndexMode::OneHot, config(1, 256));
  env::SizingEnv e4(make_synthetic(), env::IndexMode::OneHot, config(4, 256));
  gcnrl::opt::CmaEs es1(e1.flat_dim(), Rng(99));
  gcnrl::opt::CmaEs es4(e4.flat_dim(), Rng(99));
  const auto r1 = gcnrl::testing::run_optimizer(e1, es1, 150);
  const auto r4 = gcnrl::testing::run_optimizer(e4, es4, 150);
  ASSERT_EQ(r1.best_trace.size(), r4.best_trace.size());
  for (std::size_t i = 0; i < r1.best_trace.size(); ++i) {
    EXPECT_DOUBLE_EQ(r1.best_trace[i], r4.best_trace[i]) << i;
  }
  EXPECT_DOUBLE_EQ(r1.best_fom, r4.best_fom);
  EXPECT_EQ(r1.evals, r4.evals);
  EXPECT_EQ(r1.sims, r4.sims);
  EXPECT_EQ(r1.cache_hits, r4.cache_hits);
  EXPECT_EQ(e1.num_sims(), e4.num_sims());
}

// Satellite check: best-so-far bookkeeping must not distinguish cached
// from fresh results — a best design found via a cache hit still records
// its actions and metrics.
TEST(EvalService, BestBookkeepingIncludesCacheHits) {
  env::SizingEnv e(make_synthetic(), env::IndexMode::OneHot, config(1, 64));
  Rng rng(21);
  const la::Mat good = e.bench().space.actions_from_params(
      e.bench().human_expert);
  // Prime the cache with the good design, then replay it via run-loop
  // commit: the second occurrence is a cache hit yet must become best.
  const auto fresh = e.step(good);
  ASSERT_TRUE(fresh.sim_ok);
  gcnrl::rl::RunResult out;
  const auto hit = e.step(good);
  ASSERT_TRUE(hit.cached);
  out.commit(good, hit);
  EXPECT_EQ(out.evals, 1);
  EXPECT_EQ(out.cache_hits, 1);
  EXPECT_DOUBLE_EQ(out.best_fom, hit.fom);
  EXPECT_EQ(out.best_metrics, hit.metrics);
  ASSERT_EQ(out.best_actions.rows(), good.rows());
  for (int i = 0; i < good.rows(); ++i) {
    for (int j = 0; j < good.cols(); ++j) {
      EXPECT_DOUBLE_EQ(out.best_actions(i, j), good(i, j));
    }
  }
}

TEST(EvalService, CalibrateIsBatchedAndDeterministic) {
  env::SizingEnv e1(make_synthetic(), env::IndexMode::OneHot, config(1, 0));
  env::SizingEnv e4(make_synthetic(), env::IndexMode::OneHot, config(4, 0));
  Rng r1(5), r4(5);
  EXPECT_EQ(e1.calibrate(50, r1), e4.calibrate(50, r4));
  for (std::size_t i = 0; i < e1.bench().fom.metrics.size(); ++i) {
    EXPECT_DOUBLE_EQ(e1.bench().fom.metrics[i].mmin,
                     e4.bench().fom.metrics[i].mmin);
    EXPECT_DOUBLE_EQ(e1.bench().fom.metrics[i].mmax,
                     e4.bench().fom.metrics[i].mmax);
  }
}

// --- config plumbing ------------------------------------------------------

using gcnrl::testing::ScopedEnv;

TEST(EvalConfig, ReadsEnvironmentKnobs) {
  {
    ScopedEnv t("GCNRL_EVAL_THREADS", "4");
    ScopedEnv c("GCNRL_EVAL_CACHE", "128");
    const auto cfg = env::eval_config_from_env();
    EXPECT_EQ(cfg.threads, 4);
    EXPECT_EQ(cfg.cache_capacity, 128u);
  }
  {
    ScopedEnv t("GCNRL_EVAL_THREADS", nullptr);
    ScopedEnv c("GCNRL_EVAL_CACHE", nullptr);
    const auto dflt = env::eval_config_from_env();
    EXPECT_EQ(dflt.threads, 1);  // default: serial
    EXPECT_EQ(dflt.cache_capacity, 4096u);
  }
}

// A SizingEnv constructed with default arguments must follow the knob —
// this is the test the test_eval_threads4 CTest job (GCNRL_EVAL_THREADS=4)
// exists for: it runs once on the serial default and once against the
// thread-pool backend through the public env-var path.
TEST(EvalConfig, DefaultConstructedEnvFollowsEnvKnob) {
  const char* raw = std::getenv("GCNRL_EVAL_THREADS");
  const int expected = raw != nullptr ? std::atoi(raw) : 1;
  env::SizingEnv e(make_synthetic());
  EXPECT_EQ(e.eval_threads(), expected);
  Rng rng(41);
  std::vector<la::Mat> batch;
  for (int i = 0; i < 8; ++i) batch.push_back(e.random_actions(rng));
  const auto rs = e.step_batch(batch);  // drive the configured backend
  EXPECT_EQ(rs.size(), batch.size());
  EXPECT_EQ(e.num_evals(), 8);
}

// --- shared service / multi-circuit batches / lockstep -------------------

TEST(EvalService, SharedCacheHitAccountingAcrossSeedEnvs) {
  // Two seed-envs of the same circuit on one service: a design simulated
  // through one env is a cache hit through the other. Service-wide totals
  // aggregate both, while each env's own counters attribute exactly its
  // requests — the sim to the env whose request ran it, the hit to the
  // env that was served from the cache.
  const auto svc = std::make_shared<env::EvalService>(config(1, 64));
  env::SizingEnv a(make_synthetic(), env::IndexMode::OneHot, svc);
  env::SizingEnv b(make_synthetic(), env::IndexMode::OneHot, svc);
  Rng rng(51);
  const la::Mat x = a.random_actions(rng);
  const auto ra = a.step(x);
  const auto rb = b.step(x);
  EXPECT_FALSE(ra.cached);
  EXPECT_TRUE(rb.cached);
  EXPECT_DOUBLE_EQ(ra.fom, rb.fom);
  EXPECT_EQ(ra.metrics, rb.metrics);
  EXPECT_EQ(svc->requested(), 2);
  EXPECT_EQ(svc->sims(), 1);
  EXPECT_EQ(svc->cache_hits(), 1);
  // Per-env attribution: num_evals - num_sims = cache_hits holds per env.
  EXPECT_EQ(a.num_evals(), 1);
  EXPECT_EQ(a.num_sims(), 1);
  EXPECT_EQ(a.cache_hits(), 0);
  EXPECT_EQ(b.num_evals(), 1);
  EXPECT_EQ(b.num_sims(), 0);
  EXPECT_EQ(b.cache_hits(), 1);
}

TEST(EvalService, MultiBatchAppliesEachJobsOwnFomSpec) {
  // Same circuit identity, different FoM specs: one simulation, two FoMs.
  auto bc_plain = make_synthetic();
  auto bc_heavy = make_synthetic();
  bc_heavy.fom.set_weight("speed", 10.0);
  env::EvalService svc(config(2, 64));
  // Human-expert design: guaranteed to simulate (W above the synthetic
  // convergence threshold), so the two FoMs must genuinely differ.
  const la::Mat x = bc_plain.space.actions_from_params(bc_plain.human_expert);
  const std::vector<env::EvalJob> jobs = {{&bc_plain, &x}, {&bc_heavy, &x}};
  const auto rs = svc.eval_batch_multi(jobs);
  ASSERT_EQ(rs.size(), 2u);
  ASSERT_TRUE(rs[0].sim_ok);
  EXPECT_EQ(rs[0].metrics, rs[1].metrics);  // raw metrics shared
  EXPECT_NE(rs[0].fom, rs[1].fom);          // FoM applied per job
  EXPECT_EQ(svc.sims(), 1);                 // in-batch dedupe across jobs
  EXPECT_EQ(svc.cache_hits(), 1);
}

TEST(EvalService, DistinctCircuitsNeverAliasInTheSharedCache) {
  // Two circuits with different identities but identical action vectors:
  // the circuit tag keeps their cache entries apart.
  auto bc_a = make_synthetic();
  auto bc_b = make_synthetic();
  bc_b.name = "Synthetic-B";
  bc_b.evaluate = [](const gcnrl::circuit::Netlist& sized) {
    const auto& mos = sized.mosfets()[0];
    env::MetricMap m;
    m["speed"] = 2.0 * mos.w / mos.l;  // deliberately different metrics
    m["cost"] = 1.0;
    return m;
  };
  env::EvalService svc(config(1, 64));
  const la::Mat x = bc_a.space.actions_from_params(bc_a.human_expert);
  const std::vector<env::EvalJob> jobs = {{&bc_a, &x}, {&bc_b, &x}};
  const auto rs = svc.eval_batch_multi(jobs);
  ASSERT_EQ(rs.size(), 2u);
  EXPECT_EQ(svc.sims(), 2);  // no dedupe across distinct circuit tags
  EXPECT_EQ(svc.cache_hits(), 0);
  ASSERT_TRUE(rs[0].sim_ok);
  ASSERT_TRUE(rs[1].sim_ok);
  EXPECT_NE(rs[0].metrics, rs[1].metrics);
}

// An exception other than SimError from a circuit's evaluate() is not a
// result: it reaches the caller of eval_batch, and it leaves no cache
// entry behind for any design of that batch.
TEST(EvalService, UnexpectedEvaluateErrorsEscapeTheBatch) {
  auto bc = make_synthetic();
  bc.evaluate = [](const gcnrl::circuit::Netlist& sized) -> env::MetricMap {
    if (sized.mosfets()[0].w > 5e-6) throw std::logic_error("bad design");
    return {{"speed", 1.0}, {"cost", 1.0}};
  };
  env::EvalService svc(config(4, 64));
  const std::vector<la::Mat> xs = {la::Mat(3, 3, -0.5), la::Mat(3, 3, 0.9)};
  EXPECT_THROW(svc.eval_batch(bc, xs), std::logic_error);
  EXPECT_EQ(svc.cache().size(), 0u);
  const env::EvalResult ok = svc.eval_one(bc, xs[0]);
  EXPECT_TRUE(ok.sim_ok);
  EXPECT_FALSE(ok.cached);
}

// --- EvalService::parallel_for, on the serial and the pool backend --------

class ParallelFor : public ::testing::TestWithParam<int> {
 protected:
  env::EvalService svc_{config(GetParam(), 64)};
};

INSTANTIATE_TEST_SUITE_P(Backends, ParallelFor, ::testing::Values(1, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return info.param == 1 ? std::string("Serial")
                                                  : std::string("Pool");
                         });

TEST_P(ParallelFor, RunsEveryIndexExactlyOnce) {
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                              std::size_t{97}}) {
    std::vector<int> hits(n, 0);
    svc_.parallel_for(n, [&hits](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i], 1) << "n=" << n << " index " << i;
    }
  }
}

TEST_P(ParallelFor, ThrowReachesCallerOnlyAfterEveryOtherIndexFinished) {
  const std::size_t n = 24;
  std::vector<std::atomic<int>> done(n);
  EXPECT_THROW(svc_.parallel_for(n,
                                 [&done](std::size_t i) {
                                   if (i == 0) throw std::runtime_error("0");
                                   // Still running when index 0 throws.
                                   std::this_thread::sleep_for(
                                       std::chrono::milliseconds(2));
                                   done[i] = 1;
                                 }),
               std::runtime_error);
  for (std::size_t i = 1; i < n; ++i) EXPECT_EQ(done[i].load(), 1) << i;
}

TEST_P(ParallelFor, LowestThrowingIndexWins) {
  // The highest throwing index throws first; the lowest one throws last.
  const std::size_t n = 16;
  try {
    svc_.parallel_for(n, [](std::size_t i) {
      if (i == 3 || i == 7 || i == 12) {
        std::this_thread::sleep_for(std::chrono::milliseconds(15 - i));
        throw std::runtime_error(std::to_string(i));
      }
    });
    FAIL() << "parallel_for swallowed the exceptions";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "3");
  }
}

TEST_P(ParallelFor, ServiceEvaluatesNormallyAfterwards) {
  EXPECT_THROW(svc_.parallel_for(8,
                                 [](std::size_t i) {
                                   if (i % 3 == 1) {
                                     throw std::runtime_error("task");
                                   }
                                 }),
               std::runtime_error);
  const env::BenchmarkCircuit bc = make_synthetic();
  env::EvalService fresh(config(1, 64));
  Rng rng(5);
  std::vector<la::Mat> xs;
  for (int i = 0; i < 40; ++i) {
    la::Mat x(3, 3);
    for (int r = 0; r < 3; ++r) {
      for (int c = 0; c < 3; ++c) x(r, c) = rng.uniform(-1.0, 1.0);
    }
    xs.push_back(x);
  }
  const auto got = svc_.eval_batch(bc, xs);
  const auto want = fresh.eval_batch(bc, xs);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].fom, want[i].fom) << i;
    EXPECT_EQ(got[i].sim_ok, want[i].sim_ok) << i;
    EXPECT_EQ(got[i].metrics, want[i].metrics) << i;
    EXPECT_EQ(got[i].cached, want[i].cached) << i;
  }
  EXPECT_EQ(svc_.sims(), fresh.sims());
  EXPECT_EQ(svc_.cache_hits(), fresh.cache_hits());
}

namespace {

// One serial run_ddpg per seed, each on its own private env — the
// reference the lockstep engine must reproduce bit-for-bit. `policies`,
// when given, receives each agent's deterministic action mu(S) after its
// run, which pins the trained weights, not just the best-so-far trace.
std::vector<gcnrl::rl::RunResult> serial_ddpg_runs(
    const gcnrl::rl::DdpgConfig& cfg, const std::vector<std::uint64_t>& seeds,
    int steps, std::vector<la::Mat>* policies = nullptr) {
  std::vector<gcnrl::rl::RunResult> out;
  for (const std::uint64_t seed : seeds) {
    env::SizingEnv e(make_synthetic(), env::IndexMode::OneHot,
                     config(1, 256));
    gcnrl::rl::DdpgAgent agent(e.state(), e.adjacency(), e.kinds(), cfg,
                               Rng(seed));
    out.push_back(gcnrl::rl::run_ddpg(e, agent, steps));
    if (policies != nullptr) policies->push_back(agent.act());
  }
  return out;
}

// A DDPG config small enough for the fast label (the default 7-layer GCN
// with hidden 32 is overkill for the 3-component synthetic circuit).
gcnrl::rl::DdpgConfig tiny_ddpg_config() {
  gcnrl::rl::DdpgConfig cfg;
  cfg.hidden = 8;
  cfg.gcn_layers = 2;
  cfg.batch = 8;
  cfg.warmup = 10;
  cfg.updates_per_step = 2;
  return cfg;
}

// DDPG seeds stepped through the one lockstep driver: pair i runs
// agents[i] on envs[i] for steps[i] episodes behind a DdpgOptimizer.
std::vector<gcnrl::rl::RunResult> ddpg_lockstep_runs(
    const std::vector<std::unique_ptr<env::SizingEnv>>& envs,
    const std::vector<std::unique_ptr<gcnrl::rl::DdpgAgent>>& agents,
    const std::vector<int>& steps) {
  std::vector<std::unique_ptr<gcnrl::rl::DdpgOptimizer>> opts;
  std::vector<gcnrl::rl::OptimizerPair> pairs;
  for (std::size_t i = 0; i < envs.size(); ++i) {
    opts.push_back(std::make_unique<gcnrl::rl::DdpgOptimizer>(
        *agents[i], envs[i]->bench().space));
    pairs.push_back(gcnrl::rl::OptimizerPair{envs[i].get(), opts.back().get(),
                                             steps[i], -1});
  }
  return gcnrl::rl::run_optimizer_lockstep(pairs);
}

// Expects the agent's deterministic action mu(S) to equal `want`, bit for
// bit: its observe() calls ran on the pool, and the trained weights must
// still be the serial agent's.
void expect_policy_eq(gcnrl::rl::DdpgAgent& agent, const la::Mat& want,
                      std::uint64_t seed) {
  const la::Mat policy = agent.act();
  ASSERT_TRUE(policy.same_shape(want));
  for (int r = 0; r < policy.rows(); ++r) {
    for (int c = 0; c < policy.cols(); ++c) {
      EXPECT_EQ(policy(r, c), want(r, c))
          << "seed " << seed << " mu(S)(" << r << "," << c << ")";
    }
  }
}

void expect_lockstep_matches_serial(int threads) {
  const std::vector<std::uint64_t> seeds = {1000, 8919, 16838};
  const int steps = 30;
  const gcnrl::rl::DdpgConfig cfg = tiny_ddpg_config();
  std::vector<la::Mat> serial_policies;
  const auto serial = serial_ddpg_runs(cfg, seeds, steps, &serial_policies);

  const auto svc =
      std::make_shared<env::EvalService>(config(threads, 256));
  std::vector<std::unique_ptr<env::SizingEnv>> envs;
  std::vector<std::unique_ptr<gcnrl::rl::DdpgAgent>> agents;
  for (const std::uint64_t seed : seeds) {
    envs.push_back(std::make_unique<env::SizingEnv>(
        make_synthetic(), env::IndexMode::OneHot, svc));
    agents.push_back(std::make_unique<gcnrl::rl::DdpgAgent>(
        envs.back()->state(), envs.back()->adjacency(), envs.back()->kinds(),
        cfg, Rng(seed)));
  }
  const auto lockstep = ddpg_lockstep_runs(
      envs, agents, std::vector<int>(seeds.size(), steps));

  ASSERT_EQ(lockstep.size(), serial.size());
  for (std::size_t s = 0; s < seeds.size(); ++s) {
    ASSERT_EQ(lockstep[s].best_trace.size(), serial[s].best_trace.size());
    for (std::size_t i = 0; i < serial[s].best_trace.size(); ++i) {
      // Bit-identical, not just close: exact double equality.
      EXPECT_EQ(lockstep[s].best_trace[i], serial[s].best_trace[i])
          << "seed " << seeds[s] << " step " << i;
    }
    EXPECT_EQ(lockstep[s].best_fom, serial[s].best_fom);
    EXPECT_EQ(lockstep[s].best_metrics, serial[s].best_metrics);
    EXPECT_EQ(lockstep[s].evals, serial[s].evals);
    EXPECT_EQ(lockstep[s].sims, serial[s].sims);
    // The last round's observe() ran too.
    EXPECT_EQ(agents[s]->episode(), steps) << "seed " << seeds[s];
    expect_policy_eq(*agents[s], serial_policies[s], seeds[s]);
  }
}

}  // namespace

// DDPG seeds in the lockstep driver: per-seed best_trace vectors and
// trained weights bit-identical to serial run_ddpg, at 1 and at 4 eval
// threads.
TEST(Lockstep, DdpgTracesMatchSerialAtOneThread) {
  expect_lockstep_matches_serial(1);
}

TEST(Lockstep, DdpgTracesMatchSerialAtFourThreads) {
  expect_lockstep_matches_serial(4);
}

// Regression: pairs on different services used to throw; now they are
// transparently grouped by service and the groups run back-to-back, with
// per-pair traces still bit-identical to serial runs.
TEST(Lockstep, GroupsPairsByServiceInsteadOfThrowing) {
  const std::vector<std::uint64_t> seeds = {1000, 8919, 16838};
  const int steps = 20;
  const gcnrl::rl::DdpgConfig cfg = tiny_ddpg_config();
  const auto serial = serial_ddpg_runs(cfg, seeds, steps);

  // Three pairs interleaved across TWO services (0 and 2 share, 1 is
  // alone), so the grouping is exercised in non-contiguous pair order.
  const auto svc_a = std::make_shared<env::EvalService>(config(1, 256));
  const auto svc_b = std::make_shared<env::EvalService>(config(1, 256));
  std::vector<std::unique_ptr<env::SizingEnv>> envs;
  std::vector<std::unique_ptr<gcnrl::rl::DdpgAgent>> agents;
  for (std::size_t s = 0; s < seeds.size(); ++s) {
    envs.push_back(std::make_unique<env::SizingEnv>(
        make_synthetic(), env::IndexMode::OneHot, s == 1 ? svc_b : svc_a));
    agents.push_back(std::make_unique<gcnrl::rl::DdpgAgent>(
        envs.back()->state(), envs.back()->adjacency(), envs.back()->kinds(),
        cfg, Rng(seeds[s])));
  }
  const auto lockstep = ddpg_lockstep_runs(
      envs, agents, std::vector<int>(seeds.size(), steps));
  ASSERT_EQ(lockstep.size(), serial.size());
  for (std::size_t s = 0; s < seeds.size(); ++s) {
    ASSERT_EQ(lockstep[s].best_trace.size(), serial[s].best_trace.size());
    for (std::size_t i = 0; i < serial[s].best_trace.size(); ++i) {
      EXPECT_EQ(lockstep[s].best_trace[i], serial[s].best_trace[i])
          << "seed " << seeds[s] << " step " << i;
    }
    EXPECT_EQ(lockstep[s].best_fom, serial[s].best_fom);
    EXPECT_EQ(lockstep[s].sims, serial[s].sims);
  }
}

// Heterogeneous step budgets: a finished pair must drop out of later
// batches instead of padding them, so the service runs exactly the sum of
// the per-pair budgets (cache disabled makes sims == evaluations).
TEST(Lockstep, ExhaustedPairsDropOutOfBatches) {
  const std::vector<std::uint64_t> seeds = {1000, 8919, 16838};
  const std::vector<int> steps = {12, 4, 8};
  const gcnrl::rl::DdpgConfig cfg = tiny_ddpg_config();

  const auto svc = std::make_shared<env::EvalService>(config(2, 0));
  std::vector<std::unique_ptr<env::SizingEnv>> envs;
  std::vector<std::unique_ptr<gcnrl::rl::DdpgAgent>> agents;
  for (const std::uint64_t seed : seeds) {
    envs.push_back(std::make_unique<env::SizingEnv>(
        make_synthetic(), env::IndexMode::OneHot, svc));
    agents.push_back(std::make_unique<gcnrl::rl::DdpgAgent>(
        envs.back()->state(), envs.back()->adjacency(), envs.back()->kinds(),
        cfg, Rng(seed)));
  }
  const auto runs = ddpg_lockstep_runs(envs, agents, steps);
  ASSERT_EQ(runs.size(), steps.size());
  for (std::size_t s = 0; s < steps.size(); ++s) {
    EXPECT_EQ(runs[s].evals, steps[s]);
    EXPECT_EQ(runs[s].best_trace.size(),
              static_cast<std::size_t>(steps[s]));
  }
  // 12 + 4 + 8 simulations, NOT 3 * 12: no padding by finished pairs
  // (cache disabled, so requested == sims == committed evaluations).
  EXPECT_EQ(svc->sims(), 24);
  EXPECT_EQ(svc->requested(), 24);
  // Per-pair traces equal serial runs of the same per-pair budget.
  for (std::size_t s = 0; s < seeds.size(); ++s) {
    const auto serial = serial_ddpg_runs(cfg, {seeds[s]}, steps[s]);
    ASSERT_EQ(runs[s].best_trace.size(), serial[0].best_trace.size());
    for (std::size_t i = 0; i < serial[0].best_trace.size(); ++i) {
      EXPECT_EQ(runs[s].best_trace[i], serial[0].best_trace[i])
          << "seed " << seeds[s] << " step " << i;
    }
  }
}

namespace {

// Optimizer stub whose population dries up after two ask() calls — the
// regression shape for the run_optimizer infinite-loop fix.
class DryingOptimizer final : public gcnrl::opt::Optimizer {
 public:
  explicit DryingOptimizer(int dim) : dim_(dim) {}
  std::vector<std::vector<double>> ask() override {
    if (asks_ >= 2) return {};
    ++asks_;
    return {std::vector<double>(static_cast<std::size_t>(dim_),
                                0.1 * asks_)};
  }
  void tell(const std::vector<std::vector<double>>&,
            const std::vector<double>&) override {}
  [[nodiscard]] int dim() const override { return dim_; }

 private:
  int dim_;
  int asks_ = 0;
};

}  // namespace

TEST(RunOptimizer, TerminatesWhenAskReturnsEmptyPopulation) {
  // Before the fix this looped forever: an empty population never advances
  // the step budget.
  env::SizingEnv e(make_synthetic(), env::IndexMode::OneHot, config(1, 16));
  DryingOptimizer stub(e.flat_dim());
  const auto r = gcnrl::testing::run_optimizer(e, stub, 100);
  EXPECT_EQ(r.evals, 2);
  EXPECT_EQ(r.best_trace.size(), 2u);
}

namespace {

// Optimizer stub replaying a scripted sequence of points, one ask() per
// point — lets the sim-budget tests control exactly which designs repeat.
class ScriptedOptimizer final : public gcnrl::opt::Optimizer {
 public:
  ScriptedOptimizer(int dim, std::vector<std::vector<double>> script)
      : dim_(dim), script_(std::move(script)) {}
  std::vector<std::vector<double>> ask() override {
    if (next_ >= script_.size()) return {};
    return {script_[next_++]};
  }
  void tell(const std::vector<std::vector<double>>&,
            const std::vector<double>&) override {}
  [[nodiscard]] int dim() const override { return dim_; }

 private:
  int dim_;
  std::vector<std::vector<double>> script_;
  std::size_t next_ = 0;
};

}  // namespace

// The simulated-cost budget counts first-in-run distinct designs;
// revisits of a design the run already evaluated are free.
TEST(RunOptimizer, SimBudgetChargesDistinctDesignsOnly) {
  env::SizingEnv e(make_synthetic(), env::IndexMode::OneHot, config(1, 64));
  const std::size_t d = static_cast<std::size_t>(e.flat_dim());
  const std::vector<double> a(d, 0.2), b(d, 0.5), c(d, 0.8);
  {
    // a, b, a(free repeat), c: the repeat must not consume budget, so a
    // budget of 3 sims admits all four evaluations.
    ScriptedOptimizer stub(e.flat_dim(), {a, b, a, c});
    const auto r = gcnrl::testing::run_optimizer(e, stub, 100, 3);
    EXPECT_EQ(r.evals, 4);
    EXPECT_EQ(r.sims, 3);
  }
  {
    // Same script, budget 2: the run stops as soon as a and b are charged
    // — the budget check runs before each ask(), so the free repeat of a
    // is never requested once the budget is exhausted.
    env::SizingEnv e2(make_synthetic(), env::IndexMode::OneHot,
                      config(1, 64));
    ScriptedOptimizer stub(e2.flat_dim(), {a, b, a, c});
    const auto r = gcnrl::testing::run_optimizer(e2, stub, 100, 2);
    EXPECT_EQ(r.sims, 2);
    EXPECT_EQ(r.evals, 2);
  }
}

// The charge is a pure function of the run's own proposals: a run whose
// every result is served by a cache another run warmed is charged the
// same simulated cost as the run that paid for the simulations.
TEST(RunOptimizer, SimChargeIsIndependentOfSharedCacheWarmth) {
  const auto svc = std::make_shared<env::EvalService>(config(1, 4096));
  env::SizingEnv cold(make_synthetic(), env::IndexMode::OneHot, svc);
  env::SizingEnv warm(make_synthetic(), env::IndexMode::OneHot, svc);
  gcnrl::opt::CmaEs es1(cold.flat_dim(), Rng(99));
  gcnrl::opt::CmaEs es2(warm.flat_dim(), Rng(99));
  const auto r1 = gcnrl::testing::run_optimizer(cold, es1, 60);
  const auto r2 = gcnrl::testing::run_optimizer(warm, es2, 60);
  // Identical seed, identical FoMs -> identical proposals: the second run
  // is served entirely from the first run's cache entries...
  EXPECT_EQ(warm.num_sims(), 0);
  EXPECT_EQ(r2.cache_hits, r2.evals);
  // ...yet its charged simulated cost (and trace) match the cold run.
  EXPECT_EQ(r1.sims, r2.sims);
  EXPECT_GT(r2.sims, 0);
  ASSERT_EQ(r1.best_trace.size(), r2.best_trace.size());
  for (std::size_t i = 0; i < r1.best_trace.size(); ++i) {
    EXPECT_EQ(r1.best_trace[i], r2.best_trace[i]) << i;
  }
}

namespace {

using OptimizerFactory =
    std::function<std::unique_ptr<gcnrl::opt::Optimizer>(int, Rng)>;

std::unique_ptr<gcnrl::opt::Optimizer> make_cmaes(int dim, Rng rng) {
  return std::make_unique<gcnrl::opt::CmaEs>(dim, rng);
}
std::unique_ptr<gcnrl::opt::Optimizer> make_bayes_opt(int dim, Rng rng) {
  return std::make_unique<gcnrl::opt::BayesOpt>(dim, rng);
}
std::unique_ptr<gcnrl::opt::Optimizer> make_mace(int dim, Rng rng) {
  return std::make_unique<gcnrl::opt::Mace>(dim, rng);
}
// Built as the Random method builds it.
std::unique_ptr<gcnrl::opt::Optimizer> make_random(int dim, Rng rng) {
  return std::make_unique<gcnrl::opt::RandomSearch>(dim, rng, 64);
}

// Serial reference for the lockstep black-box driver: one run_optimizer
// per seed, each on its own private env/service. The optimizers are kept
// so callers can compare their state after the run.
struct SerialRuns {
  std::vector<gcnrl::rl::RunResult> results;
  std::vector<std::unique_ptr<gcnrl::opt::Optimizer>> opts;
};

SerialRuns serial_runs(const OptimizerFactory& make,
                       const std::vector<std::uint64_t>& seeds, int steps,
                       long max_sims) {
  SerialRuns out;
  for (const std::uint64_t seed : seeds) {
    env::SizingEnv e(make_synthetic(), env::IndexMode::OneHot,
                     config(1, 256));
    out.opts.push_back(make(e.flat_dim(), Rng(seed)));
    out.results.push_back(
        gcnrl::testing::run_optimizer(e, *out.opts.back(), steps, max_sims));
  }
  return out;
}

void expect_optimizer_lockstep_matches_serial(const OptimizerFactory& make,
                                              int steps, int threads) {
  const std::vector<std::uint64_t> seeds = {1000, 8919, 16838};
  const SerialRuns serial = serial_runs(make, seeds, steps, -1);

  const auto svc = std::make_shared<env::EvalService>(config(threads, 256));
  std::vector<std::unique_ptr<env::SizingEnv>> envs;
  std::vector<std::unique_ptr<gcnrl::opt::Optimizer>> opts;
  std::vector<gcnrl::rl::OptimizerPair> pairs;
  for (const std::uint64_t seed : seeds) {
    envs.push_back(std::make_unique<env::SizingEnv>(
        make_synthetic(), env::IndexMode::OneHot, svc));
    opts.push_back(make(envs.back()->flat_dim(), Rng(seed)));
    pairs.push_back(gcnrl::rl::OptimizerPair{envs.back().get(),
                                             opts.back().get(), steps, -1});
  }
  const auto lockstep = gcnrl::rl::run_optimizer_lockstep(pairs);

  ASSERT_EQ(lockstep.size(), serial.results.size());
  for (std::size_t s = 0; s < seeds.size(); ++s) {
    const gcnrl::rl::RunResult& want = serial.results[s];
    ASSERT_EQ(lockstep[s].best_trace.size(), want.best_trace.size());
    for (std::size_t i = 0; i < want.best_trace.size(); ++i) {
      // Bit-identical, not just close: exact double equality.
      EXPECT_EQ(lockstep[s].best_trace[i], want.best_trace[i])
          << "seed " << seeds[s] << " eval " << i;
    }
    EXPECT_EQ(lockstep[s].best_fom, want.best_fom);
    EXPECT_EQ(lockstep[s].best_metrics, want.best_metrics);
    EXPECT_EQ(lockstep[s].evals, want.evals);
    EXPECT_EQ(lockstep[s].sims, want.sims);
    // The last round's tell() ran too: the next proposal, which depends on
    // every observation, matches the serial optimizer's.
    EXPECT_EQ(opts[s]->ask(), serial.opts[s]->ask()) << "seed " << seeds[s];
  }
}

}  // namespace

// The acceptance criterion of the lockstep black-box driver: per-seed
// traces and charged simulated costs bit-identical to serial
// run_optimizer, at 1 and at 4 eval threads. The BO and MACE budgets run
// well past their 10 warm-up points, so the seeds' GP fits and
// acquisitions run concurrently at 4 threads.
TEST(OptimizerLockstep, CmaEsTracesMatchSerialAtOneThread) {
  expect_optimizer_lockstep_matches_serial(make_cmaes, 100, 1);
}

TEST(OptimizerLockstep, CmaEsTracesMatchSerialAtFourThreads) {
  expect_optimizer_lockstep_matches_serial(make_cmaes, 100, 4);
}

TEST(OptimizerLockstep, BayesOptTracesMatchSerialAtOneThread) {
  expect_optimizer_lockstep_matches_serial(make_bayes_opt, 24, 1);
}

TEST(OptimizerLockstep, BayesOptTracesMatchSerialAtFourThreads) {
  expect_optimizer_lockstep_matches_serial(make_bayes_opt, 24, 4);
}

// 30 steps: three warm-up batches of 4, four GP batches, then a GP batch
// truncated to the 2 evaluations left.
TEST(OptimizerLockstep, MaceTracesMatchSerialAtOneThread) {
  expect_optimizer_lockstep_matches_serial(make_mace, 30, 1);
}

TEST(OptimizerLockstep, MaceTracesMatchSerialAtFourThreads) {
  expect_optimizer_lockstep_matches_serial(make_mace, 30, 4);
}

// Heterogeneous simulated-cost budgets: an exhausted pair drops out of
// later rounds (no padding), and every pair still matches its own serial
// run under the identical budget.
TEST(OptimizerLockstep, ExhaustedPairsDropOutAndSimsShrink) {
  const std::vector<std::uint64_t> seeds = {1000, 8919, 16838};
  const std::vector<long> budgets = {40, 12, 24};
  const int steps = 1000;

  const auto svc = std::make_shared<env::EvalService>(config(1, 0));
  std::vector<std::unique_ptr<env::SizingEnv>> envs;
  std::vector<std::unique_ptr<gcnrl::opt::CmaEs>> opts;
  std::vector<gcnrl::rl::OptimizerPair> pairs;
  for (std::size_t s = 0; s < seeds.size(); ++s) {
    envs.push_back(std::make_unique<env::SizingEnv>(
        make_synthetic(), env::IndexMode::OneHot, svc));
    opts.push_back(std::make_unique<gcnrl::opt::CmaEs>(
        envs.back()->flat_dim(), Rng(seeds[s])));
    pairs.push_back(gcnrl::rl::OptimizerPair{
        envs.back().get(), opts.back().get(), steps, budgets[s]});
  }
  const auto runs = gcnrl::rl::run_optimizer_lockstep(pairs);
  ASSERT_EQ(runs.size(), seeds.size());
  long sum_evals = 0;
  for (std::size_t s = 0; s < seeds.size(); ++s) {
    EXPECT_EQ(runs[s].sims, budgets[s]);
    sum_evals += runs[s].evals;
    const auto serial =
        serial_runs(make_cmaes, {seeds[s]}, steps, budgets[s]).results;
    ASSERT_EQ(runs[s].best_trace.size(), serial[0].best_trace.size());
    for (std::size_t i = 0; i < serial[0].best_trace.size(); ++i) {
      EXPECT_EQ(runs[s].best_trace[i], serial[0].best_trace[i])
          << "seed " << seeds[s] << " eval " << i;
    }
    EXPECT_EQ(runs[s].evals, serial[0].evals);
  }
  // Cache disabled: every submitted job simulates, so the service ran
  // exactly the evaluations the pairs committed — exhausted pairs padded
  // no batches with extra simulations.
  EXPECT_EQ(svc->sims(), sum_evals);
  EXPECT_EQ(svc->requested(), sum_evals);
}

namespace {

// Proposes one uniform point per ask(), counts its calls, and throws from
// its `throw_at`-th tell() (1-based; 0 never throws).
class CountingOptimizer final : public gcnrl::opt::Optimizer {
 public:
  CountingOptimizer(int dim, std::uint64_t seed, int throw_at = 0)
      : dim_(dim), rng_(seed), throw_at_(throw_at), seed_(seed) {}
  std::vector<std::vector<double>> ask() override {
    ++asks;
    std::vector<double> x(static_cast<std::size_t>(dim_));
    for (auto& v : x) v = rng_.uniform(-1.0, 1.0);
    return {x};
  }
  void tell(const std::vector<std::vector<double>>&,
            const std::vector<double>&) override {
    if (++tells == throw_at_) {
      throw std::runtime_error("tell of optimizer " + std::to_string(seed_));
    }
  }
  [[nodiscard]] int dim() const override { return dim_; }

  int asks = 0;
  int tells = 0;

 private:
  int dim_;
  Rng rng_;
  int throw_at_;
  std::uint64_t seed_;
};

}  // namespace

// One optimizer in two pairs would have its ask()/tell() run concurrently
// with itself: rejected up front, before any ask or evaluation.
TEST(Lockstep, RejectsDuplicateOptimizers) {
  const auto svc = std::make_shared<env::EvalService>(config(4, 16));
  env::SizingEnv a(make_synthetic(), env::IndexMode::OneHot, svc);
  env::SizingEnv b(make_synthetic(), env::IndexMode::OneHot, svc);
  env::SizingEnv c(make_synthetic(), env::IndexMode::OneHot, svc);
  CountingOptimizer shared(a.flat_dim(), 1);
  CountingOptimizer other(a.flat_dim(), 2);
  const std::vector<gcnrl::rl::OptimizerPair> pairs = {
      {&a, &shared, 3, -1}, {&b, &other, 3, -1}, {&c, &shared, 3, -1}};
  const long requested = svc->requested();
  EXPECT_THROW(gcnrl::rl::run_optimizer_lockstep(pairs),
               std::invalid_argument);
  EXPECT_EQ(shared.asks, 0);
  EXPECT_EQ(other.asks, 0);
  EXPECT_EQ(svc->requested(), requested);
}

// A tell() that throws reaches the caller only after the round's other
// tasks finished, and of two throwing pairs the lower index wins — at 1
// and at 4 eval threads alike.
TEST(OptimizerLockstep, TellErrorSurfacesAfterTheRoundLowestPairWins) {
  for (const int threads : {1, 4}) {
    const auto svc = std::make_shared<env::EvalService>(config(threads, 64));
    std::vector<std::unique_ptr<env::SizingEnv>> envs;
    std::vector<std::unique_ptr<CountingOptimizer>> opts;
    std::vector<gcnrl::rl::OptimizerPair> pairs;
    // Pairs 1 and 3 throw from their second tell(), in round 3.
    for (const int throw_at : {0, 2, 0, 2}) {
      envs.push_back(std::make_unique<env::SizingEnv>(
          make_synthetic(), env::IndexMode::OneHot, svc));
      opts.push_back(std::make_unique<CountingOptimizer>(
          envs.back()->flat_dim(), opts.size(), throw_at));
      pairs.push_back(gcnrl::rl::OptimizerPair{envs.back().get(),
                                               opts.back().get(), 10, -1});
    }
    try {
      (void)gcnrl::rl::run_optimizer_lockstep(pairs);
      ADD_FAILURE() << "threads " << threads << ": no exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "tell of optimizer 1") << "threads " << threads;
    }
    for (const std::size_t k : {std::size_t{0}, std::size_t{2}}) {
      EXPECT_EQ(opts[k]->tells, 2) << "threads " << threads << " pair " << k;
      EXPECT_EQ(opts[k]->asks, 3) << "threads " << threads << " pair " << k;
    }
    for (const std::size_t k : {std::size_t{1}, std::size_t{3}}) {
      EXPECT_EQ(opts[k]->tells, 2) << "threads " << threads << " pair " << k;
      EXPECT_EQ(opts[k]->asks, 2) << "threads " << threads << " pair " << k;
    }
    // Two rounds of four evaluations; the failed round submitted no batch.
    EXPECT_EQ(svc->requested(), 8) << "threads " << threads;
  }
}

// Every method in one call on one service: a DDPG seed behind a
// DdpgOptimizer, CMA-ES, Random, and a one-proposal optimizer (the shape
// of Human). Each pair equals its own serial reference at 1 and at 4 eval
// threads, the DDPG seed's trained weights included.
TEST(Lockstep, MixedMethodsMatchTheirSerialReferences) {
  const int steps = 30;
  const gcnrl::rl::DdpgConfig cfg = tiny_ddpg_config();
  std::vector<la::Mat> ddpg_policy;
  const gcnrl::rl::RunResult ddpg_want =
      serial_ddpg_runs(cfg, {1000}, steps, &ddpg_policy).front();
  const gcnrl::rl::RunResult es_want =
      serial_runs(make_cmaes, {8919}, steps, -1).results.front();
  const gcnrl::rl::RunResult random_want =
      serial_runs(make_random, {16838}, steps, -1).results.front();
  env::SizingEnv one_env(make_synthetic(), env::IndexMode::OneHot,
                         config(1, 256));
  const std::vector<double> x(static_cast<std::size_t>(one_env.flat_dim()),
                              0.3);
  ScriptedOptimizer one_ref(one_env.flat_dim(), {x});
  const gcnrl::rl::RunResult one_want =
      gcnrl::testing::run_optimizer(one_env, one_ref, steps);
  ASSERT_EQ(one_want.evals, 1);
  const std::vector<const gcnrl::rl::RunResult*> want = {
      &ddpg_want, &es_want, &random_want, &one_want};

  for (const int threads : {1, 4}) {
    const auto svc = std::make_shared<env::EvalService>(config(threads, 256));
    std::vector<std::unique_ptr<env::SizingEnv>> envs;
    for (std::size_t i = 0; i < want.size(); ++i) {
      envs.push_back(std::make_unique<env::SizingEnv>(
          make_synthetic(), env::IndexMode::OneHot, svc));
    }
    gcnrl::rl::DdpgAgent agent(envs[0]->state(), envs[0]->adjacency(),
                               envs[0]->kinds(), cfg, Rng(1000));
    gcnrl::rl::DdpgOptimizer ddpg(agent, envs[0]->bench().space);
    const auto es = make_cmaes(envs[1]->flat_dim(), Rng(8919));
    const auto random = make_random(envs[2]->flat_dim(), Rng(16838));
    ScriptedOptimizer one(envs[3]->flat_dim(), {x});
    const std::vector<gcnrl::rl::OptimizerPair> pairs = {
        {envs[0].get(), &ddpg, steps, -1},
        {envs[1].get(), es.get(), steps, -1},
        {envs[2].get(), random.get(), steps, -1},
        {envs[3].get(), &one, steps, -1}};
    const auto runs = gcnrl::rl::run_optimizer_lockstep(pairs);
    ASSERT_EQ(runs.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(runs[i].best_trace, want[i]->best_trace)
          << "threads " << threads << " pair " << i;
      EXPECT_EQ(runs[i].best_fom, want[i]->best_fom) << "pair " << i;
      EXPECT_EQ(runs[i].best_metrics, want[i]->best_metrics) << "pair " << i;
      EXPECT_EQ(runs[i].evals, want[i]->evals) << "pair " << i;
      EXPECT_EQ(runs[i].sims, want[i]->sims) << "pair " << i;
    }
    EXPECT_EQ(agent.episode(), steps);
    expect_policy_eq(agent, ddpg_policy.front(), 1000);
  }
}

// --- real circuit through the thread pool (TSan coverage) ----------------

TEST(EvalService, TwoTiaEightThreadsMatchesSerial) {
  const auto tech = circuit::make_technology("180nm");
  env::SizingEnv serial(gcnrl::circuits::make_two_tia(tech),
                        env::IndexMode::OneHot, config(1, 0));
  env::SizingEnv pool(gcnrl::circuits::make_two_tia(tech),
                      env::IndexMode::OneHot, config(8, 0));
  Rng rng(31);
  std::vector<la::Mat> batch;
  for (int i = 0; i < 8; ++i) batch.push_back(serial.random_actions(rng));
  const auto rs = serial.step_batch(batch);
  const auto rp = pool.step_batch(batch);
  ASSERT_EQ(rs.size(), rp.size());
  for (std::size_t i = 0; i < rs.size(); ++i) {
    EXPECT_EQ(rs[i].sim_ok, rp[i].sim_ok);
    EXPECT_DOUBLE_EQ(rs[i].fom, rp[i].fom);
    EXPECT_EQ(rs[i].metrics, rp[i].metrics);
  }
}
