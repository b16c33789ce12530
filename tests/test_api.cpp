// Tests for the public task facade (src/api): circuit & method
// registries (duplicates, unknown-name diagnostics, deterministic
// ordering, user extension), the run_tasks planner (budget chaining, FoM
// overrides, order/grouping independence, thread-count determinism,
// transfer chains, custom circuits end to end), and the task-spec file
// parser with every shipped spec.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "circuit/tech.hpp"
#include "nn/linear.hpp"
#include "serial_reference.hpp"
#include "sim/simulator.hpp"

namespace api = gcnrl::api;
namespace env = gcnrl::env;
namespace circuit = gcnrl::circuit;
namespace nn = gcnrl::nn;
namespace rl = gcnrl::rl;
using gcnrl::Rng;

namespace {

// Simulator-free benchmark (mirror of test_eval's synthetic): metrics are
// closed forms of the parameters, so whole task runs cost microseconds.
env::BenchmarkCircuit make_synthetic(const circuit::Technology& tech) {
  env::BenchmarkCircuit bc;
  bc.name = "Synthetic-API";
  bc.tech = tech;
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

// Registered once for the whole suite; registries are process-global.
const api::CircuitRegistrar synthetic_registrar{"Synthetic-API",
                                               make_synthetic};

// A trivial ask/tell optimizer for custom-method tests: proposes a
// deterministic lattice walk, one point per ask().
class GridWalk : public gcnrl::opt::Optimizer {
 public:
  GridWalk(int dim, Rng rng) : dim_(dim), rng_(std::move(rng)) {}
  std::vector<std::vector<double>> ask() override {
    std::vector<double> x(static_cast<std::size_t>(dim_));
    for (double& v : x) v = rng_.uniform(-1.0, 1.0);
    return {x};
  }
  void tell(const std::vector<std::vector<double>>&,
            const std::vector<double>&) override {}
  [[nodiscard]] int dim() const override { return dim_; }

 private:
  int dim_;
  Rng rng_;
};

api::TaskSpec synthetic_task(const std::string& method, int steps,
                             int seeds) {
  api::TaskSpec t;
  t.circuit = "Synthetic-API";
  t.method = method;
  t.steps = steps;
  t.warmup = steps / 3;
  t.seeds = seeds;
  return t;
}

api::RunOptions tiny_options(int threads = 1) {
  api::RunOptions opts;
  opts.calib_samples = 16;
  env::EvalServiceConfig cfg;
  cfg.threads = threads;
  opts.service = std::make_shared<env::EvalService>(cfg);
  return opts;
}

// The factory run_tasks calibrates for a lone Synthetic-API task.
api::EnvFactory synthetic_factory(const api::RunOptions& opts) {
  Rng calib_rng(opts.calib_seed);
  return api::EnvFactory("Synthetic-API", circuit::make_technology("180nm"),
                         env::IndexMode::OneHot, opts.calib_samples,
                         calib_rng, opts.service);
}

// DDPG seeds wired by hand: one (env, agent) pair per RNG seed on one
// service, each agent optionally warm-started from `copy_from`, optionally
// with an FoM edit applied to each env, stepped through
// rl::run_optimizer_lockstep behind rl::DdpgOptimizers.
class LockstepRun {
 public:
  LockstepRun(const api::EnvFactory& factory,
              const std::shared_ptr<env::EvalService>& svc,
              const rl::DdpgConfig& cfg,
              const std::vector<std::uint64_t>& seeds,
              rl::DdpgAgent* copy_from = nullptr,
              const std::function<void(env::FomSpec&)>& edit = nullptr) {
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      envs_.push_back(factory.make(svc));
      if (edit) edit(envs_.back()->bench().fom);
      agents_.push_back(std::make_unique<rl::DdpgAgent>(
          envs_.back()->state(), envs_.back()->adjacency(),
          envs_.back()->kinds(), cfg, Rng(seeds[i])));
      if (copy_from != nullptr) agents_.back()->copy_weights_from(*copy_from);
    }
  }

  std::vector<rl::RunResult> run(int steps) {
    std::vector<std::unique_ptr<rl::DdpgOptimizer>> opts;
    std::vector<rl::OptimizerPair> pairs;
    for (std::size_t i = 0; i < envs_.size(); ++i) {
      opts.push_back(std::make_unique<rl::DdpgOptimizer>(
          *agents_[i], envs_[i]->bench().space));
      pairs.push_back(
          rl::OptimizerPair{envs_[i].get(), opts.back().get(), steps, -1});
    }
    return rl::run_optimizer_lockstep(pairs);
  }

  [[nodiscard]] rl::DdpgAgent& agent(std::size_t i) { return *agents_[i]; }

 private:
  std::vector<std::unique_ptr<env::SizingEnv>> envs_;
  std::vector<std::unique_ptr<rl::DdpgAgent>> agents_;
};

// ---------------------------------------------------------------------------
// CircuitRegistry
// ---------------------------------------------------------------------------

TEST(CircuitRegistry, BuiltinsKeepPaperOrder) {
  const auto names = api::circuit_names();
  ASSERT_GE(names.size(), 4u);
  EXPECT_EQ(names[0], "Two-TIA");
  EXPECT_EQ(names[1], "Two-Volt");
  EXPECT_EQ(names[2], "Three-TIA");
  EXPECT_EQ(names[3], "LDO");
  // The legacy shim sees the identical list.
  EXPECT_EQ(gcnrl::api::circuit_names(), names);
}

TEST(CircuitRegistry, UserCircuitIsRegisteredAndBuildable) {
  EXPECT_TRUE(api::circuit_registered("Synthetic-API"));
  const auto bc = api::build_circuit("Synthetic-API",
                                     circuit::make_technology("180nm"));
  EXPECT_EQ(bc.name, "Synthetic-API");
  EXPECT_EQ(bc.space.num_components(), 3);
}

TEST(CircuitRegistry, DuplicateRegistrationThrows) {
  EXPECT_THROW(api::register_circuit("Two-TIA", make_synthetic),
               std::invalid_argument);
  EXPECT_THROW(api::register_circuit("Synthetic-API", make_synthetic),
               std::invalid_argument);
  EXPECT_THROW(api::register_circuit("", make_synthetic),
               std::invalid_argument);
}

// An unknown circuit name must be answered with the list of registered
// names, not a bare "unknown circuit X".
TEST(CircuitRegistry, UnknownCircuitErrorListsRegisteredNames) {
  const auto tech = circuit::make_technology("180nm");
  try {
    gcnrl::api::build_circuit("No-Such-Circuit", tech);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("No-Such-Circuit"), std::string::npos) << msg;
    EXPECT_NE(msg.find("Two-TIA"), std::string::npos) << msg;
    EXPECT_NE(msg.find("Two-Volt"), std::string::npos) << msg;
    EXPECT_NE(msg.find("Three-TIA"), std::string::npos) << msg;
    EXPECT_NE(msg.find("LDO"), std::string::npos) << msg;
  }
}

// ---------------------------------------------------------------------------
// MethodRegistry
// ---------------------------------------------------------------------------

TEST(MethodRegistry, BuiltinsKeepTableOrder) {
  const auto names = api::method_names();
  ASSERT_GE(names.size(), 7u);
  const std::vector<std::string> expect = {"Human", "Random", "ES", "BO",
                                           "MACE",  "NG-RL",  "GCN-RL"};
  for (std::size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(names[i], expect[i]);
  }
}

TEST(MethodRegistry, DescriptorsEncodeTheBudgetChain) {
  EXPECT_EQ(api::method_info("BO").budget_from, "ES");
  EXPECT_EQ(api::method_info("MACE").budget_from, "ES");
  EXPECT_EQ(api::method_info("ES").budget_from, "");
  EXPECT_EQ(api::method_info("GCN-RL").kind, api::MethodKind::Ddpg);
  EXPECT_EQ(api::method_info("Human").kind, api::MethodKind::Anchor);
}

TEST(MethodRegistry, UnknownMethodErrorListsRegisteredNames) {
  try {
    api::method_info("No-Such-Method");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("No-Such-Method"), std::string::npos) << msg;
    EXPECT_NE(msg.find("GCN-RL"), std::string::npos) << msg;
    EXPECT_NE(msg.find("MACE"), std::string::npos) << msg;
  }
}

TEST(MethodRegistry, DuplicateAndInvalidRegistrationsThrow) {
  api::MethodInfo dup;
  dup.name = "ES";
  dup.kind = api::MethodKind::Anchor;
  EXPECT_THROW(api::register_method(dup), std::invalid_argument);

  api::MethodInfo no_factory;
  no_factory.name = "Broken-AskTell";
  no_factory.kind = api::MethodKind::AskTell;  // make_optimizer missing
  EXPECT_THROW(api::register_method(no_factory), std::invalid_argument);
}

TEST(MethodRegistry, MakeAskTellRejectsNonAskTellKinds) {
  EXPECT_THROW(api::make_ask_tell("GCN-RL", 4, Rng(1)),
               std::invalid_argument);
  const auto es = api::make_ask_tell("ES", 4, Rng(1));
  EXPECT_EQ(es->dim(), 4);
}

// ---------------------------------------------------------------------------
// run_tasks
// ---------------------------------------------------------------------------

TEST(RunTasks, ValidatesSpecs) {
  EXPECT_THROW(api::run_tasks({synthetic_task("No-Such-Method", 4, 1)}),
               std::invalid_argument);
  api::TaskSpec bad_circuit = synthetic_task("ES", 4, 1);
  bad_circuit.circuit = "No-Such-Circuit";
  EXPECT_THROW(api::run_tasks({bad_circuit}), std::invalid_argument);
  api::TaskSpec bad_steps = synthetic_task("ES", 0, 1);
  EXPECT_THROW(api::run_tasks({bad_steps}), std::invalid_argument);
  api::TaskSpec bad_seeds = synthetic_task("ES", 4, 0);
  EXPECT_THROW(api::run_tasks({bad_seeds}), std::invalid_argument);
  // An explicit cap on a method that cannot consume it fails loudly
  // instead of silently running uncapped.
  api::TaskSpec bad_budget = synthetic_task("GCN-RL", 4, 1);
  bad_budget.sim_budget = 100;
  EXPECT_THROW(api::run_tasks({bad_budget}), std::invalid_argument);
}

// run_tasks caps any ask/tell method, budget source or not, at an
// explicit simulated cost exactly as the serial ask/tell loop does.
TEST(RunMethod, ExplicitSimBudgetCapsAskTell) {
  for (const std::string method : {"ES", "Random"}) {
    const auto opts = tiny_options();
    const api::EnvFactory factory = synthetic_factory(opts);
    const auto env = factory.make(opts.service);
    const auto optimizer =
        api::make_ask_tell(method, env->flat_dim(), Rng(api::seed_of(0)));
    const auto capped = gcnrl::testing::run_optimizer(*env, *optimizer, 10, 4);
    EXPECT_LE(capped.sims, 4) << method;
    api::TaskSpec t = synthetic_task(method, 10, 1);
    t.sim_budget = 4;
    const auto via_tasks = api::run_tasks({t}, tiny_options());
    EXPECT_EQ(via_tasks[0].runs[0].best_trace, capped.best_trace) << method;
    EXPECT_EQ(via_tasks[0].runs[0].sims, capped.sims) << method;
  }
}

// A custom circuit registered by user code runs end to end through the
// planner — every method kind, tiny budgets.
TEST(RunTasks, CustomCircuitEndToEndAllMethodKinds) {
  const std::vector<api::TaskSpec> tasks = {
      synthetic_task("Human", 1, 1), synthetic_task("Random", 6, 2),
      synthetic_task("ES", 6, 2), synthetic_task("GCN-RL", 6, 2)};
  const auto results = api::run_tasks(tasks, tiny_options());
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(results[0].runs.size(), 1u);
  EXPECT_EQ(results[0].runs[0].evals, 1);
  EXPECT_EQ(results[0].runs[0].sims, 1);  // warmth-independent anchor cost
  for (std::size_t i = 1; i < results.size(); ++i) {
    ASSERT_EQ(results[i].runs.size(), 2u) << tasks[i].method;
    for (const auto& run : results[i].runs) {
      EXPECT_EQ(run.best_trace.size(), 6u) << tasks[i].method;
      EXPECT_GT(run.best_fom, -1e300) << tasks[i].method;
    }
  }
  // Executed spec normalization is reported back.
  EXPECT_EQ(results[3].spec.warmup, 2);
  EXPECT_EQ(results[3].spec.label, "GCN-RL/Synthetic-API@180nm");
}

// Per-task results must be bit-identical whatever else shares the batch:
// a task alone, the same task inside a heterogeneous list, and the same
// list permuted all agree — as long as the permutation preserves the
// first-appearance order of distinct (circuit, node) groups, because
// calibration draws from one shared RNG in group order (the calibration
// rule task.hpp documents).
TEST(RunTasks, GroupingAndOrderIndependence) {
  const api::TaskSpec a = synthetic_task("GCN-RL", 5, 2);
  const api::TaskSpec b = synthetic_task("ES", 5, 2);
  api::TaskSpec c = synthetic_task("NG-RL", 5, 1);
  c.node = "65nm";  // second factory on the same service

  const auto solo = api::run_tasks({a}, tiny_options());
  const auto mixed = api::run_tasks({b, a, c}, tiny_options());
  // a/b swap within the 180nm group; the 180nm -> 65nm group order stays.
  const auto permuted = api::run_tasks({a, b, c}, tiny_options());

  ASSERT_EQ(mixed[1].spec.label, solo[0].spec.label);
  EXPECT_EQ(mixed[1].best, solo[0].best);
  EXPECT_EQ(mixed[1].sims, solo[0].sims);
  for (std::size_t s = 0; s < solo[0].runs.size(); ++s) {
    EXPECT_EQ(mixed[1].runs[s].best_trace, solo[0].runs[s].best_trace);
  }
  EXPECT_EQ(mixed[1].best, permuted[0].best);
  EXPECT_EQ(mixed[0].best, permuted[1].best);
  EXPECT_EQ(mixed[2].best, permuted[2].best);
  for (std::size_t s = 0; s < mixed[0].runs.size(); ++s) {
    EXPECT_EQ(mixed[0].runs[s].best_trace, permuted[1].runs[s].best_trace);
  }
}

TEST(RunTasks, ThreadCountDoesNotChangeResults) {
  const std::vector<api::TaskSpec> tasks = {synthetic_task("ES", 6, 2),
                                            synthetic_task("BO", 6, 2),
                                            synthetic_task("GCN-RL", 6, 2)};
  const auto serial = api::run_tasks(tasks, tiny_options(1));
  const auto pooled = api::run_tasks(tasks, tiny_options(4));
  ASSERT_EQ(serial.size(), pooled.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].best, pooled[i].best) << tasks[i].method;
    EXPECT_EQ(serial[i].sims, pooled[i].sims) << tasks[i].method;
    for (std::size_t s = 0; s < serial[i].runs.size(); ++s) {
      EXPECT_EQ(serial[i].runs[s].best_trace, pooled[i].runs[s].best_trace);
    }
  }
}

// The planner's automatic ES -> BO chain equals handing the budgets over
// explicitly — and holds even when BO is listed before its source.
TEST(RunTasks, BudgetChainMatchesExplicitBudgets) {
  const api::TaskSpec es = synthetic_task("ES", 8, 2);
  const api::TaskSpec bo = synthetic_task("BO", 8, 2);

  const auto chained = api::run_tasks({bo, es}, tiny_options());
  const auto& bo_chained = chained[0];
  const auto& es_run = chained[1];

  // Replay with the recorded ES sims as explicit per-task caps (uniform
  // caps need per-seed equality to stay a faithful replay).
  ASSERT_EQ(es_run.sims.size(), 2u);
  ASSERT_EQ(es_run.sims[0], es_run.sims[1]);
  api::TaskSpec bo_explicit = bo;
  bo_explicit.sim_budget = es_run.sims[0];
  const auto replay = api::run_tasks({bo_explicit}, tiny_options());
  EXPECT_EQ(replay[0].best, bo_chained.best);
  EXPECT_EQ(replay[0].sims, bo_chained.sims);
  for (int s = 0; s < 2; ++s) {
    EXPECT_LE(bo_chained.sims[static_cast<std::size_t>(s)], es_run.sims[0]);
  }

  // sim_budget < 0 opts out of the chain entirely.
  api::TaskSpec bo_uncapped = bo;
  bo_uncapped.sim_budget = -1;
  const auto uncapped = api::run_tasks({es, bo_uncapped}, tiny_options());
  EXPECT_EQ(uncapped[1].runs[0].best_trace.size(), 8u);
}

// A task's FoM override equals editing each env's FomSpec by hand after
// calibration: the weighted task keeps the normalizers of the plain task
// listed before it (the override is not part of the calibration tuple).
TEST(RunTasks, FomOverrideMatchesHandEditedEnvs) {
  const api::TaskSpec plain = synthetic_task("GCN-RL", 8, 2);
  api::TaskSpec weighted = synthetic_task("GCN-RL", 8, 2);
  weighted.label = "weighted";
  weighted.seed_base = 77;
  weighted.seed_stride = 1;
  weighted.fom.enforce_spec = false;
  weighted.fom.weights = {{"cost", -10.0}};
  const auto planned = api::run_tasks({plain, weighted}, tiny_options());

  const auto opts = tiny_options();
  const api::EnvFactory factory = synthetic_factory(opts);
  rl::DdpgConfig cfg;
  cfg.warmup = weighted.warmup;
  LockstepRun by_hand(factory, opts.service, cfg, {77, 78}, nullptr,
                      [](env::FomSpec& fom) {
                        fom.enforce_spec = false;
                        fom.set_weight("cost", -10.0);
                      });
  const auto runs = by_hand.run(weighted.steps);

  ASSERT_EQ(planned[1].runs.size(), 2u);
  for (std::size_t s = 0; s < 2; ++s) {
    EXPECT_EQ(planned[1].runs[s].best_trace, runs[s].best_trace);
    EXPECT_EQ(planned[1].runs[s].best_metrics, runs[s].best_metrics);
    EXPECT_EQ(planned[1].runs[s].sims, runs[s].sims);
  }

  // A weight for a metric the circuit lacks fails validation and names
  // the metrics it has.
  api::TaskSpec bad = weighted;
  bad.fom.weights = {{"gain", 10.0}};
  try {
    (void)api::run_tasks({bad}, tiny_options());
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("\"gain\""), std::string::npos) << what;
    EXPECT_NE(what.find("speed, cost"), std::string::npos) << what;
  }
}

// A user-registered ask/tell method drives the planner like a built-in.
TEST(RunTasks, CustomAskTellMethodRunsThroughPlanner) {
  if (!api::method_registered("Grid-Walk")) {
    api::MethodInfo mi;
    mi.name = "Grid-Walk";
    mi.kind = api::MethodKind::AskTell;
    mi.make_optimizer = [](int dim, Rng rng) {
      return std::make_unique<GridWalk>(dim, std::move(rng));
    };
    api::register_method(std::move(mi));
  }
  const auto results =
      api::run_tasks({synthetic_task("Grid-Walk", 7, 2)}, tiny_options());
  ASSERT_EQ(results[0].runs.size(), 2u);
  for (const auto& run : results[0].runs) {
    EXPECT_EQ(run.best_trace.size(), 7u);
    EXPECT_EQ(run.evals, 7);
  }
}

// ---------------------------------------------------------------------------
// Transfer: pretrain chains + checkpoints
// ---------------------------------------------------------------------------

// A planner-resolved pretrain chain is bit-identical to the transfer
// protocol wired by hand: pretrain one agent, then copy its weights into
// fine-tune agents on the seed ladder.
TEST(RunTasks, PretrainChainMatchesHandWiredTransfer) {
  api::TaskSpec pre = synthetic_task("GCN-RL", 8, 1);
  pre.warmup = 2;
  pre.label = "pre";
  pre.seed_base = 500;
  api::TaskSpec xfer = synthetic_task("GCN-RL", 6, 2);
  xfer.warmup = 2;
  xfer.pretrain_from = "pre";
  xfer.seed_base = 900;
  xfer.seed_stride = 31;
  const auto planned = api::run_tasks({pre, xfer}, tiny_options());

  const auto opts = tiny_options();
  const api::EnvFactory factory = synthetic_factory(opts);
  rl::DdpgConfig cfg;
  cfg.warmup = 2;
  LockstepRun pre_run(factory, opts.service, cfg, {500});
  const auto pre_runs = pre_run.run(8);
  LockstepRun ft_run(factory, opts.service, cfg, {900, 931},
                     &pre_run.agent(0));
  const auto ft_runs = ft_run.run(6);

  EXPECT_EQ(planned[0].runs[0].best_trace, pre_runs[0].best_trace);
  ASSERT_EQ(planned[1].runs.size(), 2u);
  for (std::size_t s = 0; s < 2; ++s) {
    EXPECT_EQ(planned[1].runs[s].best_fom, ft_runs[s].best_fom);
    EXPECT_EQ(planned[1].runs[s].best_trace, ft_runs[s].best_trace);
    EXPECT_EQ(planned[1].runs[s].sims, ft_runs[s].sims);
  }
}

// save() -> load() into a freshly initialized agent is a bitwise round
// trip: every parameter matches and a subsequent identically seeded
// fine-tune produces the identical best_trace.
TEST(RunTasks, AgentSaveLoadRoundTripIsBitwise) {
  const auto opts = tiny_options();
  const api::EnvFactory factory = synthetic_factory(opts);
  rl::DdpgConfig cfg;
  cfg.warmup = 2;
  LockstepRun trained_run(factory, opts.service, cfg, {42});
  trained_run.run(8);
  rl::DdpgAgent& trained = trained_run.agent(0);

  const std::string path =
      (std::filesystem::temp_directory_path() / "gcnrl_agent_roundtrip.gcr")
          .string();
  trained.save(path);
  const auto env2 = factory.make(opts.service);
  rl::DdpgAgent loaded(env2->state(), env2->adjacency(), env2->kinds(), cfg,
                       Rng(777));
  loaded.load(path);
  std::remove(path.c_str());

  const auto tp = trained.parameters();
  const auto lp = loaded.parameters();
  ASSERT_EQ(tp.size(), lp.size());
  for (std::size_t i = 0; i < tp.size(); ++i) {
    EXPECT_EQ(tp[i]->name, lp[i]->name);
    const auto& want = tp[i]->value;
    const auto& got = lp[i]->value;
    ASSERT_TRUE(want.same_shape(got)) << tp[i]->name;
    for (int r = 0; r < want.rows(); ++r) {
      for (int c = 0; c < want.cols(); ++c) {
        EXPECT_EQ(want(r, c), got(r, c)) << tp[i]->name;
      }
    }
  }

  // The loaded agent warm-starts a run exactly like the original.
  LockstepRun g1(factory, opts.service, cfg, {5}, &trained);
  LockstepRun g2(factory, opts.service, cfg, {5}, &loaded);
  const auto r1 = g1.run(6);
  const auto r2 = g2.run(6);
  EXPECT_EQ(r1[0].best_trace, r2[0].best_trace);
  EXPECT_EQ(r1[0].sims, r2[0].sims);
}

// A warm start from the checkpoint store's disk tier (fresh store, fresh
// run_tasks call, weights resolved from the file alone) is bit-identical
// to the in-memory pretrain_from chain.
TEST(RunTasks, DiskCheckpointWarmStartMatchesInMemoryPretrain) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "gcnrl_ckpt_store_test")
          .string();
  std::filesystem::remove_all(dir);

  api::TaskSpec pre = synthetic_task("GCN-RL", 8, 1);
  pre.warmup = 2;
  pre.label = "pre";
  pre.save_checkpoint = "synthetic-pre";
  api::TaskSpec xfer = synthetic_task("GCN-RL", 6, 1);
  xfer.warmup = 2;
  xfer.pretrain_from = "pre";

  api::CheckpointStore store_a(dir);
  auto opts_a = tiny_options();
  opts_a.checkpoints = &store_a;
  const auto in_memory = api::run_tasks({pre, xfer}, opts_a);
  EXPECT_TRUE(store_a.contains("synthetic-pre"));
  EXPECT_EQ(store_a.names(), std::vector<std::string>{"synthetic-pre"});
  ASSERT_FALSE(store_a.path_of("synthetic-pre").empty());
  EXPECT_TRUE(std::filesystem::exists(store_a.path_of("synthetic-pre")));

  // Fresh store on the same directory: the memory tier is empty, so the
  // artifact must come off disk. Both task lists calibrate the same
  // (circuit, node, mode) group first, so the factories are identical.
  api::CheckpointStore store_b(dir);
  EXPECT_TRUE(store_b.names().empty());
  api::TaskSpec warm = synthetic_task("GCN-RL", 6, 1);
  warm.warmup = 2;
  warm.load_checkpoint = "synthetic-pre";
  auto opts_b = tiny_options();
  opts_b.checkpoints = &store_b;
  const auto from_disk = api::run_tasks({warm}, opts_b);

  EXPECT_EQ(from_disk[0].runs[0].best_fom, in_memory[1].runs[0].best_fom);
  EXPECT_EQ(from_disk[0].runs[0].best_trace,
            in_memory[1].runs[0].best_trace);
  EXPECT_EQ(from_disk[0].runs[0].sims, in_memory[1].runs[0].sims);
  EXPECT_EQ(from_disk[0].spec.label,
            "GCN-RL/Synthetic-API@180nm<-ckpt:synthetic-pre");
  std::filesystem::remove_all(dir);
}

// Stamp checks on load: index mode must match exactly; under OneHot the
// circuit must match too (the one-hot block ties the state layout to one
// topology); Scalar accepts any circuit; the node is never checked.
TEST(CheckpointStore, StampMismatchFailsLoudly) {
  Rng rng(3);
  nn::Linear w("ckpt.w", 2, 2, rng);
  api::CheckpointStore store;
  store.put("art", w.parameters(),
            {"Two-TIA", "180nm", env::IndexMode::OneHot, ""});
  store.put("art-scalar", w.parameters(),
            {"Two-TIA", "180nm", env::IndexMode::Scalar, ""});

  nn::Linear dst("ckpt.w", 2, 2, rng);
  EXPECT_THROW(store.load("art", dst.parameters(),
                          {"Two-TIA", "180nm", env::IndexMode::Scalar, ""}),
               std::runtime_error);
  EXPECT_THROW(store.load("art", dst.parameters(),
                          {"Three-TIA", "180nm", env::IndexMode::OneHot, ""}),
               std::runtime_error);
  // Cross-node transfer is the headline protocol — allowed.
  EXPECT_EQ(store.load("art", dst.parameters(),
                       {"Two-TIA", "65nm", env::IndexMode::OneHot, ""}),
            2);
  // Cross-topology transfer is the point of scalar mode — allowed.
  EXPECT_EQ(store.load("art-scalar", dst.parameters(),
                       {"Three-TIA", "65nm", env::IndexMode::Scalar, ""}),
            2);
  // An artifact without a source fingerprint (earlier builds stamped the
  // built-ins with none) loads onto the fingerprinted built-in; a
  // different fingerprint is refused.
  const std::string tag = api::circuit_source_tag("Two-TIA");
  EXPECT_EQ(store.load("art", dst.parameters(),
                       {"Two-TIA", "180nm", env::IndexMode::OneHot, tag}),
            2);
  store.put("art-tagged", w.parameters(),
            {"Two-TIA", "180nm", env::IndexMode::OneHot, "gcir:other"});
  EXPECT_THROW(store.load("art-tagged", dst.parameters(),
                          {"Two-TIA", "180nm", env::IndexMode::OneHot, tag}),
               std::runtime_error);
  // A missing artifact lists what the store holds.
  try {
    store.load("no-such-artifact", dst.parameters(),
               {"Two-TIA", "180nm", env::IndexMode::OneHot, ""});
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("no-such-artifact"), std::string::npos) << msg;
    EXPECT_NE(msg.find("art"), std::string::npos) << msg;
  }
}

TEST(RunTasks, ChainValidationErrors) {
  // pretrain_from must name a task in the list.
  api::TaskSpec orphan = synthetic_task("GCN-RL", 4, 1);
  orphan.pretrain_from = "no-such-label";
  EXPECT_THROW(api::run_tasks({orphan}, tiny_options()),
               std::invalid_argument);

  // pretrain_from and load_checkpoint are mutually exclusive.
  api::TaskSpec both = synthetic_task("GCN-RL", 4, 1);
  both.pretrain_from = "pre";
  both.load_checkpoint = "ckpt";
  EXPECT_THROW(api::run_tasks({both}, tiny_options()),
               std::invalid_argument);

  // Warm-start fields apply only to DDPG-kind methods.
  api::TaskSpec es = synthetic_task("ES", 4, 1);
  es.save_checkpoint = "es-ckpt";
  EXPECT_THROW(api::run_tasks({es}, tiny_options()), std::invalid_argument);

  // seed_stride without seed_base is a silent-ladder hazard; rejected.
  api::TaskSpec stride = synthetic_task("GCN-RL", 4, 1);
  stride.seed_stride = 31;
  EXPECT_THROW(api::run_tasks({stride}, tiny_options()),
               std::invalid_argument);
  // So is seed_base with stride 0 over several seeds: every seed would
  // run the same RNG stream. One seed on a base alone stays legal.
  api::TaskSpec flat = synthetic_task("ES", 4, 2);
  flat.seed_base = 500;
  EXPECT_THROW(api::run_tasks({flat}, tiny_options()), std::invalid_argument);
  flat.seeds = 1;
  EXPECT_NO_THROW(api::run_tasks({flat}, tiny_options()));

  // Duplicate save names would make checkpoint resolution order-dependent.
  api::TaskSpec s1 = synthetic_task("GCN-RL", 4, 1);
  s1.label = "a";
  s1.save_checkpoint = "dup";
  api::TaskSpec s2 = synthetic_task("GCN-RL", 4, 1);
  s2.label = "b";
  s2.save_checkpoint = "dup";
  EXPECT_THROW(api::run_tasks({s1, s2}, tiny_options()),
               std::invalid_argument);

  // A source whose seed count is neither 1 nor the consumer's is rejected.
  api::TaskSpec wide = synthetic_task("GCN-RL", 4, 2);
  wide.label = "wide";
  api::TaskSpec narrow = synthetic_task("GCN-RL", 4, 3);
  narrow.pretrain_from = "wide";
  EXPECT_THROW(api::run_tasks({wide, narrow}, tiny_options()),
               std::invalid_argument);

  // Cycles are detected: a pretrains from b, b loads what a saves.
  api::TaskSpec cyc_a = synthetic_task("GCN-RL", 4, 1);
  cyc_a.label = "cyc-a";
  cyc_a.pretrain_from = "cyc-b";
  cyc_a.save_checkpoint = "cyc-ckpt";
  api::TaskSpec cyc_b = synthetic_task("GCN-RL", 4, 1);
  cyc_b.label = "cyc-b";
  cyc_b.load_checkpoint = "cyc-ckpt";
  EXPECT_THROW(api::run_tasks({cyc_a, cyc_b}, tiny_options()),
               std::invalid_argument);
}

// seed_base/seed_stride reproduce the canonical ladder when set to its
// values, and a per-task index_mode override equals the global option.
TEST(RunTasks, SeedAndIndexModeOverrides) {
  const api::TaskSpec plain = synthetic_task("GCN-RL", 5, 2);
  api::TaskSpec laddered = synthetic_task("GCN-RL", 5, 2);
  laddered.seed_base = api::seed_of(0);
  laddered.seed_stride = api::seed_of(1) - api::seed_of(0);
  const auto a = api::run_tasks({plain}, tiny_options());
  const auto b = api::run_tasks({laddered}, tiny_options());
  EXPECT_EQ(a[0].best, b[0].best);
  for (std::size_t s = 0; s < a[0].runs.size(); ++s) {
    EXPECT_EQ(a[0].runs[s].best_trace, b[0].runs[s].best_trace);
  }
  // A different base diverges (the ladder is real, not decorative).
  api::TaskSpec shifted = laddered;
  shifted.seed_base = api::seed_of(0) + 1;
  const auto c = api::run_tasks({shifted}, tiny_options());
  EXPECT_NE(a[0].runs[0].best_trace, c[0].runs[0].best_trace);

  api::TaskSpec scalar_task = synthetic_task("GCN-RL", 5, 1);
  scalar_task.index_mode = env::IndexMode::Scalar;
  const auto via_override = api::run_tasks({scalar_task}, tiny_options());
  auto scalar_opts = tiny_options();
  scalar_opts.mode = env::IndexMode::Scalar;
  const auto via_option =
      api::run_tasks({synthetic_task("GCN-RL", 5, 1)}, scalar_opts);
  EXPECT_EQ(via_override[0].runs[0].best_trace,
            via_option[0].runs[0].best_trace);
}

// ---------------------------------------------------------------------------
// Spec-file parser
// ---------------------------------------------------------------------------

TEST(SpecParser, BindsAllFields) {
  const std::string text = R"({
    "options": {"calib": 64, "calib_seed": 7, "mode": "scalar"},
    "tasks": [
      {"circuit": "Two-TIA", "method": "ES", "steps": 12, "warmup": 6,
       "seeds": 3, "node": "65nm", "sim_budget": 40, "label": "es-65"},
      {"circuit": "LDO", "method": "GCN-RL"}
    ]
  })";
  const api::TaskFile f = api::parse_task_spec(text);
  EXPECT_EQ(f.options.calib_samples, 64);
  EXPECT_EQ(f.options.calib_seed, 7u);
  EXPECT_EQ(f.options.mode, env::IndexMode::Scalar);
  ASSERT_EQ(f.tasks.size(), 2u);
  EXPECT_EQ(f.tasks[0].circuit, "Two-TIA");
  EXPECT_EQ(f.tasks[0].method, "ES");
  EXPECT_EQ(f.tasks[0].steps, 12);
  EXPECT_EQ(f.tasks[0].warmup, 6);
  EXPECT_EQ(f.tasks[0].seeds, 3);
  EXPECT_EQ(f.tasks[0].node, "65nm");
  EXPECT_EQ(f.tasks[0].sim_budget, 40);
  EXPECT_EQ(f.tasks[0].label, "es-65");
  // Defaults on the second task.
  EXPECT_EQ(f.tasks[1].node, "180nm");
  EXPECT_EQ(f.tasks[1].steps, 300);
  EXPECT_EQ(f.tasks[1].seeds, 1);
}

TEST(SpecParser, BindsTransferFields) {
  const api::TaskFile f = api::parse_task_spec(R"({
    "tasks": [
      {"circuit": "Two-TIA", "method": "GCN-RL", "label": "pre",
       "save_checkpoint": "two-tia-pre", "mode": "scalar",
       "calib_group": "dir1", "seed_base": 500, "seed_stride": 31},
      {"circuit": "Three-TIA", "method": "GCN-RL", "pretrain_from": "pre"},
      {"circuit": "Two-TIA", "method": "GCN-RL",
       "load_checkpoint": "two-tia-pre"}
    ]
  })");
  ASSERT_EQ(f.tasks.size(), 3u);
  EXPECT_EQ(f.tasks[0].save_checkpoint, "two-tia-pre");
  ASSERT_TRUE(f.tasks[0].index_mode.has_value());
  EXPECT_EQ(*f.tasks[0].index_mode, env::IndexMode::Scalar);
  EXPECT_EQ(f.tasks[0].calib_group, "dir1");
  ASSERT_TRUE(f.tasks[0].seed_base.has_value());
  EXPECT_EQ(*f.tasks[0].seed_base, 500u);
  EXPECT_EQ(f.tasks[0].seed_stride, 31u);
  EXPECT_EQ(f.tasks[1].pretrain_from, "pre");
  EXPECT_FALSE(f.tasks[1].index_mode.has_value());
  EXPECT_FALSE(f.tasks[1].seed_base.has_value());
  EXPECT_EQ(f.tasks[2].load_checkpoint, "two-tia-pre");

  EXPECT_THROW(api::parse_task_spec(
                   R"({"tasks": [{"circuit": "LDO", "method": "GCN-RL",
                       "seed_base": -1}]})"),
               std::runtime_error);  // negative seed
  EXPECT_THROW(api::parse_task_spec(
                   R"({"tasks": [{"circuit": "LDO", "method": "GCN-RL",
                       "mode": "bogus"}]})"),
               std::runtime_error);  // unknown index mode
}

TEST(SpecParser, BindsFomOverride) {
  const api::TaskFile f = api::parse_task_spec(R"({"tasks": [
    {"circuit": "Two-TIA", "method": "GCN-RL",
     "fom": {"enforce_spec": false, "weights": {"bw": 10, "power": -10}}},
    {"circuit": "Two-TIA", "method": "GCN-RL", "fom": {}}]})");
  ASSERT_EQ(f.tasks.size(), 2u);
  ASSERT_TRUE(f.tasks[0].fom.enforce_spec.has_value());
  EXPECT_FALSE(*f.tasks[0].fom.enforce_spec);
  EXPECT_EQ(f.tasks[0].fom.weights,
            (std::map<std::string, double>{{"bw", 10.0}, {"power", -10.0}}));
  EXPECT_FALSE(f.tasks[1].fom.enforce_spec.has_value());
  EXPECT_TRUE(f.tasks[1].fom.weights.empty());

  for (const char* fom : {R"({"enforce": false})", R"({"weights": [1]})",
                          R"({"enforce_spec": 0})",
                          R"({"weights": {"bw": "ten"}})", "3"}) {
    EXPECT_THROW(api::parse_task_spec(
                     std::string(R"({"tasks": [{"circuit": "LDO",
                         "method": "ES", "fom": )") +
                     fom + "}]}"),
                 std::runtime_error)
        << fom;
  }
}

TEST(SpecParser, RejectsUnknownAndMalformedInput) {
  // Unknown keys fail loudly rather than being ignored.
  EXPECT_THROW(api::parse_task_spec(
                   R"({"tasks": [{"circuit": "LDO", "method": "ES",
                       "stepz": 3}]})"),
               std::runtime_error);
  EXPECT_THROW(
      api::parse_task_spec(R"({"tasks": [{"circuit": "LDO"}]})"),
      std::runtime_error);  // missing method
  EXPECT_THROW(api::parse_task_spec(R"({"tasks": []})"),
               std::runtime_error);  // empty task list
  EXPECT_THROW(api::parse_task_spec(R"({"taskz": []})"),
               std::runtime_error);  // unknown top-level key
  EXPECT_THROW(api::parse_task_spec(
                   R"({"tasks": [{"circuit": "LDO", "method": "ES",
                       "steps": "many"}]})"),
               std::runtime_error);  // wrong type
  EXPECT_THROW(api::parse_task_spec(
                   R"({"tasks": [{"circuit": "LDO", "method": "ES",
                       "steps": 1.5}]})"),
               std::runtime_error);  // fractional integer
  EXPECT_THROW(api::parse_task_spec(
                   R"({"tasks": [{"circuit": "LDO", "method": "ES",
                       "steps": 4294967297}]})"),
               std::runtime_error);  // beyond int range, must not wrap
  EXPECT_THROW(api::parse_task_spec(
                   R"({"options": {"calib_seed": -1},
                       "tasks": [{"circuit": "LDO", "method": "ES"}]})"),
               std::runtime_error);  // negative seed
  EXPECT_THROW(api::parse_task_spec("{\"tasks\": ["),
               std::runtime_error);  // truncated JSON
  EXPECT_THROW(api::parse_task_spec(
                   R"({"tasks": [{"circuit": "A", "circuit": "B",
                       "method": "ES"}]})"),
               std::runtime_error);  // duplicate key
}

TEST(SpecParser, ReportsPositions) {
  try {
    api::parse_task_spec("{\n  \"tasks\": oops\n}");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("2:"), std::string::npos)
        << e.what();
  }
}

// Every shipped spec, the paper's included, parses and resolves: methods
// and nodes exist, each circuit is registered (or registers from its
// .gcir file), each FoM weight names one of the circuit's metrics, each
// pretrain_from names a label in the same file, and no seed ladder has a
// base without a stride over several seeds. No test runs the paper-scale
// specs, so this is what keeps them from going stale.
TEST(SpecParser, ShippedSpecsParse) {
  std::vector<std::filesystem::path> files;
  for (const char* dir : {"/specs", "/specs/paper"}) {
    for (const auto& entry : std::filesystem::directory_iterator(
             std::string(GCNRL_SOURCE_DIR) + dir)) {
      if (entry.path().extension() == ".json") files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  ASSERT_GE(files.size(), 21u);  // 5 examples + 8 paper specs x 2 scales
  for (const auto& path : files) {
    const api::TaskFile f = api::load_task_spec(path.string());
    EXPECT_FALSE(f.tasks.empty()) << path;
    std::set<std::string> labels;
    for (const api::TaskSpec& t : f.tasks) labels.insert(t.label);
    for (const api::TaskSpec& t : f.tasks) {
      EXPECT_TRUE(api::method_registered(t.method)) << path << ": " << t.method;
      EXPECT_FALSE(t.seed_base && t.seed_stride == 0 && t.seeds > 1)
          << path << ": " << t.label;
      EXPECT_NO_THROW((void)circuit::make_technology(t.node))
          << path << ": " << t.node;
      std::string name = t.circuit;
      if (!t.circuit_file.empty()) {
        name = api::register_circuit_file(t.circuit_file);
        EXPECT_TRUE(t.circuit.empty() || t.circuit == name) << path;
      }
      ASSERT_TRUE(api::circuit_registered(name)) << path << ": " << name;
      const env::FomSpec fom =
          api::build_circuit(name, circuit::make_technology("180nm")).fom;
      for (const auto& [metric, weight] : t.fom.weights) {
        EXPECT_NE(fom.find(metric), nullptr) << path << ": " << metric;
      }
      if (!t.pretrain_from.empty()) {
        EXPECT_EQ(labels.count(t.pretrain_from), 1u)
            << path << ": " << t.pretrain_from;
      }
    }
  }
}

TEST(SpecParser, MissingFileThrows) {
  EXPECT_THROW(api::load_task_spec("/no/such/spec.json"),
               std::runtime_error);
}


// ---------------------------------------------------------------------------
// File-circuit registration (.gcir)
// ---------------------------------------------------------------------------

std::string shipped(const char* rel) {
  return std::string(GCNRL_SOURCE_DIR) + rel;
}

std::string write_temp_gcir(const char* filename, const std::string& body) {
  const std::string path =
      (std::filesystem::temp_directory_path() / filename).string();
  std::ofstream f(path);
  f << body;
  return path;
}

std::string read_text(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

// A file circuit that is not built in: the shipped Two-TIA under another
// declared name.
std::string two_tia_copy() {
  std::string text = read_text(shipped("/specs/circuits/two_tia.gcir"));
  const std::string line = "\ncircuit Two-TIA\n";
  const std::size_t at = text.find(line);
  EXPECT_NE(at, std::string::npos);
  text.replace(at, line.size(), "\ncircuit Two-TIA-copy\n");
  return write_temp_gcir("gcnrl_two_tia_copy.gcir", text);
}

TEST(CircuitRegistry, FileCircuitRegistersIdempotently) {
  const std::string path = two_tia_copy();
  const std::string name = api::register_circuit_file(path);
  EXPECT_EQ(name, "Two-TIA-copy");
  EXPECT_TRUE(api::circuit_registered(name));
  // Re-registering identical content is a no-op, not a collision — spec
  // files, --circuit flags and repeat passes may all name the same file.
  EXPECT_EQ(api::register_circuit_file(path), name);
  // File circuits carry a content fingerprint.
  EXPECT_EQ(api::circuit_source_tag(name).rfind("gcir:", 0), 0u);
  EXPECT_THROW(api::circuit_source_tag("no-such-circuit"),
               std::invalid_argument);
  // Builds like a built-in, on any node.
  const auto bc =
      api::build_circuit(name, circuit::make_technology("65nm"));
  EXPECT_EQ(bc.name, name);
  EXPECT_GT(bc.netlist.num_design_components(), 5);
}

// The built-in circuits are the shipped files: each carries its file's
// content fingerprint, so registering the file is a no-op (a name that is
// already registered from different content throws).
TEST(CircuitRegistry, BuiltinsAreTheShippedFiles) {
  const std::vector<std::string> names = api::circuit_names();
  ASSERT_GE(names.size(), 4u);
  const char* files[] = {"two_tia", "two_volt", "three_tia", "ldo"};
  for (std::size_t i = 0; i < 4; ++i) {
    const std::string tag = api::circuit_source_tag(names[i]);
    EXPECT_EQ(tag.rfind("gcir:", 0), 0u) << names[i];
    EXPECT_EQ(api::register_circuit_file(shipped("/specs/circuits/") +
                                         files[i] + ".gcir"),
              names[i]);
    EXPECT_EQ(api::circuit_source_tag(names[i]), tag);
    EXPECT_EQ(api::circuit_names(), names);
  }
}

TEST(CircuitRegistry, FileCircuitCollisionsFailLoudly) {
  const char* tiny_body_fmt =
      "supply vdd\nnet a\n"
      "vsource V a 0 dc=%s\n"
      "nmos M1 a a 0 0 w=1u l=lmin m=1\n"
      "metric g unit=x weight=1\nbench b\nac b 1k 1M 3\n"
      "extract g dc_gain bench=b probe=a\n";
  char body[512];
  std::snprintf(body, sizeof(body), tiny_body_fmt, "1");

  // A declared name owned by a C++ builder, or by a shipped circuit.
  const std::string clash = write_temp_gcir(
      "gcnrl_clash.gcir", std::string("circuit Synthetic-API\n") + body);
  EXPECT_THROW(api::register_circuit_file(clash), std::invalid_argument);
  const std::string shipped_clash = write_temp_gcir(
      "gcnrl_shipped_clash.gcir", std::string("circuit Two-TIA\n") + body);
  EXPECT_THROW(api::register_circuit_file(shipped_clash),
               std::invalid_argument);

  // Same declared name, different content: also a collision.
  const std::string first = write_temp_gcir(
      "gcnrl_dup_a.gcir", std::string("circuit Dup-Check\n") + body);
  EXPECT_EQ(api::register_circuit_file(first), "Dup-Check");
  std::snprintf(body, sizeof(body), tiny_body_fmt, "2");
  const std::string second = write_temp_gcir(
      "gcnrl_dup_b.gcir", std::string("circuit Dup-Check\n") + body);
  EXPECT_THROW(api::register_circuit_file(second), std::invalid_argument);

  // Unreadable path and malformed content fail with context.
  EXPECT_THROW(api::register_circuit_file("/no/such/file.gcir"),
               std::invalid_argument);
  const std::string broken =
      write_temp_gcir("gcnrl_broken.gcir", "circuit X\nfrobnicate\n");
  EXPECT_THROW(api::register_circuit_file(broken), std::runtime_error);
}

TEST(SpecParser, BindsCircuitFileAndResolvesRelativePaths) {
  const api::TaskFile f = api::parse_task_spec(R"({"tasks": [
    {"circuit_file": "circuits/two_tia.gcir", "method": "GCN-RL"}]})");
  ASSERT_EQ(f.tasks.size(), 1u);
  EXPECT_EQ(f.tasks[0].circuit_file, "circuits/two_tia.gcir");
  EXPECT_TRUE(f.tasks[0].circuit.empty());
  // A task needs "circuit" or "circuit_file".
  EXPECT_THROW(api::parse_task_spec(R"({"tasks": [{"method": "ES"}]})"),
               std::runtime_error);
  // load_task_spec resolves relative circuit_file paths against the spec
  // file's directory, so shipped specs work from any cwd.
  const api::TaskFile shipped_spec =
      api::load_task_spec(shipped("/specs/file_transfer.json"));
  ASSERT_FALSE(shipped_spec.tasks.empty());
  EXPECT_EQ(shipped_spec.tasks[0].circuit_file,
            shipped("/specs/circuits/two_tia.gcir"));
}

// The ISSUE's transfer chain in miniature: pretrain on a file-loaded
// circuit, transfer to a (cheap, built-in-style) registered circuit under
// scalar indexing, and require thread-count invariance of every byte.
TEST(RunTasks, FileCircuitTopologyTransferIsThreadInvariant) {
  api::TaskSpec pre;
  pre.circuit_file = two_tia_copy();
  pre.method = "GCN-RL";
  pre.steps = 5;
  pre.warmup = 2;
  pre.seeds = 1;
  pre.label = "pre-file";
  pre.index_mode = env::IndexMode::Scalar;
  api::TaskSpec post = synthetic_task("GCN-RL", 5, 1);
  post.warmup = 2;
  post.index_mode = env::IndexMode::Scalar;
  post.pretrain_from = "pre-file";

  const auto serial = api::run_tasks({pre, post}, tiny_options(1));
  const auto pooled = api::run_tasks({pre, post}, tiny_options(4));
  ASSERT_EQ(serial.size(), 2u);
  // The declared name replaced the empty circuit tag during validation.
  EXPECT_EQ(serial[0].spec.circuit, "Two-TIA-copy");
  ASSERT_EQ(pooled.size(), 2u);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].best, pooled[i].best);
    EXPECT_EQ(serial[i].sims, pooled[i].sims);
    for (std::size_t s = 0; s < serial[i].runs.size(); ++s) {
      EXPECT_EQ(serial[i].runs[s].best_trace, pooled[i].runs[s].best_trace);
    }
  }
}

TEST(RunTasks, CircuitFileNameMismatchFailsLoudly) {
  api::TaskSpec t;
  t.circuit = "Two-TIA";  // declared name is Two-TIA-copy
  t.circuit_file = two_tia_copy();
  t.method = "Human";
  t.steps = 1;
  EXPECT_THROW(api::run_tasks({t}, tiny_options()), std::invalid_argument);
}

}  // namespace
