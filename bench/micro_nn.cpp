// google-benchmark microbenchmarks for the NN/RL substrate at the agent's
// real sizes: a dense product, each copy of the product's row kernel, the
// actor's forward pass, one critic update
// and one actor update (Algorithm 1's two halves of an update), and one
// observe() past warm-up (four updates). The circuit rows use Two-TIA (9
// nodes, perfbench's gcnrl_2tia circuit) and Two-Volt (23 nodes) at 180 nm
// with the default DdpgConfig: hidden width 32, 7 GCN layers, batch 32.
#include <benchmark/benchmark.h>

#include "circuits/benchmark_circuits.hpp"
#include "env/sizing_env.hpp"
#include "rl/ddpg.hpp"

using namespace gcnrl;

namespace {

void BM_Matmul(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(1);
  la::Mat a(n, n), b(n, n), c(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      a(i, j) = rng.uniform(-1, 1);
      b(i, j) = rng.uniform(-1, 1);
    }
  }
  for (auto _ : state) {
    la::matmul(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2l * n * n * n);
}
BENCHMARK(BM_Matmul)->Arg(32)->Arg(64)->Arg(128);

// A 9 x 32 by 32 x 32 product (a width-32 Linear on Two-TIA's 9 nodes),
// row by row through one copy of the row kernel, as la::matmul runs it.
void BM_MatmulRow(benchmark::State& state, la::detail::MatmulRow row) {
  Rng rng(1);
  la::Mat a(9, 32), b(32, 32), c(9, 32);
  for (int i = 0; i < 32; ++i) {
    for (int j = 0; j < 32; ++j) {
      if (i < 9) a(i, j) = rng.uniform(-1, 1);
      b(i, j) = rng.uniform(-1, 1);
    }
  }
  for (auto _ : state) {
    for (int i = 0; i < a.rows(); ++i) {
      row(a.row_ptr(i), 1, a.cols(), b, c.row_ptr(i), false);
    }
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 2l * 9 * 32 * 32);
}
BENCHMARK_CAPTURE(BM_MatmulRow, baseline, la::detail::matmul_row_baseline);
#ifdef GCNRL_LA_AVX2_ROW_KERNEL
void BM_MatmulRowAvx2(benchmark::State& state) {
  if (!la::detail::cpu_has_avx2()) {
    state.SkipWithError("this CPU has no AVX2");
    return;
  }
  BM_MatmulRow(state, la::detail::matmul_row_avx2);
}
BENCHMARK(BM_MatmulRowAvx2)->Name("BM_MatmulRow/avx2");
#endif

// What DdpgAgent builds its networks' inputs from, for one circuit.
struct Circuit {
  la::Mat state;
  la::Mat adjacency;
  std::vector<circuit::Kind> kinds;
};

Circuit circuit_inputs(const char* name) {
  env::SizingEnv env(
      circuits::make_benchmark(name, circuit::make_technology("180nm")));
  return {env.state(), env.adjacency(), env.kinds()};
}

// The agent's networks, their optimizers and workspaces, and a replay
// batch of cfg.batch random transitions, as DdpgAgent::update() sees them.
struct Networks {
  explicit Networks(const Circuit& c) : rng(2) {
    nc.state_dim = c.state.cols();
    nc.hidden = cfg.hidden;
    nc.gcn_layers = cfg.gcn_layers;
    a_hat = nn::normalized_adjacency(c.adjacency);
    masks = rl::make_type_masks(c.kinds, cfg.hidden);
    actor = std::make_unique<rl::GcnActor>(nc, rng);
    critic = std::make_unique<rl::GcnCritic>(nc, rng);
    opt_actor = std::make_unique<nn::Adam>(actor->parameters(), cfg.lr_actor);
    opt_critic =
        std::make_unique<nn::Adam>(critic->parameters(), cfg.lr_critic);
    const int n = c.state.rows();
    actor_pass = std::make_unique<rl::GcnActor::Pass>(n, nc);
    critic_pass = std::make_unique<rl::GcnCritic::Pass>(n, nc);
    data.resize(static_cast<std::size_t>(cfg.batch));
    for (rl::Transition& t : data) {
      t.actions = la::Mat(n, circuit::kMaxActionDim);
      for (int i = 0; i < n; ++i) {
        for (int j = 0; j < circuit::kMaxActionDim; ++j) {
          t.actions(i, j) = rng.uniform(-1.0, 1.0);
        }
      }
      t.reward = rng.uniform(-1.0, 1.0);
    }
    for (const rl::Transition& t : data) batch.push_back(&t);
  }

  rl::DdpgConfig cfg;
  rl::NetworkConfig nc;
  Rng rng;
  la::Mat a_hat;
  rl::TypeMasks masks;
  std::unique_ptr<rl::GcnActor> actor;
  std::unique_ptr<rl::GcnCritic> critic;
  std::unique_ptr<nn::Adam> opt_actor, opt_critic;
  std::unique_ptr<rl::GcnActor::Pass> actor_pass;
  std::unique_ptr<rl::GcnCritic::Pass> critic_pass;
  std::vector<rl::Transition> data;
  std::vector<const rl::Transition*> batch;
};

void BM_ActorForward(benchmark::State& state, const char* name) {
  const Circuit c = circuit_inputs(name);
  rl::DdpgAgent agent(c.state, c.adjacency, c.kinds, rl::DdpgConfig{},
                      Rng(2));
  for (auto _ : state) {
    benchmark::DoNotOptimize(agent.act().data());
  }
}
BENCHMARK_CAPTURE(BM_ActorForward, two_tia, "Two-TIA");

// One critic step: the replay batch's forward and backward passes, then
// Adam.
void BM_CriticUpdate(benchmark::State& state, const char* name) {
  Networks net(circuit_inputs(name));
  const la::Mat s = circuit_inputs(name).state;
  for (auto _ : state) {
    net.opt_critic->zero_grad();
    rl::critic_backward(*net.critic, *net.critic_pass, s, net.a_hat,
                        net.masks, net.batch, 0.0);
    net.opt_critic->step();
  }
}
BENCHMARK_CAPTURE(BM_CriticUpdate, two_tia, "Two-TIA");

// One actor step: mu(S), Q(S, mu(S)), the policy gradient back through
// both networks, then Adam.
void BM_ActorUpdate(benchmark::State& state, const char* name) {
  Networks net(circuit_inputs(name));
  const la::Mat s = circuit_inputs(name).state;
  for (auto _ : state) {
    net.opt_actor->zero_grad();
    rl::actor_backward(*net.actor, *net.actor_pass, *net.critic,
                       *net.critic_pass, s, net.a_hat, net.masks);
    net.opt_actor->step();
  }
}
BENCHMARK_CAPTURE(BM_ActorUpdate, two_tia, "Two-TIA");

// One act_explore() + observe() past warm-up: cfg.updates_per_step (4)
// critic and actor updates.
void BM_DdpgEpisodeWithUpdates(benchmark::State& state, const char* name) {
  const Circuit c = circuit_inputs(name);
  rl::DdpgConfig cfg;
  cfg.warmup = 4;  // go straight to the update path
  rl::DdpgAgent agent(c.state, c.adjacency, c.kinds, cfg, Rng(3));
  Rng reward_rng(4);
  for (int i = 0; i < 8; ++i) {
    agent.observe(agent.act_explore(), reward_rng.uniform(-1.0, 1.0));
  }
  for (auto _ : state) {
    agent.observe(agent.act_explore(), reward_rng.uniform(-1.0, 1.0));
  }
}
BENCHMARK_CAPTURE(BM_DdpgEpisodeWithUpdates, two_tia, "Two-TIA");
BENCHMARK_CAPTURE(BM_DdpgEpisodeWithUpdates, two_volt, "Two-Volt");

}  // namespace
