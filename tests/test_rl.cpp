// Tests for the RL stack: replay buffer, exploration noise, actor/critic
// networks, the DDPG agent on a synthetic bandit, and weight transfer. The
// networks' gradients are held to the tape oracle in test_autograd.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "rl/ddpg.hpp"
#include "rl/networks.hpp"
#include "rl/noise.hpp"
#include "rl/replay_buffer.hpp"

namespace rl = gcnrl::rl;
namespace la = gcnrl::la;
using gcnrl::Rng;
using gcnrl::circuit::Kind;

namespace {

struct Toy {
  int n = 6;
  la::Mat state;
  la::Mat adjacency;
  std::vector<Kind> kinds;
  la::Mat target;

  Toy() {
    Rng rng(17);
    state = la::Mat(n, 9);
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < 9; ++j) state(i, j) = rng.uniform(-1.0, 1.0);
    }
    adjacency = la::Mat(n, n);
    for (int i = 0; i + 1 < n; ++i) {
      adjacency(i, i + 1) = 1.0;
      adjacency(i + 1, i) = 1.0;
    }
    kinds = {Kind::Nmos, Kind::Pmos, Kind::Nmos,
             Kind::Resistor, Kind::Capacitor, Kind::Nmos};
    target = la::Mat(n, gcnrl::circuit::kMaxActionDim);
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < target.cols(); ++j) {
        target(i, j) = 0.7 * std::sin(i + 2 * j);
      }
    }
  }

  [[nodiscard]] double reward(const la::Mat& a) const {
    double r = 0.0;
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < target.cols(); ++j) {
        const double d = a(i, j) - target(i, j);
        r -= d * d;
      }
    }
    return r;
  }
};

}  // namespace

TEST(ReplayBuffer, PushSampleRing) {
  rl::ReplayBuffer buf(3);
  Rng rng(1);
  for (int i = 0; i < 5; ++i) {
    buf.push(la::Mat(1, 1, static_cast<double>(i)), i);
  }
  EXPECT_EQ(buf.size(), 3u);  // ring capacity
  // Oldest entries evicted: rewards present are {2,3,4} in some slots.
  double min_r = 1e9, max_r = -1e9;
  for (std::size_t i = 0; i < buf.size(); ++i) {
    min_r = std::min(min_r, buf[i].reward);
    max_r = std::max(max_r, buf[i].reward);
  }
  EXPECT_GE(min_r, 2.0);
  EXPECT_LE(max_r, 4.0);
  std::vector<const rl::Transition*> batch;
  buf.sample(10, rng, batch);
  EXPECT_EQ(batch.size(), 10u);  // with replacement
}

TEST(Noise, SigmaDecaysToFloor) {
  rl::TruncatedNormalNoise noise(0.5, 0.9, 0.05);
  EXPECT_DOUBLE_EQ(noise.sigma(0), 0.5);
  EXPECT_NEAR(noise.sigma(10), 0.5 * std::pow(0.9, 10), 1e-12);
  EXPECT_DOUBLE_EQ(noise.sigma(1000), 0.05);
}

TEST(Noise, OutputStaysInActionBox) {
  rl::TruncatedNormalNoise noise(0.8, 1.0, 0.8);
  Rng rng(2);
  la::Mat a(4, 3, 0.9);
  for (int it = 0; it < 50; ++it) {
    const la::Mat out = noise.apply(a, 0, rng);
    for (int i = 0; i < out.rows(); ++i) {
      for (int j = 0; j < out.cols(); ++j) {
        EXPECT_GE(out(i, j), -1.0);
        EXPECT_LE(out(i, j), 1.0);
      }
    }
  }
}

TEST(TypeMasks, PartitionRows) {
  Toy toy;
  const auto masks = rl::make_type_masks(toy.kinds, 8);
  // Every row appears in exactly one kind's mask.
  for (int i = 0; i < toy.n; ++i) {
    double total = 0.0;
    for (int k = 0; k < gcnrl::circuit::kNumKinds; ++k) {
      total += masks.action[k](i, 0);
      EXPECT_EQ(masks.action[k](i, 0), masks.hidden[k](i, 0));
    }
    EXPECT_DOUBLE_EQ(total, 1.0);
  }
}

TEST(Networks, ActorOutputsBoundedActions) {
  Toy toy;
  rl::NetworkConfig cfg;
  cfg.state_dim = toy.state.cols();
  Rng rng(3);
  rl::GcnActor actor(cfg, rng);
  const auto masks = rl::make_type_masks(toy.kinds, cfg.hidden);
  const la::Mat ahat = gcnrl::nn::normalized_adjacency(toy.adjacency);
  rl::GcnActor::Pass pass(toy.n, cfg);
  actor.forward(pass, toy.state, ahat, masks);
  const la::Mat& a = pass.out;
  ASSERT_EQ(a.rows(), toy.n);
  ASSERT_EQ(a.cols(), gcnrl::circuit::kMaxActionDim);
  for (int i = 0; i < a.rows(); ++i) {
    for (int j = 0; j < a.cols(); ++j) {
      EXPECT_GE(a(i, j), -1.0);
      EXPECT_LE(a(i, j), 1.0);
    }
  }
}

TEST(Networks, CriticProducesScalarSensitiveToActions) {
  Toy toy;
  rl::NetworkConfig cfg;
  cfg.state_dim = toy.state.cols();
  Rng rng(4);
  rl::GcnCritic critic(cfg, rng);
  const auto masks = rl::make_type_masks(toy.kinds, cfg.hidden);
  const la::Mat ahat = gcnrl::nn::normalized_adjacency(toy.adjacency);
  la::Mat a1(toy.n, 3, 0.2);
  la::Mat a2(toy.n, 3, -0.7);
  rl::GcnCritic::Pass pass(toy.n, cfg);
  critic.forward_state(pass, toy.state);
  const double q1 = critic.forward(pass, a1, ahat, masks);
  const double q2 = critic.forward(pass, a2, ahat, masks);
  EXPECT_TRUE(std::isfinite(q1));
  EXPECT_NE(q1, q2);
}

TEST(Ddpg, WarmupActionsAreRandomAndBounded) {
  Toy toy;
  rl::DdpgConfig cfg;
  cfg.warmup = 10;
  rl::DdpgAgent agent(toy.state, toy.adjacency, toy.kinds, cfg, Rng(5));
  const la::Mat a1 = agent.act_explore();
  agent.observe(a1, 0.0);
  const la::Mat a2 = agent.act_explore();
  // Two warm-up actions should differ (random), and stay in the box.
  double diff = 0.0;
  for (int i = 0; i < a1.rows(); ++i) {
    for (int j = 0; j < a1.cols(); ++j) {
      diff += std::fabs(a1(i, j) - a2(i, j));
      EXPECT_LE(std::fabs(a1(i, j)), 1.0);
    }
  }
  EXPECT_GT(diff, 0.1);
}

TEST(Ddpg, LearnsSyntheticBandit) {
  Toy toy;
  rl::DdpgConfig cfg;
  cfg.warmup = 40;
  rl::DdpgAgent agent(toy.state, toy.adjacency, toy.kinds, cfg, Rng(6));
  for (int ep = 0; ep < 300; ++ep) {
    const la::Mat a = agent.act_explore();
    agent.observe(a, toy.reward(a));
  }
  // Deterministic policy should be much better than random (~ -0.9/dim
  // expected for uniform: |target|<=0.7, E[(u-t)^2] ~ 1/3 + t^2).
  const double r = toy.reward(agent.act());
  EXPECT_GT(r, -2.5) << "random-level reward would be about -8";
}

TEST(Ddpg, BaselineTracksRewards) {
  Toy toy;
  rl::DdpgConfig cfg;
  cfg.warmup = 100;
  rl::DdpgAgent agent(toy.state, toy.adjacency, toy.kinds, cfg, Rng(7));
  agent.observe(agent.act_explore(), 4.0);
  EXPECT_DOUBLE_EQ(agent.baseline(), 4.0);
  agent.observe(agent.act_explore(), 0.0);
  EXPECT_NEAR(agent.baseline(), 4.0 * (1.0 - cfg.baseline_tau), 1e-12);
}

TEST(Ddpg, SaveLoadRoundTripPreservesPolicy) {
  Toy toy;
  rl::DdpgConfig cfg;
  cfg.warmup = 5;
  rl::DdpgAgent agent(toy.state, toy.adjacency, toy.kinds, cfg, Rng(8));
  for (int ep = 0; ep < 30; ++ep) {
    const la::Mat a = agent.act_explore();
    agent.observe(a, toy.reward(a));
  }
  const la::Mat before = agent.act();
  const std::string path = "/tmp/gcnrl_agent_test.bin";
  agent.save(path);
  rl::DdpgAgent fresh(toy.state, toy.adjacency, toy.kinds, cfg, Rng(999));
  fresh.load(path);
  const la::Mat after = fresh.act();
  for (int i = 0; i < before.rows(); ++i) {
    for (int j = 0; j < before.cols(); ++j) {
      EXPECT_NEAR(before(i, j), after(i, j), 1e-12);
    }
  }
  std::remove(path.c_str());
}

TEST(Ddpg, CrossTopologyWeightCopyWithScalarStates) {
  // Same state_dim but different node counts: all parameters must match
  // by name/shape (this is what topology transfer relies on).
  Toy small;
  Toy big;
  big.n = 9;
  big.state = la::Mat(9, small.state.cols());
  big.adjacency = la::Mat(9, 9);
  for (int i = 0; i + 1 < 9; ++i) {
    big.adjacency(i, i + 1) = 1.0;
    big.adjacency(i + 1, i) = 1.0;
  }
  big.kinds.assign(9, Kind::Nmos);
  rl::DdpgConfig cfg;
  rl::DdpgAgent src(small.state, small.adjacency, small.kinds, cfg, Rng(9));
  rl::DdpgAgent dst(big.state, big.adjacency, big.kinds, cfg, Rng(10));
  const int copied = dst.copy_weights_from(src);
  EXPECT_EQ(copied, static_cast<int>(src.parameters().size()));
}

TEST(Ddpg, NgVariantIgnoresTopology) {
  // With use_gcn=false, permuting the adjacency must not change actions.
  Toy toy;
  rl::DdpgConfig cfg;
  cfg.use_gcn = false;
  rl::DdpgAgent a1(toy.state, toy.adjacency, toy.kinds, cfg, Rng(11));
  la::Mat other(toy.n, toy.n);  // empty graph
  rl::DdpgAgent a2(toy.state, other, toy.kinds, cfg, Rng(11));
  const la::Mat x1 = a1.act();
  const la::Mat x2 = a2.act();
  for (int i = 0; i < x1.rows(); ++i) {
    for (int j = 0; j < x1.cols(); ++j) {
      EXPECT_DOUBLE_EQ(x1(i, j), x2(i, j));
    }
  }
}

TEST(Ddpg, GcnVariantUsesTopology) {
  Toy toy;
  rl::DdpgConfig cfg;
  rl::DdpgAgent a1(toy.state, toy.adjacency, toy.kinds, cfg, Rng(12));
  la::Mat other(toy.n, toy.n);
  rl::DdpgAgent a2(toy.state, other, toy.kinds, cfg, Rng(12));
  const la::Mat x1 = a1.act();
  const la::Mat x2 = a2.act();
  double diff = 0.0;
  for (int i = 0; i < x1.rows(); ++i) {
    for (int j = 0; j < x1.cols(); ++j) diff += std::fabs(x1(i, j) - x2(i, j));
  }
  EXPECT_GT(diff, 1e-9);
}
