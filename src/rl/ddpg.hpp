// DDPG agent for transistor sizing — the paper's Algorithm 1.
//
// The sizing problem is a single-step continuous-control task: the state
// (circuit graph + per-component state vectors) is fixed, one "episode" is
// one sized design, and the reward is the FoM. Consequently there is no
// bootstrapping/target network: the critic regresses R - B directly
// (B = exponential moving average of past rewards), and the actor follows
// the deterministic policy gradient through the critic.
//
// Knowledge transfer (Sec. III-E): save()/load() (or copy_weights_from())
// moves all actor+critic parameters. Across technology nodes the state
// dimension is unchanged, so weights transfer directly. Across topologies
// the environment must use IndexMode::Scalar so state_dim is topology-
// independent; all network shapes then match and the full agent transfers.
#pragma once

#include <optional>
#include <span>
#include <string>

#include "nn/adam.hpp"
#include "nn/serialize.hpp"
#include "rl/networks.hpp"
#include "rl/noise.hpp"
#include "rl/replay_buffer.hpp"

namespace gcnrl::rl {

struct DdpgConfig {
  int hidden = 32;
  int gcn_layers = 7;
  bool use_gcn = true;        // false = NG-RL
  // Actor lr deliberately half the critic lr: a hot actor outruns the
  // critic's value estimate and saturates into unexplored tanh corners
  // (verified across seeds on the synthetic-bandit test).
  double lr_actor = 5e-4;
  double lr_critic = 2e-3;
  int batch = 32;
  int warmup = 100;           // W: random warm-up episodes
  int updates_per_step = 4;   // critic/actor updates per episode after W
  double sigma0 = 0.5;        // exploration noise schedule
  double sigma_decay = 0.992;
  double sigma_min = 0.03;
  double baseline_tau = 0.05;  // EMA coefficient for the reward baseline B
};

// Critic half of one update: adds into the critic's parameter grads the
// gradient of (1/B) * sum_i (Q(S, A_i) - (R_i - baseline))^2 over the B
// transitions of a non-empty `batch`. FC(S) runs once; then each sample
// runs forward and backward through `pass`, last sample first, so each
// parameter's per-sample gradients are added in the order a reverse-mode
// tape over the whole batch adds them, and the result equals that tape's
// bit for bit (the tests hold it to the tape).
void critic_backward(GcnCritic& critic, GcnCritic::Pass& pass,
                     const la::Mat& state, const la::Mat& a_hat,
                     const TypeMasks& masks,
                     std::span<const Transition* const> batch,
                     double baseline);

// Actor half of one update: adds into the actor's parameter grads the
// gradient of -Q(S, mu(S)), the deterministic policy gradient through the
// critic. The critic's parameter grads are not touched.
void actor_backward(GcnActor& actor, GcnActor::Pass& actor_pass,
                    GcnCritic& critic, GcnCritic::Pass& critic_pass,
                    const la::Mat& state, const la::Mat& a_hat,
                    const TypeMasks& masks);

class DdpgAgent {
 public:
  // state: n x state_dim (normalized); adjacency: raw 0/1 A (the agent
  // builds A-hat itself, or the identity when use_gcn is false).
  DdpgAgent(const la::Mat& state, const la::Mat& adjacency,
            const std::vector<circuit::Kind>& kinds, DdpgConfig cfg,
            Rng rng);

  // Deterministic policy action mu(S).
  la::Mat act();
  // Behaviour policy of Algorithm 1: uniform-random during warm-up, then
  // mu(S) + truncated-normal noise with exponential decay.
  la::Mat act_explore();

  // Record the reward for `actions`; advances the episode counter and runs
  // the critic/actor updates once past warm-up.
  void observe(const la::Mat& actions, double reward);
  // One critic step and one actor step on a replay batch. Runs in the
  // workspaces sized at construction, so it allocates nothing.
  void update();

  // Critic's current value estimate (diagnostics / tests).
  double q_value(const la::Mat& actions);

  [[nodiscard]] int episode() const { return episode_; }
  [[nodiscard]] double baseline() const { return baseline_.value_or(0.0); }
  [[nodiscard]] const DdpgConfig& config() const { return cfg_; }

  // --- knowledge transfer ---------------------------------------------
  void save(const std::string& path);
  void load(const std::string& path);
  // Copy all matching parameters from another (compatible) agent.
  int copy_weights_from(DdpgAgent& src);
  std::vector<nn::Parameter*> parameters();

 private:
  DdpgConfig cfg_;
  Rng rng_;
  la::Mat state_;
  la::Mat a_hat_;
  std::vector<circuit::Kind> kinds_;
  TypeMasks masks_;
  GcnActor actor_;
  GcnCritic critic_;
  nn::Adam opt_actor_;
  nn::Adam opt_critic_;
  GcnActor::Pass actor_pass_;
  GcnCritic::Pass critic_pass_;
  ReplayBuffer replay_;
  std::vector<const Transition*> batch_;  // update()'s replay sample
  TruncatedNormalNoise noise_;
  std::optional<double> baseline_;
  int episode_ = 0;
};

}  // namespace gcnrl::rl
