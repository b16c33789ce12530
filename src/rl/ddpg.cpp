#include "rl/ddpg.hpp"

namespace gcnrl::rl {
namespace {

NetworkConfig net_config(const DdpgConfig& cfg, int state_dim) {
  NetworkConfig nc;
  nc.state_dim = state_dim;
  nc.hidden = cfg.hidden;
  nc.gcn_layers = cfg.gcn_layers;
  nc.use_gcn = cfg.use_gcn;
  return nc;
}

}  // namespace

void critic_backward(GcnCritic& critic, const la::Mat& state,
                     const la::Mat& a_hat, const TypeMasks& masks,
                     std::span<const Transition* const> batch,
                     double baseline) {
  const double inv_b = 1.0 / static_cast<double>(batch.size());
  for (auto it = batch.rbegin(); it != batch.rend(); ++it) {
    const Transition& t = **it;
    ag::Tape tape;
    ag::Var q = critic.forward(tape, tape.constant(state),
                               tape.constant(t.actions), a_hat, masks);
    la::Mat target(1, 1);
    target(0, 0) = t.reward - baseline;
    tape.backward(ag::scale(ag::mse_const(q, target), inv_b));
  }
}

DdpgAgent::DdpgAgent(const la::Mat& state, const la::Mat& adjacency,
                     const std::vector<circuit::Kind>& kinds, DdpgConfig cfg,
                     Rng rng)
    : cfg_(cfg),
      rng_(rng),
      state_(state),
      a_hat_(cfg.use_gcn ? nn::normalized_adjacency(adjacency)
                         : la::Mat::identity(state.rows())),
      kinds_(kinds),
      masks_(make_type_masks(kinds, cfg.hidden)),
      actor_(net_config(cfg, state.cols()), rng_),
      critic_(net_config(cfg, state.cols()), rng_),
      opt_actor_(actor_.parameters(), cfg.lr_actor),
      opt_critic_(critic_.parameters(), cfg.lr_critic),
      noise_(cfg.sigma0, cfg.sigma_decay, cfg.sigma_min) {}

la::Mat DdpgAgent::act() { return actor_.act(state_, a_hat_, masks_); }

la::Mat DdpgAgent::act_explore() {
  if (episode_ < cfg_.warmup) {
    la::Mat a(state_.rows(), circuit::kMaxActionDim);
    for (int r = 0; r < a.rows(); ++r) {
      for (int c = 0; c < a.cols(); ++c) a(r, c) = rng_.uniform(-1.0, 1.0);
    }
    return a;
  }
  return noise_.apply(act(), episode_ - cfg_.warmup, rng_);
}

double DdpgAgent::q_value(const la::Mat& actions) {
  return critic_.value(state_, actions, a_hat_, masks_);
}

void DdpgAgent::observe(const la::Mat& actions, double reward) {
  replay_.push(actions, reward);
  // Baseline B: EMA of all previous rewards (Algorithm 1).
  if (!baseline_.has_value()) {
    baseline_ = reward;
  } else {
    baseline_ = (1.0 - cfg_.baseline_tau) * *baseline_ +
                cfg_.baseline_tau * reward;
  }
  ++episode_;
  if (episode_ > cfg_.warmup) {
    for (int u = 0; u < cfg_.updates_per_step; ++u) update();
  }
}

void DdpgAgent::update() {
  const auto batch = replay_.sample(cfg_.batch, rng_);
  if (batch.empty()) return;
  const double b = baseline_.value_or(0.0);

  // --- critic: minimize mean (R - B - Q(S,A))^2 ------------------------
  critic_.zero_grad();
  critic_backward(critic_, state_, a_hat_, masks_, batch, b);
  opt_critic_.step();

  // --- actor: ascend Q(S, mu(S)) ---------------------------------------
  actor_.zero_grad();
  critic_.zero_grad();  // critic params receive grads here; discard them
  {
    ag::Tape tape;
    ag::Var a = actor_.forward(tape, tape.constant(state_), a_hat_, masks_);
    ag::Var q = critic_.forward(tape, tape.constant(state_), a, a_hat_,
                                masks_);
    ag::Var loss = ag::scale(q, -1.0);
    tape.backward(loss);
  }
  opt_actor_.step();
  critic_.zero_grad();
}

void DdpgAgent::save(const std::string& path) {
  nn::save_parameters(path, parameters());
}

void DdpgAgent::load(const std::string& path) {
  nn::load_parameters(path, parameters(), /*strict=*/true);
}

int DdpgAgent::copy_weights_from(DdpgAgent& src) {
  return nn::copy_parameters(src.parameters(), parameters());
}

std::vector<nn::Parameter*> DdpgAgent::parameters() {
  std::vector<nn::Parameter*> ps = actor_.parameters();
  for (auto* p : critic_.parameters()) ps.push_back(p);
  return ps;
}

}  // namespace gcnrl::rl
