#include "rl/ddpg.hpp"

#include <algorithm>

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

void critic_backward(GcnCritic& critic, GcnCritic::Pass& pass,
                     const la::Mat& state, const la::Mat& a_hat,
                     const TypeMasks& masks,
                     std::span<const Transition* const> batch,
                     double baseline) {
  const double inv_b = 1.0 / static_cast<double>(batch.size());
  // d/dQ of inv_b * (Q - target)^2 is g * (Q - target), with g the tape's
  // 2 * (0 + 1 * inv_b) / 1, which is 2 * inv_b exactly.
  const double g = 2.0 * inv_b;
  critic.cache_transposes();
  critic.forward_state(pass, state);
  for (auto it = batch.rbegin(); it != batch.rend(); ++it) {
    const Transition& t = **it;
    const double q = critic.forward(pass, t.actions, a_hat, masks);
    const double target = t.reward - baseline;
    critic.backward_params(pass, 0.0 + g * (q - target), state, t.actions,
                           a_hat, masks);
  }
}

void actor_backward(GcnActor& actor, GcnActor::Pass& actor_pass,
                    GcnCritic& critic, GcnCritic::Pass& critic_pass,
                    const la::Mat& state, const la::Mat& a_hat,
                    const TypeMasks& masks) {
  actor.cache_transposes();
  critic.cache_transposes();
  actor.forward(actor_pass, state, a_hat, masks);
  critic.forward_state(critic_pass, state);
  critic.forward(critic_pass, actor_pass.out, a_hat, masks);
  // Loss -Q: Q's gradient is 0 + 1 * -1.
  critic.backward_actions(critic_pass, -1.0, a_hat, masks, actor_pass.d_out);
  actor.backward(actor_pass, state, a_hat, masks);
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
      actor_pass_(state.rows(), net_config(cfg, state.cols())),
      critic_pass_(state.rows(), net_config(cfg, state.cols())),
      noise_(cfg.sigma0, cfg.sigma_decay, cfg.sigma_min) {
  batch_.reserve(static_cast<std::size_t>(std::max(cfg.batch, 0)));
}

la::Mat DdpgAgent::act() {
  actor_.forward(actor_pass_, state_, a_hat_, masks_);
  return actor_pass_.out;
}

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
  critic_.forward_state(critic_pass_, state_);
  return critic_.forward(critic_pass_, actions, a_hat_, masks_);
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
  replay_.sample(cfg_.batch, rng_, batch_);
  if (batch_.empty()) return;

  // --- critic: minimize mean (R - B - Q(S,A))^2 ------------------------
  opt_critic_.zero_grad();
  critic_backward(critic_, critic_pass_, state_, a_hat_, masks_, batch_,
                  baseline_.value_or(0.0));
  opt_critic_.step();

  // --- actor: ascend Q(S, mu(S)) ---------------------------------------
  opt_actor_.zero_grad();
  actor_backward(actor_, actor_pass_, critic_, critic_pass_, state_, a_hat_,
                 masks_);
  opt_actor_.step();
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
