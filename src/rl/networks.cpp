#include "rl/networks.hpp"

#include <cmath>

namespace gcnrl::rl {
namespace {

using GcnLayers = std::vector<std::unique_ptr<nn::GcnLayer>>;

std::string kind_tag(int k) {
  return circuit::kind_name(static_cast<circuit::Kind>(k));
}

void relu(const la::Mat& x, la::Mat& y) {
  for (int r = 0; r < x.rows(); ++r) {
    for (int c = 0; c < x.cols(); ++c) {
      y(r, c) = x(r, c) < 0.0 ? 0.0 : x(r, c);
    }
  }
}

// Gradient at x of y = ReLU(x), given dy, the complete gradient at y:
// 0 + dy where x > 0 and +0 elsewhere, as the tape accumulates it.
void relu_backward(const la::Mat& x, const la::Mat& dy, la::Mat& dx) {
  for (int r = 0; r < x.rows(); ++r) {
    for (int c = 0; c < x.cols(); ++c) {
      dx(r, c) = x(r, c) > 0.0 ? 0.0 + dy(r, c) : 0.0;
    }
  }
}

// h[l + 1] = ReLU(z[l]) + h[l] for every layer, from h[0].
void stack_forward(const GcnLayers& layers, const la::Mat& a_hat,
                   GcnStackPass& s) {
  for (std::size_t l = 0; l < layers.size(); ++l) {
    layers[l]->forward(a_hat, s.h[l], s.agg[l], s.z[l]);
    relu(s.z[l], s.h[l + 1]);
    for (int r = 0; r < s.z[l].rows(); ++r) {
      for (int c = 0; c < s.z[l].cols(); ++c) s.h[l + 1](r, c) += s.h[l](r, c);
    }
  }
}

// Takes s.dh from the gradient at the top h to the gradient at h[0]. At
// each layer the residual branch's share 0 + dh comes first, then the
// aggregation's A-hat^T d(A-hat h) is added: the tape's reverse order.
void stack_backward(GcnLayers& layers, const la::Mat& a_hat, GcnStackPass& s,
                    bool param_grads) {
  for (std::size_t l = layers.size(); l-- > 0;) {
    for (int r = 0; r < s.dh.rows(); ++r) {
      for (int c = 0; c < s.dh.cols(); ++c) {
        const double g = 0.0 + s.dh(r, c);
        s.dz(r, c) = s.z[l](r, c) > 0.0 ? 0.0 + g : 0.0;
        s.dh(r, c) = g;
      }
    }
    layers[l]->backward(a_hat, s.agg[l], s.dz, s.d_agg, s.dh, param_grads);
  }
}

}  // namespace

TypeMasks make_type_masks(const std::vector<circuit::Kind>& kinds,
                          int hidden) {
  const int n = static_cast<int>(kinds.size());
  TypeMasks m;
  for (int k = 0; k < circuit::kNumKinds; ++k) {
    m.action[k] = la::Mat(n, circuit::kMaxActionDim);
    m.hidden[k] = la::Mat(n, hidden);
    for (int i = 0; i < n; ++i) {
      if (static_cast<int>(kinds[i]) != k) continue;
      for (int c = 0; c < circuit::kMaxActionDim; ++c) m.action[k](i, c) = 1.0;
      for (int c = 0; c < hidden; ++c) m.hidden[k](i, c) = 1.0;
    }
  }
  return m;
}

GcnStackPass::GcnStackPass(int n, const NetworkConfig& cfg)
    : h(cfg.gcn_layers + 1, la::Mat(n, cfg.hidden)),
      agg(cfg.gcn_layers, la::Mat(n, cfg.hidden)),
      z(cfg.gcn_layers, la::Mat(n, cfg.hidden)),
      dh(n, cfg.hidden),
      dz(n, cfg.hidden),
      d_agg(n, cfg.hidden) {}

GcnActor::Pass::Pass(int n, const NetworkConfig& cfg)
    : z_in(n, cfg.hidden),
      stack(n, cfg),
      out(n, circuit::kMaxActionDim),
      d_out(n, circuit::kMaxActionDim),
      d_dec(n, circuit::kMaxActionDim) {
  tanh_out.fill(la::Mat(n, circuit::kMaxActionDim));
}

GcnActor::GcnActor(const NetworkConfig& cfg, Rng& rng)
    : cfg_(cfg), fc_in_("actor.fc_in", cfg.state_dim, cfg.hidden, rng) {
  gcn_.reserve(cfg.gcn_layers);
  for (int l = 0; l < cfg.gcn_layers; ++l) {
    gcn_.push_back(std::make_unique<nn::GcnLayer>(
        "actor.gcn" + std::to_string(l), cfg.hidden, cfg.hidden, rng));
  }
  for (int k = 0; k < circuit::kNumKinds; ++k) {
    // Near-zero output init so initial actions start unbiased mid-range
    // (standard DDPG practice).
    decoders_[k] = std::make_unique<nn::Linear>(
        "actor.dec." + kind_tag(k), cfg.hidden, circuit::kMaxActionDim, rng,
        /*out_scale=*/3e-3);
  }
}

void GcnActor::forward(Pass& p, const la::Mat& state, const la::Mat& a_hat,
                       const TypeMasks& masks) const {
  fc_in_.forward(state, p.z_in);
  relu(p.z_in, p.stack.h[0]);
  // Residual connections keep the paper's 7-layer stack trainable: a
  // plain deep ReLU/GCN chain attenuates gradients badly enough that the
  // agent cannot learn within realistic step budgets.
  stack_forward(gcn_, a_hat, p.stack);
  for (int k = 0; k < circuit::kNumKinds; ++k) {
    la::Mat& t = p.tanh_out[k];
    decoders_[k]->forward(p.stack.h.back(), t);
    for (int r = 0; r < t.rows(); ++r) {
      for (int c = 0; c < t.cols(); ++c) t(r, c) = std::tanh(t(r, c));
    }
  }
  // Per-type decoders, masked and summed in kind order (the masks
  // partition the rows).
  for (int r = 0; r < p.out.rows(); ++r) {
    for (int c = 0; c < p.out.cols(); ++c) {
      double o = p.tanh_out[0](r, c) * masks.action[0](r, c);
      for (int k = 1; k < circuit::kNumKinds; ++k) {
        o += p.tanh_out[k](r, c) * masks.action[k](r, c);
      }
      p.out(r, c) = o;
    }
  }
}

void GcnActor::backward(Pass& p, const la::Mat& state, const la::Mat& a_hat,
                        const TypeMasks& masks) {
  const la::Mat& top = p.stack.h.back();
  p.stack.dh.fill(0.0);
  // The tape reaches the last decoder first, so the top h's gradient sums
  // the decoders' terms in kind order 3, 2, 1, 0.
  for (int k = circuit::kNumKinds - 1; k >= 0; --k) {
    for (int r = 0; r < p.d_dec.rows(); ++r) {
      for (int c = 0; c < p.d_dec.cols(); ++c) {
        const double d_tanh =
            0.0 + (0.0 + p.d_out(r, c)) * masks.action[k](r, c);
        const double y = p.tanh_out[k](r, c);
        p.d_dec(r, c) = 0.0 + d_tanh * (1.0 - y * y);
      }
    }
    decoders_[k]->accumulate_grads(top, p.d_dec);
    decoders_[k]->backward_input(p.d_dec, p.stack.dh, /*accumulate=*/true);
  }
  stack_backward(gcn_, a_hat, p.stack, /*param_grads=*/true);
  relu_backward(p.z_in, p.stack.dh, p.stack.dz);
  fc_in_.accumulate_grads(state, p.stack.dz);
}

void GcnActor::cache_transposes() {
  fc_in_.cache_transpose();
  for (auto& layer : gcn_) layer->cache_transpose();
  for (auto& dec : decoders_) dec->cache_transpose();
}

std::vector<nn::Parameter*> GcnActor::parameters() {
  std::vector<nn::Parameter*> ps;
  for (auto* p : fc_in_.parameters()) ps.push_back(p);
  for (auto& layer : gcn_) {
    for (auto* p : layer->parameters()) ps.push_back(p);
  }
  for (auto& dec : decoders_) {
    for (auto* p : dec->parameters()) ps.push_back(p);
  }
  return ps;
}

GcnCritic::Pass::Pass(int n, const NetworkConfig& cfg)
    : z_state(n, cfg.hidden),
      x(n, cfg.hidden),
      enc(n, cfg.hidden),
      stack(n, cfg),
      v(n, 1),
      dv(n, 1),
      dx(n, cfg.hidden),
      d_enc(n, cfg.hidden) {}

GcnCritic::GcnCritic(const NetworkConfig& cfg, Rng& rng)
    : cfg_(cfg),
      fc_state_("critic.fc_state", cfg.state_dim, cfg.hidden, rng),
      head_("critic.head", cfg.hidden, 1, rng, /*out_scale=*/3e-3) {
  for (int k = 0; k < circuit::kNumKinds; ++k) {
    encoders_[k] = std::make_unique<nn::Linear>(
        "critic.enc." + kind_tag(k), circuit::kMaxActionDim, cfg.hidden, rng);
  }
  gcn_.reserve(cfg.gcn_layers);
  for (int l = 0; l < cfg.gcn_layers; ++l) {
    gcn_.push_back(std::make_unique<nn::GcnLayer>(
        "critic.gcn" + std::to_string(l), cfg.hidden, cfg.hidden, rng));
  }
}

void GcnCritic::forward_state(Pass& p, const la::Mat& state) const {
  fc_state_.forward(state, p.z_state);
}

double GcnCritic::forward(Pass& p, const la::Mat& actions,
                          const la::Mat& a_hat, const TypeMasks& masks) const {
  // Shared state FC + per-type action encoders (Fig. 3 critic first layer).
  for (int r = 0; r < p.x.rows(); ++r) {
    for (int c = 0; c < p.x.cols(); ++c) p.x(r, c) = p.z_state(r, c);
  }
  for (int k = 0; k < circuit::kNumKinds; ++k) {
    encoders_[k]->forward(actions, p.enc);
    for (int r = 0; r < p.x.rows(); ++r) {
      for (int c = 0; c < p.x.cols(); ++c) {
        p.x(r, c) += p.enc(r, c) * masks.hidden[k](r, c);
      }
    }
  }
  relu(p.x, p.stack.h[0]);
  stack_forward(gcn_, a_hat, p.stack);
  // Shared value head; predicted reward = mean over component nodes.
  head_.forward(p.stack.h.back(), p.v);
  double acc = 0.0;
  for (int r = 0; r < p.v.rows(); ++r) acc += p.v(r, 0);
  return acc / static_cast<double>(p.v.rows());
}

void GcnCritic::backward_trunk(Pass& p, double dq, const la::Mat& a_hat,
                               bool param_grads) {
  p.dv.fill(0.0 + dq / static_cast<double>(p.v.rows()));
  if (param_grads) head_.accumulate_grads(p.stack.h.back(), p.dv);
  head_.backward_input(p.dv, p.stack.dh);
  stack_backward(gcn_, a_hat, p.stack, param_grads);
  relu_backward(p.x, p.stack.dh, p.dx);
}

void GcnCritic::backward_params(Pass& p, double dq, const la::Mat& state,
                                const la::Mat& actions, const la::Mat& a_hat,
                                const TypeMasks& masks) {
  backward_trunk(p, dq, a_hat, /*param_grads=*/true);
  fc_state_.accumulate_grads(state, p.dx);
  for (int k = circuit::kNumKinds - 1; k >= 0; --k) {
    for (int r = 0; r < p.d_enc.rows(); ++r) {
      for (int c = 0; c < p.d_enc.cols(); ++c) {
        p.d_enc(r, c) = 0.0 + p.dx(r, c) * masks.hidden[k](r, c);
      }
    }
    encoders_[k]->accumulate_grads(actions, p.d_enc);
  }
}

void GcnCritic::backward_actions(Pass& p, double dq, const la::Mat& a_hat,
                                 const TypeMasks& masks, la::Mat& d_actions) {
  backward_trunk(p, dq, a_hat, /*param_grads=*/false);
  d_actions.fill(0.0);
  // The tape reaches the last encoder first: terms in kind order 3..0.
  for (int k = circuit::kNumKinds - 1; k >= 0; --k) {
    for (int r = 0; r < p.d_enc.rows(); ++r) {
      for (int c = 0; c < p.d_enc.cols(); ++c) {
        p.d_enc(r, c) = 0.0 + p.dx(r, c) * masks.hidden[k](r, c);
      }
    }
    encoders_[k]->backward_input(p.d_enc, d_actions, /*accumulate=*/true);
  }
}

void GcnCritic::cache_transposes() {
  fc_state_.cache_transpose();
  for (auto& enc : encoders_) enc->cache_transpose();
  for (auto& layer : gcn_) layer->cache_transpose();
  head_.cache_transpose();
}

std::vector<nn::Parameter*> GcnCritic::parameters() {
  std::vector<nn::Parameter*> ps;
  for (auto* p : fc_state_.parameters()) ps.push_back(p);
  for (auto& enc : encoders_) {
    for (auto* p : enc->parameters()) ps.push_back(p);
  }
  for (auto& layer : gcn_) {
    for (auto* p : layer->parameters()) ps.push_back(p);
  }
  for (auto* p : head_.parameters()) ps.push_back(p);
  return ps;
}

}  // namespace gcnrl::rl
