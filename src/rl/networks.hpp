// Actor / critic networks of Fig. 3.
//
// Actor:  state --shared FC--> hidden --[GCN x L]--> per-type decoders
//         --tanh--> actions in [-1,1]^(n x 3).
// Critic: state --shared FC--> + action --per-type encoders--> hidden
//         --[GCN x L]--> shared value head --> mean over nodes --> Q.
//
// "Per-type" layers (the unique weights of Fig. 3) are realized as one
// Linear per component kind whose output rows are masked to that kind and
// summed — numerically identical to routing each row through its own
// encoder/decoder, but expressible with plain dense ops. With use_gcn =
// false the aggregation matrix is the identity and the whole stack
// degrades to shared FC layers: that is exactly the paper's NG-RL
// ablation.
//
// Forward and backward passes are written by hand and run one sample at a
// time through a Pass, a workspace sized once for an n-node graph, so a
// training step allocates nothing. Every pass performs the reverse-mode
// tape's floating-point operations in the tape's order, so activations and
// gradients equal the tape's bit for bit; the tests keep the tape as the
// oracle they check this against.
#pragma once

#include <array>
#include <memory>
#include <vector>

#include "circuit/netlist.hpp"
#include "nn/gcn.hpp"
#include "nn/linear.hpp"

namespace gcnrl::rl {

struct NetworkConfig {
  int state_dim = 0;
  int hidden = 32;
  int gcn_layers = 7;   // paper: seven GCN layers for a global receptive field
  bool use_gcn = true;  // false = NG-RL
};

// Per-kind row masks used to realize type-specific layers.
struct TypeMasks {
  // For each kind: n x width matrix, rows of that kind = 1.
  std::array<la::Mat, circuit::kNumKinds> action;  // width = kMaxActionDim
  std::array<la::Mat, circuit::kNumKinds> hidden;  // width = hidden
};
TypeMasks make_type_masks(const std::vector<circuit::Kind>& kinds,
                          int hidden);

// Activations of the residual GCN stack both networks share,
// h[l + 1] = ReLU(z[l]) + h[l] with z[l] = (A-hat h[l]) W_l + b_l, plus
// the backward pass's scratch. All matrices are n x hidden.
struct GcnStackPass {
  GcnStackPass(int n, const NetworkConfig& cfg);
  std::vector<la::Mat> h;    // gcn_layers + 1 entries
  std::vector<la::Mat> agg;  // A-hat h[l]
  std::vector<la::Mat> z;
  la::Mat dh, dz, d_agg;
};

class GcnActor : public nn::Module {
 public:
  // One sample's activations and gradients over an n-node graph.
  struct Pass {
    Pass(int n, const NetworkConfig& cfg);
    la::Mat z_in;  // FC(S) before its ReLU
    GcnStackPass stack;
    // tanh(decoder_k(H)) on every row, before the kind mask.
    std::array<la::Mat, circuit::kNumKinds> tanh_out;
    la::Mat out;    // mu(S): n x kMaxActionDim in [-1, 1]
    la::Mat d_out;  // the gradient at `out`, for backward()
    la::Mat d_dec;  // scratch: one decoder's output gradient
  };

  GcnActor(const NetworkConfig& cfg, Rng& rng);

  // mu(S) into p.out, for state: n x state_dim and a_hat: n x n.
  void forward(Pass& p, const la::Mat& state, const la::Mat& a_hat,
               const TypeMasks& masks) const;
  // After forward(p, ...): adds into every parameter's grad the gradient of
  // <p.d_out, mu(S)>. Needs cache_transposes() after the weights change.
  void backward(Pass& p, const la::Mat& state, const la::Mat& a_hat,
                const TypeMasks& masks);
  void cache_transposes();

  std::vector<nn::Parameter*> parameters() override;
  [[nodiscard]] const NetworkConfig& config() const { return cfg_; }

 private:
  NetworkConfig cfg_;
  nn::Linear fc_in_;
  std::vector<std::unique_ptr<nn::GcnLayer>> gcn_;
  std::array<std::unique_ptr<nn::Linear>, circuit::kNumKinds> decoders_;
};

class GcnCritic : public nn::Module {
 public:
  // One sample's activations and gradients over an n-node graph.
  struct Pass {
    Pass(int n, const NetworkConfig& cfg);
    la::Mat z_state;  // FC(S), from forward_state()
    la::Mat x;        // FC(S) + masked action encoders, before the ReLU
    la::Mat enc;      // scratch: one encoder's output
    GcnStackPass stack;
    la::Mat v;        // value head output, n x 1; Q is its mean
    la::Mat dv, dx, d_enc;
  };

  GcnCritic(const NetworkConfig& cfg, Rng& rng);

  // FC(S) into p.z_state. It depends on the state alone, so one call
  // serves every forward() until the weights change.
  void forward_state(Pass& p, const la::Mat& state) const;
  // Q(S, A) for actions: n x kMaxActionDim, after forward_state().
  double forward(Pass& p, const la::Mat& actions, const la::Mat& a_hat,
                 const TypeMasks& masks) const;
  // After forward(p, actions, ...): adds into every parameter's grad the
  // gradient of dq * Q(S, A).
  void backward_params(Pass& p, double dq, const la::Mat& state,
                       const la::Mat& actions, const la::Mat& a_hat,
                       const TypeMasks& masks);
  // After forward(p, ...): d_actions = the gradient of dq * Q(S, A) with
  // respect to A. Parameter grads are left as they are.
  void backward_actions(Pass& p, double dq, const la::Mat& a_hat,
                        const TypeMasks& masks, la::Mat& d_actions);
  // Both backward passes need this after the weights change.
  void cache_transposes();

  std::vector<nn::Parameter*> parameters() override;

 private:
  // Head, GCN stack and first ReLU backward from dq; leaves the gradient
  // at p.x in p.dx.
  void backward_trunk(Pass& p, double dq, const la::Mat& a_hat,
                      bool param_grads);

  NetworkConfig cfg_;
  nn::Linear fc_state_;
  std::array<std::unique_ptr<nn::Linear>, circuit::kNumKinds> encoders_;
  std::vector<std::unique_ptr<nn::GcnLayer>> gcn_;
  nn::Linear head_;
};

}  // namespace gcnrl::rl
