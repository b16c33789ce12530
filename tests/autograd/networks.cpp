#include "autograd/networks.hpp"

namespace gcnrl::ag {
namespace {

Var affine(Tape& tape, nn::Parameter& w, nn::Parameter& b, Var x) {
  Var wv = leaf(tape, w);
  Var bv = leaf(tape, b);
  return add_row_broadcast(matmul(x, wv), bv);
}

Var gcn_affine(Tape& tape, nn::Parameter& w, nn::Parameter& b, Var h,
               const la::Mat& a_hat) {
  Var wv = leaf(tape, w);
  Var bv = leaf(tape, b);
  Var agg = matmul_const_left(a_hat, h);
  return add_row_broadcast(matmul(agg, wv), bv);
}

// h <- ReLU(gcn_l(h)) + h over the layers whose (W, b) pairs start at
// params[first].
Var residual_stack(Tape& tape, const std::vector<nn::Parameter*>& params,
                   std::size_t first, int layers, Var h,
                   const la::Mat& a_hat) {
  for (int l = 0; l < layers; ++l) {
    const std::size_t i = first + 2 * static_cast<std::size_t>(l);
    h = add(relu(gcn_affine(tape, *params[i], *params[i + 1], h, a_hat)), h);
  }
  return h;
}

}  // namespace

Var leaf(Tape& tape, nn::Parameter& p) {
  nn::Parameter* pp = &p;
  Var v = tape.make(p.value, true, nullptr);
  Node* node = v.node();
  node->pullback = [pp, node] { pp->grad += node->grad; };
  return v;
}

Var linear(Tape& tape, nn::Linear& layer, Var x) {
  const auto ps = layer.parameters();
  return affine(tape, *ps[0], *ps[1], x);
}

Var gcn_layer(Tape& tape, nn::GcnLayer& layer, Var h, const la::Mat& a_hat) {
  const auto ps = layer.parameters();
  return gcn_affine(tape, *ps[0], *ps[1], h, a_hat);
}

// Parameter order: fc_in, gcn0..gcn{L-1}, dec.<kind> for each kind.
Var actor_forward(Tape& tape, const std::vector<nn::Parameter*>& ps,
                  Var state, const la::Mat& a_hat,
                  const rl::TypeMasks& masks) {
  const int layers = static_cast<int>(ps.size() / 2) - 1 - circuit::kNumKinds;
  Var h = relu(affine(tape, *ps[0], *ps[1], state));
  h = residual_stack(tape, ps, 2, layers, h, a_hat);
  const std::size_t dec = 2 + 2 * static_cast<std::size_t>(layers);
  Var out;
  for (int k = 0; k < circuit::kNumKinds; ++k) {
    const std::size_t i = dec + 2 * static_cast<std::size_t>(k);
    Var a_k = hadamard_const(tanh_(affine(tape, *ps[i], *ps[i + 1], h)),
                             masks.action[k]);
    out = k == 0 ? a_k : add(out, a_k);
  }
  return out;
}

// Parameter order: fc_state, enc.<kind> for each kind, gcn0..gcn{L-1},
// head.
Var critic_forward(Tape& tape, const std::vector<nn::Parameter*>& ps,
                   Var state, Var actions, const la::Mat& a_hat,
                   const rl::TypeMasks& masks) {
  const int layers =
      static_cast<int>(ps.size() / 2) - 2 - circuit::kNumKinds;
  Var h = affine(tape, *ps[0], *ps[1], state);
  for (int k = 0; k < circuit::kNumKinds; ++k) {
    const std::size_t i = 2 + 2 * static_cast<std::size_t>(k);
    h = add(h, hadamard_const(affine(tape, *ps[i], *ps[i + 1], actions),
                              masks.hidden[k]));
  }
  h = relu(h);
  h = residual_stack(tape, ps, 2 + 2 * circuit::kNumKinds, layers, h, a_hat);
  const std::size_t head = ps.size() - 2;
  return mean_all(affine(tape, *ps[head], *ps[head + 1], h));
}

}  // namespace gcnrl::ag
