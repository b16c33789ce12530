// Tape forward passes of the library's layers and networks, built from
// their parameters: the reference the hand-written passes in nn/ and rl/
// must equal bit for bit. Each records its nodes in the order the
// library's networks recorded them when they ran on this tape, so a
// backward() through them accumulates every gradient in that order.
#pragma once

#include "autograd/ops.hpp"
#include "autograd/tape.hpp"
#include "nn/gcn.hpp"
#include "nn/linear.hpp"
#include "rl/networks.hpp"

namespace gcnrl::ag {

// Lifts a parameter onto a tape. The returned Var's pull-back adds the
// node gradient into p.grad, so gradients survive Tape::clear().
Var leaf(Tape& tape, nn::Parameter& p);

// x W + b.
Var linear(Tape& tape, nn::Linear& layer, Var x);
// (a_hat h) W + b.
Var gcn_layer(Tape& tape, nn::GcnLayer& layer, Var h, const la::Mat& a_hat);

// mu(S): n x kMaxActionDim, over rl::GcnActor::parameters().
Var actor_forward(Tape& tape, const std::vector<nn::Parameter*>& params,
                  Var state, const la::Mat& a_hat,
                  const rl::TypeMasks& masks);
// Q(S, A): 1 x 1, over rl::GcnCritic::parameters().
Var critic_forward(Tape& tape, const std::vector<nn::Parameter*>& params,
                   Var state, Var actions, const la::Mat& a_hat,
                   const rl::TypeMasks& masks);

}  // namespace gcnrl::ag
