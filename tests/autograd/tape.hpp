// Tape-based reverse-mode automatic differentiation over dense matrices:
// the gradient oracle of the tests.
//
// A Tape records every op in creation order; backward() walks the tape in
// reverse, applying each node's stored pull-back. Leaves created from
// nn::Parameter (ag::leaf in autograd/networks.hpp) accumulate their
// gradient directly into the parameter's grad buffer. The library's
// hand-written actor and critic passes reproduce this tape's arithmetic
// bit for bit; test_autograd checks the tape against finite differences
// and the hand-written passes against the tape.
//
// Design notes
//  * Nodes are owned by the tape (vector of unique_ptr), so raw Node*
//    captured inside pull-back closures stay valid for the tape's lifetime.
//  * A fresh forward pass should call Tape::clear() first (graphs here are
//    rebuilt every step; there is no retained-graph mode).
//  * Gradients flow only through nodes with requires_grad; constants are
//    free.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "la/matrix.hpp"

namespace gcnrl::ag {

class Tape;

struct Node {
  la::Mat val;
  la::Mat grad;  // allocated with val's shape, zero-initialized
  std::function<void()> pullback;  // empty for leaves/constants
  bool requires_grad = false;
};

// Lightweight handle to a node on a tape. Copyable; valid until
// Tape::clear() or tape destruction.
class Var {
 public:
  Var() = default;
  Var(Tape* tape, Node* node) : tape_(tape), node_(node) {}

  [[nodiscard]] const la::Mat& value() const { return node_->val; }
  [[nodiscard]] const la::Mat& grad() const { return node_->grad; }
  [[nodiscard]] int rows() const { return node_->val.rows(); }
  [[nodiscard]] int cols() const { return node_->val.cols(); }
  [[nodiscard]] bool valid() const { return node_ != nullptr; }

  [[nodiscard]] Node* node() const { return node_; }
  [[nodiscard]] Tape* tape() const { return tape_; }

 private:
  Tape* tape_ = nullptr;
  Node* node_ = nullptr;
};

class Tape {
 public:
  Tape() = default;
  Tape(const Tape&) = delete;
  Tape& operator=(const Tape&) = delete;

  // A differentiable leaf (gradient is collected on the node itself).
  Var input(la::Mat value);
  // A non-differentiable constant.
  Var constant(la::Mat value);
  // Generic node creation used by the op library.
  Var make(la::Mat value, bool requires_grad, std::function<void()> pullback);

  // Run reverse-mode accumulation from `root` (must be 1x1). Seeds the root
  // gradient with 1 and walks recorded nodes newest-to-oldest.
  void backward(const Var& root);

  // Drop all nodes. Handles into this tape become dangling.
  void clear();

  [[nodiscard]] std::size_t num_nodes() const { return nodes_.size(); }

 private:
  std::vector<std::unique_ptr<Node>> nodes_;
};

}  // namespace gcnrl::ag
