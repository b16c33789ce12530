// Fully-connected layer: y = x W + b, applied row-wise.
//
// In this codebase rows are circuit components (graph nodes), so a Linear
// is exactly the paper's "shared FC layer": the same weights process every
// component's feature vector.
//
// forward() and the two halves of the backward pass write into
// caller-owned buffers. Their arithmetic is that of the reverse-mode tape
// the tests keep as the gradient oracle, operation for operation, so
// gradients match it bit for bit.
#pragma once

#include "common/rng.hpp"
#include "nn/init.hpp"
#include "nn/module.hpp"

namespace gcnrl::nn {

class Linear : public Module {
 public:
  // `out_scale` < 0 selects Xavier init; otherwise U(-out_scale, out_scale)
  // (used for near-zero output layers).
  Linear(std::string name, int in_features, int out_features, Rng& rng,
         double out_scale = -1.0);

  // y = x W + b; y is x.rows() x out_features().
  void forward(const la::Mat& x, la::Mat& y) const;
  // For the gradient dy at y = forward(x): adds x^T dy to W's grad and the
  // column sums of dy (rows in order) to b's grad.
  void accumulate_grads(const la::Mat& x, const la::Mat& dy);
  // dx = dy W^T, or dx += dy W^T with `accumulate`, as dy (W^T) over the
  // transpose cached by cache_transpose(); while W is finite each element
  // equals the serial dot product of a row of dy and a row of W.
  void backward_input(const la::Mat& dy, la::Mat& dx,
                      bool accumulate = false) const;
  // Caches W^T for backward_input(). Call it after W changes (an optimizer
  // step, a weight load) and before the next backward pass.
  void cache_transpose() { la::transpose(w_.value, wt_); }

  std::vector<Parameter*> parameters() override { return {&w_, &b_}; }
  [[nodiscard]] int in_features() const { return w_.value.rows(); }
  [[nodiscard]] int out_features() const { return w_.value.cols(); }

 private:
  Parameter w_;
  Parameter b_;
  la::Mat wt_;        // W^T, see cache_transpose()
  la::Mat col_sums_;  // accumulate_grads() scratch, 1 x out_features
};

}  // namespace gcnrl::nn
