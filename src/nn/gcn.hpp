// Graph convolution layer (Kipf & Welling 2016), Eq. 4 of the paper:
//
//   H^(l+1) = sigma( D~^(-1/2) (A + I) D~^(-1/2)  H^(l)  W^(l) )
//
// The normalized adjacency A-hat is a constant per circuit topology and is
// passed into forward(); the layer owns only its weight matrix (the
// "shared weight" of Fig. 3 — one W per layer, shared across components)
// and a bias. With A-hat = I the layer degrades to a plain shared FC
// layer, which is exactly the paper's NG-RL ablation.
//
// For Z = (A-hat H) W + b the backward pass is three products:
// d(A-hat H) = dZ W^T, dW = (A-hat H)^T dZ and dH = A-hat^T d(A-hat H).
#pragma once

#include "common/rng.hpp"
#include "nn/linear.hpp"

namespace gcnrl::nn {

// A-hat = D~^{-1/2} (A + I) D~^{-1/2} for a symmetric 0/1 adjacency A.
la::Mat normalized_adjacency(const la::Mat& adjacency);

class GcnLayer : public Module {
 public:
  GcnLayer(std::string name, int in_features, int out_features, Rng& rng);

  // z = (a_hat h) W + b for h: n x in_features and a_hat: n x n; agg
  // receives a_hat h, which backward() reads.
  void forward(const la::Mat& a_hat, const la::Mat& h, la::Mat& agg,
               la::Mat& z) const;
  // For the gradient dz at z: dh += a_hat^T (dz W^T), through the scratch
  // d_agg; with `param_grads`, also adds agg^T dz and the column sums of
  // dz into W's and b's grads. Needs cache_transpose() after W changes.
  void backward(const la::Mat& a_hat, const la::Mat& agg, const la::Mat& dz,
                la::Mat& d_agg, la::Mat& dh, bool param_grads);
  void cache_transpose() { lin_.cache_transpose(); }

  std::vector<Parameter*> parameters() override { return lin_.parameters(); }

 private:
  Linear lin_;  // W and b, named "<name>.w" and "<name>.b"
};

}  // namespace gcnrl::nn
