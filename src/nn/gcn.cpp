#include "nn/gcn.hpp"

#include <cmath>
#include <stdexcept>

namespace gcnrl::nn {

la::Mat normalized_adjacency(const la::Mat& adjacency) {
  if (adjacency.rows() != adjacency.cols()) {
    throw std::invalid_argument("normalized_adjacency: A must be square");
  }
  const int n = adjacency.rows();
  la::Mat a_tilde = adjacency;
  for (int i = 0; i < n; ++i) a_tilde(i, i) += 1.0;  // A + I
  std::vector<double> d_inv_sqrt(n);
  for (int i = 0; i < n; ++i) {
    double deg = 0.0;
    for (int j = 0; j < n; ++j) deg += a_tilde(i, j);
    d_inv_sqrt[i] = deg > 0.0 ? 1.0 / std::sqrt(deg) : 0.0;
  }
  la::Mat a_hat(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      a_hat(i, j) = d_inv_sqrt[i] * a_tilde(i, j) * d_inv_sqrt[j];
    }
  }
  return a_hat;
}

GcnLayer::GcnLayer(std::string name, int in_features, int out_features,
                   Rng& rng)
    : lin_(std::move(name), in_features, out_features, rng) {}

void GcnLayer::forward(const la::Mat& a_hat, const la::Mat& h, la::Mat& agg,
                       la::Mat& z) const {
  la::matmul(a_hat, h, agg);
  lin_.forward(agg, z);
}

void GcnLayer::backward(const la::Mat& a_hat, const la::Mat& agg,
                        const la::Mat& dz, la::Mat& d_agg, la::Mat& dh,
                        bool param_grads) {
  lin_.backward_input(dz, d_agg);
  if (param_grads) lin_.accumulate_grads(agg, dz);
  la::matmul_tn(a_hat, d_agg, dh, /*accumulate=*/true);
}

}  // namespace gcnrl::nn
