#include "nn/linear.hpp"

namespace gcnrl::nn {

Linear::Linear(std::string name, int in_features, int out_features, Rng& rng,
               double out_scale)
    : w_(name + ".w", out_scale < 0.0
                          ? xavier_uniform(in_features, out_features, rng)
                          : uniform_init(in_features, out_features, out_scale,
                                         rng)),
      b_(name + ".b", la::Mat(1, out_features)),
      wt_(out_features, in_features),
      col_sums_(1, out_features) {}

void Linear::forward(const la::Mat& x, la::Mat& y) const {
  la::matmul(x, w_.value, y);
  for (int r = 0; r < y.rows(); ++r) {
    double* yr = y.row_ptr(r);
    const double* b = b_.value.row_ptr(0);
    for (int c = 0; c < y.cols(); ++c) yr[c] += b[c];
  }
}

void Linear::accumulate_grads(const la::Mat& x, const la::Mat& dy) {
  la::matmul_tn(x, dy, w_.grad, /*accumulate=*/true);
  // Each column's sum runs over the rows in order; rows outermost lets the
  // loop vectorize across columns.
  col_sums_.fill(0.0);
  double* sums = col_sums_.row_ptr(0);
  for (int r = 0; r < dy.rows(); ++r) {
    const double* dyr = dy.row_ptr(r);
    for (int c = 0; c < dy.cols(); ++c) sums[c] += dyr[c];
  }
  double* gb = b_.grad.row_ptr(0);
  for (int c = 0; c < dy.cols(); ++c) gb[c] += sums[c];
}

void Linear::backward_input(const la::Mat& dy, la::Mat& dx,
                            bool accumulate) const {
  la::matmul(dy, wt_, dx, accumulate);
}

}  // namespace gcnrl::nn
