#include "opt/gp.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "la/cholesky.hpp"

namespace gcnrl::opt {
namespace {

double sq_dist(const std::vector<double>& a, const std::vector<double>& b) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

double matern52(double r, double ls) {
  const double s = std::sqrt(5.0) * r / ls;
  return (1.0 + s + s * s / 3.0) * std::exp(-s);
}

// Log marginal likelihood of the standardized targets y under the order-n
// kernel matrix packed in `k`, which is factored in place; alpha receives
// K^-1 y. -inf when K is not SPD.
double log_marginal(std::span<double> k, int n, const std::vector<double>& y,
                    std::vector<double>& alpha) {
  try {
    la::cholesky_factor(k, n);
  } catch (const la::NotPositiveDefiniteError&) {
    return -std::numeric_limits<double>::infinity();
  }
  std::copy(y.begin(), y.end(), alpha.begin());
  la::cholesky_solve(k, alpha);
  double fit = 0.0;
  for (int i = 0; i < n; ++i) fit += y[i] * alpha[i];
  return -0.5 * fit - 0.5 * la::cholesky_log_det(k, n) -
         0.5 * n * std::log(2.0 * M_PI);
}

}  // namespace

void GaussianProcess::kernel_triangle(std::span<const double> dist,
                                      double ls) {
  for (std::size_t p = 0; p < dist.size(); ++p) {
    factor_[p] = signal_var_ * matern52(dist[p], ls);
  }
}

void GaussianProcess::fit(const std::vector<std::vector<double>>& x,
                          const std::vector<double>& y) {
  if (x.size() != y.size() || x.empty()) {
    throw std::invalid_argument("GaussianProcess::fit: bad data");
  }
  for (const std::vector<double>& p : x) {
    if (p.size() != x.front().size()) {
      throw std::invalid_argument(
          "GaussianProcess::fit: points differ in dimension");
    }
  }
  fitted_ = false;
  x_ = x;
  // Standardize targets.
  const int n = static_cast<int>(y.size());
  y_mean_ = 0.0;
  for (double v : y) y_mean_ += v;
  y_mean_ /= n;
  double var = 0.0;
  for (double v : y) var += (v - y_mean_) * (v - y_mean_);
  y_std_ = n > 1 ? std::sqrt(var / (n - 1)) : 1.0;
  if (y_std_ < 1e-12) y_std_ = 1.0;
  y_.resize(n);
  for (int i = 0; i < n; ++i) y_[i] = (y[i] - y_mean_) / y_std_;
  signal_var_ = 1.0;

  // The previous factor is released before the scratch is taken, so a fit
  // never holds more than three triangles: distances, factor, work.
  const std::size_t tri = la::packed_size(static_cast<std::size_t>(n));
  factor_ = std::vector<double>();
  std::vector<double> dist(tri);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j <= i; ++j) {
      dist[la::packed_index(i, j)] = std::sqrt(sq_dist(x_[i], x_[j]));
    }
  }

  // Median-heuristic lengthscale, refined over a small ML grid.
  double ls0 = 1.0;
  const int cap = std::min(n, 64);
  if (cap > 1) {
    std::vector<double> dists;
    dists.reserve(la::packed_size(static_cast<std::size_t>(cap - 1)));
    for (int i = 0; i < cap; ++i) {
      for (int j = i + 1; j < cap; ++j) {
        dists.push_back(dist[la::packed_index(j, i)]);
      }
    }
    std::nth_element(dists.begin(), dists.begin() + dists.size() / 2,
                     dists.end());
    ls0 = std::max(dists[dists.size() / 2], 1e-3);
  }
  factor_.resize(tri);
  alpha_.resize(y_.size());
  std::vector<double> work(tri);
  double best_ll = -std::numeric_limits<double>::infinity();
  double best_ls = ls0, best_noise = 1e-4;
  for (double ls_mul : {0.33, 0.66, 1.0, 2.0, 4.0}) {
    kernel_triangle(dist, ls0 * ls_mul);
    for (double noise : {1e-6, 1e-4, 1e-2}) {
      std::copy(factor_.begin(), factor_.end(), work.begin());
      for (int i = 0; i < n; ++i) work[la::packed_index(i, i)] += noise + 1e-8;
      const double ll = log_marginal(work, n, y_, alpha_);
      if (ll > best_ll) {
        best_ll = ll;
        best_ls = ls0 * ls_mul;
        best_noise = noise;
      }
    }
  }

  // Refactor the winner (or the (ls0, 1e-4) fallback, which throws when no
  // grid point was SPD) in the factor's own storage.
  lengthscale_ = best_ls;
  noise_ = best_noise;
  kernel_triangle(dist, lengthscale_);
  for (int i = 0; i < n; ++i) factor_[la::packed_index(i, i)] += noise_ + 1e-8;
  la::cholesky_factor(factor_, n);
  std::copy(y_.begin(), y_.end(), alpha_.begin());
  la::cholesky_solve(factor_, alpha_);
  fitted_ = true;
}

GpPrediction GaussianProcess::predict(const std::vector<double>& x) const {
  GpPrediction p;
  predict_block(std::span(&x, 1), std::span(&p, 1));
  return p;
}

void GaussianProcess::predict_block(std::span<const std::vector<double>> xs,
                                    std::span<GpPrediction> out) const {
  if (!fitted_) throw std::runtime_error("GaussianProcess: not fitted");
  if (xs.size() != out.size()) {
    throw std::invalid_argument("GaussianProcess::predict_block: size mismatch");
  }
  const std::size_t dim = x_.front().size();
  for (const std::vector<double>& x : xs) {
    if (x.size() != dim) {
      throw std::invalid_argument(
          "GaussianProcess::predict_block: dimension mismatch");
    }
  }
  const std::size_t width = std::min(xs.size(), kBlock);
  std::vector<double> xt(dim * width);
  std::vector<double> kb(x_.size() * width);
  std::size_t c = 0;
  for (; c + kBlock <= xs.size(); c += kBlock) {
    predict_lanes<kBlock>(&xs[c], &out[c], xt.data(), kb.data());
  }
  for (; c < xs.size(); ++c) {
    predict_lanes<1>(&xs[c], &out[c], xt.data(), kb.data());
  }
}

template <std::size_t W>
void GaussianProcess::predict_lanes(const std::vector<double>* xs,
                                    GpPrediction* out, double* xt,
                                    double* kb) const {
  const std::size_t n = x_.size();
  const std::size_t dim = x_.front().size();
  // Transposed, so the squared distances below run across the W lanes.
  for (std::size_t c = 0; c < W; ++c) {
    for (std::size_t d = 0; d < dim; ++d) xt[d * W + c] = xs[c][d];
  }
  std::array<double, W> mu{};
  for (std::size_t i = 0; i < n; ++i) {
    const double* const xi = x_[i].data();
    std::array<double, W> acc{};
    for (std::size_t d = 0; d < dim; ++d) {
      const double xid = xi[d];
      const double* const col = xt + d * W;
      for (std::size_t c = 0; c < W; ++c) {
        const double diff = xid - col[c];
        acc[c] += diff * diff;
      }
    }
    double* const row = kb + i * W;
    for (std::size_t c = 0; c < W; ++c) {
      row[c] = signal_var_ * matern52(std::sqrt(acc[c]), lengthscale_);
      mu[c] += row[c] * alpha_[i];
    }
  }
  // var = k(x,x) - kx^T K^-1 kx via one forward substitution for the block.
  la::cholesky_solve_lower(factor_, std::span(kb, n * W), static_cast<int>(W));
  std::array<double, W> reduction{};
  for (std::size_t i = 0; i < n; ++i) {
    const double* const row = kb + i * W;
    for (std::size_t c = 0; c < W; ++c) reduction[c] += row[c] * row[c];
  }
  for (std::size_t c = 0; c < W; ++c) {
    const double kxx =
        signal_var_ * matern52(std::sqrt(sq_dist(xs[c], xs[c])), lengthscale_);
    const double var = std::max(kxx - reduction[c], 1e-12);
    out[c] = {y_mean_ + y_std_ * mu[c], y_std_ * y_std_ * var};
  }
}

}  // namespace gcnrl::opt
