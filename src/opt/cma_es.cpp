#include "opt/cma_es.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace gcnrl::opt {
namespace {

// Jacobi eigendecomposition of a symmetric matrix: A = B diag(e) B^T.
// Dimensions in this codebase are <= ~60, where Jacobi is plenty fast and
// has excellent accuracy. Each rotation updates two columns of B, so the
// sweeps rotate rows of B^T, which are contiguous, and B is transposed
// back once at the end.
void jacobi_eigen(la::Mat a, la::Mat& b, std::vector<double>& e) {
  const int n = a.rows();
  la::Mat bt = la::Mat::identity(n);
  for (int sweep = 0; sweep < 100; ++sweep) {
    double off = 0.0;
    for (int p = 0; p < n; ++p) {
      for (int q = p + 1; q < n; ++q) off += a(p, q) * a(p, q);
    }
    if (off < 1e-20) break;
    for (int p = 0; p < n; ++p) {
      for (int q = p + 1; q < n; ++q) {
        if (std::fabs(a(p, q)) < 1e-18) continue;
        const double theta = (a(q, q) - a(p, p)) / (2.0 * a(p, q));
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::fabs(theta) + std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        for (int k = 0; k < n; ++k) {
          const double akp = a(k, p), akq = a(k, q);
          a(k, p) = c * akp - s * akq;
          a(k, q) = s * akp + c * akq;
        }
        for (int k = 0; k < n; ++k) {
          const double apk = a(p, k), aqk = a(q, k);
          a(p, k) = c * apk - s * aqk;
          a(q, k) = s * apk + c * aqk;
        }
        for (int k = 0; k < n; ++k) {
          const double bkp = bt(p, k), bkq = bt(q, k);
          bt(p, k) = c * bkp - s * bkq;
          bt(q, k) = s * bkp + c * bkq;
        }
      }
    }
  }
  b = la::Mat(n, n);
  la::transpose(bt, b);
  e.resize(n);
  for (int i = 0; i < n; ++i) e[i] = a(i, i);
}

}  // namespace

CmaEs::CmaEs(int dim, Rng rng, CmaEsOptions opt) : n_(dim), rng_(rng) {
  if (dim < 1) throw std::invalid_argument("CmaEs: dim must be >= 1");
  lambda_ = opt.lambda > 0
                ? opt.lambda
                : 4 + static_cast<int>(std::floor(3.0 * std::log(dim)));
  mu_ = lambda_ / 2;
  weights_.resize(mu_);
  double wsum = 0.0;
  for (int i = 0; i < mu_; ++i) {
    weights_[i] = std::log(mu_ + 0.5) - std::log(i + 1.0);
    wsum += weights_[i];
  }
  double w2 = 0.0;
  for (auto& w : weights_) {
    w /= wsum;
    w2 += w * w;
  }
  mueff_ = 1.0 / w2;

  cc_ = (4.0 + mueff_ / n_) / (n_ + 4.0 + 2.0 * mueff_ / n_);
  cs_ = (mueff_ + 2.0) / (n_ + mueff_ + 5.0);
  c1_ = 2.0 / ((n_ + 1.3) * (n_ + 1.3) + mueff_);
  cmu_ = std::min(1.0 - c1_, 2.0 * (mueff_ - 2.0 + 1.0 / mueff_) /
                                 ((n_ + 2.0) * (n_ + 2.0) + mueff_));
  damps_ = 1.0 +
           2.0 * std::max(0.0,
                          std::sqrt((mueff_ - 1.0) / (n_ + 1.0)) - 1.0) +
           cs_;
  chi_n_ = std::sqrt(static_cast<double>(n_)) *
           (1.0 - 1.0 / (4.0 * n_) + 1.0 / (21.0 * n_ * n_));

  mean_.assign(n_, 0.0);
  sigma_ = opt.sigma0;
  c_ = la::Mat::identity(n_);
  b_ = la::Mat::identity(n_);
  d_.assign(n_, 1.0);
  pc_.assign(n_, 0.0);
  ps_.assign(n_, 0.0);
}

void CmaEs::eigen_update() {
  std::vector<double> evals;
  jacobi_eigen(c_, b_, evals);
  d_.resize(n_);
  for (int i = 0; i < n_; ++i) {
    d_[i] = std::sqrt(std::max(evals[i], 1e-20));
  }
}

std::vector<std::vector<double>> CmaEs::ask() {
  std::vector<std::vector<double>> xs(lambda_, std::vector<double>(n_));
  for (int k = 0; k < lambda_; ++k) {
    // y = B D z,  x = m + sigma y, clipped into [-1, 1].
    std::vector<double> z(n_);
    for (auto& v : z) v = rng_.normal();
    for (int i = 0; i < n_; ++i) {
      double acc = 0.0;
      for (int j = 0; j < n_; ++j) acc += b_(i, j) * d_[j] * z[j];
      xs[k][i] = std::clamp(mean_[i] + sigma_ * acc, -1.0, 1.0);
    }
  }
  return xs;
}

void CmaEs::tell(const std::vector<std::vector<double>>& xs,
                 const std::vector<double>& ys) {
  if (xs.size() != ys.size() || xs.empty()) {
    throw std::invalid_argument("CmaEs::tell: inconsistent batch");
  }
  ++gen_;
  // Rank by objective DESCENDING (we maximize).
  std::vector<int> order(ys.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](int a, int b) { return ys[a] > ys[b]; });

  // Tolerate partial batches (an evaluation budget can truncate the last
  // generation): use the top min(mu, batch) with renormalized weights.
  const int mu_eff_count = std::min<int>(mu_, static_cast<int>(ys.size()));
  std::vector<double> w(weights_.begin(), weights_.begin() + mu_eff_count);
  double wsum = 0.0;
  for (double v : w) wsum += v;
  for (double& v : w) v /= wsum;

  // Recombination in y-space. We re-derive y from the evaluated x so the
  // update is consistent with the [-1,1] clipping applied in ask().
  std::vector<double> m_old = mean_;
  std::vector<double> y_w(n_, 0.0);
  for (int r = 0; r < mu_eff_count; ++r) {
    const auto& x = xs[order[r]];
    for (int i = 0; i < n_; ++i) {
      y_w[i] += w[r] * (x[i] - m_old[i]) / sigma_;
    }
  }
  for (int i = 0; i < n_; ++i) mean_[i] = m_old[i] + sigma_ * y_w[i];

  // CSA path: ps = (1-cs) ps + sqrt(cs(2-cs) mueff) C^{-1/2} y_w, with
  // C^{-1/2} = B D^{-1} B^T.
  std::vector<double> tmp(n_, 0.0);
  for (int j = 0; j < n_; ++j) {
    double acc = 0.0;
    for (int i = 0; i < n_; ++i) acc += b_(i, j) * y_w[i];
    tmp[j] = acc / d_[j];
  }
  std::vector<double> cinv_y(n_, 0.0);
  for (int i = 0; i < n_; ++i) {
    double acc = 0.0;
    for (int j = 0; j < n_; ++j) acc += b_(i, j) * tmp[j];
    cinv_y[i] = acc;
  }
  const double cs_fac = std::sqrt(cs_ * (2.0 - cs_) * mueff_);
  double ps_norm2 = 0.0;
  for (int i = 0; i < n_; ++i) {
    ps_[i] = (1.0 - cs_) * ps_[i] + cs_fac * cinv_y[i];
    ps_norm2 += ps_[i] * ps_[i];
  }
  const double ps_norm = std::sqrt(ps_norm2);

  // Step-size update.
  sigma_ *= std::exp((cs_ / damps_) * (ps_norm / chi_n_ - 1.0));
  sigma_ = std::clamp(sigma_, 1e-8, 2.0);

  // Covariance rank-1 + rank-mu update.
  const bool hsig =
      ps_norm / std::sqrt(1.0 - std::pow(1.0 - cs_, 2.0 * gen_)) <
      (1.4 + 2.0 / (n_ + 1.0)) * chi_n_;
  const double cc_fac = std::sqrt(cc_ * (2.0 - cc_) * mueff_);
  for (int i = 0; i < n_; ++i) {
    pc_[i] = (1.0 - cc_) * pc_[i] + (hsig ? cc_fac * y_w[i] : 0.0);
  }
  const double c1a = c1_ * (1.0 - (hsig ? 0.0 : cc_ * (2.0 - cc_)));
  // Each selected sample's y = (x - m_old) / sigma, computed once per
  // coordinate with the step size as updated above, and w * y beside it:
  // row i holds coordinate i of every selected sample, so the rank-mu
  // sums below read two contiguous rows.
  const std::size_t mu_n = static_cast<std::size_t>(mu_eff_count);
  std::vector<double> y(mu_n * n_), wy(mu_n * n_);
  for (int r = 0; r < mu_eff_count; ++r) {
    const auto& x = xs[order[r]];
    for (int i = 0; i < n_; ++i) {
      const double yi = (x[i] - m_old[i]) / sigma_;
      y[i * mu_n + r] = yi;
      wy[i * mu_n + r] = w[r] * yi;
    }
  }
  for (int i = 0; i < n_; ++i) {
    const double* wyi = wy.data() + i * mu_n;
    for (int j = 0; j < n_; ++j) {
      const double* yj = y.data() + j * mu_n;
      double rank_mu = 0.0;
      for (int r = 0; r < mu_eff_count; ++r) rank_mu += wyi[r] * yj[r];
      c_(i, j) = (1.0 - c1a - cmu_) * c_(i, j) + c1_ * pc_[i] * pc_[j] +
                 cmu_ * rank_mu;
    }
  }
  eigen_update();
}

}  // namespace gcnrl::opt
