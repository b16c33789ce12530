// Tests for the black-box optimizer baselines: CMA-ES, GP regression,
// Bayesian optimization and MACE on closed-form objectives.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "la/cholesky.hpp"
#include "la/matrix.hpp"
#include "opt/bayes_opt.hpp"
#include "opt/cma_es.hpp"
#include "opt/mace.hpp"
#include "opt/random_search.hpp"
#include "test_helpers.hpp"

namespace la = gcnrl::la;
namespace opt = gcnrl::opt;
using gcnrl::Rng;

namespace {

// Sphere: maximum 0 at x*.
double neg_sphere(const std::vector<double>& x,
                  const std::vector<double>& target) {
  double acc = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double d = x[i] - target[i];
    acc -= d * d;
  }
  return acc;
}

double run_loop(opt::Optimizer& o, int evals,
                const std::function<double(const std::vector<double>&)>& f) {
  double best = -1e300;
  int done = 0;
  while (done < evals) {
    const auto xs = o.ask();
    std::vector<double> ys;
    for (const auto& x : xs) {
      ys.push_back(f(x));
      best = std::max(best, ys.back());
      if (++done >= evals) break;
    }
    o.tell({xs.begin(), xs.begin() + ys.size()}, ys);
  }
  return best;
}

}  // namespace

TEST(RandomSearch, StaysInBounds) {
  opt::RandomSearch rs(6, Rng(1), 4);
  for (int it = 0; it < 20; ++it) {
    for (const auto& x : rs.ask()) {
      ASSERT_EQ(static_cast<int>(x.size()), 6);
      for (double v : x) {
        EXPECT_GE(v, -1.0);
        EXPECT_LE(v, 1.0);
      }
    }
  }
}

TEST(CmaEs, ConvergesOnSphere) {
  const int dim = 8;
  std::vector<double> target(dim);
  Rng trng(3);
  for (auto& t : target) t = trng.uniform(-0.5, 0.5);
  opt::CmaEs es(dim, Rng(4));
  const double best = run_loop(
      es, 600, [&](const std::vector<double>& x) {
        return neg_sphere(x, target);
      });
  EXPECT_GT(best, -1e-3);
  // The distribution mean should be near the optimum too, not just a
  // lucky sample.
  EXPECT_LT(std::fabs(es.mean()[0] - target[0]), 0.1);
}

TEST(CmaEs, HandlesBoundaryOptimum) {
  // Optimum at the corner of the box: clipping must not break updates.
  const int dim = 4;
  std::vector<double> target(dim, 1.0);
  opt::CmaEs es(dim, Rng(5));
  const double best = run_loop(
      es, 500, [&](const std::vector<double>& x) {
        return neg_sphere(x, target);
      });
  EXPECT_GT(best, -0.05);
}

TEST(CmaEs, ImprovesOnRosenbrockStyleCoupling) {
  // Maximize -[(1 - x0)^2 + 5 (x1 - x0^2)^2] — curved valley.
  opt::CmaEs es(2, Rng(6));
  const double best = run_loop(es, 800, [](const std::vector<double>& x) {
    const double a = 1.0 - x[0];
    const double b = x[1] - x[0] * x[0];
    return -(a * a + 5.0 * b * b);
  });
  EXPECT_GT(best, -0.05);
}

TEST(CmaEs, PartialBatchTellAccepted) {
  opt::CmaEs es(3, Rng(7));
  auto xs = es.ask();
  ASSERT_GE(xs.size(), 2u);
  std::vector<std::vector<double>> partial(xs.begin(), xs.begin() + 2);
  EXPECT_NO_THROW(es.tell(partial, {0.1, 0.2}));
  EXPECT_THROW(es.tell({}, {}), std::invalid_argument);
}

TEST(Gp, InterpolatesTrainingData) {
  opt::GaussianProcess gp;
  std::vector<std::vector<double>> x = {{0.0}, {0.5}, {1.0}, {-0.7}};
  std::vector<double> y = {1.0, 2.0, -1.0, 0.3};
  gp.fit(x, y);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const auto p = gp.predict(x[i]);
    EXPECT_NEAR(p.mean, y[i], 0.15);
  }
}

// Points of different sizes would send the distance loops past the end of
// the shorter one; the fit refuses them and keeps the previous fit.
TEST(Gp, FitRejectsPointsOfDifferentDimension) {
  opt::GaussianProcess gp;
  gp.fit({{0.0, 0.0}, {0.5, 0.5}}, {1.0, 2.0});
  const opt::GpPrediction before = gp.predict({0.25, 0.25});
  EXPECT_THROW(gp.fit({{0.0, 0.0}, {0.5}}, {1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW(gp.fit({{0.0}, {0.5, 0.5}}, {1.0, 2.0}), std::invalid_argument);
  ASSERT_TRUE(gp.fitted());
  EXPECT_EQ(gp.predict({0.25, 0.25}).mean, before.mean);
}

TEST(Gp, UncertaintyGrowsAwayFromData) {
  opt::GaussianProcess gp;
  std::vector<std::vector<double>> x = {{0.0}, {0.1}, {0.2}};
  std::vector<double> y = {0.0, 0.1, 0.2};
  gp.fit(x, y);
  const auto near = gp.predict({0.1});
  const auto far = gp.predict({3.0});
  EXPECT_LT(near.variance, far.variance);
}

TEST(Gp, PredictionTracksSmoothFunction) {
  opt::GaussianProcess gp;
  Rng rng(8);
  std::vector<std::vector<double>> x;
  std::vector<double> y;
  for (int i = 0; i < 40; ++i) {
    const double xi = rng.uniform(-1.0, 1.0);
    x.push_back({xi});
    y.push_back(std::sin(3.0 * xi));
  }
  gp.fit(x, y);
  double max_err = 0.0;
  for (double xi = -0.9; xi <= 0.9; xi += 0.1) {
    max_err = std::max(max_err,
                       std::fabs(gp.predict({xi}).mean - std::sin(3.0 * xi)));
  }
  EXPECT_LT(max_err, 0.15);
}

namespace {

// Bitwise reference for the packed GP: the textbook dense formulation, an
// n x n la::Mat kernel recomputed for each of the 15 grid points and the
// final build, a row-by-row Cholesky into a second n x n matrix, and a
// per-point predict with a single-vector forward substitution.
class DenseCholesky {
 public:
  explicit DenseCholesky(const la::Mat& a) : l_(a.rows(), a.rows()) {
    const int n = a.rows();
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j <= i; ++j) {
        double sum = a(i, j);
        for (int k = 0; k < j; ++k) sum -= l_(i, k) * l_(j, k);
        if (i == j) {
          if (sum <= 0.0 || !std::isfinite(sum)) {
            throw la::NotPositiveDefiniteError{};
          }
          l_(i, i) = std::sqrt(sum);
        } else {
          l_(i, j) = sum / l_(j, j);
        }
      }
    }
  }
  std::vector<double> solve_lower(const std::vector<double>& b) const {
    const int n = l_.rows();
    std::vector<double> y(b);
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < i; ++j) y[i] -= l_(i, j) * y[j];
      y[i] /= l_(i, i);
    }
    return y;
  }
  std::vector<double> solve(const std::vector<double>& b) const {
    const int n = l_.rows();
    std::vector<double> y = solve_lower(b);
    for (int i = n - 1; i >= 0; --i) {
      for (int j = i + 1; j < n; ++j) y[i] -= l_(j, i) * y[j];
      y[i] /= l_(i, i);
    }
    return y;
  }
  double log_det() const {
    double acc = 0.0;
    for (int i = 0; i < l_.rows(); ++i) acc += std::log(l_(i, i));
    return 2.0 * acc;
  }
  const la::Mat& lower() const { return l_; }

 private:
  la::Mat l_;
};

double ref_sq_dist(const std::vector<double>& a, const std::vector<double>& b) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    acc += d * d;
  }
  return acc;
}

double ref_matern52(double r, double ls) {
  const double s = std::sqrt(5.0) * r / ls;
  return (1.0 + s + s * s / 3.0) * std::exp(-s);
}

class DenseGp {
 public:
  void fit(const std::vector<std::vector<double>>& x,
           const std::vector<double>& y) {
    x_ = x;
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
    std::vector<double> dists;
    const int cap = std::min(n, 64);
    for (int i = 0; i < cap; ++i) {
      for (int j = i + 1; j < cap; ++j) {
        dists.push_back(std::sqrt(ref_sq_dist(x_[i], x_[j])));
      }
    }
    double ls0 = 1.0;
    if (!dists.empty()) {
      std::nth_element(dists.begin(), dists.begin() + dists.size() / 2,
                       dists.end());
      ls0 = std::max(dists[dists.size() / 2], 1e-3);
    }
    double best_ll = -std::numeric_limits<double>::infinity();
    double best_ls = ls0, best_noise = 1e-4;
    for (double ls_mul : {0.33, 0.66, 1.0, 2.0, 4.0}) {
      for (double noise : {1e-6, 1e-4, 1e-2}) {
        const double ll = log_marginal(ls0 * ls_mul, noise);
        if (ll > best_ll) {
          best_ll = ll;
          best_ls = ls0 * ls_mul;
          best_noise = noise;
        }
      }
    }
    lengthscale_ = best_ls;
    noise_ = best_noise;
    chol_ = std::make_unique<DenseCholesky>(kernel_matrix(best_ls, best_noise));
    alpha_ = chol_->solve(y_);
  }

  opt::GpPrediction predict(const std::vector<double>& x) const {
    const int n = static_cast<int>(x_.size());
    std::vector<double> kx(n);
    for (int i = 0; i < n; ++i) kx[i] = kernel(x_[i], x);
    double mu = 0.0;
    for (int i = 0; i < n; ++i) mu += kx[i] * alpha_[i];
    const auto v = chol_->solve_lower(kx);
    double reduction = 0.0;
    for (double vi : v) reduction += vi * vi;
    const double var = std::max(kernel(x, x) - reduction, 1e-12);
    return {y_mean_ + y_std_ * mu, y_std_ * y_std_ * var};
  }

  double lengthscale() const { return lengthscale_; }
  double noise() const { return noise_; }

 private:
  double kernel(const std::vector<double>& a,
                const std::vector<double>& b) const {
    return 1.0 * ref_matern52(std::sqrt(ref_sq_dist(a, b)), lengthscale_);
  }
  la::Mat kernel_matrix(double ls, double noise) const {
    const int n = static_cast<int>(x_.size());
    la::Mat k(n, n);
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j <= i; ++j) {
        const double v =
            1.0 * ref_matern52(std::sqrt(ref_sq_dist(x_[i], x_[j])), ls);
        k(i, j) = v;
        k(j, i) = v;
      }
      k(i, i) += noise + 1e-8;
    }
    return k;
  }
  double log_marginal(double ls, double noise) const {
    const int n = static_cast<int>(x_.size());
    try {
      DenseCholesky chol(kernel_matrix(ls, noise));
      const auto a = chol.solve(y_);
      double fit = 0.0;
      for (int i = 0; i < n; ++i) fit += y_[i] * a[i];
      return -0.5 * fit - 0.5 * chol.log_det() -
             0.5 * n * std::log(2.0 * M_PI);
    } catch (const la::NotPositiveDefiniteError&) {
      return -std::numeric_limits<double>::infinity();
    }
  }

  std::vector<std::vector<double>> x_;
  std::vector<double> y_;
  double y_mean_ = 0.0;
  double y_std_ = 1.0;
  double lengthscale_ = 1.0;
  double noise_ = 1e-4;
  std::vector<double> alpha_;
  std::unique_ptr<DenseCholesky> chol_;
};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

std::vector<double> packed_lower(const la::Mat& a) {
  std::vector<double> p;
  for (int i = 0; i < a.rows(); ++i) {
    for (int j = 0; j <= i; ++j) p.push_back(a(i, j));
  }
  return p;
}

std::vector<std::vector<double>> random_points(int n, int dim, Rng& rng) {
  std::vector<std::vector<double>> x(n, std::vector<double>(dim));
  for (auto& p : x) {
    for (auto& v : p) v = rng.uniform(-1.0, 1.0);
  }
  return x;
}

// G G^T + 0.1 I for a random G: symmetric positive definite.
la::Mat random_spd(int n, Rng& rng) {
  la::Mat g(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) g(i, j) = rng.uniform(-1.0, 1.0);
  }
  la::Mat gt(n, n), a(n, n);
  la::transpose(g, gt);
  la::matmul(g, gt, a);
  for (int i = 0; i < n; ++i) a(i, i) += 0.1;
  return a;
}

// Index of the first element whose bits differ, or -1.
long first_bit_mismatch(const std::vector<double>& got,
                        const std::vector<double>& want) {
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (bits(got[i]) != bits(want[i])) return static_cast<long>(i);
  }
  return -1;
}

// Every order from 1 to 40 (each remainder of the 4-row panel, up to ten
// panels deep), 130 and 401 (GaussianProcess's 400-point cap, plus the
// newest point): the factor, the solve, the log-determinant and forward
// substitution at several widths against the row-by-row reference; then
// indefinite matrices whose first failing pivot is in row 0, 5, 9 or 130
// (the first row of a panel, or a later lane).
void expect_cholesky_matches_row_by_row(
    const std::string& copy, const la::detail::CholeskyKernels& chol) {
  std::vector<int> orders;
  for (int n = 1; n <= 40; ++n) orders.push_back(n);
  orders.push_back(130);
  orders.push_back(401);
  Rng rng(41);
  for (const int n : orders) {
    const la::Mat a = random_spd(n, rng);
    const DenseCholesky ref(a);
    std::vector<double> packed = packed_lower(a);
    chol.factor(packed, n);
    const long bad_l = first_bit_mismatch(packed, packed_lower(ref.lower()));
    EXPECT_EQ(bad_l, -1) << copy << ": n " << n << " packed L[" << bad_l << "]";

    std::vector<double> b(n);
    for (auto& v : b) v = rng.uniform(-1.0, 1.0);
    const std::vector<double> want = ref.solve(b);
    chol.solve(packed, b);
    const long bad_x = first_bit_mismatch(b, want);
    EXPECT_EQ(bad_x, -1) << copy << ": n " << n << " x[" << bad_x << "]";
    EXPECT_EQ(bits(la::cholesky_log_det(packed, n)), bits(ref.log_det()))
        << copy << ": n " << n;

    for (const int width : {1, 2, 3, 32, 33}) {
      const auto w = static_cast<std::size_t>(width);
      std::vector<double> rhs(static_cast<std::size_t>(n) * w);
      for (auto& v : rhs) v = rng.uniform(-1.0, 1.0);
      std::vector<double> want_y(rhs.size());
      for (std::size_t c = 0; c < w; ++c) {
        std::vector<double> column(static_cast<std::size_t>(n));
        for (int i = 0; i < n; ++i) column[i] = rhs[i * w + c];
        const std::vector<double> y = ref.solve_lower(column);
        for (int i = 0; i < n; ++i) want_y[i * w + c] = y[i];
      }
      chol.solve_lower(packed, rhs, width);
      const long bad_y = first_bit_mismatch(rhs, want_y);
      EXPECT_EQ(bad_y, -1) << copy << ": n " << n << " width " << width
                           << " Y[" << bad_y << "]";
    }
  }

  struct Indefinite {
    int n, row;
  };
  for (const Indefinite c : {Indefinite{3, 0}, Indefinite{7, 5},
                             Indefinite{12, 9}, Indefinite{133, 130}}) {
    // The leading rows stay positive definite; the pivot of `row` is
    // -1 - |L(row, :row)|^2.
    la::Mat a = random_spd(c.n, rng);
    a(c.row, c.row) = -1.0;
    std::vector<double> packed = packed_lower(a);
    EXPECT_THROW(DenseCholesky{a}, la::NotPositiveDefiniteError)
        << "n " << c.n << " row " << c.row;
    EXPECT_THROW(chol.factor(packed, c.n), la::NotPositiveDefiniteError)
        << copy << ": n " << c.n << " row " << c.row;
  }
  // A 7x7 identity with a 2x2 block of eigenvalues 3 and -1 in rows 5-6:
  // the last lanes of a partial panel.
  la::Mat bad = la::Mat::identity(7);
  bad(5, 5) = 1.0;
  bad(6, 6) = 1.0;
  bad(5, 6) = bad(6, 5) = 2.0;
  std::vector<double> packed = packed_lower(bad);
  EXPECT_THROW(DenseCholesky{bad}, la::NotPositiveDefiniteError);
  EXPECT_THROW(chol.factor(packed, 7), la::NotPositiveDefiniteError) << copy;
}

}  // namespace

// The packed factor, built in 4-row panels, must equal the row-by-row one
// bit for bit, and the solves and log-determinant built on it must
// follow: through the dispatched functions and through each copy of the
// kernels (la::detail::cholesky_baseline, cholesky_avx2).
TEST(GpReference, PackedCholeskyMatchesRowByRowBitwise) {
  expect_cholesky_matches_row_by_row(
      "dispatched",
      {la::cholesky_factor, la::cholesky_solve_lower, la::cholesky_solve});
  expect_cholesky_matches_row_by_row("baseline", la::detail::cholesky_baseline);
#ifdef GCNRL_LA_AVX2_ROW_KERNEL
  if (!la::detail::cpu_has_avx2()) {
    GTEST_SKIP() << "AVX2 Cholesky leg skipped: this CPU has no AVX2";
  }
  expect_cholesky_matches_row_by_row("avx2", la::detail::cholesky_avx2);
#endif
}

// The packed GP (distances once, kernel once per lengthscale, block
// prediction) must reproduce the dense GP exactly: the same fitted
// hyperparameters and bit-identical posteriors, through predict_block on
// candidate counts that end in a partial block and through predict.
TEST(GpReference, PackedGpMatchesDenseGpBitwise) {
  Rng rng(42);
  for (const int dim : {1, 23}) {
    for (const int n : {1, 2, 5, 31, 33, 64, 130}) {
      auto x = random_points(n, dim, rng);
      // Repeat a few points so some kernel matrices are near singular.
      if (n > 4) x[n - 1] = x[0];
      if (n > 8) x[n / 2] = x[1];
      std::vector<double> y;
      for (const auto& p : x) y.push_back(std::sin(3.0 * p[0]) + 0.1 * p.back());
      DenseGp ref;
      ref.fit(x, y);
      opt::GaussianProcess gp;
      gp.fit(x, y);
      EXPECT_EQ(bits(gp.lengthscale()), bits(ref.lengthscale()))
          << "dim " << dim << " n " << n;
      EXPECT_EQ(bits(gp.noise()), bits(ref.noise()))
          << "dim " << dim << " n " << n;
      // 77 = 2 full blocks + 13; training points among the candidates.
      auto cands = random_points(77, dim, rng);
      cands[5] = x[0];
      std::vector<opt::GpPrediction> got(cands.size());
      gp.predict_block(cands, got);
      for (std::size_t c = 0; c < cands.size(); ++c) {
        const opt::GpPrediction want = ref.predict(cands[c]);
        const opt::GpPrediction one = gp.predict(cands[c]);
        EXPECT_EQ(bits(got[c].mean), bits(want.mean))
            << "dim " << dim << " n " << n << " candidate " << c;
        EXPECT_EQ(bits(got[c].variance), bits(want.variance))
            << "dim " << dim << " n " << n << " candidate " << c;
        EXPECT_EQ(bits(one.mean), bits(want.mean));
        EXPECT_EQ(bits(one.variance), bits(want.variance));
      }
    }
  }
}

// No SPD grid point: the fit falls back to (ls0, 1e-4), which throws the
// same error the dense GP throws, and leaves the GP unfitted.
TEST(GpReference, FitWithoutSpdGridPointThrowsLikeDenseGp) {
  const std::vector<std::vector<double>> x = {
      {0.0}, {std::numeric_limits<double>::infinity()}};
  const std::vector<double> y = {1.0, 2.0};
  DenseGp ref;
  EXPECT_THROW(ref.fit(x, y), la::NotPositiveDefiniteError);
  opt::GaussianProcess gp;
  gp.fit({{0.0}, {1.0}}, y);
  ASSERT_TRUE(gp.fitted());
  EXPECT_THROW(gp.fit(x, y), la::NotPositiveDefiniteError);
  EXPECT_FALSE(gp.fitted());
  EXPECT_THROW((void)gp.predict({0.5}), std::runtime_error);
}

TEST(BayesOpt, BeatsRandomOnMultimodal1d) {
  // f(x) = sin(5x) * (1 - x^2): several local optima in [-1, 1].
  auto f = [](const std::vector<double>& x) {
    return std::sin(5.0 * x[0]) * (1.0 - x[0] * x[0]);
  };
  opt::BayesOptOptions bopt;
  bopt.initial_random = 6;
  opt::BayesOpt bo(1, Rng(9), bopt);
  const double best_bo = run_loop(bo, 40, f);
  opt::RandomSearch rs(1, Rng(9));
  const double best_rs = run_loop(rs, 40, f);
  EXPECT_GE(best_bo, best_rs - 0.02);
  EXPECT_GT(best_bo, 0.75);  // global max ~ 0.78 near x ~ 0.28
}

TEST(BayesOpt, GpSubsetWithinCapKeepsEveryPoint) {
  const auto keep = opt::gp_training_subset({3.0, 1.0, 2.0}, 5);
  EXPECT_EQ(keep, (std::vector<int>{0, 1, 2}));
}

TEST(BayesOpt, GpSubsetAlwaysAdmitsTheNewestPoint) {
  // Regression: the capped GP training set used to keep only the top-N by
  // objective, so a badly scoring newest point never entered the surrogate
  // and the GP stayed blind to the region it just probed. The subset must
  // be the best (max - 1) points plus the newest, even when the newest is
  // the worst sample seen so far.
  const std::vector<double> ys = {5.0, 4.0, 3.0, 2.0, -10.0};
  const auto keep = opt::gp_training_subset(ys, 3);
  ASSERT_EQ(keep.size(), 3u);
  // Best two by objective...
  EXPECT_NE(std::find(keep.begin(), keep.end(), 0), keep.end());
  EXPECT_NE(std::find(keep.begin(), keep.end(), 1), keep.end());
  // ...plus the newest (worst) point, which the old best-N rule dropped.
  EXPECT_EQ(keep.back(), 4);
}

TEST(BayesOpt, GpSubsetDoesNotDuplicateANewestBestPoint) {
  // Newest point is also the best: it must appear exactly once and the
  // remaining slots go to the next-best points.
  const std::vector<double> ys = {1.0, 2.0, 9.0};
  const auto keep = opt::gp_training_subset(ys, 2);
  ASSERT_EQ(keep.size(), 2u);
  EXPECT_EQ(std::count(keep.begin(), keep.end(), 2), 1);
  EXPECT_NE(std::find(keep.begin(), keep.end(), 1), keep.end());
}

TEST(BayesOpt, ExpectedImprovementNonNegative) {
  opt::BayesOptOptions bopt;
  bopt.initial_random = 3;
  opt::BayesOpt bo(2, Rng(10), bopt);
  std::vector<std::vector<double>> xs = {{0.0, 0.0}, {0.5, 0.5}, {-0.5, 0.2}};
  bo.tell(xs, {0.1, 0.3, -0.2});
  Rng rng(11);
  for (int i = 0; i < 50; ++i) {
    EXPECT_GE(bo.expected_improvement(
                  {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)}),
              0.0);
  }
}

// A batch with fewer values than points, or with a point of the wrong
// dimension, is refused before any of it is stored: the optimizer then
// proposes exactly what an identically seeded twin that never saw it does.
TEST(BayesOpt, TellRejectsInconsistentBatches) {
  opt::BayesOptOptions bopt;
  bopt.initial_random = 3;
  opt::BayesOpt bo(2, Rng(10), bopt);
  opt::BayesOpt twin(2, Rng(10), bopt);
  EXPECT_THROW(bo.tell({{0.0, 0.0}, {0.5, 0.5}}, {0.1}), std::invalid_argument);
  EXPECT_THROW(bo.tell({{0.0, 0.0}, {0.5}}, {0.1, 0.2}), std::invalid_argument);
  EXPECT_THROW(bo.tell({{0.0, 0.0, 0.0}}, {0.1}), std::invalid_argument);
  const std::vector<std::vector<double>> xs = {
      {0.0, 0.0}, {0.5, 0.5}, {-0.5, 0.2}};
  bo.tell(xs, {0.1, 0.3, -0.2});
  twin.tell(xs, {0.1, 0.3, -0.2});
  EXPECT_EQ(bo.ask(), twin.ask());
}

TEST(Mace, TellRejectsInconsistentBatches) {
  opt::MaceOptions mopt;
  mopt.initial_random = 3;
  opt::Mace mace(2, Rng(12), mopt);
  opt::Mace twin(2, Rng(12), mopt);
  EXPECT_THROW(mace.tell({{0.0, 0.0}, {0.5, 0.5}}, {0.1}),
               std::invalid_argument);
  EXPECT_THROW(mace.tell({{0.0, 0.0}, {0.5}}, {0.1, 0.2}),
               std::invalid_argument);
  EXPECT_THROW(mace.tell({{0.0, 0.0, 0.0}}, {0.1}), std::invalid_argument);
  const std::vector<std::vector<double>> xs = {
      {0.0, 0.0}, {0.5, 0.5}, {-0.5, 0.2}};
  mace.tell(xs, {0.1, 0.3, -0.2});
  twin.tell(xs, {0.1, 0.3, -0.2});
  EXPECT_EQ(mace.ask(), twin.ask());
}

TEST(Mace, ProposesRequestedBatch) {
  opt::MaceOptions mopt;
  mopt.initial_random = 4;
  mopt.batch = 3;
  opt::Mace mace(3, Rng(12), mopt);
  // Warm-up asks.
  auto xs = mace.ask();
  std::vector<double> ys(xs.size(), 0.0);
  mace.tell(xs, ys);
  xs = mace.ask();
  std::vector<double> ys2;
  for (const auto& x : xs) ys2.push_back(-x[0] * x[0]);
  mace.tell(xs, ys2);
  const auto batch = mace.ask();
  EXPECT_EQ(static_cast<int>(batch.size()), 3);
  for (const auto& x : batch) {
    for (double v : x) {
      EXPECT_GE(v, -1.0);
      EXPECT_LE(v, 1.0);
    }
  }
}

TEST(Mace, OptimizesQuadratic) {
  std::vector<double> target = {0.3, -0.4};
  opt::MaceOptions mopt;
  mopt.initial_random = 8;
  opt::Mace mace(2, Rng(13), mopt);
  const double best = run_loop(mace, 60, [&](const std::vector<double>& x) {
    return neg_sphere(x, target);
  });
  EXPECT_GT(best, -0.05);
}

// Regression: MACE capped its GP training set with a plain best-N sort,
// so a newest point outside the top N never entered the surrogate. It now
// fits on BayesOpt's gp_training_subset: with a cap of 3 and the newest of
// four points the worst, the fit must equal that of a twin told exactly
// the kept points, in the subset's order.
TEST(Mace, CappedFitKeepsTheNewestPoint) {
  opt::MaceOptions mopt;
  mopt.max_gp_points = 3;
  mopt.initial_random = 2;
  const std::vector<std::vector<double>> xs = {
      {0.1, -0.3}, {-0.6, 0.4}, {0.7, 0.2}, {-0.2, -0.8}};
  const std::vector<double> ys = {0.5, 0.9, 0.7, 0.1};  // newest is worst
  opt::Mace capped(2, Rng(31), mopt);
  capped.tell(xs, ys);

  const std::vector<int> keep = opt::gp_training_subset(ys, 3);
  ASSERT_EQ(keep, (std::vector<int>{1, 2, 3}));
  std::vector<std::vector<double>> kept_xs;
  std::vector<double> kept_ys;
  for (const int i : keep) {
    kept_xs.push_back(xs[static_cast<std::size_t>(i)]);
    kept_ys.push_back(ys[static_cast<std::size_t>(i)]);
  }
  opt::Mace twin(2, Rng(31), mopt);
  twin.tell(kept_xs, kept_ys);

  EXPECT_EQ(capped.ask(), twin.ask());
}

namespace {

// Drive two instances of one optimizer through the identical ask/tell
// transcript (a deterministic synthetic objective) and require identical
// proposals throughout. This is the property the lockstep sweep driver
// rests on: an optimizer's stream is a pure function of its seed and its
// observations, so stepping S seeds side by side cannot perturb any of
// them.
void expect_replay_determinism(opt::Optimizer& a, opt::Optimizer& b,
                               int rounds) {
  auto f = [](const std::vector<double>& x) {
    double acc = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      acc -= (x[i] - 0.1 * static_cast<double>(i + 1)) *
             (x[i] - 0.1 * static_cast<double>(i + 1));
    }
    return acc;
  };
  for (int r = 0; r < rounds; ++r) {
    const auto xa = a.ask();
    const auto xb = b.ask();
    ASSERT_EQ(xa.size(), xb.size()) << "round " << r;
    std::vector<double> ys;
    for (std::size_t i = 0; i < xa.size(); ++i) {
      ASSERT_EQ(xa[i], xb[i]) << "round " << r << " point " << i;
      ys.push_back(f(xa[i]));
    }
    a.tell(xa, ys);
    b.tell(xb, ys);
  }
}

}  // namespace

TEST(BayesOpt, IdenticallySeededInstancesReplayIdentically) {
  opt::BayesOptOptions bopt;
  bopt.initial_random = 4;
  opt::BayesOpt a(3, Rng(21), bopt);
  opt::BayesOpt b(3, Rng(21), bopt);
  expect_replay_determinism(a, b, 12);
}

TEST(Mace, IdenticallySeededInstancesReplayIdentically) {
  opt::MaceOptions mopt;
  mopt.initial_random = 4;
  mopt.batch = 3;
  opt::Mace a(3, Rng(22), mopt);
  opt::Mace b(3, Rng(22), mopt);
  expect_replay_determinism(a, b, 10);
}

TEST(CmaEs, IdenticallySeededInstancesReplayIdentically) {
  opt::CmaEs a(4, Rng(23));
  opt::CmaEs b(4, Rng(23));
  expect_replay_determinism(a, b, 15);
}

// Forty generations of ask() at dim 57 (Three-TIA's action count), told a
// fixed coupled objective, hashed byte for byte: the samples depend on
// every mean, step-size, covariance and eigendecomposition update, so a
// change to tell() or jacobi_eigen that moves a bit moves the digest.
// Captured before the tell's y = (x - m)/sigma reuse and the transposed
// Jacobi rotation; it depends on the platform's libm (exp, pow, sqrt, log).
TEST(CmaEs, AskMatchesParentDigest) {
  constexpr int kDim = 57;
  constexpr std::uint64_t kDigest = 0x7e79b85d2fdc3aa7;
  opt::CmaEs es(kDim, Rng(57));
  std::vector<double> target(kDim);
  Rng trng(58);
  for (auto& t : target) t = trng.uniform(-0.6, 0.6);
  std::uint64_t h = gcnrl::testing::kFnvBasis;
  for (int gen = 0; gen < 40; ++gen) {
    const auto xs = es.ask();
    std::vector<double> ys;
    for (const auto& x : xs) {
      h = gcnrl::testing::fnv1a(h, x.data(), x.size() * sizeof(double));
      double coupled = 0.0;
      for (int i = 1; i < kDim; ++i) coupled += x[i - 1] * x[i];
      ys.push_back(neg_sphere(x, target) + 0.1 * coupled);
    }
    es.tell(xs, ys);
  }
  const double sigma = es.sigma();
  h = gcnrl::testing::fnv1a(h, &sigma, sizeof(sigma));
  EXPECT_EQ(h, kDigest) << "0x" << std::hex << h;
}

TEST(NormalHelpers, PdfCdfSanity) {
  EXPECT_NEAR(opt::norm_cdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(opt::norm_cdf(10.0), 1.0, 1e-9);
  EXPECT_NEAR(opt::norm_cdf(-10.0), 0.0, 1e-9);
  EXPECT_NEAR(opt::norm_pdf(0.0), 1.0 / std::sqrt(2.0 * M_PI), 1e-12);
}
