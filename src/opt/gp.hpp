// Gaussian-process regression surrogate for the BO/MACE baselines.
//
// Matern-5/2 kernel with a single isotropic lengthscale, signal variance
// and noise variance; hyperparameters fitted by maximizing the log
// marginal likelihood over a small grid around median-distance heuristics
// (robust and deterministic — no fragile inner gradient loop). Targets are
// standardized internally.
//
// Storage and cost. The only persistent O(n^2) state is the Cholesky
// factor of the winning kernel matrix, packed (la/cholesky.hpp: n(n+1)/2
// doubles). A fit computes the pairwise distances once, then the kernel
// triangle once per grid lengthscale (5, kept in the factor's storage
// while the grid runs) and factors a packed copy of it per grid point
// (15); the winner's kernel is then recomputed and factored in place (the
// 6th kernel triangle). The 16 factorizations are the fit's O(n^3) cost;
// la::cholesky_factor builds each in 4-row panels whose vector lanes are
// the panel's rows, on the AVX2 copy of its kernels where the CPU has
// AVX2. Prediction scores candidates in blocks of kBlock: the block is
// transposed so the squared distances vectorize across candidates, then
// one forward substitution, blocked across the block's columns, serves
// the whole block. Every double comes from the same operations in
// the same order as the textbook per-point formulas, so results depend
// neither on the blocking nor on the copy.
//
// Memory. The fit's scratch (the distances and one work triangle) and the
// prediction's (the transposed block and its kernel block) are allocated
// at exact size on each call and freed when it returns, so a fit on n
// points peaks at three packed triangles, 1.5 n^2 doubles, plus the
// factorization's panel buffer of 4(n+3) doubles. BO/MACE seeds fit and
// predict concurrently on the eval pool (rl::run_optimizer_lockstep), so
// scratch kept in the object, or thread-local, would stay resident once
// per seed or per worker, and growth by doubling would pad it further.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace gcnrl::opt {

struct GpPrediction {
  double mean = 0.0;
  double variance = 0.0;
};

class GaussianProcess {
 public:
  // Candidates scored per pass of predict_block.
  static constexpr std::size_t kBlock = 32;

  GaussianProcess() = default;

  // Fit to data (rows of x are points). Refits hyperparameters. Throws
  // la::NotPositiveDefiniteError when no grid point yields an SPD kernel
  // matrix; the GP is then unfitted.
  void fit(const std::vector<std::vector<double>>& x,
           const std::vector<double>& y);

  // Posterior at one point: predict_block on a block of one.
  [[nodiscard]] GpPrediction predict(const std::vector<double>& x) const;
  // Posterior at every point of xs into out (same size), kBlock candidates
  // per pass; candidates left over after the full blocks go one at a time.
  void predict_block(std::span<const std::vector<double>> xs,
                     std::span<GpPrediction> out) const;

  [[nodiscard]] bool fitted() const { return fitted_; }
  [[nodiscard]] double lengthscale() const { return lengthscale_; }
  [[nodiscard]] double noise() const { return noise_; }
  [[nodiscard]] int num_points() const { return static_cast<int>(x_.size()); }

 private:
  // Fills factor_ with the kernel triangle for lengthscale ls.
  void kernel_triangle(std::span<const double> dist, double ls);
  // Posterior at the W points xs[0..W) into out[0..W), on the caller's
  // scratch: xt (dim x W) and kb (n x W).
  template <std::size_t W>
  void predict_lanes(const std::vector<double>* xs, GpPrediction* out,
                     double* xt, double* kb) const;

  std::vector<std::vector<double>> x_;
  std::vector<double> y_;           // standardized targets
  double y_mean_ = 0.0;
  double y_std_ = 1.0;
  double lengthscale_ = 1.0;
  double signal_var_ = 1.0;
  double noise_ = 1e-4;
  std::vector<double> alpha_;       // K^-1 y
  std::vector<double> factor_;      // packed Cholesky factor of K
  bool fitted_ = false;
};

}  // namespace gcnrl::opt
