// Bayesian optimization — the paper's "BO" baseline [9] (Snoek et al.,
// "Practical Bayesian Optimization").
//
// GP surrogate (opt/gp.hpp) + Expected Improvement acquisition, maximized
// by random multi-start plus local coordinate refinement. The O(N^3) fit
// per iteration is intrinsic (the paper runtime-matches BO against the
// cheaper methods for exactly this reason).
//
// Cost and memory. tell() refits the GP, whose only persistent O(N^2)
// state is its packed Cholesky factor; the pairwise distances are computed
// once per fit and the kernel once per grid lengthscale. ask() scores its
// acq_samples random candidates with one GaussianProcess::predict_block
// call (blocks of 32 candidates share one forward substitution); the
// refinement steps depend on each other and score one point each. The
// GP's scratch is exact-size and freed when each call returns, because
// lockstep seeds fit and score at the same time on the eval pool
// (rl::run_optimizer_lockstep) and per-object or per-thread buffers would
// stay resident once per seed or worker.
#pragma once

#include "opt/gp.hpp"
#include "opt/optimizer.hpp"

namespace gcnrl::opt {

struct BayesOptOptions {
  int initial_random = 10;     // warm-up points before the GP kicks in
  int acq_samples = 512;       // random acquisition candidates
  int refine_top = 4;          // candidates refined locally
  int refine_iters = 20;       // coordinate-perturbation steps each
  double xi = 0.01;            // EI exploration offset
  int max_gp_points = 400;     // cap the GP training set (best-N retained)
};

// What BayesOpt and Mace keep between steps, and the tell() both run.
struct GpSurrogate {
  GaussianProcess gp;
  std::vector<std::vector<double>> xs;  // every point told so far
  std::vector<double> ys;
  double best_y = -1e300;

  // Throws std::invalid_argument, naming `who`, unless batch_ys holds one
  // value per point of batch_xs and every point has dim coordinates;
  // nothing of a refused batch is stored (ask() and the GP fit read every
  // stored point at dim coordinates). Otherwise appends the batch, raises
  // best_y and, once initial_random points are stored, refits gp on
  // gp_training_subset(ys, max_gp_points).
  void tell(const std::vector<std::vector<double>>& batch_xs,
            const std::vector<double>& batch_ys, int dim, int initial_random,
            int max_gp_points, const char* who);
  // The stored point with the highest objective (the first of ties).
  [[nodiscard]] const std::vector<double>& best_x() const;
};

class BayesOpt : public Optimizer {
 public:
  BayesOpt(int dim, Rng rng, BayesOptOptions opt = {});

  std::vector<std::vector<double>> ask() override;
  void tell(const std::vector<std::vector<double>>& xs,
            const std::vector<double>& ys) override;
  [[nodiscard]] int dim() const override { return dim_; }

  [[nodiscard]] double expected_improvement(
      const std::vector<double>& x) const;

 private:
  [[nodiscard]] double improvement(const GpPrediction& p) const;

  int dim_;
  Rng rng_;
  BayesOptOptions opt_;
  GpSurrogate model_;
};

// Standard-normal pdf/cdf used by EI/PI acquisitions.
double norm_pdf(double z);
double norm_cdf(double z);

// Indices of the points to fit the capped GP training set on: all of them
// when n <= max_points, otherwise the best (max_points - 1) by objective
// plus the newest point. The newest point always enters the surrogate —
// dropping it (as a pure best-N rule would whenever the latest sample
// scores badly) blinds the GP to exactly the region it just probed and
// makes the acquisition re-propose it.
std::vector<int> gp_training_subset(const std::vector<double>& ys,
                                    int max_points);

}  // namespace gcnrl::opt
