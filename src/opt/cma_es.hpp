// CMA-ES (Hansen) — the paper's "ES" baseline [8].
//
// Full covariance-matrix-adaptation evolution strategy: weighted recomb-
// ination of the top-mu samples, rank-1 + rank-mu covariance updates, and
// cumulative step-size adaptation (CSA). Sampling uses an eigendecompo-
// sition of C (Jacobi rotations — dimensions here are <= ~60). Bounds are
// enforced by resampling-then-clipping into [-1, 1].
#pragma once

#include "la/matrix.hpp"
#include "opt/optimizer.hpp"

namespace gcnrl::opt {

struct CmaEsOptions {
  double sigma0 = 0.4;    // initial step size (in [-1,1] units)
  int lambda = 0;         // population size; 0 = 4 + floor(3 ln dim)
};

class CmaEs : public Optimizer {
 public:
  CmaEs(int dim, Rng rng, CmaEsOptions opt = {});

  std::vector<std::vector<double>> ask() override;
  void tell(const std::vector<std::vector<double>>& xs,
            const std::vector<double>& ys) override;
  [[nodiscard]] int dim() const override { return n_; }

  [[nodiscard]] double sigma() const { return sigma_; }
  [[nodiscard]] const std::vector<double>& mean() const { return mean_; }

 private:
  void eigen_update();

  int n_;
  Rng rng_;
  int lambda_;
  int mu_;
  std::vector<double> weights_;
  double mueff_;
  double cc_, cs_, c1_, cmu_, damps_;
  double chi_n_;

  std::vector<double> mean_;
  double sigma_;
  la::Mat c_;       // covariance
  la::Mat b_;       // eigenvectors
  std::vector<double> d_;  // sqrt(eigenvalues)
  std::vector<double> pc_, ps_;
  long gen_ = 0;
};

}  // namespace gcnrl::opt
