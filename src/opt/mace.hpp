// MACE — batch Bayesian optimization via Multi-objective ACquisition
// Ensemble (Lyu et al., ICML 2018), the paper's strongest BO baseline [2].
//
// Idea: EI, PI and LCB disagree about where to sample; MACE treats the
// three acquisitions as objectives of a multi-objective problem and picks
// a BATCH of query points from the Pareto front of acquisition space, so
// one GP fit yields several diverse, well-motivated simulations. Our
// implementation samples a candidate pool (global uniform + local
// perturbations of the incumbent), computes the three acquisitions, takes
// the non-dominated subset, and draws the batch from it.
#pragma once

#include "opt/bayes_opt.hpp"
#include "opt/gp.hpp"
#include "opt/optimizer.hpp"

namespace gcnrl::opt {

struct MaceOptions {
  int initial_random = 10;
  int batch = 4;             // queries per GP fit (parallel BO)
  int pool = 512;            // candidate pool size
  double lcb_kappa = 2.0;    // LCB exploration weight
  double xi = 0.01;          // EI/PI offset
  int max_gp_points = 400;
};

class Mace : public Optimizer {
 public:
  Mace(int dim, Rng rng, MaceOptions opt = {});

  std::vector<std::vector<double>> ask() override;
  void tell(const std::vector<std::vector<double>>& xs,
            const std::vector<double>& ys) override;
  [[nodiscard]] int dim() const override { return dim_; }

 private:
  int dim_;
  Rng rng_;
  MaceOptions opt_;
  GpSurrogate model_;
};

}  // namespace gcnrl::opt
