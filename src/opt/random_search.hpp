// Uniform random search over [-1, 1]^dim — the paper's "Random" baseline
// (best of N uniform samples). Each ask() draws `batch` points, each one
// coordinate after the other: the draws DesignSpace::random_actions makes
// for one design, in flat order.
#pragma once

#include "opt/optimizer.hpp"

namespace gcnrl::opt {

class RandomSearch : public Optimizer {
 public:
  RandomSearch(int dim, Rng rng, int batch = 1)
      : dim_(dim), rng_(rng), batch_(batch) {}

  std::vector<std::vector<double>> ask() override;
  void tell(const std::vector<std::vector<double>>&,
            const std::vector<double>&) override {}
  [[nodiscard]] int dim() const override { return dim_; }

 private:
  int dim_;
  Rng rng_;
  int batch_;
};

}  // namespace gcnrl::opt
