// Adam optimizer (Kingma & Ba 2015) over nn::Parameter.
#pragma once

#include <vector>

#include "nn/module.hpp"

namespace gcnrl::nn {

class Adam {
 public:
  explicit Adam(std::vector<Parameter*> params, double lr = 1e-3,
                double beta1 = 0.9, double beta2 = 0.999, double eps = 1e-8);

  // Applies one update from the gradients currently stored in the
  // parameters; does NOT zero gradients (zero_grad() does).
  void step();
  void zero_grad() {
    for (Parameter* p : params_) p->zero_grad();
  }
  void set_lr(double lr) { lr_ = lr; }
  [[nodiscard]] double lr() const { return lr_; }

 private:
  struct State {
    la::Mat m;
    la::Mat v;
  };
  std::vector<Parameter*> params_;
  std::vector<State> state_;
  double lr_, beta1_, beta2_, eps_;
  long t_ = 0;
};

}  // namespace gcnrl::nn
