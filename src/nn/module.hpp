// Parameter / Module plumbing for the neural-network stack.
//
// A Parameter owns its value and gradient buffers; Modules expose their
// parameters so optimizers (nn::Adam) and the weight (de)serializer can
// iterate them generically. Layers run hand-written forward and backward
// passes over caller-owned buffers (nn/linear.hpp, nn/gcn.hpp); a backward
// pass adds each parameter's gradient into Parameter::grad, so one
// optimizer step is "Adam.zero_grad(), forward, backward, Adam.step()".
#pragma once

#include <string>
#include <vector>

#include "la/matrix.hpp"

namespace gcnrl::nn {

struct Parameter {
  std::string name;
  la::Mat value;
  la::Mat grad;

  Parameter() = default;
  Parameter(std::string n, la::Mat v)
      : name(std::move(n)), value(std::move(v)),
        grad(value.rows(), value.cols()) {}

  void zero_grad() { grad.fill(0.0); }
};

class Module {
 public:
  virtual ~Module() = default;
  // All trainable parameters of this module (and submodules).
  virtual std::vector<Parameter*> parameters() = 0;
};

}  // namespace gcnrl::nn
