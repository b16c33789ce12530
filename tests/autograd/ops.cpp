#include "autograd/ops.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>

namespace gcnrl::ag {
namespace {

Tape* common_tape(const Var& a, const Var& b) {
  if (a.tape() != b.tape()) {
    throw std::invalid_argument("autograd op: vars from different tapes");
  }
  return a.tape();
}

la::Mat product(const la::Mat& a, const la::Mat& b) {
  la::Mat c(a.rows(), b.cols());
  la::matmul(a, b, c);
  return c;
}

la::Mat product_tn(const la::Mat& a, const la::Mat& b) {
  la::Mat c(a.cols(), b.cols());
  la::matmul_tn(a, b, c);
  return c;
}

// C = A * B^T with each element a serial dot product over k from +0, no
// entry skipped: the textbook order the hand-written passes reproduce.
la::Mat product_nt(const la::Mat& a, const la::Mat& b) {
  assert(a.cols() == b.cols());
  la::Mat c(a.rows(), b.rows());
  for (int i = 0; i < a.rows(); ++i) {
    for (int j = 0; j < b.rows(); ++j) {
      double acc = 0.0;
      for (int k = 0; k < a.cols(); ++k) acc += a(i, k) * b(j, k);
      c(i, j) = acc;
    }
  }
  return c;
}

}  // namespace

Var matmul(Var a, Var b) {
  Tape* t = common_tape(a, b);
  la::Mat out = product(a.value(), b.value());
  Node* an = a.node();
  Node* bn = b.node();
  const bool rg = an->requires_grad || bn->requires_grad;
  Var c = t->make(std::move(out), rg, nullptr);
  if (rg) {
    Node* cn = c.node();
    cn->pullback = [an, bn, cn] {
      if (an->requires_grad) an->grad += product_nt(cn->grad, bn->val);
      if (bn->requires_grad) bn->grad += product_tn(an->val, cn->grad);
    };
  }
  return c;
}

Var matmul_const_left(const la::Mat& k, Var a) {
  Tape* t = a.tape();
  la::Mat out = product(k, a.value());
  Node* an = a.node();
  const bool rg = an->requires_grad;
  Var c = t->make(std::move(out), rg, nullptr);
  if (rg) {
    Node* cn = c.node();
    // d/dA (K A) pull-back: K^T @ grad.
    la::Mat kt = k;  // copy captured by value
    cn->pullback = [an, cn, kt] { an->grad += product_tn(kt, cn->grad); };
  }
  return c;
}

Var add(Var a, Var b) {
  Tape* t = common_tape(a, b);
  assert(a.value().same_shape(b.value()));
  la::Mat out = a.value();
  out += b.value();
  Node* an = a.node();
  Node* bn = b.node();
  const bool rg = an->requires_grad || bn->requires_grad;
  Var c = t->make(std::move(out), rg, nullptr);
  if (rg) {
    Node* cn = c.node();
    cn->pullback = [an, bn, cn] {
      if (an->requires_grad) an->grad += cn->grad;
      if (bn->requires_grad) bn->grad += cn->grad;
    };
  }
  return c;
}

Var sub(Var a, Var b) {
  Tape* t = common_tape(a, b);
  assert(a.value().same_shape(b.value()));
  la::Mat out = a.value();
  out -= b.value();
  Node* an = a.node();
  Node* bn = b.node();
  const bool rg = an->requires_grad || bn->requires_grad;
  Var c = t->make(std::move(out), rg, nullptr);
  if (rg) {
    Node* cn = c.node();
    cn->pullback = [an, bn, cn] {
      if (an->requires_grad) an->grad += cn->grad;
      if (bn->requires_grad) bn->grad -= cn->grad;
    };
  }
  return c;
}

Var hadamard(Var a, Var b) {
  Tape* t = common_tape(a, b);
  assert(a.value().same_shape(b.value()));
  la::Mat out = la::hadamard(a.value(), b.value());
  Node* an = a.node();
  Node* bn = b.node();
  const bool rg = an->requires_grad || bn->requires_grad;
  Var c = t->make(std::move(out), rg, nullptr);
  if (rg) {
    Node* cn = c.node();
    cn->pullback = [an, bn, cn] {
      if (an->requires_grad) an->grad += la::hadamard(cn->grad, bn->val);
      if (bn->requires_grad) bn->grad += la::hadamard(cn->grad, an->val);
    };
  }
  return c;
}

Var hadamard_const(Var a, const la::Mat& mask) {
  Tape* t = a.tape();
  assert(a.value().same_shape(mask));
  la::Mat out = la::hadamard(a.value(), mask);
  Node* an = a.node();
  const bool rg = an->requires_grad;
  Var c = t->make(std::move(out), rg, nullptr);
  if (rg) {
    Node* cn = c.node();
    la::Mat m = mask;
    cn->pullback = [an, cn, m] { an->grad += la::hadamard(cn->grad, m); };
  }
  return c;
}

Var scale(Var a, double s) {
  Tape* t = a.tape();
  la::Mat out = a.value();
  out *= s;
  Node* an = a.node();
  const bool rg = an->requires_grad;
  Var c = t->make(std::move(out), rg, nullptr);
  if (rg) {
    Node* cn = c.node();
    cn->pullback = [an, cn, s] {
      la::Mat g = cn->grad;
      g *= s;
      an->grad += g;
    };
  }
  return c;
}

Var add_scalar(Var a, double s) {
  Tape* t = a.tape();
  la::Mat out = a.value();
  for (int r = 0; r < out.rows(); ++r) {
    for (int c = 0; c < out.cols(); ++c) out(r, c) += s;
  }
  Node* an = a.node();
  const bool rg = an->requires_grad;
  Var c = t->make(std::move(out), rg, nullptr);
  if (rg) {
    Node* cn = c.node();
    cn->pullback = [an, cn] { an->grad += cn->grad; };
  }
  return c;
}

Var add_row_broadcast(Var m, Var row) {
  Tape* t = common_tape(m, row);
  assert(row.rows() == 1 && row.cols() == m.cols());
  la::Mat out = m.value();
  for (int r = 0; r < out.rows(); ++r) {
    for (int c = 0; c < out.cols(); ++c) out(r, c) += row.value()(0, c);
  }
  Node* mn = m.node();
  Node* rn = row.node();
  const bool rg = mn->requires_grad || rn->requires_grad;
  Var c = t->make(std::move(out), rg, nullptr);
  if (rg) {
    Node* cn = c.node();
    cn->pullback = [mn, rn, cn] {
      if (mn->requires_grad) mn->grad += cn->grad;
      if (rn->requires_grad) {
        for (int r = 0; r < cn->grad.rows(); ++r) {
          for (int col = 0; col < cn->grad.cols(); ++col) {
            rn->grad(0, col) += cn->grad(r, col);
          }
        }
      }
    };
  }
  return c;
}

Var relu(Var a) {
  Tape* t = a.tape();
  la::Mat out = a.value();
  for (int r = 0; r < out.rows(); ++r) {
    for (int c = 0; c < out.cols(); ++c) {
      if (out(r, c) < 0.0) out(r, c) = 0.0;
    }
  }
  Node* an = a.node();
  const bool rg = an->requires_grad;
  Var c = t->make(std::move(out), rg, nullptr);
  if (rg) {
    Node* cn = c.node();
    cn->pullback = [an, cn] {
      for (int r = 0; r < cn->grad.rows(); ++r) {
        for (int col = 0; col < cn->grad.cols(); ++col) {
          if (an->val(r, col) > 0.0) an->grad(r, col) += cn->grad(r, col);
        }
      }
    };
  }
  return c;
}

Var tanh_(Var a) {
  Tape* t = a.tape();
  la::Mat out = a.value();
  for (int r = 0; r < out.rows(); ++r) {
    for (int c = 0; c < out.cols(); ++c) out(r, c) = std::tanh(out(r, c));
  }
  Node* an = a.node();
  const bool rg = an->requires_grad;
  Var c = t->make(std::move(out), rg, nullptr);
  if (rg) {
    Node* cn = c.node();
    cn->pullback = [an, cn] {
      for (int r = 0; r < cn->grad.rows(); ++r) {
        for (int col = 0; col < cn->grad.cols(); ++col) {
          const double y = cn->val(r, col);
          an->grad(r, col) += cn->grad(r, col) * (1.0 - y * y);
        }
      }
    };
  }
  return c;
}

Var sigmoid(Var a) {
  Tape* t = a.tape();
  la::Mat out = a.value();
  for (int r = 0; r < out.rows(); ++r) {
    for (int c = 0; c < out.cols(); ++c) {
      out(r, c) = 1.0 / (1.0 + std::exp(-out(r, c)));
    }
  }
  Node* an = a.node();
  const bool rg = an->requires_grad;
  Var c = t->make(std::move(out), rg, nullptr);
  if (rg) {
    Node* cn = c.node();
    cn->pullback = [an, cn] {
      for (int r = 0; r < cn->grad.rows(); ++r) {
        for (int col = 0; col < cn->grad.cols(); ++col) {
          const double y = cn->val(r, col);
          an->grad(r, col) += cn->grad(r, col) * y * (1.0 - y);
        }
      }
    };
  }
  return c;
}

Var mean_all(Var a) {
  Tape* t = a.tape();
  const double n = static_cast<double>(a.value().size());
  double acc = 0.0;
  for (int r = 0; r < a.rows(); ++r) {
    for (int c = 0; c < a.cols(); ++c) acc += a.value()(r, c);
  }
  la::Mat out(1, 1);
  out(0, 0) = n > 0 ? acc / n : 0.0;
  Node* an = a.node();
  const bool rg = an->requires_grad;
  Var c = t->make(std::move(out), rg, nullptr);
  if (rg) {
    Node* cn = c.node();
    cn->pullback = [an, cn, n] {
      const double g = cn->grad(0, 0) / n;
      for (int r = 0; r < an->grad.rows(); ++r) {
        for (int col = 0; col < an->grad.cols(); ++col) an->grad(r, col) += g;
      }
    };
  }
  return c;
}

Var sum_all(Var a) {
  Tape* t = a.tape();
  double acc = 0.0;
  for (int r = 0; r < a.rows(); ++r) {
    for (int c = 0; c < a.cols(); ++c) acc += a.value()(r, c);
  }
  la::Mat out(1, 1);
  out(0, 0) = acc;
  Node* an = a.node();
  const bool rg = an->requires_grad;
  Var c = t->make(std::move(out), rg, nullptr);
  if (rg) {
    Node* cn = c.node();
    cn->pullback = [an, cn] {
      const double g = cn->grad(0, 0);
      for (int r = 0; r < an->grad.rows(); ++r) {
        for (int col = 0; col < an->grad.cols(); ++col) an->grad(r, col) += g;
      }
    };
  }
  return c;
}

Var mse_const(Var a, const la::Mat& target) {
  Tape* t = a.tape();
  assert(a.value().same_shape(target));
  const double n = static_cast<double>(a.value().size());
  double acc = 0.0;
  for (int r = 0; r < a.rows(); ++r) {
    for (int c = 0; c < a.cols(); ++c) {
      const double d = a.value()(r, c) - target(r, c);
      acc += d * d;
    }
  }
  la::Mat out(1, 1);
  out(0, 0) = n > 0 ? acc / n : 0.0;
  Node* an = a.node();
  const bool rg = an->requires_grad;
  Var c = t->make(std::move(out), rg, nullptr);
  if (rg) {
    Node* cn = c.node();
    la::Mat tgt = target;
    cn->pullback = [an, cn, tgt, n] {
      const double g = 2.0 * cn->grad(0, 0) / n;
      for (int r = 0; r < an->grad.rows(); ++r) {
        for (int col = 0; col < an->grad.cols(); ++col) {
          an->grad(r, col) += g * (an->val(r, col) - tgt(r, col));
        }
      }
    };
  }
  return c;
}

Var concat_cols(Var a, Var b) {
  Tape* t = common_tape(a, b);
  assert(a.rows() == b.rows());
  la::Mat out(a.rows(), a.cols() + b.cols());
  for (int r = 0; r < a.rows(); ++r) {
    for (int c = 0; c < a.cols(); ++c) out(r, c) = a.value()(r, c);
    for (int c = 0; c < b.cols(); ++c) out(r, a.cols() + c) = b.value()(r, c);
  }
  Node* an = a.node();
  Node* bn = b.node();
  const bool rg = an->requires_grad || bn->requires_grad;
  Var c = t->make(std::move(out), rg, nullptr);
  if (rg) {
    Node* cn = c.node();
    const int ac = a.cols();
    cn->pullback = [an, bn, cn, ac] {
      if (an->requires_grad) {
        for (int r = 0; r < an->grad.rows(); ++r) {
          for (int col = 0; col < ac; ++col) {
            an->grad(r, col) += cn->grad(r, col);
          }
        }
      }
      if (bn->requires_grad) {
        for (int r = 0; r < bn->grad.rows(); ++r) {
          for (int col = 0; col < bn->grad.cols(); ++col) {
            bn->grad(r, col) += cn->grad(r, ac + col);
          }
        }
      }
    };
  }
  return c;
}

}  // namespace gcnrl::ag
