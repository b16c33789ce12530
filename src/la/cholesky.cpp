#include "la/cholesky.hpp"

#include <cmath>

namespace gcnrl::la {

void cholesky_factor(std::span<double> a, int n) {
  if (n < 0 || a.size() != packed_size(static_cast<std::size_t>(n))) {
    throw std::invalid_argument("cholesky_factor: buffer is not n(n+1)/2");
  }
  double* const base = a.data();
  for (int i = 0; i < n; ++i) {
    double* const li = base + packed_index(i, 0);
    int j = 0;
    // Four elements L(i, j..j+3) per pass: the shared prefix k < j runs
    // once for all four, then the small triangle k = j..j+2 in order.
    for (; j + 4 <= i; j += 4) {
      const double* const l0 = base + packed_index(j, 0);
      const double* const l1 = l0 + (j + 1);
      const double* const l2 = l1 + (j + 2);
      const double* const l3 = l2 + (j + 3);
      double s0 = li[j];
      double s1 = li[j + 1];
      double s2 = li[j + 2];
      double s3 = li[j + 3];
      for (int k = 0; k < j; ++k) {
        const double v = li[k];
        s0 -= v * l0[k];
        s1 -= v * l1[k];
        s2 -= v * l2[k];
        s3 -= v * l3[k];
      }
      li[j] = s0 / l0[j];
      s1 -= li[j] * l1[j];
      li[j + 1] = s1 / l1[j + 1];
      s2 -= li[j] * l2[j];
      s2 -= li[j + 1] * l2[j + 1];
      li[j + 2] = s2 / l2[j + 2];
      s3 -= li[j] * l3[j];
      s3 -= li[j + 1] * l3[j + 1];
      s3 -= li[j + 2] * l3[j + 2];
      li[j + 3] = s3 / l3[j + 3];
    }
    for (; j < i; ++j) {
      const double* const lj = base + packed_index(j, 0);
      double s = li[j];
      for (int k = 0; k < j; ++k) s -= li[k] * lj[k];
      li[j] = s / lj[j];
    }
    double s = li[i];
    for (int k = 0; k < i; ++k) s -= li[k] * li[k];
    if (s <= 0.0 || !std::isfinite(s)) throw NotPositiveDefiniteError{};
    li[i] = std::sqrt(s);
  }
}

void cholesky_solve_lower(std::span<const double> l, std::span<double> b,
                          int width) {
  const std::size_t w = static_cast<std::size_t>(width);
  const std::size_t n = b.size() / w;
  const double* const lp = l.data();
  double* const bp = b.data();
  if (w > 1) {
    // Row i takes its products in ascending j, four per pass over the
    // row's independent lanes.
    for (std::size_t i = 0; i < n; ++i) {
      const double* const li = lp + packed_index(i, 0);
      double* const bi = bp + i * w;
      std::size_t j = 0;
      for (; j + 4 <= i; j += 4) {
        const double l0 = li[j], l1 = li[j + 1], l2 = li[j + 2], l3 = li[j + 3];
        const double* const b0 = bp + j * w;
        const double* const b1 = b0 + w;
        const double* const b2 = b1 + w;
        const double* const b3 = b2 + w;
        for (std::size_t c = 0; c < w; ++c) {
          bi[c] = (((bi[c] - l0 * b0[c]) - l1 * b1[c]) - l2 * b2[c]) -
                  l3 * b3[c];
        }
      }
      for (; j < i; ++j) {
        const double lij = li[j];
        const double* const bj = bp + j * w;
        for (std::size_t c = 0; c < w; ++c) bi[c] -= lij * bj[c];
      }
      for (std::size_t c = 0; c < w; ++c) bi[c] /= li[i];
    }
    return;
  }
  // One vector: four rows per pass over the shared prefix j < i, then the
  // small triangle j = i..i+2 in order, as in cholesky_factor.
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double* const l0 = lp + packed_index(i, 0);
    const double* const l1 = l0 + (i + 1);
    const double* const l2 = l1 + (i + 2);
    const double* const l3 = l2 + (i + 3);
    double s0 = bp[i];
    double s1 = bp[i + 1];
    double s2 = bp[i + 2];
    double s3 = bp[i + 3];
    for (std::size_t j = 0; j < i; ++j) {
      const double v = bp[j];
      s0 -= l0[j] * v;
      s1 -= l1[j] * v;
      s2 -= l2[j] * v;
      s3 -= l3[j] * v;
    }
    bp[i] = s0 / l0[i];
    s1 -= l1[i] * bp[i];
    bp[i + 1] = s1 / l1[i + 1];
    s2 -= l2[i] * bp[i];
    s2 -= l2[i + 1] * bp[i + 1];
    bp[i + 2] = s2 / l2[i + 2];
    s3 -= l3[i] * bp[i];
    s3 -= l3[i + 1] * bp[i + 1];
    s3 -= l3[i + 2] * bp[i + 2];
    bp[i + 3] = s3 / l3[i + 3];
  }
  for (; i < n; ++i) {
    const double* const li = lp + packed_index(i, 0);
    double s = bp[i];
    for (std::size_t j = 0; j < i; ++j) s -= li[j] * bp[j];
    bp[i] = s / li[i];
  }
}

void cholesky_solve(std::span<const double> l, std::span<double> b) {
  cholesky_solve_lower(l, b);
  const std::size_t n = b.size();
  for (std::size_t i = n; i-- > 0;) {
    for (std::size_t j = i + 1; j < n; ++j) b[i] -= l[packed_index(j, i)] * b[j];
    b[i] /= l[packed_index(i, i)];
  }
}

double cholesky_log_det(std::span<const double> l, int n) {
  double acc = 0.0;
  for (int i = 0; i < n; ++i) acc += std::log(l[packed_index(i, i)]);
  return 2.0 * acc;
}

}  // namespace gcnrl::la
