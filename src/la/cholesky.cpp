#include "la/cholesky.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

namespace gcnrl::la {
namespace {

// Rows per panel of cholesky_factor.
constexpr int kPanel = 4;

// Orders up to which cholesky_factor keeps its panel buffer on the stack
// (12.6 KB): BayesOpt's and MACE's GP training-set cap, max_gp_points.
constexpr int kStackOrder = 400;

// One double per row of a panel. Values of this type stay inside the
// always-inline bodies: a baseline-compiled function that passed or
// returned one would not match the AVX2 ABI (-Wpsabi).
using PanelLanes = double __attribute__((vector_size(kPanel * sizeof(double))));

// One column of a panel in the panel buffer. The explicit alignment keeps
// the allocation and the AVX2 copy's aligned loads in agreement: the
// vector type alone is aligned to 16 bytes for the baseline target, where
// the buffer is allocated, but to 32 inside the AVX2 copy.
struct alignas(sizeof(PanelLanes)) PanelColumn {
  PanelLanes v;
};

// The bodies of the three routines (see detail::CholeskyKernels). Both
// copies below inline them, so each is vectorized for its own target.

[[gnu::always_inline]] inline void factor_body(std::span<double> a, int n) {
  if (n < 0 || a.size() != packed_size(static_cast<std::size_t>(n))) {
    throw std::invalid_argument("cholesky_factor: buffer is not n(n+1)/2");
  }
  double* const base = a.data();
  // t[k].v[r] = L(i0 + r, k) for the panel of rows i0..i0+3: k-major, so a
  // column's four elements are one vector. Each panel writes, before any
  // read, its rows' prefixes and zeros past each row's diagonal and in the
  // lanes of rows past n - 1. The buffer lives on the stack up to order
  // kStackOrder: an over-aligned heap block per call leaves fragments in
  // the allocator's bins between the GP's triangles and raises a BO run's
  // peak RSS.
  PanelColumn stack_t[kStackOrder + kPanel - 1];
  std::vector<PanelColumn> heap_t;
  PanelColumn* t = stack_t;
  if (n > kStackOrder) {
    heap_t.resize(static_cast<std::size_t>(n) + kPanel - 1);
    t = heap_t.data();
  }
  for (int i0 = 0; i0 < n; i0 += kPanel) {
    const int rows = std::min(kPanel, n - i0);
    for (int r = 0; r < kPanel; ++r) {
      int k = 0;
      if (r < rows) {
        const double* const src = base + packed_index(i0 + r, 0);
        for (; k <= i0 + r; ++k) t[k].v[r] = src[k];
      }
      for (; k < i0 + kPanel; ++k) t[k].v[r] = 0.0;
    }
    // Columns j0..j0+3 of each finished block, for the four rows at once:
    // the shared prefix k < j0, then the small triangle k = j0..j0+2 in
    // order.
    for (int j0 = 0; j0 < i0; j0 += kPanel) {
      const double* const l0 = base + packed_index(j0, 0);
      const double* const l1 = l0 + (j0 + 1);
      const double* const l2 = l1 + (j0 + 2);
      const double* const l3 = l2 + (j0 + 3);
      PanelLanes s0 = t[j0].v;
      PanelLanes s1 = t[j0 + 1].v;
      PanelLanes s2 = t[j0 + 2].v;
      PanelLanes s3 = t[j0 + 3].v;
      for (int k = 0; k < j0; ++k) {
        const PanelLanes v = t[k].v;
        s0 -= v * l0[k];
        s1 -= v * l1[k];
        s2 -= v * l2[k];
        s3 -= v * l3[k];
      }
      t[j0].v = s0 / l0[j0];
      s1 -= t[j0].v * l1[j0];
      t[j0 + 1].v = s1 / l1[j0 + 1];
      s2 -= t[j0].v * l2[j0];
      s2 -= t[j0 + 1].v * l2[j0 + 1];
      t[j0 + 2].v = s2 / l2[j0 + 2];
      s3 -= t[j0].v * l3[j0];
      s3 -= t[j0 + 1].v * l3[j0 + 1];
      s3 -= t[j0 + 2].v * l3[j0 + 2];
      t[j0 + 3].v = s3 / l3[j0 + 3];
    }
    // The panel's own 4x4 triangle: the prefix k < i0 for the four rows at
    // once (lanes past a row's diagonal are computed and never read) ...
    PanelLanes s0 = t[i0].v;
    PanelLanes s1 = t[i0 + 1].v;
    PanelLanes s2 = t[i0 + 2].v;
    PanelLanes s3 = t[i0 + 3].v;
    for (int k = 0; k < i0; ++k) {
      const PanelLanes v = t[k].v;
      s0 -= v * v[0];
      s1 -= v * v[1];
      s2 -= v * v[2];
      s3 -= v * v[3];
    }
    t[i0].v = s0;
    t[i0 + 1].v = s1;
    t[i0 + 2].v = s2;
    t[i0 + 3].v = s3;
    // ... then the in-panel terms k = i0..j-1, row by row.
    for (int r = 0; r < rows; ++r) {
      for (int b = 0; b < r; ++b) {
        double s = t[i0 + b].v[r];
        for (int k = i0; k < i0 + b; ++k) s -= t[k].v[r] * t[k].v[b];
        t[i0 + b].v[r] = s / t[i0 + b].v[b];
      }
      double s = t[i0 + r].v[r];
      for (int k = i0; k < i0 + r; ++k) s -= t[k].v[r] * t[k].v[r];
      if (s <= 0.0 || !std::isfinite(s)) throw NotPositiveDefiniteError{};
      t[i0 + r].v[r] = std::sqrt(s);
    }
    for (int r = 0; r < rows; ++r) {
      double* const dst = base + packed_index(i0 + r, 0);
      for (int k = 0; k <= i0 + r; ++k) dst[k] = t[k].v[r];
    }
  }
}

// Columns per block of the several-column forward substitution: one block
// spans GaussianProcess::kBlock candidates.
constexpr std::size_t kSolveBlock = 32;

// Columns c0..c0+m-1 (m <= kSolveBlock) of row i of L Y = B. Their sums
// stay in a local block while j runs over the row's prefix in ascending
// order, so B's row i is read and written once per block.
[[gnu::always_inline]] inline void solve_lower_columns(const double* li,
                                                       std::size_t i,
                                                       double* bp,
                                                       std::size_t w,
                                                       std::size_t c0,
                                                       std::size_t m) {
  double* const bi = bp + i * w + c0;
  double acc[kSolveBlock];
  for (std::size_t c = 0; c < m; ++c) acc[c] = bi[c];
  for (std::size_t j = 0; j < i; ++j) {
    const double lij = li[j];
    const double* const bj = bp + j * w + c0;
    for (std::size_t c = 0; c < m; ++c) acc[c] -= lij * bj[c];
  }
  for (std::size_t c = 0; c < m; ++c) bi[c] = acc[c] / li[i];
}

[[gnu::always_inline]] inline void solve_lower_body(std::span<const double> l,
                                                    std::span<double> b,
                                                    int width) {
  const std::size_t w = static_cast<std::size_t>(width);
  const std::size_t n = b.size() / w;
  const double* const lp = l.data();
  double* const bp = b.data();
  if (w > 1) {
    // Row by row, the columns in blocks: the lanes run across independent
    // columns.
    for (std::size_t i = 0; i < n; ++i) {
      const double* const li = lp + packed_index(i, 0);
      std::size_t c0 = 0;
      for (; c0 + kSolveBlock <= w; c0 += kSolveBlock) {
        solve_lower_columns(li, i, bp, w, c0, kSolveBlock);
      }
      if (c0 < w) solve_lower_columns(li, i, bp, w, c0, w - c0);
    }
    return;
  }
  // One vector: four rows per pass over the shared prefix j < i, then the
  // small triangle j = i..i+2 in order.
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

[[gnu::always_inline]] inline void solve_body(std::span<const double> l,
                                              std::span<double> b) {
  solve_lower_body(l, b, 1);
  const std::size_t n = b.size();
  for (std::size_t i = n; i-- > 0;) {
    for (std::size_t j = i + 1; j < n; ++j) b[i] -= l[packed_index(j, i)] * b[j];
    b[i] /= l[packed_index(i, i)];
  }
}

void factor_baseline(std::span<double> a, int n) { factor_body(a, n); }
void solve_lower_baseline(std::span<const double> l, std::span<double> b,
                          int width) {
  solve_lower_body(l, b, width);
}
void solve_baseline(std::span<const double> l, std::span<double> b) {
  solve_body(l, b);
}

#ifdef GCNRL_LA_AVX2_ROW_KERNEL
// With the row kernel in la/matrix.cpp, the only code in the library built
// for an instruction set above the target's baseline. target("avx2")
// enables no FMA, so these copies round as the baseline ones do.
[[gnu::target("avx2")]] void factor_avx2(std::span<double> a, int n) {
  factor_body(a, n);
}
[[gnu::target("avx2")]] void solve_lower_avx2(std::span<const double> l,
                                              std::span<double> b, int width) {
  solve_lower_body(l, b, width);
}
[[gnu::target("avx2")]] void solve_avx2(std::span<const double> l,
                                        std::span<double> b) {
  solve_body(l, b);
}
#endif

const detail::CholeskyKernels& pick_kernels() {
#ifdef GCNRL_LA_AVX2_ROW_KERNEL
  if (detail::cpu_has_avx2()) return detail::cholesky_avx2;
#endif
  return detail::cholesky_baseline;
}

// The copies for this CPU, chosen on first use.
const detail::CholeskyKernels& kernels() {
  static const detail::CholeskyKernels& chosen = pick_kernels();
  return chosen;
}

}  // namespace

namespace detail {

const CholeskyKernels cholesky_baseline = {factor_baseline,
                                           solve_lower_baseline,
                                           solve_baseline};
#ifdef GCNRL_LA_AVX2_ROW_KERNEL
const CholeskyKernels cholesky_avx2 = {factor_avx2, solve_lower_avx2,
                                       solve_avx2};
#endif

}  // namespace detail

void cholesky_factor(std::span<double> a, int n) { kernels().factor(a, n); }

void cholesky_solve_lower(std::span<const double> l, std::span<double> b,
                          int width) {
  kernels().solve_lower(l, b, width);
}

void cholesky_solve(std::span<const double> l, std::span<double> b) {
  kernels().solve(l, b);
}

double cholesky_log_det(std::span<const double> l, int n) {
  double acc = 0.0;
  for (int i = 0; i < n; ++i) acc += std::log(l[packed_index(i, i)]);
  return 2.0 * acc;
}

}  // namespace gcnrl::la
