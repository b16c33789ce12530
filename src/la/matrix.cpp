#include "la/matrix.hpp"

#include <cmath>

namespace gcnrl::la {
namespace {

// Output columns per register block: one block spans the agent's hidden
// width (32). On AVX2 its sums fill eight of the sixteen ymm registers; on
// baseline x86-64 they would need all sixteen xmm registers, so two of
// them live on the stack.
constexpr int kMatmulBlock = 32;

// The one body of the row kernel (see detail::matmul_row_baseline). Both
// copies below inline it, so each is vectorized for its own target.
[[gnu::always_inline]] inline void matmul_row_body(
    const double* a, std::size_t a_stride, int k_dim, const Mat& b,
    double* ci, bool accumulate) {
  const int m = b.cols();
  const double* b0 = b.data();
  const auto ldb = static_cast<std::size_t>(m);
  int j0 = 0;
  for (; j0 + kMatmulBlock <= m; j0 += kMatmulBlock) {
    double acc[kMatmulBlock] = {};
    for (int k = 0; k < k_dim; ++k) {
      const double aik = a[k * a_stride];
      if (aik == 0.0) continue;
      const double* __restrict bk = b0 + k * ldb + j0;
      for (int j = 0; j < kMatmulBlock; ++j) acc[j] += aik * bk[j];
    }
    double* __restrict cj = ci + j0;
    if (accumulate) {
      for (int j = 0; j < kMatmulBlock; ++j) cj[j] += acc[j];
    } else {
      for (int j = 0; j < kMatmulBlock; ++j) cj[j] = acc[j];
    }
  }
  if (j0 == m) return;
  double acc[kMatmulBlock] = {};
  for (int k = 0; k < k_dim; ++k) {
    const double aik = a[k * a_stride];
    if (aik == 0.0) continue;
    const double* __restrict bk = b0 + k * ldb + j0;
    for (int j = 0; j < m - j0; ++j) acc[j] += aik * bk[j];
  }
  for (int j = 0; j < m - j0; ++j) {
    ci[j0 + j] = accumulate ? ci[j0 + j] + acc[j] : acc[j];
  }
}

detail::MatmulRow pick_row_kernel() {
#ifdef GCNRL_LA_AVX2_ROW_KERNEL
  if (detail::cpu_has_avx2()) return detail::matmul_row_avx2;
#endif
  return detail::matmul_row_baseline;
}

// The row kernel for this CPU, chosen on first use.
detail::MatmulRow row_kernel() {
  static const detail::MatmulRow kernel = pick_row_kernel();
  return kernel;
}

}  // namespace

namespace detail {

void matmul_row_baseline(const double* a, std::size_t a_stride, int k_dim,
                         const Mat& b, double* ci, bool accumulate) {
  matmul_row_body(a, a_stride, k_dim, b, ci, accumulate);
}

#ifdef GCNRL_LA_AVX2_ROW_KERNEL
// With the Cholesky copies in la/cholesky.cpp, the only code in the library
// built for an instruction set above the target's baseline. target("avx2")
// enables no FMA, so this copy rounds as the baseline one does.
[[gnu::target("avx2")]] void matmul_row_avx2(const double* a,
                                             std::size_t a_stride, int k_dim,
                                             const Mat& b, double* ci,
                                             bool accumulate) {
  matmul_row_body(a, a_stride, k_dim, b, ci, accumulate);
}

bool cpu_has_avx2() {
  // Initialize the CPU model first in case this runs before libgcc's own
  // constructor does (from another static initializer).
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") != 0;
}
#endif

}  // namespace detail

void matmul(const Mat& a, const Mat& b, Mat& c, bool accumulate) {
  assert(a.cols() == b.rows());
  assert(c.rows() == a.rows() && c.cols() == b.cols());
  const detail::MatmulRow row = row_kernel();
  for (int i = 0; i < a.rows(); ++i) {
    row(a.row_ptr(i), 1, a.cols(), b, c.row_ptr(i), accumulate);
  }
}

void matmul_tn(const Mat& a, const Mat& b, Mat& c, bool accumulate) {
  assert(a.rows() == b.rows());
  assert(c.rows() == a.cols() && c.cols() == b.cols());
  const detail::MatmulRow row = row_kernel();
  const auto stride = static_cast<std::size_t>(a.cols());
  for (int i = 0; i < a.cols(); ++i) {
    row(a.data() + i, stride, a.rows(), b, c.row_ptr(i), accumulate);
  }
}

double frobenius_norm(const Mat& m) {
  double acc = 0.0;
  for (int r = 0; r < m.rows(); ++r) {
    for (int c = 0; c < m.cols(); ++c) acc += m(r, c) * m(r, c);
  }
  return std::sqrt(acc);
}

double max_abs(const Mat& m) {
  double acc = 0.0;
  for (int r = 0; r < m.rows(); ++r) {
    for (int c = 0; c < m.cols(); ++c) acc = std::max(acc, std::abs(m(r, c)));
  }
  return acc;
}

bool all_finite(const Mat& m) {
  for (int r = 0; r < m.rows(); ++r) {
    for (int c = 0; c < m.cols(); ++c) {
      if (!std::isfinite(m(r, c))) return false;
    }
  }
  return true;
}

}  // namespace gcnrl::la
