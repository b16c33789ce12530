// Cholesky factorization of symmetric positive-definite matrices.
//
// Used by the Gaussian-process surrogate in the Bayesian-optimization
// baselines (kernel matrices are SPD after jitter). The factor lives in
// packed storage: the lower triangle, row by row, so element (i, j),
// j <= i, sits at packed_index(i, j) and an order-n factor takes
// packed_size(n) = n(n+1)/2 doubles. The routines work on the caller's
// buffer; cholesky_factor also takes a panel buffer of 4(n+3) doubles per
// call, on the stack up to order 400 (the GP's training-set cap) and from
// the heap above it.
#pragma once

#include <cstddef>
#include <span>
#include <stdexcept>

#include "la/matrix.hpp"

namespace gcnrl::la {

struct NotPositiveDefiniteError : std::runtime_error {
  NotPositiveDefiniteError()
      : std::runtime_error("Cholesky: matrix is not positive definite") {}
};

constexpr std::size_t packed_index(std::size_t i, std::size_t j) {
  return i * (i + 1) / 2 + j;
}
constexpr std::size_t packed_size(std::size_t n) { return n * (n + 1) / 2; }

// Factors A = L L^T in place: on entry `a` holds the packed lower triangle
// of the order-n matrix A, on return that of L. L is built in panels of
// four rows i0..i0+3. The panel's row prefixes are copied into a k-major
// buffer, so that column k of the panel is one vector whose lanes are the
// four rows. Each finished 4-row block j0 < i0 then gives the panel its
// four columns j0..j0+3 at once (the shared prefix k < j0, then the
// block's small triangle in order); the panel's own triangle takes its
// prefix k < i0 the same way and its in-panel terms one row at a time;
// and the panel is written back. Every element still subtracts its
// products in ascending column order,
//   L(i, j) = (A(i, j) - sum_{k<j} L(i, k) L(j, k)) / L(j, j),
// exactly as the textbook row-by-row loop does, so L is bit-identical to
// it. Throws NotPositiveDefiniteError at the first row, in row order,
// whose pivot is not positive and finite (`a` is then partly
// overwritten).
void cholesky_factor(std::span<double> a, int n);

// Solves L Y = B in place for `width` right-hand sides: B is n x width,
// row-major, so column c is b[c], b[width + c], ... Every element takes
// its products in ascending column order, as the textbook single-vector
// forward substitution does, so each column is bit-identical to solving
// it alone. Several columns run row by row in blocks of 32 columns, the
// lanes across the columns; one column advances 4 rows per pass over
// their shared prefix.
void cholesky_solve_lower(std::span<const double> l, std::span<double> b,
                          int width = 1);

// Solves A x = L L^T x = b in place.
void cholesky_solve(std::span<const double> l, std::span<double> b);

// log |A| = 2 * sum(log diag(L)); needed for GP marginal likelihood.
[[nodiscard]] double cholesky_log_det(std::span<const double> l, int n);

namespace detail {

// cholesky_factor, cholesky_solve_lower and cholesky_solve are each built
// from one body twice, as la::matmul's row kernel is (la/matrix.hpp):
// cholesky_baseline for the target's baseline instruction set and, where
// GCNRL_LA_AVX2_ROW_KERNEL is defined, cholesky_avx2 for AVX2. AVX2 brings
// no FMA, and no translation unit contracts a*b+c, so every product,
// difference and quotient rounds as in the baseline copy: the two agree
// bit for bit. The functions above call the AVX2 copy when the CPU has
// AVX2 (checked once per process).
struct CholeskyKernels {
  void (*factor)(std::span<double> a, int n);
  void (*solve_lower)(std::span<const double> l, std::span<double> b,
                      int width);
  void (*solve)(std::span<const double> l, std::span<double> b);
};

extern const CholeskyKernels cholesky_baseline;
#ifdef GCNRL_LA_AVX2_ROW_KERNEL
// Call only where cpu_has_avx2().
extern const CholeskyKernels cholesky_avx2;
#endif

}  // namespace detail

}  // namespace gcnrl::la
