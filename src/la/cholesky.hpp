// Cholesky factorization of symmetric positive-definite matrices.
//
// Used by the Gaussian-process surrogate in the Bayesian-optimization
// baselines (kernel matrices are SPD after jitter). The factor lives in
// packed storage: the lower triangle, row by row, so element (i, j),
// j <= i, sits at packed_index(i, j) and an order-n factor takes
// packed_size(n) = n(n+1)/2 doubles. The routines work on the caller's
// buffer and allocate nothing.
#pragma once

#include <cstddef>
#include <span>
#include <stdexcept>

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
// of the order-n matrix A, on return that of L. Row i is built 4 elements
// per pass over its prefix, but every element subtracts its products in
// ascending column order, exactly as the textbook row-by-row loop does, so
// L is bit-identical to it. Throws NotPositiveDefiniteError if A is not
// SPD (`a` is then partly overwritten).
void cholesky_factor(std::span<double> a, int n);

// Solves L Y = B in place for `width` right-hand sides: B is n x width,
// row-major, so column c is b[c], b[width + c], ... Every element takes
// its products in ascending column order, as the textbook single-vector
// forward substitution does, so each column is bit-identical to solving
// it alone. Several columns vectorize across the lanes of a row; one
// column advances 4 rows per pass over their shared prefix.
void cholesky_solve_lower(std::span<const double> l, std::span<double> b,
                          int width = 1);

// Solves A x = L L^T x = b in place.
void cholesky_solve(std::span<const double> l, std::span<double> b);

// log |A| = 2 * sum(log diag(L)); needed for GP marginal likelihood.
[[nodiscard]] double cholesky_log_det(std::span<const double> l, int n);

}  // namespace gcnrl::la
