// Unit tests for the dense linear-algebra substrate.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <complex>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "la/cholesky.hpp"
#include "la/lu.hpp"
#include "la/matrix.hpp"
#include "la/sparse.hpp"
#include "la/stats.hpp"

namespace la = gcnrl::la;
using gcnrl::Rng;

namespace {

la::Mat random_mat(int r, int c, Rng& rng, double scale = 1.0) {
  la::Mat m(r, c);
  for (int i = 0; i < r; ++i) {
    for (int j = 0; j < c; ++j) m(i, j) = rng.uniform(-scale, scale);
  }
  return m;
}

// Random structurally-symmetric sparse system (MNA-like: full diagonal,
// symmetric off-diagonal pattern, diagonally dominant-ish values) plus
// its dense mirror for reference solves.
struct SparseSys {
  la::SparsePattern pattern;
  std::vector<double> vals;
  la::Mat dense;
};

SparseSys random_sparse_system(int n, Rng& rng) {
  std::vector<std::pair<int, int>> coords;
  for (int i = 0; i < n; ++i) coords.emplace_back(i, i);
  for (int i = 0; i < n; ++i) {
    for (int k = 0; k < 3; ++k) {
      const int j = static_cast<int>(rng.uniform_index(n));
      if (j == i) continue;
      coords.emplace_back(i, j);
      coords.emplace_back(j, i);
    }
  }
  SparseSys s;
  s.pattern = la::SparsePattern::from_coords(n, std::move(coords));
  s.vals.assign(s.pattern.nnz(), 0.0);
  s.dense = la::Mat(n, n);
  for (int r = 0; r < n; ++r) {
    for (int e = s.pattern.row_ptr[r]; e < s.pattern.row_ptr[r + 1]; ++e) {
      const int c = s.pattern.col_idx[e];
      double v = rng.uniform(-1.0, 1.0);
      if (r == c) v += 4.0;
      s.vals[e] = v;
      s.dense(r, c) = v;
    }
  }
  return s;
}

// Row-major packed lower triangle of a square matrix (la/cholesky.hpp).
std::vector<double> packed_lower(const la::Mat& a) {
  std::vector<double> p;
  for (int i = 0; i < a.rows(); ++i) {
    for (int j = 0; j <= i; ++j) p.push_back(a(i, j));
  }
  return p;
}

}  // namespace

TEST(Matrix, ConstructionAndAccess) {
  la::Mat m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 0) = -2.0;
  EXPECT_DOUBLE_EQ(m(0, 0), -2.0);
}

TEST(Matrix, InitializerList) {
  la::Mat m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
}

TEST(Matrix, IdentityAndArithmetic) {
  la::Mat i = la::Mat::identity(3);
  la::Mat m = i * 2.0;
  m += i;
  EXPECT_DOUBLE_EQ(m(1, 1), 3.0);
  EXPECT_DOUBLE_EQ(m(0, 1), 0.0);
  la::Mat d = m - i;
  EXPECT_DOUBLE_EQ(d(2, 2), 2.0);
}

TEST(Matrix, MatmulAgainstManual) {
  la::Mat a{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  la::Mat b{{7.0, 8.0}, {9.0, 10.0}, {11.0, 12.0}};
  la::Mat c(2, 2);
  la::matmul(a, b, c);
  EXPECT_DOUBLE_EQ(c(0, 0), 58.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 64.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 139.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 154.0);
  la::matmul(a, b, c, /*accumulate=*/true);
  EXPECT_DOUBLE_EQ(c(1, 1), 308.0);
}

TEST(Matrix, MatmulTransposedVariantsAgree) {
  Rng rng(7);
  la::Mat a = random_mat(5, 4, rng);
  la::Mat b = random_mat(5, 3, rng);
  la::Mat c1(4, 3), at(4, 5), c2(4, 3);
  la::matmul_tn(a, b, c1);  // A^T B
  la::transpose(a, at);
  la::matmul(at, b, c2);
  for (int i = 0; i < c1.rows(); ++i) {
    for (int j = 0; j < c1.cols(); ++j) {
      EXPECT_NEAR(c1(i, j), c2(i, j), 1e-12);
    }
  }
  for (int i = 0; i < a.rows(); ++i) {
    for (int j = 0; j < a.cols(); ++j) EXPECT_EQ(at(j, i), a(i, j));
  }
}

namespace {

// Bit-for-bit equal, or both NaN (which NaN payload survives an
// addition of two NaNs depends on operand order, which the compiler may
// swap).
bool same_bits(double x, double y) {
  return (std::isnan(x) && std::isnan(y)) ||
         std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
}

// The i-k-j loop the register-blocked kernels must equal bit for bit:
// C(i, j) summed over k in ascending order from +0, skipping zero A(i, k).
la::Mat ikj_product(const la::Mat& a, const la::Mat& b) {
  la::Mat c(a.rows(), b.cols());
  for (int i = 0; i < a.rows(); ++i) {
    for (int k = 0; k < a.cols(); ++k) {
      if (a(i, k) == 0.0) continue;
      for (int j = 0; j < b.cols(); ++j) c(i, j) += a(i, k) * b(k, j);
    }
  }
  return c;
}

// C(i, j) as the serial dot product of A's row i and B's row j.
la::Mat dot_product_nt(const la::Mat& a, const la::Mat& b) {
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

// Random entries, a third of them +0 or -0, so the zero skip and signed
// zeros are exercised; with `special`, B also holds infinities and NaN.
la::Mat holey_mat(int r, int c, Rng& rng, bool special = false) {
  la::Mat m = random_mat(r, c, rng);
  for (int i = 0; i < r; ++i) {
    for (int j = 0; j < c; ++j) {
      const double u = rng.uniform();
      if (u < 0.17) m(i, j) = 0.0;
      else if (u < 0.33) m(i, j) = -0.0;
      else if (special && u < 0.36) m(i, j) = u < 0.345 ? HUGE_VAL : NAN;
    }
  }
  return m;
}

// C = A B and C = A^T B formed one way: through one row kernel, driven
// row by row as matmul and matmul_tn drive it, or by the dispatched
// matmul and matmul_tn themselves.
struct Products {
  std::string name;
  std::function<void(const la::Mat&, const la::Mat&, la::Mat&, bool)> mul;
  std::function<void(const la::Mat&, const la::Mat&, la::Mat&, bool)> mul_tn;
};

Products row_kernel_products(std::string name, la::detail::MatmulRow row) {
  return {std::move(name),
          [row](const la::Mat& a, const la::Mat& b, la::Mat& c, bool acc) {
            for (int i = 0; i < a.rows(); ++i) {
              row(a.row_ptr(i), 1, a.cols(), b, c.row_ptr(i), acc);
            }
          },
          [row](const la::Mat& a, const la::Mat& b, la::Mat& c, bool acc) {
            const auto stride = static_cast<std::size_t>(a.cols());
            for (int i = 0; i < a.cols(); ++i) {
              row(a.data() + i, stride, a.rows(), b, c.row_ptr(i), acc);
            }
          }};
}

// Blocking over 32 output columns, the tail path, A^T without a copy and
// the accumulate forms all keep each element's summation order, and A B^T
// over the transpose of a finite B equals the serial dot products. Shapes
// (rows x inner x cols of C = A B): 7 x 9 x m for widths around the block
// edges, and the agent's 9 x 32 x 32 (a Linear of width 32), 9 x 9 x 32
// (A-hat H) and 32 x 9 x 32 (A^T B over a 9 x 32 A: a weight gradient).
void expect_matches_ikj_loop(const Products& p) {
  struct Shape {
    int n, k, m;
  };
  std::vector<Shape> shapes;
  for (const int m : {1, 3, 15, 16, 17, 31, 32, 33, 50, 64, 65}) {
    shapes.push_back({7, 9, m});
  }
  shapes.push_back({9, 32, 32});
  shapes.push_back({9, 9, 32});
  shapes.push_back({32, 9, 32});
  Rng rng(11);
  for (const Shape& sh : shapes) {
    const int n = sh.n, k = sh.k, m = sh.m;
    for (const bool special : {false, true}) {
      const la::Mat a = holey_mat(n, k, rng);
      const la::Mat b = holey_mat(k, m, rng, special);
      const la::Mat want = ikj_product(a, b);
      la::Mat got(n, m);
      p.mul(a, b, got, false);
      la::Mat at(k, n);
      la::transpose(a, at);
      la::Mat got_tn(n, m);
      p.mul_tn(at, b, got_tn, false);
      const la::Mat base = holey_mat(n, m, rng);
      la::Mat got_acc = base;
      p.mul(a, b, got_acc, true);
      la::Mat got_tn_acc = base;
      p.mul_tn(at, b, got_tn_acc, true);
      const la::Mat b_rows = holey_mat(m, k, rng);
      const la::Mat want_nt = dot_product_nt(a, b_rows);
      la::Mat b_rows_t(k, m);
      la::transpose(b_rows, b_rows_t);
      la::Mat got_nt = base;
      p.mul(a, b_rows_t, got_nt, true);
      for (int i = 0; i < n; ++i) {
        for (int j = 0; j < m; ++j) {
          const std::string at_ij =
              p.name + " " + std::to_string(n) + "x" + std::to_string(k) +
              "x" + std::to_string(m) + " (" + std::to_string(i) + "," +
              std::to_string(j) + ")";
          EXPECT_TRUE(same_bits(got(i, j), want(i, j))) << at_ij;
          EXPECT_TRUE(same_bits(got_tn(i, j), want(i, j))) << at_ij;
          EXPECT_TRUE(same_bits(got_acc(i, j), base(i, j) + want(i, j)))
              << at_ij;
          EXPECT_TRUE(same_bits(got_tn_acc(i, j), base(i, j) + want(i, j)))
              << at_ij;
          EXPECT_TRUE(same_bits(got_nt(i, j), base(i, j) + want_nt(i, j)))
              << at_ij;
        }
      }
    }
  }
}

}  // namespace

// Both copies of the row kernel, and matmul / matmul_tn with the copy they
// dispatch to on this CPU, against the i-k-j loop.
TEST(Matrix, BlockedKernelsMatchIkjLoopBitwise) {
  expect_matches_ikj_loop({"dispatched", la::matmul, la::matmul_tn});
  expect_matches_ikj_loop(
      row_kernel_products("baseline", la::detail::matmul_row_baseline));
#ifdef GCNRL_LA_AVX2_ROW_KERNEL
  if (!la::detail::cpu_has_avx2()) {
    GTEST_SKIP() << "AVX2 row kernel leg skipped: this CPU has no AVX2";
  }
  expect_matches_ikj_loop(
      row_kernel_products("avx2", la::detail::matmul_row_avx2));
#endif
}

TEST(Matrix, Hadamard) {
  la::Mat a{{1.0, 2.0}, {3.0, 4.0}};
  la::Mat b{{2.0, 0.5}, {1.0, 0.25}};
  la::Mat c = la::hadamard(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 1.0);
}

TEST(Lu, SolvesRandomSystem) {
  Rng rng(42);
  const int n = 12;
  la::Mat a = random_mat(n, n, rng);
  for (int i = 0; i < n; ++i) a(i, i) += 5.0;  // diagonally dominant-ish
  std::vector<double> x_true(n);
  for (auto& v : x_true) v = rng.uniform(-2.0, 2.0);
  std::vector<double> b(n, 0.0);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) b[i] += a(i, j) * x_true[j];
  }
  const auto x = la::solve(a, b);
  for (int i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-9);
}

TEST(Lu, PivotingHandlesZeroDiagonal) {
  la::Mat a{{0.0, 1.0}, {1.0, 0.0}};
  const auto x = la::solve(a, {2.0, 3.0});
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(Lu, ThrowsOnSingular) {
  la::Mat a{{1.0, 2.0}, {2.0, 4.0}};
  EXPECT_THROW(la::Lu<double>{a}, la::SingularMatrixError);
}

TEST(Lu, SolveTransposed) {
  Rng rng(3);
  const int n = 8;
  la::Mat a = random_mat(n, n, rng);
  for (int i = 0; i < n; ++i) a(i, i) += 4.0;
  std::vector<double> b(n);
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);
  la::Lu<double> lu(a);
  const auto x = lu.solve_transposed(b);
  // Check A^T x = b.
  for (int i = 0; i < n; ++i) {
    double acc = 0.0;
    for (int j = 0; j < n; ++j) acc += a(j, i) * x[j];
    EXPECT_NEAR(acc, b[i], 1e-9);
  }
}

TEST(Lu, ComplexSystem) {
  using cd = std::complex<double>;
  la::CMat a(2, 2);
  a(0, 0) = cd(1.0, 1.0);
  a(0, 1) = cd(0.0, -1.0);
  a(1, 0) = cd(2.0, 0.0);
  a(1, 1) = cd(0.0, 2.0);
  std::vector<cd> x_true{cd(1.0, -1.0), cd(0.5, 2.0)};
  std::vector<cd> b(2, cd(0.0));
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 2; ++j) b[i] += a(i, j) * x_true[j];
  }
  const auto x = la::solve(a, b);
  for (int i = 0; i < 2; ++i) {
    EXPECT_NEAR(std::abs(x[i] - x_true[i]), 0.0, 1e-12);
  }
}

TEST(Lu, ComplexConjugateTransposeSolve) {
  using cd = std::complex<double>;
  Rng rng(11);
  const int n = 6;
  la::CMat a(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      a(i, j) = cd(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
    }
    a(i, i) += cd(4.0, 0.0);
  }
  std::vector<cd> b(n);
  for (auto& v : b) v = cd(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
  la::Lu<cd> lu(a);
  const auto x = lu.solve_transposed(b, /*conjugate=*/true);
  for (int i = 0; i < n; ++i) {
    cd acc(0.0);
    for (int j = 0; j < n; ++j) acc += std::conj(a(j, i)) * x[j];
    EXPECT_NEAR(std::abs(acc - b[i]), 0.0, 1e-9);
  }
}

TEST(Cholesky, SolveSpd) {
  Rng rng(5);
  const int n = 10;
  la::Mat g = random_mat(n, n, rng);
  // A = G G^T + n I is SPD.
  la::Mat gt(n, n), a(n, n);
  la::transpose(g, gt);
  la::matmul(g, gt, a);
  for (int i = 0; i < n; ++i) a(i, i) += n;
  std::vector<double> x_true(n);
  for (auto& v : x_true) v = rng.uniform(-1.0, 1.0);
  std::vector<double> b(n, 0.0);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) b[i] += a(i, j) * x_true[j];
  }
  std::vector<double> l = packed_lower(a);
  la::cholesky_factor(l, n);
  la::cholesky_solve(l, b);
  for (int i = 0; i < n; ++i) EXPECT_NEAR(b[i], x_true[i], 1e-8);
}

TEST(Cholesky, LogDetMatchesKnown) {
  std::vector<double> l = packed_lower(la::Mat{{4.0, 0.0}, {0.0, 9.0}});
  la::cholesky_factor(l, 2);
  EXPECT_NEAR(la::cholesky_log_det(l, 2), std::log(36.0), 1e-12);
}

TEST(Cholesky, ThrowsOnIndefinite) {
  // Eigenvalues 3, -1.
  std::vector<double> l = packed_lower(la::Mat{{1.0, 2.0}, {2.0, 1.0}});
  EXPECT_THROW(la::cholesky_factor(l, 2), la::NotPositiveDefiniteError);
}

TEST(Stats, MeanStd) {
  std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(la::mean(v), 2.5);
  EXPECT_NEAR(la::stddev(v), std::sqrt(5.0 / 3.0), 1e-12);
  EXPECT_DOUBLE_EQ(la::min_of(v), 1.0);
  EXPECT_DOUBLE_EQ(la::max_of(v), 4.0);
}

TEST(Stats, NormalizeColumns) {
  la::Mat m{{1.0, 5.0}, {3.0, 5.0}, {5.0, 5.0}};
  const auto st = la::normalize_columns(m);
  EXPECT_DOUBLE_EQ(st.mean[0], 3.0);
  // Column 0 has zero mean / unit-ish scaling after normalization.
  EXPECT_NEAR(m(0, 0) + m(2, 0), 0.0, 1e-12);
  EXPECT_NEAR(m(1, 0), 0.0, 1e-12);
  // Constant column: centered, not scaled (std fallback = 1).
  EXPECT_NEAR(m(0, 1), 0.0, 1e-12);
  EXPECT_NEAR(m(2, 1), 0.0, 1e-12);
}

TEST(Rng, DeterministicAndBounded) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
  Rng r(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const auto k = r.uniform_index(7);
    EXPECT_LT(k, 7u);
  }
}

TEST(Rng, NormalMoments) {
  Rng r(77);
  double sum = 0.0, sq = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, TruncatedNormalRespectsBounds) {
  Rng r(31);
  for (int i = 0; i < 2000; ++i) {
    const double x = r.truncated_normal(0.0, 2.0, -0.5, 0.5);
    EXPECT_GE(x, -0.5);
    EXPECT_LE(x, 0.5);
  }
}

TEST(SparseLu, MatchesDenseOnRandomSystems) {
  Rng rng(101);
  for (const int n : {5, 12, 25}) {
    const SparseSys s = random_sparse_system(n, rng);
    la::SparseLuD lu(s.pattern);
    ASSERT_TRUE(lu.factor_values(s.vals.data())) << "n=" << n;
    EXPECT_GE(lu.factor_nnz(), s.pattern.n);  // n pivots at minimum
    std::vector<double> b(n), x(n);
    for (auto& v : b) v = rng.uniform(-1.0, 1.0);
    lu.solve_into(b.data(), x.data());
    const auto x_ref = la::solve(s.dense, b);
    for (int i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_ref[i], 1e-9);
  }
}

TEST(SparseLu, SolveTransposedMatchesDense) {
  Rng rng(202);
  const int n = 14;
  const SparseSys s = random_sparse_system(n, rng);
  la::SparseLuD lu(s.pattern);
  ASSERT_TRUE(lu.factor_values(s.vals.data()));
  std::vector<double> b(n), x(n);
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);
  lu.solve_transposed_into(b.data(), x.data());
  for (int i = 0; i < n; ++i) {
    double acc = 0.0;
    for (int j = 0; j < n; ++j) acc += s.dense(j, i) * x[j];
    EXPECT_NEAR(acc, b[i], 1e-9);
  }
}

// A fixed-pivot refactorization on new values must reproduce a fresh
// factorization of those values bitwise — this is what makes the
// transient loop and the AC sweep deterministic regardless of how many
// designs a SparseLu has already factored.
TEST(SparseLu, RefactorMatchesFreshFactorBitwise) {
  Rng rng(303);
  const int n = 16;
  SparseSys s = random_sparse_system(n, rng);
  la::SparseLuD warm(s.pattern);
  ASSERT_TRUE(warm.factor_values(s.vals.data()));
  // New values, same dominance structure: the recorded pivots stay valid,
  // so factor_values takes the refactor path.
  for (auto& v : s.vals) v *= 1.0 + 0.01 * rng.uniform(-1.0, 1.0);
  ASSERT_TRUE(warm.factor_values(s.vals.data()));
  EXPECT_EQ(warm.repivots(), 0);
  la::SparseLuD cold(s.pattern);
  ASSERT_TRUE(cold.factor_values(s.vals.data()));
  std::vector<double> b(n), xw(n), xc(n);
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);
  warm.solve_into(b.data(), xw.data());
  cold.solve_into(b.data(), xc.data());
  for (int i = 0; i < n; ++i) EXPECT_EQ(xw[i], xc[i]) << "i=" << i;
}

// Pinned pivot-fallback regression: a 2x2 whose recorded diagonal pivot
// collapses below the threshold-pivot bound on the next value set. The
// refactor must reject it (Status::PivotCheck) and factor_values must
// transparently re-pivot — counting the event — and still solve right.
TEST(SparseLu, PivotFallbackRepivotsAndStaysCorrect) {
  const la::SparsePattern p =
      la::SparsePattern::from_coords(2, {{0, 0}, {0, 1}, {1, 0}, {1, 1}});
  la::SparseLuD lu(p);
  // CSR slot order: (0,0), (0,1), (1,0), (1,1).
  const double good[4] = {10.0, 1.0, 1.0, 10.0};
  const double bad[4] = {1e-6, 1.0, 1.0, 1e-6};
  ASSERT_EQ(lu.factor(good), la::SparseLuD::Status::Ok);
  EXPECT_EQ(lu.refactor(bad), la::SparseLuD::Status::PivotCheck);
  ASSERT_TRUE(lu.factor_values(bad));  // transparent re-pivot
  EXPECT_EQ(lu.repivots(), 1);
  const double b[2] = {1.0, 2.0};
  double x[2];
  lu.solve_into(b, x);
  la::Mat dense{{1e-6, 1.0}, {1.0, 1e-6}};
  const auto x_ref = la::solve(dense, {1.0, 2.0});
  EXPECT_NEAR(x[0], x_ref[0], 1e-9);
  EXPECT_NEAR(x[1], x_ref[1], 1e-9);
}

TEST(SparseLu, SingularIsRejectedNotUb) {
  const la::SparsePattern p =
      la::SparsePattern::from_coords(2, {{0, 0}, {0, 1}, {1, 0}, {1, 1}});
  la::SparseLuD lu(p);
  const double zeros[4] = {0.0, 0.0, 0.0, 0.0};
  EXPECT_FALSE(lu.factor_values(zeros));
  EXPECT_FALSE(lu.factored());
  EXPECT_EQ(lu.last_status(), la::SparseLuD::Status::Singular);
}

TEST(SparseLu, ComplexMatchesDense) {
  using cd = std::complex<double>;
  Rng rng(404);
  const int n = 10;
  const SparseSys s = random_sparse_system(n, rng);
  std::vector<cd> vals(s.vals.size());
  la::CMat dense(n, n);
  for (int r = 0; r < n; ++r) {
    for (int e = s.pattern.row_ptr[r]; e < s.pattern.row_ptr[r + 1]; ++e) {
      const cd v(s.vals[e], 0.25 * rng.uniform(-1.0, 1.0));
      vals[e] = v;
      dense(r, s.pattern.col_idx[e]) = v;
    }
  }
  la::SparseLuC lu(s.pattern);
  ASSERT_TRUE(lu.factor_values(vals.data()));
  std::vector<cd> b(n), x(n);
  for (auto& v : b) v = cd(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
  lu.solve_into(b.data(), x.data());
  const auto x_ref = la::solve(dense, b);
  for (int i = 0; i < n; ++i) EXPECT_NEAR(std::abs(x[i] - x_ref[i]), 0.0, 1e-9);
}

namespace {

// Dense reference Y(w) = G + j*w*C from pattern-aligned value arrays.
la::CMat dense_ac_matrix(const la::SparsePattern& p,
                         const std::vector<double>& g,
                         const std::vector<double>& c, double omega) {
  la::CMat y(p.n, p.n);
  for (int r = 0; r < p.n; ++r) {
    for (int e = p.row_ptr[r]; e < p.row_ptr[r + 1]; ++e) {
      y(r, p.col_idx[e]) = std::complex<double>(g[e], omega * c[e]);
    }
  }
  return y;
}

}  // namespace

// The SoA blocked sweep must match a per-frequency dense complex solve,
// on a full 8-lane block and on a tail block with count < kMaxLanes.
TEST(SparseSweepLu, BlockedSolvesMatchDense) {
  using cd = std::complex<double>;
  Rng rng(505);
  const int n = 11;
  const SparseSys s = random_sparse_system(n, rng);
  std::vector<double> g = s.vals, c(s.vals.size(), 0.0);
  for (int r = 0; r < n; ++r) {
    for (int e = s.pattern.row_ptr[r]; e < s.pattern.row_ptr[r + 1]; ++e) {
      if (s.pattern.col_idx[e] == r) c[e] = 1e-12 * (1.0 + rng.uniform());
    }
  }
  std::vector<cd> b(n);
  for (auto& v : b) v = cd(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));

  la::SparseSweepLu sweep(s.pattern);
  constexpr int kLanes = la::SparseSweepLu::kMaxLanes;
  std::vector<cd> out(static_cast<std::size_t>(kLanes) * n);
  for (const int count : {kLanes, 3}) {
    std::vector<double> omega(count);
    for (int f = 0; f < count; ++f) {
      omega[f] = 2.0 * M_PI * std::pow(10.0, 4.0 + f + (count == 3 ? 4 : 0));
    }
    ASSERT_TRUE(sweep.factor_block(g.data(), c.data(), omega.data(), count));
    sweep.solve_block(b.data(), out.data(), n);
    for (int f = 0; f < count; ++f) {
      la::Lu<cd> dense(dense_ac_matrix(s.pattern, g, c, omega[f]));
      const auto x_ref = dense.solve(b);
      for (int i = 0; i < n; ++i) {
        EXPECT_NEAR(std::abs(out[static_cast<std::size_t>(f) * n + i] -
                             x_ref[i]),
                    0.0, 1e-9)
            << "count=" << count << " lane=" << f << " i=" << i;
      }
    }
    sweep.solve_transposed_block(b.data(), out.data(), n);
    for (int f = 0; f < count; ++f) {
      la::Lu<cd> dense(dense_ac_matrix(s.pattern, g, c, omega[f]));
      const auto x_ref = dense.solve_transposed(b, /*conjugate=*/false);
      for (int i = 0; i < n; ++i) {
        EXPECT_NEAR(std::abs(out[static_cast<std::size_t>(f) * n + i] -
                             x_ref[i]),
                    0.0, 1e-9)
            << "count=" << count << " lane=" << f << " i=" << i;
      }
    }
  }
}

// A block whose values invalidate the recorded pivot order must make
// factor_block re-pivot internally (not fail): the warm fast path rejects
// the lanes, the scalar factorization re-pivots at the block's first
// frequency, and the retried blocked refactor succeeds.
TEST(SparseSweepLu, LaneRejectionRepivotsTransparently) {
  using cd = std::complex<double>;
  const la::SparsePattern p =
      la::SparsePattern::from_coords(2, {{0, 0}, {0, 1}, {1, 0}, {1, 1}});
  la::SparseSweepLu sweep(p);
  const double good[4] = {10.0, 1.0, 1.0, 10.0};
  const double bad[4] = {1e-6, 1.0, 1.0, 1e-6};
  const double c[4] = {1e-12, 0.0, 0.0, 1e-12};
  const double omega[2] = {1e4, 1e5};
  ASSERT_TRUE(sweep.factor_block(good, c, omega, 2));
  const long repivots_before = sweep.repivots();
  ASSERT_TRUE(sweep.factor_block(bad, c, omega, 2));
  EXPECT_GT(sweep.repivots(), repivots_before);
  const std::vector<cd> b{cd(1.0, 0.0), cd(2.0, 0.0)};
  std::vector<cd> out(2 * 2);
  sweep.solve_block(b.data(), out.data(), 2);
  for (int f = 0; f < 2; ++f) {
    la::CMat y(2, 2);
    y(0, 0) = cd(bad[0], omega[f] * c[0]);
    y(0, 1) = cd(bad[1], 0.0);
    y(1, 0) = cd(bad[2], 0.0);
    y(1, 1) = cd(bad[3], omega[f] * c[3]);
    const auto x_ref = la::solve(y, b);
    for (int i = 0; i < 2; ++i) {
      EXPECT_NEAR(std::abs(out[static_cast<std::size_t>(f) * 2 + i] -
                           x_ref[i]),
                  0.0, 1e-9);
    }
  }
}

TEST(MatrixHelpers, NormsAndFinite) {
  la::Mat m{{3.0, 4.0}};
  EXPECT_DOUBLE_EQ(la::frobenius_norm(m), 5.0);
  EXPECT_DOUBLE_EQ(la::max_abs(m), 4.0);
  EXPECT_TRUE(la::all_finite(m));
  m(0, 0) = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(la::all_finite(m));
}
