// Dense row-major matrix over double or std::complex<double>.
//
// This is the numerical workhorse shared by the neural-network stack
// (real matrices) and the circuit simulator's MNA systems (complex
// matrices for AC analysis). It deliberately stays small: dynamic 2-D
// storage, elementwise arithmetic, and the real matrix products the
// agent's forward and backward passes run on. The products write into
// caller-owned outputs, so a pass over preallocated buffers allocates
// nothing. Anything fancier (LU, Cholesky) lives in sibling headers.
#pragma once

#include <cassert>
#include <complex>
#include <cstddef>
#include <initializer_list>
#include <vector>

namespace gcnrl::la {

template <typename T>
class Matrix {
 public:
  Matrix() = default;
  Matrix(int rows, int cols, T fill = T{})
      : rows_(rows), cols_(cols), d_(static_cast<std::size_t>(rows) * cols, fill) {
    assert(rows >= 0 && cols >= 0);
  }
  Matrix(std::initializer_list<std::initializer_list<T>> rows) {
    rows_ = static_cast<int>(rows.size());
    cols_ = rows_ > 0 ? static_cast<int>(rows.begin()->size()) : 0;
    d_.reserve(static_cast<std::size_t>(rows_) * cols_);
    for (const auto& r : rows) {
      assert(static_cast<int>(r.size()) == cols_);
      d_.insert(d_.end(), r.begin(), r.end());
    }
  }

  static Matrix zeros(int r, int c) { return Matrix(r, c); }
  static Matrix identity(int n) {
    Matrix m(n, n);
    for (int i = 0; i < n; ++i) m(i, i) = T{1};
    return m;
  }
  static Matrix filled(int r, int c, T v) { return Matrix(r, c, v); }

  [[nodiscard]] int rows() const { return rows_; }
  [[nodiscard]] int cols() const { return cols_; }
  [[nodiscard]] std::size_t size() const { return d_.size(); }
  [[nodiscard]] bool empty() const { return d_.empty(); }

  T& operator()(int r, int c) {
    assert(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return d_[static_cast<std::size_t>(r) * cols_ + c];
  }
  const T& operator()(int r, int c) const {
    assert(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return d_[static_cast<std::size_t>(r) * cols_ + c];
  }
  T* data() { return d_.data(); }
  const T* data() const { return d_.data(); }
  T* row_ptr(int r) { return d_.data() + static_cast<std::size_t>(r) * cols_; }
  const T* row_ptr(int r) const {
    return d_.data() + static_cast<std::size_t>(r) * cols_;
  }

  Matrix& operator+=(const Matrix& o) {
    assert(same_shape(o));
    for (std::size_t i = 0; i < d_.size(); ++i) d_[i] += o.d_[i];
    return *this;
  }
  Matrix& operator-=(const Matrix& o) {
    assert(same_shape(o));
    for (std::size_t i = 0; i < d_.size(); ++i) d_[i] -= o.d_[i];
    return *this;
  }
  Matrix& operator*=(T s) {
    for (auto& v : d_) v *= s;
    return *this;
  }

  friend Matrix operator+(Matrix a, const Matrix& b) { return a += b; }
  friend Matrix operator-(Matrix a, const Matrix& b) { return a -= b; }
  friend Matrix operator*(Matrix a, T s) { return a *= s; }
  friend Matrix operator*(T s, Matrix a) { return a *= s; }

  [[nodiscard]] bool same_shape(const Matrix& o) const {
    return rows_ == o.rows_ && cols_ == o.cols_;
  }

  void fill(T v) {
    for (auto& x : d_) x = v;
  }

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<T> d_;
};

using Mat = Matrix<double>;
using CMat = Matrix<std::complex<double>>;

namespace detail {

// Row i of C = (A or A^T) * B, with A's entries for that row read at
// a[k * a_stride] for k = 0..k_dim-1. Each element's sum runs over k in
// ascending order from +0 and skips zero entries of A, exactly as a plain
// i-k-j loop does; the finished sum is then stored into C, or added to
// it. Blocking over columns changes only which elements are in flight, so
// the result is the same bit for bit. Skipping a zero term leaves a sum
// from +0 as it was whenever the term's other factor is finite, so the
// same loop also forms, bit for bit, the serial dot products of A * B^T
// over the rows of a transposed, finite B.
//
// The kernel is built from one body twice: matmul_row_baseline for the
// target's baseline instruction set and, on x86-64 GCC/Clang,
// matmul_row_avx2 for AVX2. AVX2 brings no FMA, and no translation unit
// contracts a*b+c, so every product and sum rounds as in the baseline
// copy: the two agree bit for bit. matmul and matmul_tn call the AVX2
// copy when the CPU has AVX2 (checked once per process).
using MatmulRow = void (*)(const double* a, std::size_t a_stride, int k_dim,
                           const Mat& b, double* ci, bool accumulate);

void matmul_row_baseline(const double* a, std::size_t a_stride, int k_dim,
                         const Mat& b, double* ci, bool accumulate);

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define GCNRL_LA_AVX2_ROW_KERNEL 1
// Call only where cpu_has_avx2().
void matmul_row_avx2(const double* a, std::size_t a_stride, int k_dim,
                     const Mat& b, double* ci, bool accumulate);
bool cpu_has_avx2();
#endif

}  // namespace detail

// C = A * B into the caller-owned C (A.rows() x B.cols()), or C += A * B
// with `accumulate`. See detail::matmul_row_baseline for the summation
// order.
void matmul(const Mat& a, const Mat& b, Mat& c, bool accumulate = false);

// C = A^T * B into the caller-owned C (A.cols() x B.cols()), or C += A^T *
// B with `accumulate`, without materializing the transpose: element (i, j)
// sums A(k, i) * B(k, j) over A's rows k in ascending order, skipping zero
// entries of A.
void matmul_tn(const Mat& a, const Mat& b, Mat& c, bool accumulate = false);

// out = A^T into a caller-owned out (A.cols() x A.rows()).
template <typename T>
void transpose(const Matrix<T>& a, Matrix<T>& out) {
  assert(out.rows() == a.cols() && out.cols() == a.rows());
  for (int r = 0; r < a.rows(); ++r) {
    for (int c = 0; c < a.cols(); ++c) out(c, r) = a(r, c);
  }
}

template <typename T>
Matrix<T> hadamard(const Matrix<T>& a, const Matrix<T>& b) {
  assert(a.same_shape(b));
  Matrix<T> c = a;
  for (int r = 0; r < a.rows(); ++r) {
    for (int col = 0; col < a.cols(); ++col) c(r, col) *= b(r, col);
  }
  return c;
}

// Frobenius-norm helpers (real matrices).
double frobenius_norm(const Mat& m);
double max_abs(const Mat& m);
bool all_finite(const Mat& m);

}  // namespace gcnrl::la
