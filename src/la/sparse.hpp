// Structure-reuse sparse LU for the circuit simulator's MNA systems.
//
// The sizing workload factors the *same sparsity pattern* thousands of
// times with different values (Newton iterations, frequency points,
// timesteps, designs): sizing changes element values, never topology.
// This module splits the work accordingly:
//
//  * SparsePattern — an immutable CSR pattern computed once per topology.
//    The simulator's stamp walks write a flat value array aligned with it
//    through each walk's slot list, recorded once per topology
//    (sim/structure.hpp), so the per-solve cost has no dense zero-fill.
//  * SparseLu<T> — left-looking (Gilbert-Peierls) LU over the pattern.
//    The first factor() chooses a pivot order (threshold partial pivoting
//    with a diagonal preference, which keeps fill low on the structurally
//    symmetric MNA pattern without a separate ordering pass) and records
//    the symbolic result: pivot permutation plus the exact nonzero
//    pattern of L and U. Every later refactor() replays that recorded
//    elimination with *fixed pivots* — straight-line numeric code, no
//    searching — and guards it with a per-column pivot check so values
//    that have drifted away from the recorded pivot choice re-pivot
//    instead of amplifying roundoff.
//  * SparseSweepLu — the AC/noise sweep engine: factors
//    Y(w) = G + j*w*C for a block of frequency points over one symbolic
//    factorization, with split re/im (SoA) value arrays whose inner loops
//    run across the frequency lanes and auto-vectorize.
//
// Numerical safety contract: factor_values() returns false when neither
// the recorded pivots nor a fresh pivot search produce an acceptable
// factorization (singular matrix, or element growth past
// kSparseGrowthLimit). Callers fall back to the dense la::Lu path, which
// is bitwise the legacy behaviour.
#pragma once

#include <cmath>
#include <complex>
#include <type_traits>
#include <vector>

namespace gcnrl::la {

// Pivot acceptance thresholds (see SparseLu). kSparsePivotRel mirrors the
// classic SPICE threshold-pivoting default: a pivot is acceptable when it
// is within 1e-3 of the largest candidate in its column.
inline constexpr double kSparsePivotRel = 1e-3;
inline constexpr double kSparsePivotAbs = 1e-300;
// Element-growth ceiling: max|U| may not exceed this multiple of max|A|.
inline constexpr double kSparseGrowthLimit = 1e10;

// Immutable CSR sparsity pattern (column indices ascending per row).
struct SparsePattern {
  int n = 0;
  std::vector<int> row_ptr;  // size n + 1
  std::vector<int> col_idx;  // size nnz

  [[nodiscard]] int nnz() const { return static_cast<int>(col_idx.size()); }
};

template <typename T>
class SparseLu {
 public:
  enum class Status {
    Ok,
    PivotCheck,  // refactor only: recorded pivot failed the threshold test
    Growth,      // factorization exceeded kSparseGrowthLimit
    Singular,    // no acceptable pivot at some column
  };

  // The pattern must outlive the SparseLu.
  explicit SparseLu(const SparsePattern& pattern);

  // Fresh factorization of `vals` (pattern-aligned value array): chooses a
  // pivot order and records the symbolic structure for refactor().
  Status factor(const T* vals);
  // Replays the recorded elimination with fixed pivots (numeric only).
  // Requires a prior successful factor().
  Status refactor(const T* vals);
  // refactor() when a symbolic factorization exists, transparently
  // re-pivoting via factor() when the pivot check rejects the recorded
  // order. Returns false when the matrix cannot be factored acceptably —
  // the caller's cue to fall back to dense la::Lu.
  bool factor_values(const T* vals);
  // Drops the recorded symbolic factorization: the next factor_values()
  // chooses pivots from scratch. SparseSweepLu uses it to force a genuine
  // re-pivot after a frequency lane rejected the recorded pivot order.
  void invalidate() {
    symbolic_ok_ = false;
    numeric_ok_ = false;
  }

  // Solve A x = b. b and x must not alias; both have size n. No heap
  // allocation.
  void solve_into(const T* b, T* x) const;

  [[nodiscard]] int size() const { return n_; }
  [[nodiscard]] bool factored() const { return numeric_ok_; }
  // L/U fill (below/above-diagonal entries + n pivots) once factored.
  [[nodiscard]] int factor_nnz() const {
    return static_cast<int>(lrow_.size() + upos_.size()) + n_;
  }
  [[nodiscard]] Status last_status() const { return last_status_; }
  // Times a refactor pivot check forced a fresh pivot search.
  [[nodiscard]] long repivots() const { return repivots_; }

 private:
  friend class SparseSweepLu;

  static double mag(const T& v) {
    if constexpr (std::is_same_v<T, std::complex<double>>) {
      return std::abs(v);
    } else {
      return std::fabs(v);
    }
  }

  // Depth-first reach of column j through the already-built L columns.
  void reach(int j);
  void freeze_positions();

  const SparsePattern* pat_ = nullptr;
  int n_ = 0;

  // Column-compressed view of the pattern with slots into the CSR array.
  std::vector<int> cptr_;   // n + 1
  std::vector<int> crow_;   // row index per CSC entry
  std::vector<int> cslot_;  // CSR value slot per CSC entry

  // Recorded factorization, column-major. L is unit-diagonal; lrow_ holds
  // original row ids (for the original-row-space numeric work array),
  // lpos_ the same entries as pivot positions (for the solves).
  std::vector<int> lptr_, lrow_, lpos_;
  std::vector<T> lval_;
  std::vector<int> uptr_, upos_;  // U entries as pivot positions, ascending
  std::vector<T> uval_;
  std::vector<T> udiag_;          // pivot values by position
  std::vector<int> perm_r_;       // pivot position -> original row
  std::vector<int> pinv_;         // original row -> pivot position (-1)
  bool symbolic_ok_ = false;
  bool numeric_ok_ = false;
  Status last_status_ = Status::Singular;
  long repivots_ = 0;

  // Scratch (sized n once; solves use wk_, factor uses x_/flag_/...).
  std::vector<T> x_;          // dense accumulator, original-row space
  mutable std::vector<T> wk_; // solve work, pivot space
  std::vector<int> flag_;     // DFS visited marks
  std::vector<int> stack_, istack_;  // DFS stacks
  std::vector<int> reach_;    // rows visited for the current column
};

using SparseLuD = SparseLu<double>;
using SparseLuC = SparseLu<std::complex<double>>;

// SoA frequency-sweep factorization: Y(w_f) = G + j*w_f*C for a block of
// up to kMaxLanes frequency points sharing one symbolic factorization.
// The symbolic (pivot order + fill pattern) is recomputed per block from
// a scalar complex factorization at the block's first frequency — on a
// log-spaced grid adjacent points have nearly identical magnitudes, so
// the fixed pivots hold across the block (guarded per lane by the same
// threshold pivot check as SparseLu::refactor). The numeric refactor and
// the triangular solves store values as split re/im arrays with the
// frequency lane as the fastest-varying index, so the inner loops are
// straight-line lane sweeps the compiler auto-vectorizes.
class SparseSweepLu {
 public:
  static constexpr int kMaxLanes = 8;
  using cd = std::complex<double>;

  explicit SparseSweepLu(const SparsePattern& pattern);

  // Factors Y_f = G + j*omega[f]*C for lanes f = 0..count-1. gvals/cvals
  // are pattern-aligned real value arrays. Returns false when any lane
  // fails the pivot acceptance test (or the block's scalar factorization
  // fails outright) — the caller's cue to run the sweep densely.
  bool factor_block(const double* gvals, const double* cvals,
                    const double* omega, int count);

  // Solve Y_f x_f = b for every lane of the last factor_block; x_f is
  // written to out + f*stride (stride >= n). The RHS is shared across
  // lanes, matching the AC/noise sweeps whose excitation is
  // frequency-independent.
  void solve_block(const cd* b, cd* out, int stride) const;
  // Adjoint solves: Y_f^T x_f = b (conjugate=false), as used by the
  // noise sweep.
  void solve_transposed_block(const cd* b, cd* out, int stride) const;

  [[nodiscard]] int size() const { return scalar_.size(); }
  [[nodiscard]] int factor_nnz() const { return scalar_.factor_nnz(); }
  // Scalar re-pivots triggered by blocked-lane rejections; diagnostic
  // only.
  [[nodiscard]] long repivots() const { return scalar_.repivots(); }

 private:
  // Blocked refactor over scalar_'s current pivot order. Returns false
  // when any lane fails the pivot-acceptance or growth test.
  bool refactor_lanes(const double* gvals, const double* cvals,
                      const double* omega, int count);

  SparseLu<cd> scalar_;  // symbolic owner; factored only to (re)pivot
  int lanes_ = 0;

  // Blocked numeric storage mirroring scalar_'s symbolic arrays:
  // entry-major, lane-fastest (index e*kMaxLanes + f).
  std::vector<double> lre_, lim_, ure_, uim_, dre_, dim_;
  std::vector<double> xre_, xim_;            // n x kMaxLanes work
  std::vector<cd> vals0_;                    // lane-0 complex assembly
  mutable std::vector<double> wre_, wim_;    // solve work
};

}  // namespace gcnrl::la
