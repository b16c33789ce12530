#include "la/sparse.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace gcnrl::la {

namespace {

// Lane-wide kernels for the blocked sweep, one call per factor/solve
// entry. Kept as standalone functions over restrict-qualified pointers:
// written inline inside the loop nests, GCC complete-unrolls the
// 8-iteration lane loops before the loop vectorizer runs and the
// straight-line remainder never gets SLP-vectorized; isolated like this
// each kernel compiles to packed vector code.
constexpr int kLanesK = 8;

// y -= a * b, complex, all lanes.
inline void lanes_cmulsub(double* __restrict yr, double* __restrict yi,
                          const double* __restrict ar,
                          const double* __restrict ai,
                          const double* __restrict br,
                          const double* __restrict bi) {
  for (int f = 0; f < kLanesK; ++f) {
    yr[f] -= ar[f] * br[f] - ai[f] * bi[f];
    yi[f] -= ar[f] * bi[f] + ai[f] * br[f];
  }
}

inline void lanes_zero(double* __restrict xr, double* __restrict xi) {
  for (int f = 0; f < kLanesK; ++f) {
    xr[f] = 0.0;
    xi[f] = 0.0;
  }
}

// x = g + j*w*c, all lanes.
inline void lanes_scatter(double* __restrict xr, double* __restrict xi,
                          double gr, const double* __restrict w, double cc) {
  for (int f = 0; f < kLanesK; ++f) {
    xr[f] = gr;
    xi[f] = w[f] * cc;
  }
}

// u = x and umax2 = max(umax2, |x|^2), all lanes.
inline void lanes_copy_max(double* __restrict ur, double* __restrict ui,
                           const double* __restrict xr,
                           const double* __restrict xi,
                           double* __restrict umax2) {
  for (int f = 0; f < kLanesK; ++f) {
    ur[f] = xr[f];
    ui[f] = xi[f];
    umax2[f] = std::max(umax2[f], ur[f] * ur[f] + ui[f] * ui[f]);
  }
}

// l = y * conj(d) * inv, all lanes (the L-column normalization).
inline void lanes_norm(double* __restrict lr, double* __restrict li,
                       const double* __restrict yr,
                       const double* __restrict yi,
                       const double* __restrict dr,
                       const double* __restrict di,
                       const double* __restrict inv) {
  for (int f = 0; f < kLanesK; ++f) {
    lr[f] = (yr[f] * dr[f] + yi[f] * di[f]) * inv[f];
    li[f] = (yi[f] * dr[f] - yr[f] * di[f]) * inv[f];
  }
}

// w = w / d (complex divide by the pivot), all lanes.
inline void lanes_pivdiv(double* __restrict wr, double* __restrict wi,
                         const double* __restrict dr,
                         const double* __restrict di) {
  for (int f = 0; f < kLanesK; ++f) {
    const double inv = 1.0 / (dr[f] * dr[f] + di[f] * di[f]);
    const double xr = (wr[f] * dr[f] + wi[f] * di[f]) * inv;
    const double xi = (wi[f] * dr[f] - wr[f] * di[f]) * inv;
    wr[f] = xr;
    wi[f] = xi;
  }
}

}  // namespace

template <typename T>
SparseLu<T>::SparseLu(const SparsePattern& pattern)
    : pat_(&pattern), n_(pattern.n) {
  // Column-compressed view of the CSR pattern: Gilbert-Peierls is a
  // column algorithm, but assembly fills the CSR value array, so each CSC
  // entry remembers its CSR slot.
  cptr_.assign(static_cast<size_t>(n_) + 1, 0);
  const int nnz = pattern.nnz();
  crow_.resize(nnz);
  cslot_.resize(nnz);
  for (int e = 0; e < nnz; ++e) ++cptr_[pattern.col_idx[e] + 1];
  for (int c = 0; c < n_; ++c) cptr_[c + 1] += cptr_[c];
  std::vector<int> next(cptr_.begin(), cptr_.end() - 1);
  for (int r = 0; r < n_; ++r) {
    for (int e = pattern.row_ptr[r]; e < pattern.row_ptr[r + 1]; ++e) {
      const int c = pattern.col_idx[e];
      crow_[next[c]] = r;
      cslot_[next[c]] = e;
      ++next[c];
    }
  }
  perm_r_.resize(n_);
  pinv_.assign(n_, -1);
  x_.assign(n_, T{});
  wk_.resize(n_);
  flag_.assign(n_, -1);
  stack_.resize(n_);
  istack_.resize(n_);
  reach_.reserve(n_);
}

// Nonrecursive DFS from the nonzero rows of A(:, j) through the columns of
// the partially-built L. Produces reach_ in postorder; traversing it in
// reverse gives a topological order of the column-j fill pattern, which is
// exactly the order the numeric elimination needs.
template <typename T>
void SparseLu<T>::reach(int j) {
  reach_.clear();
  for (int e = cptr_[j]; e < cptr_[j + 1]; ++e) {
    const int root = crow_[e];
    if (flag_[root] == j) continue;
    int head = 0;
    stack_[0] = root;
    while (head >= 0) {
      const int node = stack_[head];
      if (flag_[node] != j) {
        flag_[node] = j;
        istack_[head] = (pinv_[node] >= 0) ? lptr_[pinv_[node]] : 0;
      }
      bool descended = false;
      if (pinv_[node] >= 0) {
        const int end = lptr_[pinv_[node] + 1];
        int it = istack_[head];
        while (it < end) {
          const int child = lrow_[it];
          ++it;
          if (flag_[child] != j) {
            istack_[head] = it;
            ++head;
            stack_[head] = child;
            descended = true;
            break;
          }
        }
        if (!descended) istack_[head] = it;
      }
      if (!descended) {
        --head;
        reach_.push_back(node);
      }
    }
  }
}

template <typename T>
typename SparseLu<T>::Status SparseLu<T>::factor(const T* vals) {
  symbolic_ok_ = false;
  numeric_ok_ = false;
  std::fill(pinv_.begin(), pinv_.end(), -1);
  std::fill(flag_.begin(), flag_.end(), -1);
  std::fill(x_.begin(), x_.end(), T{});
  lptr_.assign(1, 0);
  lrow_.clear();
  lval_.clear();
  uptr_.assign(1, 0);
  upos_.clear();
  uval_.clear();
  udiag_.assign(n_, T{});
  double amax = 0.0;
  for (int e = 0; e < pat_->nnz(); ++e) amax = std::max(amax, mag(vals[e]));
  double umax = 0.0;

  for (int j = 0; j < n_; ++j) {
    reach(j);
    for (int e = cptr_[j]; e < cptr_[j + 1]; ++e) {
      x_[crow_[e]] = vals[cslot_[e]];
    }
    // Apply the updates of every already-pivoted column reached, in
    // topological order (reverse postorder of the DFS).
    for (int t = static_cast<int>(reach_.size()) - 1; t >= 0; --t) {
      const int i = reach_[t];
      const int k = pinv_[i];
      if (k < 0) continue;
      const T xi = x_[i];
      for (int e = lptr_[k]; e < lptr_[k + 1]; ++e) {
        x_[lrow_[e]] -= lval_[e] * xi;
      }
    }
    // Threshold partial pivoting with a diagonal preference: take the
    // natural (j, j) pivot whenever it is within kSparsePivotRel of the
    // column max. MNA patterns are structurally symmetric, so keeping
    // diagonal pivots preserves that symmetry and keeps fill low — the
    // role a Markowitz/AMD ordering would play at larger dimensions.
    int piv_row = -1;
    double piv_mag = -1.0;
    for (const int i : reach_) {
      if (pinv_[i] >= 0) continue;
      const double m = mag(x_[i]);
      if (m > piv_mag) {
        piv_mag = m;
        piv_row = i;
      }
    }
    if (piv_row < 0 || piv_mag < kSparsePivotAbs) {
      last_status_ = Status::Singular;
      return Status::Singular;
    }
    if (flag_[j] == j && pinv_[j] < 0) {
      const double dm = mag(x_[j]);
      if (dm >= kSparsePivotRel * piv_mag && dm >= kSparsePivotAbs) {
        piv_row = j;
      }
    }
    const T pv = x_[piv_row];
    perm_r_[j] = piv_row;
    pinv_[piv_row] = j;
    udiag_[j] = pv;
    umax = std::max(umax, mag(pv));
    // Reciprocal-multiply, matching refactor()'s rounding exactly so a
    // fixed-pivot refactorization reproduces a fresh one bitwise.
    const T ipv = T(1.0) / pv;
    // Record the column's fill pattern: rows pivoted in earlier columns
    // become U entries, the rest become the L column (zeros included — the
    // pattern must serve refactor() with different values).
    for (const int i : reach_) {
      if (i == piv_row) continue;
      const int k = pinv_[i];
      if (k >= 0) {
        upos_.push_back(k);
        uval_.push_back(x_[i]);
        umax = std::max(umax, mag(x_[i]));
      } else {
        lrow_.push_back(i);
        lval_.push_back(x_[i] * ipv);
      }
    }
    lptr_.push_back(static_cast<int>(lrow_.size()));
    uptr_.push_back(static_cast<int>(upos_.size()));
    for (const int i : reach_) x_[i] = T{};
  }

  if (umax > kSparseGrowthLimit * amax) {
    last_status_ = Status::Growth;
    return Status::Growth;
  }
  freeze_positions();
  symbolic_ok_ = true;
  numeric_ok_ = true;
  last_status_ = Status::Ok;
  return Status::Ok;
}

template <typename T>
void SparseLu<T>::freeze_positions() {
  lpos_.resize(lrow_.size());
  for (size_t e = 0; e < lrow_.size(); ++e) lpos_[e] = pinv_[lrow_[e]];
  // Sort each U column by ascending pivot position (insertion sort — MNA
  // columns are short). Ascending position is a valid topological order,
  // so refactor() can replay the elimination by walking the stored
  // entries front to back.
  for (int j = 0; j < n_; ++j) {
    const int b = uptr_[j];
    const int e = uptr_[j + 1];
    for (int p = b + 1; p < e; ++p) {
      const int pos = upos_[p];
      const T val = uval_[p];
      int q = p - 1;
      while (q >= b && upos_[q] > pos) {
        upos_[q + 1] = upos_[q];
        uval_[q + 1] = uval_[q];
        --q;
      }
      upos_[q + 1] = pos;
      uval_[q + 1] = val;
    }
  }
}

template <typename T>
typename SparseLu<T>::Status SparseLu<T>::refactor(const T* vals) {
  assert(symbolic_ok_);
  numeric_ok_ = false;
  double amax = 0.0;
  for (int e = 0; e < pat_->nnz(); ++e) amax = std::max(amax, mag(vals[e]));
  double umax = 0.0;

  for (int j = 0; j < n_; ++j) {
    // The column's recorded factor pattern (U rows, L rows, pivot row) is
    // a superset of A(:, j), so zeroing it then scattering A leaves the
    // work array exact regardless of what earlier columns left behind.
    for (int e = uptr_[j]; e < uptr_[j + 1]; ++e) {
      x_[perm_r_[upos_[e]]] = T{};
    }
    for (int e = lptr_[j]; e < lptr_[j + 1]; ++e) x_[lrow_[e]] = T{};
    x_[perm_r_[j]] = T{};
    for (int e = cptr_[j]; e < cptr_[j + 1]; ++e) {
      x_[crow_[e]] = vals[cslot_[e]];
    }
    // Replay the recorded elimination — fixed pivots, ascending order.
    for (int e = uptr_[j]; e < uptr_[j + 1]; ++e) {
      const int k = upos_[e];
      const T xv = x_[perm_r_[k]];
      uval_[e] = xv;
      umax = std::max(umax, mag(xv));
      for (int f = lptr_[k]; f < lptr_[k + 1]; ++f) {
        x_[lrow_[f]] -= lval_[f] * xv;
      }
    }
    // Pivot check: the recorded pivot must still pass the same threshold
    // test a fresh factorization would apply.
    const T pv = x_[perm_r_[j]];
    const double pm = mag(pv);
    double col_max = pm;
    for (int e = lptr_[j]; e < lptr_[j + 1]; ++e) {
      col_max = std::max(col_max, mag(x_[lrow_[e]]));
    }
    if (pm < kSparsePivotRel * col_max || pm < kSparsePivotAbs) {
      last_status_ = Status::PivotCheck;
      return Status::PivotCheck;
    }
    udiag_[j] = pv;
    umax = std::max(umax, pm);
    // One reciprocal per column instead of one division per L entry; the
    // pivot check above guarantees pv is comfortably finite.
    const T ipv = T(1.0) / pv;
    for (int e = lptr_[j]; e < lptr_[j + 1]; ++e) {
      lval_[e] = x_[lrow_[e]] * ipv;
    }
  }

  if (umax > kSparseGrowthLimit * amax) {
    last_status_ = Status::Growth;
    return Status::Growth;
  }
  numeric_ok_ = true;
  last_status_ = Status::Ok;
  return Status::Ok;
}

template <typename T>
bool SparseLu<T>::factor_values(const T* vals) {
  if (symbolic_ok_) {
    if (refactor(vals) == Status::Ok) return true;
    // The recorded pivot order no longer fits these values (or grew too
    // much) — re-pivot from scratch before giving up.
    ++repivots_;
  }
  return factor(vals) == Status::Ok;
}

template <typename T>
void SparseLu<T>::solve_into(const T* b, T* x) const {
  assert(numeric_ok_);
  // PA = LU with natural column order: forward- then back-substitute in
  // pivot space, writing the result straight into natural unknown order.
  for (int k = 0; k < n_; ++k) wk_[k] = b[perm_r_[k]];
  for (int k = 0; k < n_; ++k) {
    const T yk = wk_[k];
    for (int e = lptr_[k]; e < lptr_[k + 1]; ++e) {
      wk_[lpos_[e]] -= lval_[e] * yk;
    }
  }
  for (int j = n_ - 1; j >= 0; --j) {
    const T xj = wk_[j] / udiag_[j];
    x[j] = xj;
    for (int e = uptr_[j]; e < uptr_[j + 1]; ++e) {
      wk_[upos_[e]] -= uval_[e] * xj;
    }
  }
}

template class SparseLu<double>;
template class SparseLu<std::complex<double>>;

static_assert(kLanesK == SparseSweepLu::kMaxLanes,
              "lane kernels must match the blocked sweep width");

SparseSweepLu::SparseSweepLu(const SparsePattern& pattern)
    : scalar_(pattern) {
  const size_t n = static_cast<size_t>(pattern.n);
  xre_.resize(n * kMaxLanes);
  xim_.resize(n * kMaxLanes);
  wre_.resize(n * kMaxLanes);
  wim_.resize(n * kMaxLanes);
  dre_.resize(n * kMaxLanes);
  dim_.resize(n * kMaxLanes);
  vals0_.resize(pattern.nnz());
}

bool SparseSweepLu::factor_block(const double* gvals, const double* cvals,
                                 const double* omega, int count) {
  assert(count >= 1 && count <= kMaxLanes);
  lanes_ = count;

  // Fast path: a previous block (or sweep) already chose a pivot order
  // and fill pattern. The blocked refactor reads only scalar_'s symbolic
  // arrays — never its numeric values — so the scalar factorization can
  // be skipped entirely while the recorded pivots keep passing the
  // per-lane acceptance tests.
  if (scalar_.symbolic_ok_) {
    if (refactor_lanes(gvals, cvals, omega, count)) return true;
    ++scalar_.repivots_;  // a lane rejected the recorded pivot order
  }

  // Cold start, or some lane rejected the recorded pivots: choose fresh
  // pivots from a scalar complex factorization at the block's first
  // frequency, then retry the blocked refactor exactly once. The
  // invalidate() forces a genuine re-pivot — plain factor_values() would
  // replay the pivot order that just failed and loop forever.
  const int nnz = scalar_.pat_->nnz();
  for (int s = 0; s < nnz; ++s) {
    vals0_[s] = cd(gvals[s], omega[0] * cvals[s]);
  }
  scalar_.invalidate();
  if (!scalar_.factor_values(vals0_.data())) return false;
  return refactor_lanes(gvals, cvals, omega, count);
}

bool SparseSweepLu::refactor_lanes(const double* gvals, const double* cvals,
                                   const double* omega, int count) {
  constexpr int K = kMaxLanes;
  const int n = scalar_.n_;
  const int nnz = scalar_.pat_->nnz();

  // Pad the lane frequencies to full width by repeating the last point:
  // every inner loop runs all K lanes branch-free, and the padded lanes
  // duplicate a real one so the pivot checks behave identically.
  double w[K];
  for (int f = 0; f < K; ++f) w[f] = omega[std::min(f, count - 1)];

  const std::vector<int>& lptr = scalar_.lptr_;
  const std::vector<int>& lrow = scalar_.lrow_;
  const std::vector<int>& uptr = scalar_.uptr_;
  const std::vector<int>& upos = scalar_.upos_;
  const std::vector<int>& perm = scalar_.perm_r_;
  lre_.resize(lrow.size() * K);
  lim_.resize(lrow.size() * K);
  ure_.resize(upos.size() * K);
  uim_.resize(upos.size() * K);

  // Function-scope restrict-qualified bases: the six lane arrays never
  // alias one another, and telling the compiler so at this scope (rather
  // than per-entry) is what lets the K-wide lane loops vectorize.
  double* __restrict xre = xre_.data();
  double* __restrict xim = xim_.data();
  double* __restrict lre = lre_.data();
  double* __restrict lim = lim_.data();
  double* __restrict ure = ure_.data();
  double* __restrict uim = uim_.data();
  double* __restrict dre = dre_.data();
  double* __restrict dim = dim_.data();

  // Per-lane |A|^2 max for the growth check, accumulated during one pass
  // over the assembled values.
  double amax2[K] = {0.0};
  double umax2[K] = {0.0};
  for (int s = 0; s < nnz; ++s) {
    const double gr = gvals[s];
    const double cc = cvals[s];
    for (int f = 0; f < K; ++f) {
      const double im = w[f] * cc;
      const double m2 = gr * gr + im * im;
      amax2[f] = std::max(amax2[f], m2);
    }
  }

  for (int j = 0; j < n; ++j) {
    // Zero this column's factor pattern, then scatter G + j*w*C.
    for (int e = uptr[j]; e < uptr[j + 1]; ++e) {
      const size_t r = static_cast<size_t>(perm[upos[e]]) * K;
      lanes_zero(xre + r, xim + r);
    }
    for (int e = lptr[j]; e < lptr[j + 1]; ++e) {
      const size_t r = static_cast<size_t>(lrow[e]) * K;
      lanes_zero(xre + r, xim + r);
    }
    {
      const size_t r = static_cast<size_t>(perm[j]) * K;
      lanes_zero(xre + r, xim + r);
    }
    for (int e = scalar_.cptr_[j]; e < scalar_.cptr_[j + 1]; ++e) {
      const size_t r = static_cast<size_t>(scalar_.crow_[e]) * K;
      lanes_scatter(xre + r, xim + r, gvals[scalar_.cslot_[e]], w,
                    cvals[scalar_.cslot_[e]]);
    }
    // Replay the recorded elimination with the lane index innermost; the
    // lanes_* kernels are the vectorized hot loops.
    for (int e = uptr[j]; e < uptr[j + 1]; ++e) {
      const int k = upos[e];
      const size_t rk = static_cast<size_t>(perm[k]) * K;
      double* ur = ure + (static_cast<size_t>(e) * K);
      double* ui = uim + (static_cast<size_t>(e) * K);
      lanes_copy_max(ur, ui, xre + rk, xim + rk, umax2);
      for (int q = lptr[k]; q < lptr[k + 1]; ++q) {
        const size_t rq = static_cast<size_t>(lrow[q]) * K;
        lanes_cmulsub(xre + rq, xim + rq, lre + (static_cast<size_t>(q) * K),
                      lim + (static_cast<size_t>(q) * K), ur, ui);
      }
    }
    // Per-lane pivot check (squared-magnitude form of SparseLu's test;
    // pm2 == 0 additionally rejects pivots below the |.|^2 underflow
    // floor, which the dense fallback then handles).
    const double* pr = xre + (static_cast<size_t>(perm[j]) * K);
    const double* pi = xim + (static_cast<size_t>(perm[j]) * K);
    double* dr = dre + (static_cast<size_t>(j) * K);
    double* di = dim + (static_cast<size_t>(j) * K);
    double pm2[K];
    double cm2[K];
    for (int f = 0; f < K; ++f) {
      dr[f] = pr[f];
      di[f] = pi[f];
      pm2[f] = pr[f] * pr[f] + pi[f] * pi[f];
      cm2[f] = pm2[f];
    }
    for (int e = lptr[j]; e < lptr[j + 1]; ++e) {
      const double* yr = xre + (static_cast<size_t>(lrow[e]) * K);
      const double* yi = xim + (static_cast<size_t>(lrow[e]) * K);
      for (int f = 0; f < K; ++f) {
        cm2[f] = std::max(cm2[f], yr[f] * yr[f] + yi[f] * yi[f]);
      }
    }
    double inv[K];
    for (int f = 0; f < K; ++f) {
      if (pm2[f] < kSparsePivotRel * kSparsePivotRel * cm2[f] ||
          pm2[f] <= 0.0) {
        return false;
      }
      umax2[f] = std::max(umax2[f], pm2[f]);
      inv[f] = 1.0 / pm2[f];
    }
    for (int e = lptr[j]; e < lptr[j + 1]; ++e) {
      const size_t r = static_cast<size_t>(lrow[e]) * K;
      lanes_norm(lre + (static_cast<size_t>(e) * K),
                 lim + (static_cast<size_t>(e) * K), xre + r, xim + r, dr, di,
                 inv);
    }
  }

  for (int f = 0; f < K; ++f) {
    if (umax2[f] > kSparseGrowthLimit * kSparseGrowthLimit * amax2[f]) {
      return false;
    }
  }
  return true;
}

void SparseSweepLu::solve_block(const cd* b, cd* out, int stride) const {
  constexpr int K = kMaxLanes;
  const int n = scalar_.n_;
  const std::vector<int>& lptr = scalar_.lptr_;
  const std::vector<int>& lpos = scalar_.lpos_;
  const std::vector<int>& uptr = scalar_.uptr_;
  const std::vector<int>& upos = scalar_.upos_;
  const std::vector<int>& perm = scalar_.perm_r_;
  for (int k = 0; k < n; ++k) {
    const double br = b[perm[k]].real();
    const double bi = b[perm[k]].imag();
    double* __restrict wr = &wre_[static_cast<size_t>(k) * K];
    double* __restrict wi = &wim_[static_cast<size_t>(k) * K];
    for (int f = 0; f < K; ++f) {
      wr[f] = br;
      wi[f] = bi;
    }
  }
  const double* __restrict lre = lre_.data();
  const double* __restrict lim = lim_.data();
  const double* __restrict ure = ure_.data();
  const double* __restrict uim = uim_.data();
  const double* __restrict dre = dre_.data();
  const double* __restrict dim = dim_.data();
  double* __restrict wre = wre_.data();
  double* __restrict wim = wim_.data();
  for (int k = 0; k < n; ++k) {
    const size_t rk = static_cast<size_t>(k) * K;
    for (int e = lptr[k]; e < lptr[k + 1]; ++e) {
      const size_t rt = static_cast<size_t>(lpos[e]) * K;
      lanes_cmulsub(wre + rt, wim + rt, lre + (static_cast<size_t>(e) * K),
                    lim + (static_cast<size_t>(e) * K), wre + rk, wim + rk);
    }
  }
  for (int j = n - 1; j >= 0; --j) {
    const size_t rj = static_cast<size_t>(j) * K;
    lanes_pivdiv(wre + rj, wim + rj, dre + rj, dim + rj);
    for (int e = uptr[j]; e < uptr[j + 1]; ++e) {
      const size_t rt = static_cast<size_t>(upos[e]) * K;
      lanes_cmulsub(wre + rt, wim + rt, ure + (static_cast<size_t>(e) * K),
                    uim + (static_cast<size_t>(e) * K), wre + rj, wim + rj);
    }
  }
  for (int f = 0; f < lanes_; ++f) {
    cd* o = out + static_cast<size_t>(f) * static_cast<size_t>(stride);
    for (int j = 0; j < n; ++j) {
      o[j] = cd(wre[static_cast<size_t>(j) * K + f],
                wim[static_cast<size_t>(j) * K + f]);
    }
  }
}

void SparseSweepLu::solve_transposed_block(const cd* b, cd* out,
                                           int stride) const {
  constexpr int K = kMaxLanes;
  const int n = scalar_.n_;
  const std::vector<int>& lptr = scalar_.lptr_;
  const std::vector<int>& lpos = scalar_.lpos_;
  const std::vector<int>& uptr = scalar_.uptr_;
  const std::vector<int>& upos = scalar_.upos_;
  const std::vector<int>& perm = scalar_.perm_r_;
  const double* __restrict lre = lre_.data();
  const double* __restrict lim = lim_.data();
  const double* __restrict ure = ure_.data();
  const double* __restrict uim = uim_.data();
  const double* __restrict dre = dre_.data();
  const double* __restrict dim = dim_.data();
  double* __restrict wre = wre_.data();
  double* __restrict wim = wim_.data();
  // U^T z = b (forward over U columns).
  for (int j = 0; j < n; ++j) {
    const double br = b[j].real();
    const double bi = b[j].imag();
    const size_t rj = static_cast<size_t>(j) * K;
    double* wr = wre + rj;
    double* wi = wim + rj;
    for (int f = 0; f < K; ++f) {
      wr[f] = br;
      wi[f] = bi;
    }
    for (int e = uptr[j]; e < uptr[j + 1]; ++e) {
      const size_t rz = static_cast<size_t>(upos[e]) * K;
      lanes_cmulsub(wre + rj, wim + rj, ure + (static_cast<size_t>(e) * K),
                    uim + (static_cast<size_t>(e) * K), wre + rz, wim + rz);
    }
    lanes_pivdiv(wre + rj, wim + rj, dre + rj, dim + rj);
  }
  // L^T w = z (backward over L columns).
  for (int k = n - 1; k >= 0; --k) {
    const size_t rk = static_cast<size_t>(k) * K;
    for (int e = lptr[k]; e < lptr[k + 1]; ++e) {
      const size_t rz = static_cast<size_t>(lpos[e]) * K;
      lanes_cmulsub(wre + rk, wim + rk, lre + (static_cast<size_t>(e) * K),
                    lim + (static_cast<size_t>(e) * K), wre + rz, wim + rz);
    }
  }
  for (int f = 0; f < lanes_; ++f) {
    cd* o = out + static_cast<size_t>(f) * static_cast<size_t>(stride);
    for (int k = 0; k < n; ++k) {
      o[perm[k]] = cd(wre[static_cast<size_t>(k) * K + f],
                      wim[static_cast<size_t>(k) * K + f]);
    }
  }
}

}  // namespace gcnrl::la
