// Per-topology MNA structure: the sparse engine's one-time setup.
//
// Sizing changes element *values* but never the netlist topology, so the
// CSR sparsity pattern of the MNA system can be computed once per
// SimContext and reused by the AC, noise and transient analyses of that
// design. The stamp walks of sim/stamps.hpp write straight into a value
// array aligned with it through SlotSink (no dense zero-fill), and
// la::SparseLu factors over the fixed pattern with symbolic reuse across
// frequency points, timesteps and transient Newton iterations. DC Newton
// always runs on the dense LU, which measures faster at these dimensions.
//
// The pattern is every coordinate the two stamp walks write (the Newton
// walk with its transient companions, and the small-signal walk), marked
// once at zero values in an n x n table, together with its transpose.
// MNA stamps already produce a structurally symmetric pattern; forcing
// symmetry keeps that invariant explicit, which is what lets SparseLu's
// diagonal-preference pivoting stand in for a separate fill-reducing
// ordering at these dimensions. Numbering the marked entries row by row
// gives the CSR pattern and each entry's value slot; a second pass of
// each walk records the slots it writes, in write order, for SlotSink to
// replay. A walk's writes depend on the topology alone, never on values,
// so every later pass writes the same entries in the same order.
#pragma once

#include <vector>

#include "la/sparse.hpp"
#include "sim/mna.hpp"

namespace gcnrl::sim {

// Process-wide engine toggle, on by default; no environment variable or
// option sets it. The AC, noise and transient analyses run sparse and
// pick their dense path only when a sparse factorization is rejected.
// Turning the toggle off forces those dense fallbacks unconditionally:
// it is the one seam through which tests and micro_sim reach them.
bool sparse_engine_enabled();
void set_sparse_engine_enabled(bool on);

// Internal control-flow signal: a sparse factorization was rejected
// (structural/numeric singularity, pivot-check failure, or element
// growth). The throwing engine reruns the ENTIRE analysis on the dense
// path, whose results, perf recording, and failure diagnostics are
// bitwise the legacy behaviour.
struct SparseEngineFallback {};

struct MnaStructure {
  la::SparsePattern pattern;
  // Value-array slots in the order the stamp walks write them: the
  // transient's Newton walk (companions on), then the small-signal walk's
  // G writes and C writes.
  std::vector<int> newton_slots, g_slots, c_slots;

  explicit MnaStructure(const SimContext& ctx);
};

// Matrix sink of a stamp walk over a value array aligned with the
// pattern: the walk's k-th write lands in vals[slots[k]], the slot its
// k-th write was recorded at. `slots` must be the list recorded for that
// walk: newton_slots for newton_stamps with companions, g_slots and
// c_slots for small_signal_stamps.
class SlotSink {
 public:
  SlotSink(const std::vector<int>& slots, double* vals)
      : next_(slots.data()), vals_(vals) {}
  double& operator()(int /*r*/, int /*c*/) { return vals_[*next_++]; }

 private:
  const int* next_;
  double* vals_;
};

}  // namespace gcnrl::sim
