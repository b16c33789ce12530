#include "sim/structure.hpp"

#include <algorithm>
#include <atomic>

#include "sim/stamps.hpp"

namespace gcnrl::sim {

namespace {

std::atomic<bool> g_sparse_enabled{true};

// Matrix sink that marks each entry a stamp walk writes, and its
// transpose, with 0 in an n x n table of -1s; the values land in one
// scratch entry.
struct MarkSink {
  int* marks;
  int n;
  double scratch = 0.0;
  double& operator()(int r, int c) {
    marks[r * n + c] = 0;
    marks[c * n + r] = 0;
    return scratch;
  }
};

// Matrix sink that appends the slot of each entry a stamp walk writes,
// looked up in the numbered n x n table.
struct SlotRecorder {
  const std::vector<int>& table;  // n x n, row-major
  int n;
  std::vector<int>& out;
  double scratch = 0.0;
  double& operator()(int r, int c) {
    out.push_back(table[static_cast<std::size_t>(r) * n + c]);
    return scratch;
  }
};

}  // namespace

bool sparse_engine_enabled() {
  return g_sparse_enabled.load(std::memory_order_relaxed);
}

void set_sparse_engine_enabled(bool on) {
  g_sparse_enabled.store(on, std::memory_order_relaxed);
}

MnaStructure::MnaStructure(const SimContext& ctx) {
  const int n = ctx.map.dim();
  const std::size_t nmos = ctx.nl.mosfets().size();
  // 1. Mark every entry either walk writes, walked once at zero values,
  // and its transpose: MNA stamps are already structurally symmetric, and
  // marking both makes the invariant unconditional. `zeros` stands in for
  // x, x_prev and the source values, which need dim and
  // (isources + vsources) <= dim + isources entries.
  std::vector<int> table(static_cast<std::size_t>(n) * n, -1);
  const std::vector<double> zeros(n + ctx.nl.isources().size(), 0.0);
  const std::vector<MosOp> ops(nmos);
  const std::vector<MosCaps> caps(nmos);
  const Companions be{zeros, caps, 0.0};
  std::vector<double> f;
  MarkSink marks{table.data(), n};
  newton_stamps(ctx, zeros, ops, zeros.data(), 0.0, &be, marks, f);
  small_signal_stamps(ctx, ops, caps, marks, marks);
  // 2. Number the marked entries in row-major order: that is the CSR
  // pattern, and each entry's number is its value slot.
  pattern.n = n;
  pattern.row_ptr.assign(static_cast<std::size_t>(n) + 1, 0);
  pattern.col_idx.reserve(std::count(table.begin(), table.end(), 0));
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < n; ++c) {
      int& slot = table[static_cast<std::size_t>(r) * n + c];
      if (slot == 0) {
        slot = pattern.nnz();
        pattern.col_idx.push_back(c);
      }
    }
    pattern.row_ptr[r + 1] = pattern.nnz();
  }
  // 3. Each walk's slots in write order.
  SlotRecorder newton{table, n, newton_slots};
  newton_stamps(ctx, zeros, ops, zeros.data(), 0.0, &be, newton, f);
  SlotRecorder g{table, n, g_slots};
  SlotRecorder c{table, n, c_slots};
  small_signal_stamps(ctx, ops, caps, g, c);
}

}  // namespace gcnrl::sim
