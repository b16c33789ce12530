#include "sim/perf.hpp"

#include <atomic>

namespace gcnrl::sim {
namespace {

// Wall time is stored as integer nanoseconds so plain fetch_add works on
// every toolchain (atomic<double>::fetch_add is C++20 but patchily lowered
// to CAS loops); the public snapshot converts back to seconds.
struct AtomicPerf {
  std::atomic<long> calls{0};
  std::atomic<long> items{0};
  std::atomic<long> warm_hits{0};
  std::atomic<long> warm_fallbacks{0};
  std::atomic<long> sparse_fallbacks{0};
  std::atomic<long> replayed{0};
  std::atomic<long> nanos{0};
  std::atomic<long> assembly_nanos{0};
  std::atomic<long> factor_nanos{0};
  std::atomic<long> solve_nanos{0};

  void load_into(AnalysisPerf& out) {
    out.calls = calls.load(std::memory_order_relaxed);
    out.items = items.load(std::memory_order_relaxed);
    out.warm_hits = warm_hits.load(std::memory_order_relaxed);
    out.warm_fallbacks = warm_fallbacks.load(std::memory_order_relaxed);
    out.sparse_fallbacks = sparse_fallbacks.load(std::memory_order_relaxed);
    out.replayed = replayed.load(std::memory_order_relaxed);
    out.seconds = static_cast<double>(nanos.load(std::memory_order_relaxed)) *
                  1e-9;
    out.phase.assembly =
        static_cast<double>(assembly_nanos.load(std::memory_order_relaxed)) *
        1e-9;
    out.phase.factor =
        static_cast<double>(factor_nanos.load(std::memory_order_relaxed)) *
        1e-9;
    out.phase.solve =
        static_cast<double>(solve_nanos.load(std::memory_order_relaxed)) *
        1e-9;
  }
  void reset() {
    calls.store(0, std::memory_order_relaxed);
    items.store(0, std::memory_order_relaxed);
    warm_hits.store(0, std::memory_order_relaxed);
    warm_fallbacks.store(0, std::memory_order_relaxed);
    sparse_fallbacks.store(0, std::memory_order_relaxed);
    replayed.store(0, std::memory_order_relaxed);
    nanos.store(0, std::memory_order_relaxed);
    assembly_nanos.store(0, std::memory_order_relaxed);
    factor_nanos.store(0, std::memory_order_relaxed);
    solve_nanos.store(0, std::memory_order_relaxed);
  }
};

AtomicPerf g_perf[4];

AtomicPerf& slot(Analysis which) {
  return g_perf[static_cast<int>(which)];
}

}  // namespace

void sim_perf_record(Analysis which, long items, double seconds,
                     long warm_hits, long warm_fallbacks,
                     const PhaseSeconds* phases, long replayed) {
  AtomicPerf& p = slot(which);
  p.calls.fetch_add(1, std::memory_order_relaxed);
  p.items.fetch_add(items, std::memory_order_relaxed);
  if (warm_hits) p.warm_hits.fetch_add(warm_hits, std::memory_order_relaxed);
  if (warm_fallbacks) {
    p.warm_fallbacks.fetch_add(warm_fallbacks, std::memory_order_relaxed);
  }
  if (replayed) p.replayed.fetch_add(replayed, std::memory_order_relaxed);
  p.nanos.fetch_add(static_cast<long>(seconds * 1e9),
                    std::memory_order_relaxed);
  if (phases) {
    p.assembly_nanos.fetch_add(static_cast<long>(phases->assembly * 1e9),
                               std::memory_order_relaxed);
    p.factor_nanos.fetch_add(static_cast<long>(phases->factor * 1e9),
                             std::memory_order_relaxed);
    p.solve_nanos.fetch_add(static_cast<long>(phases->solve * 1e9),
                            std::memory_order_relaxed);
  }
}

void sim_perf_sparse_fallback(Analysis which) {
  slot(which).sparse_fallbacks.fetch_add(1, std::memory_order_relaxed);
}

SimPerf sim_perf_snapshot() {
  SimPerf s;
  slot(Analysis::Dc).load_into(s.dc);
  slot(Analysis::Ac).load_into(s.ac);
  slot(Analysis::Noise).load_into(s.noise);
  slot(Analysis::Tran).load_into(s.tran);
  return s;
}

void sim_perf_reset() {
  for (auto& p : g_perf) p.reset();
}

}  // namespace gcnrl::sim
