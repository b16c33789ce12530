// Per-analysis attribution counters for the simulator hot path.
//
// Every FoM evaluation decomposes into DC solves, AC sweeps, noise sweeps
// and transient runs; this registry attributes work (calls, iterations /
// frequency points, wall time) to each analysis so benches like
// bench/micro_eval can report *where* an evaluation spends its time and
// later PRs can track a per-analysis perf trajectory instead of a single
// evals/sec number.
//
// The counters are process-global atomics, updated once per analysis call
// (never per Newton iteration) with a handful of relaxed atomic adds. The
// phase split costs more: DC and transient read the clock four times per
// Newton iteration, the dense AC and noise sweeps four times per frequency
// point, the sparse ones three times per block of frequency points. Wall
// time feeds reporting only — it is never part of a result, a budget, or
// a cache key, so the determinism contracts of the evaluation engine are
// untouched. Snapshots are exact even while worker threads are recording.
#pragma once

namespace gcnrl::sim {

// Wall time split by solver phase within one analysis call. `assembly` is
// stamp evaluation + value-array/matrix fill; in DC and the transient it
// includes every MOSFET's model evaluation, which build_dense and
// build_tran_* run between the assembly clock reads. `factor` is the LU
// factorization (for the sparse AC/noise sweep this includes the blocked
// per-frequency scatter, which is part of the blocked refactorization),
// `solve` the triangular solves. The phases never sum exactly to the
// analysis' total seconds — convergence checks, damping and bookkeeping
// (and DC's evaluation of the converged operating point) live between
// them.
struct PhaseSeconds {
  double assembly = 0.0;
  double factor = 0.0;
  double solve = 0.0;
};

// One analysis kind's totals since the last reset.
struct AnalysisPerf {
  long calls = 0;      // solve_dc / solve_ac / solve_noise / solve_tran calls
  long items = 0;      // Newton iterations (DC, tran) or frequency points
                       // (AC, noise)
  long warm_hits = 0;  // DC only: solves converged directly from a warm start
  long warm_fallbacks = 0;  // DC only: warm attempts that fell back to the
                            // cold gmin/source-stepping ladder
  long sparse_fallbacks = 0;  // AC/noise/tran analyses rerun densely after
                              // the sparse engine rejected a
                              // factorization (DC is always dense: 0)
  long replayed = 0;  // tran only: time steps (counted in items too) copied
                      // from a settled cycle instead of solved
  double seconds = 0.0;       // wall time inside the analysis
  PhaseSeconds phase;         // assembly / factor / solve attribution
};

struct SimPerf {
  AnalysisPerf dc;
  AnalysisPerf ac;
  AnalysisPerf noise;
  AnalysisPerf tran;
};

enum class Analysis { Dc, Ac, Noise, Tran };

// Accumulate one analysis call. `items`/`warm_*`/`replayed` as per
// AnalysisPerf; `phases`, when non-null, adds per-phase attribution.
void sim_perf_record(Analysis which, long items, double seconds,
                     long warm_hits = 0, long warm_fallbacks = 0,
                     const PhaseSeconds* phases = nullptr, long replayed = 0);

// Count one sparse-engine rejection (the analysis rerun happens on the
// dense path and records itself through sim_perf_record as usual).
void sim_perf_sparse_fallback(Analysis which);

// Totals since process start or the last sim_perf_reset().
SimPerf sim_perf_snapshot();
void sim_perf_reset();

}  // namespace gcnrl::sim
