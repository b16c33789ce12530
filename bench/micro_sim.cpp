// google-benchmark microbenchmarks for the simulator substrate: these
// bound the evaluation cost that every optimization step pays.
#include <benchmark/benchmark.h>

#include <vector>

#include "circuits/benchmark_circuits.hpp"
#include "common/rng.hpp"
#include "env/sizing_env.hpp"
#include "sim/perf.hpp"
#include "sim/simulator.hpp"
#include "sim/structure.hpp"

using namespace gcnrl;

namespace {

const auto kTech = circuit::make_technology("180nm");

void BM_DcSolve_TwoTia(benchmark::State& state) {
  auto bc = circuits::make_two_tia(kTech);
  circuit::Netlist nl = bc.netlist;
  bc.space.apply(nl, bc.human_expert);
  for (auto _ : state) {
    sim::Simulator s(nl, kTech);
    benchmark::DoNotOptimize(s.op().v[0]);
  }
}
BENCHMARK(BM_DcSolve_TwoTia);

// The same solve warm-started from its own converged operating point —
// the best case of the warm path (an optimizer revisiting a neighborhood)
// and the direct comparison row for BM_DcSolve_TwoTia above.
void BM_DcSolveWarm_TwoTia(benchmark::State& state) {
  auto bc = circuits::make_two_tia(kTech);
  circuit::Netlist nl = bc.netlist;
  bc.space.apply(nl, bc.human_expert);
  sim::Simulator cold(nl, kTech);
  const sim::OpPoint guess = cold.op();
  for (auto _ : state) {
    sim::Simulator s(nl, kTech);
    s.warm_start_from(guess);
    benchmark::DoNotOptimize(s.op().v[0]);
  }
}
BENCHMARK(BM_DcSolveWarm_TwoTia);

void BM_AcSweep_TwoTia_97pts(benchmark::State& state) {
  auto bc = circuits::make_two_tia(kTech);
  circuit::Netlist nl = bc.netlist;
  bc.space.apply(nl, bc.human_expert);
  sim::Simulator s(nl, kTech);
  s.op();
  const auto freqs = sim::logspace(1e3, 1e11, 97);
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.ac(freqs).v(0, 1));
  }
}
BENCHMARK(BM_AcSweep_TwoTia_97pts);

// Dense AC matrix assembly alone: G/C stamps built once per sweep, then
// Y = G + j*omega*C per frequency point.
void BM_AcAssemblySplit_TwoTia_97pts(benchmark::State& state) {
  auto bc = circuits::make_two_tia(kTech);
  circuit::Netlist nl = bc.netlist;
  bc.space.apply(nl, bc.human_expert);
  sim::Simulator s(nl, kTech);
  const sim::OpPoint op = s.op();
  const auto freqs = sim::logspace(1e3, 1e11, 97);
  for (auto _ : state) {
    const sim::AcStamps stamps = sim::build_ac_stamps(s.context(), op);
    for (const double f : freqs) {
      benchmark::DoNotOptimize(
          sim::assemble_ac_matrix(stamps, 2.0 * M_PI * f)(0, 0));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<long>(freqs.size()));
}
BENCHMARK(BM_AcAssemblySplit_TwoTia_97pts);

// --- engine rows -----------------------------------------------------
//
// Per registered circuit: one DC row (DC Newton is dense only) and one AC
// row per engine. Each row reports the system size (dim, nnz of the
// sparse pattern) and the measured per-solve phase split (assembly /
// factor / solve, in ns) from the sim-perf registry, so a regression in
// any single phase is visible directly in CI's BENCH_micro_sim.json
// instead of hiding inside a total.
class SparseEngineGuard {
 public:
  explicit SparseEngineGuard(bool on) : prev_(sim::sparse_engine_enabled()) {
    sim::set_sparse_engine_enabled(on);
  }
  ~SparseEngineGuard() { sim::set_sparse_engine_enabled(prev_); }

 private:
  bool prev_;
};

void report_phase_counters(benchmark::State& state, const sim::MnaStructure& st,
                           const sim::AnalysisPerf& perf) {
  state.counters["dim"] = static_cast<double>(st.pattern.n);
  state.counters["nnz"] = static_cast<double>(st.pattern.nnz());
  if (perf.calls == 0) return;
  const double per_call = 1e9 / static_cast<double>(perf.calls);
  state.counters["assembly_ns"] = perf.phase.assembly * per_call;
  state.counters["factor_ns"] = perf.phase.factor * per_call;
  state.counters["solve_ns"] = perf.phase.solve * per_call;
  state.counters["sparse_fallbacks"] =
      static_cast<double>(perf.sparse_fallbacks);
}

void BM_DcEngine(benchmark::State& state, const char* name) {
  auto bc = circuits::make_benchmark(name, kTech);
  circuit::Netlist nl = bc.netlist;
  bc.space.apply(nl, bc.human_expert);
  sim::sim_perf_reset();
  for (auto _ : state) {
    sim::Simulator s(nl, kTech);
    benchmark::DoNotOptimize(s.op().v[0]);
  }
  const sim::SimPerf snap = sim::sim_perf_snapshot();
  sim::Simulator s(nl, kTech);
  report_phase_counters(state, *s.context().structure, snap.dc);
}
BENCHMARK_CAPTURE(BM_DcEngine, two_tia_dense, "Two-TIA");
BENCHMARK_CAPTURE(BM_DcEngine, two_volt_dense, "Two-Volt");
BENCHMARK_CAPTURE(BM_DcEngine, three_tia_dense, "Three-TIA");
BENCHMARK_CAPTURE(BM_DcEngine, ldo_dense, "LDO");

void BM_AcEngine(benchmark::State& state, const char* name, bool sparse) {
  auto bc = circuits::make_benchmark(name, kTech);
  circuit::Netlist nl = bc.netlist;
  bc.space.apply(nl, bc.human_expert);
  SparseEngineGuard guard(sparse);
  sim::Simulator s(nl, kTech);
  s.op();
  const auto freqs = sim::logspace(1e3, 1e11, 97);
  sim::sim_perf_reset();
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.ac(freqs).v(0, 1));
  }
  const sim::SimPerf snap = sim::sim_perf_snapshot();
  report_phase_counters(state, *s.context().structure, snap.ac);
}
BENCHMARK_CAPTURE(BM_AcEngine, two_tia_sparse, "Two-TIA", true);
BENCHMARK_CAPTURE(BM_AcEngine, two_tia_dense, "Two-TIA", false);
BENCHMARK_CAPTURE(BM_AcEngine, two_volt_sparse, "Two-Volt", true);
BENCHMARK_CAPTURE(BM_AcEngine, two_volt_dense, "Two-Volt", false);
BENCHMARK_CAPTURE(BM_AcEngine, three_tia_sparse, "Three-TIA", true);
BENCHMARK_CAPTURE(BM_AcEngine, three_tia_dense, "Three-TIA", false);
BENCHMARK_CAPTURE(BM_AcEngine, ldo_sparse, "LDO", true);
BENCHMARK_CAPTURE(BM_AcEngine, ldo_dense, "LDO", false);

void BM_FullEval(benchmark::State& state, const char* name) {
  auto bc = circuits::make_benchmark(name, kTech);
  circuit::Netlist nl = bc.netlist;
  bc.space.apply(nl, bc.human_expert);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bc.evaluate(nl).size());
  }
}
BENCHMARK_CAPTURE(BM_FullEval, two_tia, "Two-TIA");
BENCHMARK_CAPTURE(BM_FullEval, two_volt, "Two-Volt");
BENCHMARK_CAPTURE(BM_FullEval, three_tia, "Three-TIA");
BENCHMARK_CAPTURE(BM_FullEval, ldo, "LDO");

// Device-model cost per device: the LDO's nine MOSFETs at their
// human-expert operating point, every terminal voltage perturbed by up to
// 20 mV in each of 64 trajectory entries, evaluated one eval_mos call per
// device (single) or one eval_mos_batch call per entry (batch). The
// per_device counter is wall time over devices evaluated.
void BM_MosEval(benchmark::State& state, bool batch) {
  const auto bc = circuits::make_ldo(kTech);
  circuit::Netlist nl = bc.netlist;
  bc.space.apply(nl, bc.human_expert);
  sim::Simulator s(nl, kTech);
  const sim::OpPoint& op = s.op();
  const sim::SimContext& ctx = s.context();
  const auto& mosfets = nl.mosfets();
  constexpr int kTraj = 64;
  Rng rng(11);
  std::vector<std::vector<sim::MosBias>> traj(kTraj);
  for (auto& biases : traj) {
    for (const auto& mos : mosfets) {
      biases.push_back({op.v[mos.g] + rng.uniform(-0.02, 0.02),
                        op.v[mos.d] + rng.uniform(-0.02, 0.02),
                        op.v[mos.s] + rng.uniform(-0.02, 0.02)});
    }
  }
  std::vector<sim::MosOp> out(mosfets.size());
  for (auto _ : state) {
    for (const auto& biases : traj) {
      if (batch) {
        sim::eval_mos_batch(ctx.devices, biases, out);
      } else {
        for (std::size_t k = 0; k < mosfets.size(); ++k) {
          out[k] = sim::eval_mos(ctx.models[k], mosfets[k], biases[k].vg,
                                 biases[k].vd, biases[k].vs);
        }
      }
      benchmark::DoNotOptimize(out.data());
      benchmark::ClobberMemory();
    }
  }
  state.counters["per_device"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * kTraj *
          static_cast<double>(mosfets.size()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK_CAPTURE(BM_MosEval, single, false);
BENCHMARK_CAPTURE(BM_MosEval, batch, true);

void BM_EnvStepRandom_TwoTia(benchmark::State& state) {
  env::SizingEnv env(circuits::make_two_tia(kTech));
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(env.step(env.random_actions(rng)).fom);
  }
}
BENCHMARK(BM_EnvStepRandom_TwoTia);

}  // namespace
