// The sizing environment: one "episode" of the paper's six-step loop
// (Fig. 2): embed topology -> states -> actions -> refine -> simulate ->
// reward.
//
// A BenchmarkCircuit bundles everything a circuit contributes: netlist,
// design space (+ matching groups), FoM definition, the measurement plan
// (an `evaluate` closure that runs the analysis testbenches on a sized
// netlist), and a human-expert reference sizing.
//
// State vector s_k = (k, t, h) per component k (paper Sec. III-C):
//   k  one-hot component index (fixed-topology mode) or scalar index
//      (topology-transfer mode — keeps the state dimension identical
//      across circuits, Sec. III-E);
//   t  one-hot of the 4 component types;
//   h  5 technology model features (Vsat, Vth0, Vfb, mu0, Uc; zero for
//      R/C).
// Each state dimension is normalized by mean/std across components.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "circuit/design_space.hpp"
#include "circuit/graph.hpp"
#include "circuit/netlist.hpp"
#include "circuit/tech.hpp"
#include "common/rng.hpp"
#include "env/fom.hpp"

namespace gcnrl::env {

struct BenchmarkCircuit {
  std::string name;
  circuit::Technology tech;
  circuit::Netlist netlist;
  circuit::DesignSpace space;
  FomSpec fom;
  // Runs all analyses on a sized netlist; throws sim::SimError on failure.
  //
  // CONCURRENCY CONTRACT (as close to a static_assert as a type-erased
  // closure allows): EvalService invokes this closure concurrently from
  // worker threads, each on its own sized-netlist copy. The closure must
  // therefore be a pure function of its argument: capture everything by
  // value (in particular the Technology — never a reference to the
  // enclosing builder's `tech`), construct Simulators locally, and touch
  // no shared mutable state. All four builders in src/circuits/ comply
  // and are covered by the 8-thread tests in test_circuits/test_eval.
  std::function<MetricMap(const circuit::Netlist&)> evaluate;
  circuit::DesignParams human_expert;
};

enum class IndexMode { OneHot, Scalar };

struct EvalResult {
  double fom = 0.0;
  bool sim_ok = false;
  bool spec_ok = false;
  bool cached = false;  // served from the EvalService result cache
  MetricMap metrics;
  circuit::DesignParams params;
};

// Evaluation-engine knobs (see eval_service.hpp for the engine itself).
struct EvalServiceConfig {
  int threads = 1;                    // 1 = serial backend (the default)
  std::size_t cache_capacity = 4096;  // LRU entries; 0 disables the cache
};

// Reads GCNRL_EVAL_THREADS / GCNRL_EVAL_CACHE from the environment.
EvalServiceConfig eval_config_from_env();

class EvalService;

class SizingEnv {
 public:
  explicit SizingEnv(BenchmarkCircuit bc, IndexMode mode = IndexMode::OneHot,
                     EvalServiceConfig ecfg = eval_config_from_env());
  // Shared-service construction: the env evaluates through `svc`, drawing
  // on its thread pool and result cache alongside every other env holding
  // the same service (the lockstep multi-seed sweeps build S seed-envs
  // this way). A null `svc` falls back to a private service built from
  // eval_config_from_env(). The env claims its own attribution slot on the
  // service, so num_evals/num_sims/cache_hits stay per-env even when the
  // service is shared (service-wide totals live on the service itself).
  SizingEnv(BenchmarkCircuit bc, IndexMode mode,
            std::shared_ptr<EvalService> svc);
  ~SizingEnv();
  SizingEnv(SizingEnv&&) noexcept;
  SizingEnv& operator=(SizingEnv&&) noexcept;

  // --- topology view ---------------------------------------------------
  [[nodiscard]] int n() const { return n_; }
  [[nodiscard]] int state_dim() const { return state_.cols(); }
  [[nodiscard]] const la::Mat& state() const { return state_; }
  [[nodiscard]] const la::Mat& adjacency() const { return adjacency_; }
  [[nodiscard]] const std::vector<circuit::Kind>& kinds() const {
    return kinds_;
  }
  [[nodiscard]] IndexMode index_mode() const { return mode_; }

  // --- evaluation ------------------------------------------------------
  // All evaluation funnels through the EvalService: step/step_flat are
  // thin wrappers over batches of one. Batch results come back in
  // submission order and are bit-identical for every thread count.
  // actions: n x kMaxActionDim in [-1, 1].
  EvalResult step(const la::Mat& actions);
  std::vector<EvalResult> step_batch(std::span<const la::Mat> actions);
  // Flattened views for the black-box baselines.
  EvalResult step_flat(std::span<const double> x);
  std::vector<EvalResult> step_flat_batch(
      std::span<const std::vector<double>> xs);
  [[nodiscard]] int flat_dim() const { return bc_.space.flat_dim(); }
  // Evaluate explicit parameters (the human-expert anchor) through the
  // identical refine -> simulate -> FoM pipeline.
  EvalResult evaluate_params(const circuit::DesignParams& p);

  la::Mat random_actions(Rng& rng) { return bc_.space.random_actions(rng); }

  // FoM normalizer calibration by random sampling (paper: 5000 samples).
  // Returns the number of successfully simulated samples.
  int calibrate(int samples, Rng& rng);

  [[nodiscard]] const BenchmarkCircuit& bench() const { return bc_; }
  BenchmarkCircuit& bench() { return bc_; }
  // Requested evaluations (cache hits included), simulator runs actually
  // executed, and cache-served results, attributed to THIS env's requests
  // (num_evals - num_sims = cache_hits even on a shared service). A result
  // another env simulated first is a cache hit here, so on a shared
  // service num_sims is a wall-clock-cost number, not a budget — the run
  // loops' RunResult::sims carries the warmth-independent simulated cost.
  [[nodiscard]] long num_evals() const;
  [[nodiscard]] long num_sims() const;
  [[nodiscard]] long cache_hits() const;
  [[nodiscard]] int eval_threads() const;
  // This env's attribution slot on its service (stamped on every job the
  // env submits; the lockstep driver stamps it on merged batches too).
  [[nodiscard]] int eval_attr() const { return attr_; }
  EvalService& eval_service() { return *svc_; }
  // The owning handle, for wiring further envs onto the same service.
  [[nodiscard]] const std::shared_ptr<EvalService>& eval_service_ptr() const {
    return svc_;
  }

 private:
  void build_state();

  BenchmarkCircuit bc_;
  IndexMode mode_;
  int n_ = 0;
  la::Mat adjacency_;
  la::Mat state_;
  std::vector<circuit::Kind> kinds_;
  std::shared_ptr<EvalService> svc_;
  int attr_ = -1;
};

}  // namespace gcnrl::env
