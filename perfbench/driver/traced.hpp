// The traced run: the benchmark's own re-implementation of the lockstep
// rounds api::run_tasks executes for a single-level task list (DDPG-kind
// and ask/tell tasks, no budget, pretrain or checkpoint chains), with wall
// clocks around each layer's public calls:
//
//   env       the EnvFactory constructor (calibration) and each
//             EvalService::eval_batch_multi round, plus the service counters
//   rl        DdpgAgent::act_explore / observe
//   opt       ask / tell, through an opt::Optimizer decorator around
//             api::make_ask_tell
//   circuits  each circuit's evaluate (the EvalProbe wrapper)
//   sim       deltas of sim::sim_perf_snapshot()
//
// Per-seed outcomes must equal the untraced run_tasks outcomes bit for bit
// (run.py checks it, which also catches a task list this replica does not
// cover); end-to-end numbers never come from here.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "api/task.hpp"
#include "eval_probe.hpp"

namespace perfbench {

// One (task, seed) outcome, compared between the traced and untraced runs.
struct SeedOutcome {
  std::string task;
  int seed = 0;
  std::string fingerprint;  // api::trace_fingerprint of the best trace
  double best = 0.0;
  long sims = 0;
  long evals = 0;
  int steps = 0;  // the task's step budget
};

struct LayerMetric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct TracedRun {
  double run_s = 0.0;  // calibration + search, the span run_tasks covers
  std::vector<SeedOutcome> seeds;
  std::vector<LayerMetric> layers;
};

// `tasks` must already name the probe's alias circuits; `opts.service`
// must be set.
TracedRun run_traced(const std::vector<gcnrl::api::TaskSpec>& tasks,
                     const gcnrl::api::RunOptions& opts,
                     const EvalProbe& probe);

}  // namespace perfbench
