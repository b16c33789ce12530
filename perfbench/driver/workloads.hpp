// The benchmark's workloads as api::TaskSpec lists. Every workload is a
// closed loop in one process: the seeds of each task advance in lockstep,
// each round submits one batch to the shared EvalService and waits for it.
// perfbench/README.md says why each workload exists.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/task.hpp"

namespace perfbench {

inline constexpr int kSeedsPerTask = 4;
// The one place the evaluation thread count is set.
inline constexpr int kThreads = 4;

struct Workload {
  std::vector<gcnrl::api::TaskSpec> tasks;
  int calib_samples = 300;  // run_tasks' default
  std::uint64_t calib_seed = 0;
};

// `seed` (the benchmark's --seed) sets the calibration seed and every
// task's seed ladder; `smoke` shrinks the budgets to a few steps.
inline Workload make_workload(const std::string& name, std::uint64_t seed,
                              bool smoke) {
  const auto task = [&](const char* circuit, const char* method, int steps,
                        int warmup) {
    gcnrl::api::TaskSpec t;
    t.circuit = circuit;
    t.method = method;
    // Fixed here, so runs on the built-in and on the alias circuit names
    // (eval_probe.hpp) report the same task labels.
    t.label = std::string(method) + "/" + circuit;
    t.steps = steps;
    t.warmup = warmup;
    t.seeds = kSeedsPerTask;
    t.seed_base = 1000 + 1000003 * seed;
    t.seed_stride = 7919;
    return t;
  };
  Workload w;
  w.calib_seed = 2024 + seed;
  if (smoke) w.calib_samples = 16;
  if (name == "gcnrl_2tia") {
    w.tasks.push_back(
        task("Two-TIA", "GCN-RL", smoke ? 6 : 32, smoke ? 3 : 10));
  } else if (name == "bo_2tia") {
    w.tasks.push_back(task("Two-TIA", "BO", smoke ? 14 : 120, 0));
  } else if (name == "es_ldo") {
    w.tasks.push_back(task("LDO", "ES", smoke ? 20 : 260, 0));
  } else if (name == "es_3tia_2volt") {
    const int steps = smoke ? 20 : 800;
    w.tasks.push_back(task("Three-TIA", "ES", steps, 0));
    w.tasks.push_back(task("Two-Volt", "ES", steps, 0));
  } else {
    throw std::invalid_argument("unknown workload \"" + name + "\"");
  }
  return w;
}

}  // namespace perfbench
