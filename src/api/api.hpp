// gcnrl public facade: one include for the task-level API.
//
//   registry.hpp     CircuitRegistry / MethodRegistry extension points
//   checkpoints.hpp  CheckpointStore — named, stamped weight artifacts
//                    (the zoo TaskSpec::save/load_checkpoint addresses)
//   task.hpp      TaskSpec / TaskResult / run_tasks planner, the
//                 calibrated EnvFactory it builds envs from, and the
//                 reporting helpers
//   spec.hpp      declarative task-spec files (schema + parser), the
//                 format gcnrl_cli consumes; the paper's experiments ship
//                 as specs/paper/*.json
//
// Typical use:
//
//   api::register_circuit("My-OTA", make_my_ota);      // optional
//   std::vector<api::TaskSpec> tasks = {
//       {.circuit = "My-OTA", .method = "ES", .steps = 200, .seeds = 3},
//       {.circuit = "My-OTA", .method = "BO", .steps = 200, .seeds = 3},
//       {.circuit = "My-OTA", .method = "GCN-RL", .steps = 200,
//        .warmup = 60, .seeds = 3},
//   };
//   const auto results = api::run_tasks(tasks);
//
// The BO task automatically stops at the matching ES seeds' simulated
// cost (the paper's budget rule), all tasks share one EvalService sized
// from GCNRL_EVAL_THREADS / GCNRL_EVAL_CACHE, and per-task results are
// bit-identical at any thread count.
#pragma once

#include "api/checkpoints.hpp"  // IWYU pragma: export
#include "api/registry.hpp"     // IWYU pragma: export
#include "api/spec.hpp"         // IWYU pragma: export
#include "api/task.hpp"         // IWYU pragma: export
