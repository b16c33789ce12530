// Declarative task-spec files for gcnrl_cli and programmatic batch runs.
//
// ---------------------------------------------------------------------------
// SPEC FILE SCHEMA (minimal strict JSON — no comments, no trailing commas)
// ---------------------------------------------------------------------------
// {
//   "options": {                  // optional; cross-task RunOptions
//     "calib":      300,          // FoM calibration samples per circuit
//     "calib_seed": 2024,         // shared calibration RNG seed
//     "mode":       "one_hot"     // component indexing: "one_hot"|"scalar"
//   },
//   "tasks": [                    // required; one object per task
//     {
//       "circuit":  "Two-TIA",    // a CircuitRegistry name; required
//                                 // unless circuit_file is given
//       "circuit_file": "x.gcir", // path to a .gcir circuit description:
//                                 // registered at run time (its declared
//                                 // name becomes the task's circuit; a
//                                 // also-given "circuit" must match it).
//                                 // Relative paths resolve against the
//                                 // spec file's directory.
//       "method":   "GCN-RL",     // required; a MethodRegistry name
//       "node":     "180nm",      // technology node (default "180nm")
//       "steps":    300,          // search steps per seed (default 300)
//       "warmup":   100,          // RL warm-up steps (default 100)
//       "seeds":    1,            // independent seeds (default 1)
//       "sim_budget": 0,          // simulated-cost cap per seed:
//                                 //   0 = auto (budget_from chain),
//                                 //  >0 = explicit cap (ask/tell methods
//                                 //       only; rejected elsewhere),
//                                 //  <0 = force uncapped
//       "label":    "my-run",     // display label (default method/circuit)
//
//       // --- transfer protocol (DDPG-kind methods only) ---------------
//       "pretrain_from":   "pre", // warm-start from the in-list task with
//                                 // this label (planner orders it first)
//       "load_checkpoint": "zoo", // warm-start from a CheckpointStore
//                                 // artifact ("zoo#<seed>" preferred over
//                                 // "zoo" per seed); exclusive with
//                                 // pretrain_from
//       "save_checkpoint": "zoo", // store trained weights under this name
//                                 // (per-seed "zoo#<seed>" when seeds > 1)
//       "mode": "scalar",         // per-task index-mode override
//                                 // ("one_hot"|"scalar"; default:
//                                 // options.mode)
//       "calib_group": "dir2",    // calibration-sharing tag: a distinct
//                                 // tag forces a fresh FoM calibration
//       "seed_base":   900,       // per-seed RNG override: seed s uses
//       "seed_stride": 31,        // seed_base + seed_stride * s
//
//       "fom": {                  // per-task FoM override, applied after
//         "enforce_spec": false,  // calibration (normalizers stay
//         "weights": {"bw": 10}   // shared); both members optional, a
//       }                         // weight must name a circuit metric
//     }
//   ]
// }
// ---------------------------------------------------------------------------
// Unknown keys anywhere are an error (fail loudly rather than silently
// ignore a typo); so are wrong value types. Budget chains (BO/MACE
// stopping at the matching ES seed's simulated cost) need no annotation:
// api::run_tasks matches source tasks by (method, circuit, node, steps,
// seeds) wherever they appear in the list. Pretrain chains DO need one:
// "pretrain_from" names the source task's label. The checkpoint store's
// disk tier (GCNRL_CHECKPOINT_DIR) makes "load_checkpoint" work across
// processes — see api/checkpoints.hpp.
#pragma once

#include <string>
#include <vector>

#include "api/task.hpp"

namespace gcnrl::api {

// A parsed spec file: cross-task options (RunOptions::service is always
// null — the runner supplies it) plus the task list.
struct TaskFile {
  RunOptions options;
  std::vector<TaskSpec> tasks;
};

// Parses spec-file text. Throws std::runtime_error with a line:column
// position on malformed JSON and with the offending key on schema errors.
TaskFile parse_task_spec(const std::string& text);

// Reads and parses a spec file from disk; throws std::runtime_error when
// the file cannot be read.
TaskFile load_task_spec(const std::string& path);

}  // namespace gcnrl::api
