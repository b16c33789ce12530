// The unified task surface of the library: the paper's experiment protocol
// — "run method M on circuit C at tech node T for budget B over S seeds" —
// expressed as data (TaskSpec) and executed by one planner (run_tasks).
//
// run_tasks() groups an arbitrary mix of tasks (different circuits,
// methods, technology nodes, seed counts, budgets) onto ONE shared
// EvalService and drives them through one lockstep driver: every
// (task, seed) pair of a dependency level, whatever its method, joins one
// rl::run_optimizer_lockstep call (the method kinds in registry.hpp say
// how each pair's optimizer is built), so GCNRL_EVAL_THREADS parallelizes
// across everything at once. Per-task results are bit-identical to
// running each task alone, at any thread count — the driver guarantees
// per-pair results independent of grouping, FoM values never depend on
// cache state, and all budgets are simulated-cost counts
// (warmth-independent by construction).
//
// Cross-task dependencies are resolved by the planner, which orders tasks
// into dependency levels (sources before consumers, independent tasks
// merged into one lockstep level):
//   budget chains    a task whose method declares `budget_from` (BO/MACE
//                    -> ES) runs after its source task — same circuit,
//                    node, steps, and seeds, anywhere in the list — and
//                    uses that task's per-seed RunResult::sims as its
//                    stopping budgets. A missing source means no cap; an
//                    explicit TaskSpec::sim_budget > 0 short-circuits the
//                    chain.
//   pretrain chains  a task with `pretrain_from` (the paper's transfer
//                    protocol, Tables IV/V) runs after the in-list task
//                    with that label; the planner retains the source's
//                    trained agents and seeds this task's fresh agents
//                    from them via nn::copy_parameters.
//   checkpoints      `load_checkpoint` warm-starts from a named
//                    CheckpointStore artifact; an in-list task with the
//                    matching `save_checkpoint` name is ordered first.
// Dependency cycles are rejected.
//
// Calibration: FoM normalizers are calibrated once per distinct
// (circuit, node, index mode, calib_group) tuple appearing in the task
// list, in first-appearance order, drawing from a single
// Rng(RunOptions::calib_seed). Corollary: task results are invariant
// under any permutation of the task list that keeps the first-appearance
// order of distinct calibration tuples; reordering the groups changes
// which calibration draws each circuit receives (deterministically so —
// the same list always reproduces itself).
//
// Per-task FoM overrides (TaskSpec::fom) are applied to the task's envs
// after calibration and are not part of the calibration tuple: a task that
// reweights the FoM keeps the normalizers every other task on its circuit
// sees.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "api/registry.hpp"
#include "env/eval_service.hpp"
#include "rl/run_loop.hpp"

namespace gcnrl::api {

class CheckpointStore;

// A calibrated environment factory: builds fresh envs for a circuit while
// sharing one FoM calibration (normalizers must be identical across
// methods for a comparison to be meaningful). The calibration probe
// evaluates on `svc` (a private service from the GCNRL_EVAL_* knobs when
// null); every env is built on the service make() is given.
class EnvFactory {
 public:
  EnvFactory(std::string circuit_name, const circuit::Technology& tech,
             env::IndexMode mode, int calib_samples, Rng& rng,
             std::shared_ptr<env::EvalService> svc = nullptr);

  [[nodiscard]] std::unique_ptr<env::SizingEnv> make(
      std::shared_ptr<env::EvalService> svc) const;

 private:
  std::string name_;
  circuit::Technology tech_;
  env::IndexMode mode_;
  env::FomSpec fom_;
};

// A per-task change to the circuit's FoM (paper Table II's weighted
// rows). Unset members keep the circuit's own values.
struct FomOverride {
  std::optional<bool> enforce_spec;
  std::map<std::string, double> weights;  // metric name -> new weight
};

// --- the task protocol ----------------------------------------------------

// One experiment cell: method x circuit x node x budget x seeds. All
// fields have usable defaults except `circuit` and `method`, which must
// name registered entries (see registry.hpp).
struct TaskSpec {
  std::string circuit;         // CircuitRegistry name, e.g. "Two-TIA"
  // Path to a .gcir circuit-description file. run_tasks registers it
  // (register_circuit_file — idempotent for identical content) before
  // validation and targets the declared circuit. When `circuit` is also
  // set it must equal the file's declared name; when only `circuit_file`
  // is set the declared name is filled in. Spec files resolve relative
  // paths against the spec file's directory (api/spec.cpp).
  std::string circuit_file;
  std::string method;          // MethodRegistry name, e.g. "GCN-RL"
  std::string node = "180nm";  // technology node (circuit::make_technology)
  int steps = 300;             // search steps (evaluation budget) per seed
  int warmup = 100;            // RL warm-up steps (clamped below steps)
  int seeds = 1;               // independent seeds (seed s uses seed_of(s))
  // Simulated-cost cap per seed: 0 = automatic (follow the method's
  // budget_from chain when a source task exists), > 0 = explicit cap for
  // every seed (ask/tell methods only — run_tasks rejects it elsewhere),
  // < 0 = force uncapped even for chained methods.
  long sim_budget = 0;
  rl::DdpgConfig ddpg;  // RL base config (method defaults + warmup applied)
  // Display label; empty -> "<method>/<circuit>@<node>", plus a
  // "<-<source>" suffix for warm-started tasks (so pretrain and transfer
  // rows never collide by default).
  std::string label;

  // --- transfer protocol (DDPG-kind methods only) -------------------------
  // Warm-start source: the label of another task in this list. The planner
  // runs that task first, retains its trained agents, and copies their
  // weights into this task's fresh agents (a 1-seed source warms every
  // seed; otherwise seed counts must match). Mutually exclusive with
  // load_checkpoint.
  std::string pretrain_from;
  // Warm-start from a named CheckpointStore artifact: per seed s the store
  // is probed for "<name>#<s>" first, then "<name>". An in-list task whose
  // save_checkpoint matches is automatically ordered before this task.
  std::string load_checkpoint;
  // After training, store this task's agent weights under this name
  // (per-seed "<name>#<s>" when seeds > 1), stamped with circuit, node,
  // and index mode. Duplicate save names within one list are rejected.
  std::string save_checkpoint;
  // Per-task state-index override (topology transfer needs Scalar so the
  // state dimension is topology-independent); unset -> RunOptions::mode.
  std::optional<env::IndexMode> index_mode;
  // Calibration-sharing tag: tasks share a calibrated factory per distinct
  // (circuit, node, mode, calib_group). A distinct tag forces a fresh
  // calibration with its own draws from the shared calibration RNG (the
  // topology-transfer specs recalibrate per direction this way).
  std::string calib_group;
  // Per-seed RNG override: seed s uses seed_base + seed_stride * s when
  // seed_base is set (the paper specs' seed ladders); unset -> canonical
  // seed_of(s). seed_stride without seed_base is rejected, and so is
  // seed_base with seed_stride 0 when seeds > 1 (every seed would run the
  // same stream).
  std::optional<std::uint64_t> seed_base;
  std::uint64_t seed_stride = 0;
  // Applied to every env of the task after calibration; not part of the
  // calibration tuple. A weight naming a metric the circuit lacks fails
  // validation.
  FomOverride fom;
};

// Per-task outcome: the full per-seed RunResults plus the aggregate the
// paper's tables print.
struct TaskResult {
  TaskSpec spec;                    // as executed (warmup clamped, label set)
  std::vector<rl::RunResult> runs;  // one per seed
  std::vector<double> best;         // per-seed best FoM
  std::vector<long> sims;           // per-seed simulated cost
  double mean = 0.0;
  double stddev = 0.0;
};

// Cross-task execution options.
struct RunOptions {
  // Shared service for every env (thread pool + result cache). Null: one
  // service is created from GCNRL_EVAL_THREADS / GCNRL_EVAL_CACHE.
  std::shared_ptr<env::EvalService> service;
  int calib_samples = 300;          // FoM calibration samples per circuit
  std::uint64_t calib_seed = 2024;  // shared calibration RNG seed
  env::IndexMode mode = env::IndexMode::OneHot;
  // Store backing TaskSpec::load/save_checkpoint; null -> the process-wide
  // default_checkpoint_store() (disk tier from GCNRL_CHECKPOINT_DIR).
  CheckpointStore* checkpoints = nullptr;
};

// Validates, calibrates, plans, and runs `tasks`; results come back in
// task order. Throws std::invalid_argument on unknown circuit/method
// names, non-positive steps/seeds, a FoM weight for an unknown metric, or
// an ill-formed seed ladder.
std::vector<TaskResult> run_tasks(const std::vector<TaskSpec>& tasks,
                                  const RunOptions& opts = {});

// The canonical per-seed RNG seed of the sweep protocol (seed index s).
[[nodiscard]] std::uint64_t seed_of(int s);

// --- reporting helpers ----------------------------------------------------

// One-line description of the evaluation engine configuration (thread
// count + cache capacity from GCNRL_EVAL_THREADS / GCNRL_EVAL_CACHE),
// printed by gcnrl_cli so logged reports are self-describing.
std::string eval_banner();

// One-line service-usage summary (service-wide totals — per-seed numbers
// come from the per-env counters / RunResult, never from these totals).
std::string service_usage(const env::EvalService& svc);

// "mean +/- std" cell formatting of the summary table.
std::string pm(double mean, double stddev, int precision = 3);

// FNV-1a over the printable (%.17g) form of a trace: a stable short
// fingerprint that pins every committed FoM without printing them all
// (used by the determinism gates: sweep_smoke, gcnrl_cli --repeat).
std::string trace_fingerprint(std::span<const double> trace);

}  // namespace gcnrl::api
