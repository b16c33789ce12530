// Implementation of the task planner (run_tasks): validation, one
// calibrated EnvFactory per calibration tuple, dependency levels, and one
// engine — run_group() — that executes a level's tasks on the shared
// EvalService through the one lockstep driver, rl::run_optimizer_lockstep.
#include "api/task.hpp"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <stdexcept>
#include <utility>

#include "api/checkpoints.hpp"
#include "circuit/tech.hpp"
#include "common/table.hpp"
#include "la/stats.hpp"

namespace gcnrl::api {

EnvFactory::EnvFactory(std::string circuit_name,
                       const circuit::Technology& tech, env::IndexMode mode,
                       int calib_samples, Rng& rng,
                       std::shared_ptr<env::EvalService> svc)
    : name_(std::move(circuit_name)), tech_(tech), mode_(mode) {
  env::SizingEnv probe(build_circuit(name_, tech_), mode_, std::move(svc));
  probe.calibrate(calib_samples, rng);
  fom_ = probe.bench().fom;
}

std::unique_ptr<env::SizingEnv> EnvFactory::make(
    std::shared_ptr<env::EvalService> svc) const {
  auto bc = build_circuit(name_, tech_);
  bc.fom = fom_;
  return std::make_unique<env::SizingEnv>(std::move(bc), mode_,
                                          std::move(svc));
}

std::uint64_t seed_of(int s) {
  return 1000 + 7919 * static_cast<std::uint64_t>(s);
}

namespace {

// The Human method as an optimizer: the circuit's human-expert sizing,
// flattened, is its one proposal; every later ask() is empty, which ends
// the run. The sizing goes through the identical refine -> simulate -> FoM
// pipeline as every other method's proposals.
class HumanExpert final : public opt::Optimizer {
 public:
  explicit HumanExpert(std::vector<double> x) : x_(std::move(x)) {}

  std::vector<std::vector<double>> ask() override {
    if (asked_) return {};
    asked_ = true;
    return {x_};
  }
  void tell(const std::vector<std::vector<double>>&,
            const std::vector<double>&) override {}
  [[nodiscard]] int dim() const override {
    return static_cast<int>(x_.size());
  }

 private:
  std::vector<double> x_;
  bool asked_ = false;
};

// The per-seed RNG seed of a task: the custom ladder when the spec sets
// one, else the canonical seed_of(s).
std::uint64_t task_seed(const TaskSpec& t, int s) {
  if (t.seed_base) {
    return *t.seed_base + t.seed_stride * static_cast<std::uint64_t>(s);
  }
  return seed_of(s);
}

// One planned task: spec + resolved method/factory/budgets + where its
// per-seed results go.
struct TaskPlan {
  const TaskSpec* spec = nullptr;
  const MethodInfo* mi = nullptr;
  const EnvFactory* factory = nullptr;
  std::vector<long> budgets;  // per-seed sim caps; empty = uncapped
  // Warm-start hook (DDPG kind): runs on each freshly built agent before
  // the group starts — copies a pretrain source's weights or loads a
  // checkpoint. Null for from-scratch tasks.
  std::function<void(int, rl::DdpgAgent&)> warm;
  // When non-null, the task's trained agents are moved here after the run
  // (pretrain sources for later levels, checkpoint saves).
  std::vector<std::unique_ptr<rl::DdpgAgent>>* keep = nullptr;
  std::vector<rl::RunResult>* out = nullptr;

  // A fresh env for one seed: the shared calibration plus the task's FoM
  // override.
  [[nodiscard]] std::unique_ptr<env::SizingEnv> make_env(
      const std::shared_ptr<env::EvalService>& svc) const {
    auto env = factory->make(svc);
    env::FomSpec& fom = env->bench().fom;
    if (spec->fom.enforce_spec) fom.enforce_spec = *spec->fom.enforce_spec;
    for (const auto& [name, weight] : spec->fom.weights) {
      fom.set_weight(name, weight);
    }
    return env;
  }
};

// Executes a stage of planned tasks on one shared service: one
// (env, optimizer) pair per (task, seed), every pair in one
// rl::run_optimizer_lockstep call. DDPG-kind seeds reach the driver
// through rl::DdpgOptimizer, Human through HumanExpert. The driver
// guarantees per-pair results independent of the grouping, so per-task
// result vectors are bit-identical to running each task alone at any
// GCNRL_EVAL_THREADS.
void run_group(std::vector<TaskPlan>& plans,
               const std::shared_ptr<env::EvalService>& svc) {
  // Owned per-pair state; pair i's result goes to (plan, seed) slots[i].
  // agents[i] is null unless pair i is a DDPG seed.
  std::vector<std::unique_ptr<env::SizingEnv>> envs;
  std::vector<std::unique_ptr<rl::DdpgAgent>> agents;
  std::vector<std::unique_ptr<opt::Optimizer>> opts;
  std::vector<rl::OptimizerPair> pairs;
  std::vector<std::pair<std::size_t, int>> slots;

  for (std::size_t p = 0; p < plans.size(); ++p) {
    TaskPlan& plan = plans[p];
    const TaskSpec& t = *plan.spec;
    plan.out->resize(static_cast<std::size_t>(t.seeds));
    if (plan.keep != nullptr) {
      plan.keep->resize(static_cast<std::size_t>(t.seeds));
    }
    for (int s = 0; s < t.seeds; ++s) {
      envs.push_back(plan.make_env(svc));
      env::SizingEnv& env = *envs.back();
      const circuit::DesignSpace& space = env.bench().space;
      std::unique_ptr<rl::DdpgAgent> agent;
      long max_sims = -1;
      switch (plan.mi->kind) {
        case MethodKind::Ddpg: {
          rl::DdpgConfig cfg = t.ddpg;
          if (plan.mi->configure) plan.mi->configure(cfg);
          cfg.warmup = t.warmup;
          agent = std::make_unique<rl::DdpgAgent>(env.state(), env.adjacency(),
                                                  env.kinds(), cfg,
                                                  Rng(task_seed(t, s)));
          if (plan.warm) plan.warm(s, *agent);
          opts.push_back(std::make_unique<rl::DdpgOptimizer>(*agent, space));
          break;
        }
        case MethodKind::AskTell:
          opts.push_back(
              plan.mi->make_optimizer(env.flat_dim(), Rng(task_seed(t, s))));
          if (!plan.budgets.empty() &&
              plan.budgets[static_cast<std::size_t>(s)] > 0) {
            max_sims = plan.budgets[static_cast<std::size_t>(s)];
          }
          break;
        case MethodKind::Anchor:
          opts.push_back(std::make_unique<HumanExpert>(space.flatten(
              space.actions_from_params(env.bench().human_expert))));
          break;
      }
      agents.push_back(std::move(agent));
      pairs.push_back(
          rl::OptimizerPair{&env, opts.back().get(), t.steps, max_sims});
      slots.emplace_back(p, s);
    }
  }

  std::vector<rl::RunResult> results = rl::run_optimizer_lockstep(pairs);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto [p, s] = slots[i];
    (*plans[p].out)[static_cast<std::size_t>(s)] = std::move(results[i]);
    if (plans[p].keep != nullptr) {
      // Agents are self-contained (the ctor copies state/adjacency), so
      // retaining them outlives the group's envs safely.
      (*plans[p].keep)[static_cast<std::size_t>(s)] = std::move(agents[i]);
    }
  }
}

}  // namespace

std::vector<TaskResult> run_tasks(const std::vector<TaskSpec>& tasks,
                                  const RunOptions& opts) {
  // --- validate + normalize ----------------------------------------------
  std::vector<TaskSpec> specs = tasks;
  std::vector<const MethodInfo*> infos;
  infos.reserve(specs.size());
  for (TaskSpec& t : specs) {
    const MethodInfo& mi = method_info(t.method);  // throws for unknown
    infos.push_back(&mi);
    if (!t.circuit_file.empty()) {
      // Idempotent for identical file content, so many tasks (or repeat
      // runs in one process) may name the same file.
      const std::string declared = register_circuit_file(t.circuit_file);
      if (!t.circuit.empty() && t.circuit != declared) {
        throw std::invalid_argument(
            "run_tasks: task circuit \"" + t.circuit + "\" does not match "
            "the name \"" + declared + "\" declared by \"" +
            t.circuit_file + "\"");
      }
      t.circuit = declared;
    }
    require_circuit(t.circuit);  // throws listing registered names
    if (!t.fom.weights.empty()) {
      const env::FomSpec fom =
          build_circuit(t.circuit, circuit::make_technology(t.node)).fom;
      for (const auto& [name, weight] : t.fom.weights) {
        if (fom.find(name) != nullptr) continue;
        std::string known;
        for (const env::MetricDef& md : fom.metrics) {
          known += known.empty() ? md.name : ", " + md.name;
        }
        throw std::invalid_argument(
            "run_tasks: task \"" + t.method + "/" + t.circuit +
            "\": fom weight names unknown metric \"" + name +
            "\" (known: " + known + ")");
      }
    }
    if (t.steps <= 0) {
      throw std::invalid_argument("run_tasks: task \"" + t.method + "/" +
                                  t.circuit + "\" needs steps > 0");
    }
    if (t.seeds <= 0) {
      throw std::invalid_argument("run_tasks: task \"" + t.method + "/" +
                                  t.circuit + "\" needs seeds > 0");
    }
    // Fail loudly rather than silently running uncapped: only ask/tell
    // methods consume a simulated-cost cap.
    if (t.sim_budget > 0 && mi.kind != MethodKind::AskTell) {
      throw std::invalid_argument(
          "run_tasks: task \"" + t.method + "/" + t.circuit +
          "\": sim_budget applies only to ask/tell methods");
    }
    if (t.warmup < 0) t.warmup = 0;
    if (t.warmup >= t.steps) t.warmup = t.steps / 3;
    if (!t.pretrain_from.empty() && !t.load_checkpoint.empty()) {
      throw std::invalid_argument(
          "run_tasks: task \"" + t.method + "/" + t.circuit +
          "\": pretrain_from and load_checkpoint are mutually exclusive "
          "warm-start sources; choose one");
    }
    if ((!t.pretrain_from.empty() || !t.load_checkpoint.empty() ||
         !t.save_checkpoint.empty()) &&
        mi.kind != MethodKind::Ddpg) {
      throw std::invalid_argument(
          "run_tasks: task \"" + t.method + "/" + t.circuit +
          "\": pretrain_from/load_checkpoint/save_checkpoint apply only to "
          "DDPG-kind methods (they move actor/critic weights)");
    }
    if (t.seed_stride != 0 && !t.seed_base) {
      throw std::invalid_argument("run_tasks: task \"" + t.method + "/" +
                                  t.circuit +
                                  "\": seed_stride needs seed_base");
    }
    // A base with stride 0 would give every seed the same RNG stream, and
    // the task's "+/- 0" would look like a result.
    if (t.seed_base && t.seed_stride == 0 && t.seeds > 1) {
      throw std::invalid_argument(
          "run_tasks: task \"" + t.method + "/" + t.circuit +
          "\": seed_base with seeds > 1 needs a nonzero seed_stride");
    }
    if (t.label.empty()) {
      t.label = t.method + "/" + t.circuit + "@" + t.node;
      if (!t.pretrain_from.empty()) {
        t.label += "<-" + t.pretrain_from;
      } else if (!t.load_checkpoint.empty()) {
        t.label += "<-ckpt:" + t.load_checkpoint;
      }
    }
  }
  // Duplicate save names would make load_checkpoint resolution (and the
  // final store content) order-dependent; reject them outright.
  for (std::size_t i = 0; i < specs.size(); ++i) {
    for (std::size_t j = i + 1; j < specs.size(); ++j) {
      if (!specs[i].save_checkpoint.empty() &&
          specs[i].save_checkpoint == specs[j].save_checkpoint) {
        throw std::invalid_argument(
            "run_tasks: tasks \"" + specs[i].label + "\" and \"" +
            specs[j].label + "\" both save checkpoint \"" +
            specs[i].save_checkpoint + "\"");
      }
    }
  }

  std::shared_ptr<env::EvalService> svc = opts.service;
  if (!svc) {
    svc = std::make_shared<env::EvalService>(env::eval_config_from_env());
  }
  CheckpointStore& store = opts.checkpoints != nullptr
                               ? *opts.checkpoints
                               : default_checkpoint_store();
  const auto mode_of = [&](const TaskSpec& t) {
    return t.index_mode.value_or(opts.mode);
  };

  // --- resolve cross-task dependencies ------------------------------------
  // pre_src: pretrain_from label -> source task index.
  std::vector<int> pre_src(specs.size(), -1);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const TaskSpec& t = specs[i];
    if (t.pretrain_from.empty()) continue;
    int found = -1;
    for (std::size_t j = 0; j < specs.size(); ++j) {
      if (j == i || specs[j].label != t.pretrain_from) continue;
      if (found >= 0) {
        throw std::invalid_argument(
            "run_tasks: task \"" + t.label + "\": pretrain_from \"" +
            t.pretrain_from + "\" matches more than one task label");
      }
      found = static_cast<int>(j);
    }
    if (found < 0) {
      std::string labels;
      for (const TaskSpec& s : specs) {
        labels += labels.empty() ? s.label : ", " + s.label;
      }
      throw std::invalid_argument(
          "run_tasks: task \"" + t.label + "\": pretrain_from \"" +
          t.pretrain_from + "\" names no task in this list; labels: " +
          labels);
    }
    if (infos[static_cast<std::size_t>(found)]->kind != MethodKind::Ddpg) {
      throw std::invalid_argument(
          "run_tasks: task \"" + t.label + "\": pretrain source \"" +
          specs[static_cast<std::size_t>(found)].label +
          "\" is not a DDPG-kind task");
    }
    const int src_seeds = specs[static_cast<std::size_t>(found)].seeds;
    if (src_seeds != 1 && src_seeds != t.seeds) {
      throw std::invalid_argument(
          "run_tasks: task \"" + t.label + "\" has " +
          std::to_string(t.seeds) + " seeds but pretrain source \"" +
          specs[static_cast<std::size_t>(found)].label + "\" has " +
          std::to_string(src_seeds) +
          " (a source needs 1 seed or a matching count)");
    }
    pre_src[i] = found;
  }
  // ckpt_src: load_checkpoint name -> in-list saver index (at most one per
  // the duplicate check above); -1 = the artifact must already exist in
  // the store when the task starts.
  std::vector<int> ckpt_src(specs.size(), -1);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (specs[i].load_checkpoint.empty()) continue;
    for (std::size_t j = 0; j < specs.size(); ++j) {
      if (j != i && specs[j].save_checkpoint == specs[i].load_checkpoint) {
        ckpt_src[i] = static_cast<int>(j);
        break;
      }
    }
  }
  // budget_src: the budget-chain rule (BO/MACE -> ES). Absent source =
  // uncapped.
  const auto chained = [&](std::size_t i) {
    return !infos[i]->budget_from.empty() && specs[i].sim_budget == 0;
  };
  std::vector<int> budget_src(specs.size(), -1);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (!chained(i)) continue;
    const TaskSpec& t = specs[i];
    for (std::size_t j = 0; j < specs.size(); ++j) {
      if (j == i || specs[j].method != infos[i]->budget_from) continue;
      if (specs[j].circuit != t.circuit || specs[j].node != t.node ||
          specs[j].steps != t.steps || specs[j].seeds != t.seeds) {
        continue;
      }
      if (chained(j)) {
        throw std::invalid_argument(
            "run_tasks: budget source \"" + specs[j].label +
            "\" is itself budget-chained; only one chain level is "
            "supported");
      }
      budget_src[i] = static_cast<int>(j);
      break;
    }
  }

  // --- dependency levels: sources run in earlier levels than consumers;
  // everything within a level merges into one lockstep group ---------------
  std::vector<int> level(specs.size(), -1);
  std::vector<char> visiting(specs.size(), 0);
  const std::function<int(std::size_t)> level_of = [&](std::size_t i) -> int {
    if (level[i] >= 0) return level[i];
    if (visiting[i] != 0) {
      throw std::invalid_argument(
          "run_tasks: dependency cycle involving task \"" + specs[i].label +
          "\"");
    }
    visiting[i] = 1;
    int l = 0;
    for (const int d : {pre_src[i], ckpt_src[i], budget_src[i]}) {
      if (d >= 0) {
        l = std::max(l, level_of(static_cast<std::size_t>(d)) + 1);
      }
    }
    visiting[i] = 0;
    return level[i] = l;
  };
  int max_level = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    max_level = std::max(max_level, level_of(i));
  }

  // --- calibrate: one factory per distinct (circuit, node, mode,
  // calib_group), in first-appearance order, from one shared RNG -----------
  Rng calib_rng(opts.calib_seed);
  std::vector<std::pair<std::string, std::unique_ptr<EnvFactory>>> factories;
  const auto factory_key = [&](const TaskSpec& t) {
    return t.circuit + "\n" + t.node + "\n" +
           (mode_of(t) == env::IndexMode::OneHot ? "one_hot" : "scalar") +
           "\n" + t.calib_group;
  };
  const auto factory_of = [&](const TaskSpec& t) -> const EnvFactory* {
    const std::string key = factory_key(t);
    for (const auto& [k, f] : factories) {
      if (k == key) return f.get();
    }
    return nullptr;
  };
  for (const TaskSpec& t : specs) {
    if (factory_of(t) != nullptr) continue;
    factories.emplace_back(
        factory_key(t),
        std::make_unique<EnvFactory>(t.circuit,
                                     circuit::make_technology(t.node),
                                     mode_of(t), opts.calib_samples,
                                     calib_rng, svc));
  }

  // --- execute level by level ---------------------------------------------
  std::vector<std::vector<rl::RunResult>> runs(specs.size());
  // Trained agents retained across levels (pretrain sources + checkpoint
  // saves); agents are self-contained, so no env outlives its group.
  std::vector<std::vector<std::unique_ptr<rl::DdpgAgent>>> kept(specs.size());
  std::vector<char> keep_needed(specs.size(), 0);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (pre_src[i] >= 0) keep_needed[static_cast<std::size_t>(pre_src[i])] = 1;
    if (!specs[i].save_checkpoint.empty()) keep_needed[i] = 1;
  }
  for (int lev = 0; lev <= max_level; ++lev) {
    std::vector<TaskPlan> plans;
    std::vector<std::size_t> members;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (level[i] != lev) continue;
      members.push_back(i);
      const TaskSpec& t = specs[i];
      TaskPlan plan;
      plan.spec = &t;
      plan.mi = infos[i];
      plan.factory = factory_of(t);
      plan.out = &runs[i];
      if (keep_needed[i] != 0) plan.keep = &kept[i];
      if (t.sim_budget > 0) {
        plan.budgets.assign(static_cast<std::size_t>(t.seeds), t.sim_budget);
      } else if (budget_src[i] >= 0) {
        const auto& src = runs[static_cast<std::size_t>(budget_src[i])];
        plan.budgets.reserve(src.size());
        for (const rl::RunResult& r : src) plan.budgets.push_back(r.sims);
      }
      if (pre_src[i] >= 0) {
        const auto& src_agents = kept[static_cast<std::size_t>(pre_src[i])];
        const int src_seeds =
            specs[static_cast<std::size_t>(pre_src[i])].seeds;
        plan.warm = [&src_agents, src_seeds](int s, rl::DdpgAgent& agent) {
          agent.copy_weights_from(
              *src_agents[static_cast<std::size_t>(src_seeds == 1 ? 0 : s)]);
        };
      } else if (!t.load_checkpoint.empty()) {
        const CheckpointStamp expect{t.circuit, t.node, mode_of(t),
                                     circuit_source_tag(t.circuit)};
        const std::string name = t.load_checkpoint;
        plan.warm = [&store, expect, name](int s, rl::DdpgAgent& agent) {
          const std::string per_seed = name + "#" + std::to_string(s);
          store.load(store.contains(per_seed) ? per_seed : name,
                     agent.parameters(), expect);
        };
      }
      plans.push_back(std::move(plan));
    }
    run_group(plans, svc);
    for (const std::size_t i : members) {
      const TaskSpec& t = specs[i];
      if (t.save_checkpoint.empty()) continue;
      const CheckpointStamp stamp{t.circuit, t.node, mode_of(t),
                                  circuit_source_tag(t.circuit)};
      for (int s = 0; s < t.seeds; ++s) {
        const std::string name =
            t.seeds == 1 ? t.save_checkpoint
                         : t.save_checkpoint + "#" + std::to_string(s);
        store.put(name,
                  kept[i][static_cast<std::size_t>(s)]->parameters(), stamp);
      }
    }
  }

  // --- assemble -----------------------------------------------------------
  std::vector<TaskResult> out;
  out.reserve(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    TaskResult tr;
    tr.spec = specs[i];
    tr.runs = std::move(runs[i]);
    for (const rl::RunResult& r : tr.runs) {
      tr.best.push_back(r.best_fom);
      tr.sims.push_back(r.sims);
    }
    tr.mean = la::mean(tr.best);
    tr.stddev = la::stddev(tr.best);
    out.push_back(std::move(tr));
  }
  return out;
}

std::string eval_banner() {
  const env::EvalServiceConfig cfg = env::eval_config_from_env();
  return "eval engine: threads=" + std::to_string(cfg.threads) +
         (cfg.threads > 1 ? " (thread pool)" : " (serial)") +
         ", cache=" + std::to_string(cfg.cache_capacity);
}

std::string service_usage(const env::EvalService& svc) {
  return "service totals: " + std::to_string(svc.requested()) + " evals, " +
         std::to_string(svc.sims()) + " sims, " +
         std::to_string(svc.cache_hits()) + " cache hits, " +
         std::to_string(svc.threads()) + " threads";
}

std::string pm(double mean, double stddev, int precision) {
  return TextTable::num(mean, precision) + " +/- " +
         TextTable::num(stddev, 2);
}

std::string trace_fingerprint(std::span<const double> trace) {
  std::uint64_t h = 1469598103934665603ULL;
  char buf[32];
  for (const double v : trace) {
    const int len = std::snprintf(buf, sizeof(buf), "%.17g", v);
    for (int i = 0; i < len; ++i) {
      h ^= static_cast<unsigned char>(buf[i]);
      h *= 1099511628211ULL;
    }
  }
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace gcnrl::api
