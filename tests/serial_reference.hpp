// The serial ask/tell loop: the reference rl::run_optimizer_lockstep and
// api::run_tasks are held to. Each ask() population is evaluated as one
// batch on the env's own service, truncated to the remaining budget;
// `steps` caps trace commits and `max_sims` >= 0 caps the simulated cost
// (first-in-run distinct designs, as rl::RunResult::sims counts them).
// An empty ask() population ends the run.
#pragma once

#include <algorithm>
#include <cstddef>
#include <unordered_set>
#include <vector>

#include "env/eval_service.hpp"
#include "env/sizing_env.hpp"
#include "opt/optimizer.hpp"
#include "rl/run_loop.hpp"

namespace gcnrl::testing {

inline rl::RunResult run_optimizer(env::SizingEnv& env,
                                   opt::Optimizer& optimizer, int steps,
                                   long max_sims = -1) {
  rl::RunResult out;
  std::unordered_set<env::EvalCache::Key, env::EvalCache::KeyHash,
                     env::EvalCache::KeyEqual>
      seen;
  const circuit::DesignSpace& space = env.bench().space;
  while (out.evals < steps && (max_sims < 0 || out.sims < max_sims)) {
    auto xs = optimizer.ask();
    if (xs.empty()) break;
    std::size_t room = static_cast<std::size_t>(steps - out.evals);
    if (max_sims >= 0) {
      room = std::min(room, static_cast<std::size_t>(max_sims - out.sims));
    }
    if (xs.size() > room) xs.resize(room);
    std::vector<la::Mat> actions;
    actions.reserve(xs.size());
    for (const auto& x : xs) actions.push_back(space.unflatten(x));
    const auto results = env.step_batch(actions);
    std::vector<double> ys;
    ys.reserve(results.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      ys.push_back(results[i].fom);
      if (seen.insert(env::design_key(space, results[i].params)).second) {
        ++out.sims;
      }
      out.commit_flat(space, xs[i], results[i]);
    }
    optimizer.tell(xs, ys);
  }
  return out;
}

}  // namespace gcnrl::testing
