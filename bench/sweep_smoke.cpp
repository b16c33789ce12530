// End-to-end smoke + determinism gate for the budgeted task-planner path.
//
// Runs a tiny table1-style budgeted task list (ES -> sim-cost budgets ->
// BO/MACE, plus GCN-RL, all through the one lockstep driver) TWICE through
// api::run_tasks on one shared EvalService, with the task order permuted
// between the passes — pass 2 even lists BO/MACE BEFORE their ES budget
// source, exercising the planner's order-independent chain resolution.
// The second pass starts with a cache fully warmed by the first; under
// the retired wall-clock budgets exactly this warmth deflated the
// measured ES budget and changed the BO/MACE rows. With simulated-cost
// budgets both passes must render byte-identical per-(method, seed) rows,
// at any GCNRL_EVAL_THREADS (the ctest jobs run this at 1 and at 4
// threads, and CI additionally diffs two whole invocations at 4). Exits
// non-zero on any shape mismatch or pass divergence.
//
// Usage: sweep_smoke [steps] [seeds]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "api/api.hpp"

using namespace gcnrl;

namespace {

struct PassResult {
  std::vector<std::string> rows;  // one rendered row per (method, seed)
  int shape_failures = 0;

  // Execution order deliberately differs between the passes, so compare
  // the rows as a set: byte-identical per-(method, seed) content.
  [[nodiscard]] std::string canonical() const {
    std::vector<std::string> sorted = rows;
    std::sort(sorted.begin(), sorted.end());
    std::string out;
    for (const auto& r : sorted) out += r;
    return out;
  }

  [[nodiscard]] std::string table() const {
    std::string out;
    for (const auto& r : rows) out += r;
    return out;
  }
};

// One budgeted pass: the methods as one declarative task list, in the
// given order, through api::run_tasks. The planner stages the budget
// chain itself, so BO/MACE may precede ES in the list.
PassResult run_pass(const std::shared_ptr<env::EvalService>& svc,
                    const std::vector<std::string>& methods, int steps,
                    int warmup, int seeds, int calib) {
  PassResult out;
  std::vector<api::TaskSpec> tasks;
  for (const std::string& method : methods) {
    api::TaskSpec t;
    t.circuit = "Two-TIA";
    t.method = method;
    t.steps = steps;
    t.warmup = warmup;
    t.seeds = seeds;
    tasks.push_back(t);
  }
  api::RunOptions opts;
  opts.service = svc;
  opts.calib_samples = calib;
  const auto results = api::run_tasks(tasks, opts);

  for (const api::TaskResult& sw : results) {
    const std::string& method = sw.spec.method;
    const bool budgeted =
        !api::method_info(method).budget_from.empty();
    // Step-budgeted methods commit exactly `steps` evaluations; the
    // sim-budgeted ones may stop earlier but never come back empty.
    const std::size_t n = static_cast<std::size_t>(seeds);
    bool shape_ok = sw.runs.size() == n && sw.best.size() == n &&
                    sw.sims.size() == n;
    for (const auto& r : sw.runs) {
      if (budgeted ? r.best_trace.empty()
                   : r.best_trace.size() != static_cast<std::size_t>(steps)) {
        shape_ok = false;
      }
    }
    if (!shape_ok) {
      // Don't index into vectors whose sizes just failed the check — a
      // shape regression must exit 1 cleanly, not crash the gate.
      ++out.shape_failures;
      out.rows.emplace_back("  " + method + " SHAPE MISMATCH\n");
      continue;
    }
    for (int s = 0; s < seeds; ++s) {
      const auto& run = sw.runs[static_cast<std::size_t>(s)];
      char row[160];
      std::snprintf(row, sizeof(row),
                    "  %-7s seed=%d best=%.17g sims=%ld trace[%zu]=%s\n",
                    method.c_str(), s, run.best_fom, run.sims,
                    run.best_trace.size(),
                    api::trace_fingerprint(run.best_trace).c_str());
      out.rows.emplace_back(row);
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const int steps = argc > 1 ? std::atoi(argv[1]) : 12;
  const int seeds = argc > 2 ? std::atoi(argv[2]) : 2;
  const int warmup = steps / 2;
  const int calib = 32;
  const auto svc =
      std::make_shared<env::EvalService>(env::eval_config_from_env());

  std::printf("sweep smoke: Two-TIA, steps=%d, seeds=%d\n%s\n", steps, seeds,
              api::eval_banner().c_str());

  // Pass 1 cold, ES first; pass 2 on the now-warm cache with the RL
  // method first and the budget consumers listed BEFORE their ES source.
  const PassResult pass1 =
      run_pass(svc, {"ES", "BO", "MACE", "GCN-RL"}, steps, warmup, seeds,
               calib);
  const PassResult pass2 =
      run_pass(svc, {"GCN-RL", "BO", "MACE", "ES"}, steps, warmup, seeds,
               calib);

  const bool identical = pass1.canonical() == pass2.canonical();
  const int failures = pass1.shape_failures + pass2.shape_failures +
                       (identical ? 0 : 1);
  std::printf("pass 1 (cold cache, ES first):\n%s", pass1.table().c_str());
  std::printf("pass 2 (warm cache, permuted order): %s\n",
              identical ? "byte-identical" : "DIVERGED");
  if (!identical) std::printf("%s", pass2.table().c_str());
  if (pass1.shape_failures + pass2.shape_failures > 0) {
    std::printf("SHAPE MISMATCH in %d sweep(s)\n",
                pass1.shape_failures + pass2.shape_failures);
  }
  std::printf("%s\n", api::service_usage(*svc).c_str());
  return failures == 0 ? 0 : 1;
}
