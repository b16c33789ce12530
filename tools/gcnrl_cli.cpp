// gcnrl_cli: declarative front end for the task API. Reads a JSON task
// spec (schema: src/api/spec.hpp), executes it through api::run_tasks —
// one shared EvalService, lockstep seeds, automatic ES -> BO/MACE budget
// chaining — and renders per-seed reports plus a summary table. Every
// budget is a simulated-cost count, so the report is bit-reproducible
// run-to-run at any GCNRL_EVAL_THREADS.
//
//   gcnrl_cli spec.json               run the spec, print the report
//   gcnrl_cli --list                  print registered circuits/methods/nodes
//   gcnrl_cli --repeat 2 spec.json    run the whole task list twice on one
//                                     warm shared service and byte-compare
//                                     the per-task reports (determinism
//                                     gate; non-zero exit on divergence)
//   gcnrl_cli --csv out_ spec.json    also write per-task best-FoM traces
//                                     (per seed plus their mean) to
//                                     out_<label>.csv and a per-seed
//                                     summary (best/evals/sims and the
//                                     warm-start source of each task) to
//                                     out_tasks.csv
//
// Every per-seed report line is followed by the metrics of that seed's
// best design. The paper's experiments ship as specs/paper/*.json.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "circuit/tech.hpp"
#include "common/table.hpp"

using namespace gcnrl;

namespace {

// --- reporting ------------------------------------------------------------

// The comparable per-task report: everything in it is warmth-independent
// (best FoM / evals / sims / trace fingerprint, and the metrics of the
// best design), so --repeat passes on one shared warm service must
// reproduce it byte-for-byte.
std::string task_report(std::size_t index, const api::TaskResult& r) {
  char head[256];
  std::snprintf(head, sizeof(head),
                "task[%zu] %s: circuit=%s method=%s node=%s steps=%d "
                "warmup=%d seeds=%d\n",
                index, r.spec.label.c_str(), r.spec.circuit.c_str(),
                r.spec.method.c_str(), r.spec.node.c_str(), r.spec.steps,
                r.spec.warmup, r.spec.seeds);
  std::string out = head;
  for (std::size_t s = 0; s < r.runs.size(); ++s) {
    const rl::RunResult& run = r.runs[s];
    char row[160];
    std::snprintf(row, sizeof(row),
                  "  seed=%zu best=%.17g evals=%ld sims=%ld trace[%zu]=%s\n",
                  s, run.best_fom, run.evals, run.sims,
                  run.best_trace.size(),
                  api::trace_fingerprint(run.best_trace).c_str());
    out += row;
    out += "    metrics:";
    for (const auto& [name, value] : run.best_metrics) {
      char num[32];
      std::snprintf(num, sizeof(num), "%.17g", value);
      out += " " + name + "=" + num;
    }
    out += '\n';
  }
  return out;
}

std::string sanitize_label(const std::string& label) {
  std::string out = label;
  for (char& c : out) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '-' || c == '.';
    if (!keep) c = '_';
  }
  return out;
}

// Sanitized labels can collide (two tasks with the same default label, or
// distinct labels collapsing under sanitization); disambiguate with the
// task index rather than silently overwriting the earlier task's file.
std::string trace_path(const std::string& prefix, const api::TaskResult& r,
                       std::size_t index, std::set<std::string>& used) {
  std::string path = prefix + sanitize_label(r.spec.label) + ".csv";
  if (!used.insert(path).second) {
    path = prefix + sanitize_label(r.spec.label) + "_task" +
           std::to_string(index) + ".csv";
    used.insert(path);
  }
  return path;
}

// Per-step best-so-far FoM: one column per seed, then the mean over the
// seeds (each adds x / n in seed order) up to the shortest trace — the
// curve the paper's Figs. 5, 7 and 8 plot. Cells past a trace's end stay
// blank.
void write_traces(const std::string& path, const api::TaskResult& r) {
  CsvWriter csv(path);
  std::vector<std::string> header = {"step"};
  for (std::size_t s = 0; s < r.runs.size(); ++s) {
    header.push_back("seed" + std::to_string(s));
  }
  header.emplace_back("mean");
  csv.row(header);
  std::size_t max_len = 0;
  std::size_t min_len = r.runs.front().best_trace.size();
  for (const auto& run : r.runs) {
    max_len = std::max(max_len, run.best_trace.size());
    min_len = std::min(min_len, run.best_trace.size());
  }
  const auto n = static_cast<double>(r.runs.size());
  for (std::size_t i = 0; i < max_len; ++i) {
    std::vector<std::string> row = {std::to_string(i + 1)};
    double mean = 0.0;
    for (const auto& run : r.runs) {
      if (i < run.best_trace.size()) {
        row.push_back(TextTable::num(run.best_trace[i], 6));
        mean += run.best_trace[i] / n;
      } else {
        row.emplace_back();
      }
    }
    row.push_back(i < min_len ? TextTable::num(mean, 6) : "");
    csv.row(row);
  }
  std::printf("wrote %s\n", path.c_str());
}

// Per-seed summary across all tasks: one row per (task, seed) with the
// warmth-independent numbers (best FoM, evals, sims — the sims column is
// what budget-chain and transfer-cost audits read) and the task's
// warm-start source, so pretrain and transfer rows are distinguishable
// even under hand-set colliding labels.
void write_task_summary(const std::string& path,
                        const std::vector<api::TaskResult>& results) {
  CsvWriter csv(path);
  csv.row({"task", "label", "circuit", "method", "node", "warm_start",
           "seed", "best", "evals", "sims"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const api::TaskResult& r = results[i];
    std::string warm;
    if (!r.spec.pretrain_from.empty()) {
      warm = "pretrain:" + r.spec.pretrain_from;
    } else if (!r.spec.load_checkpoint.empty()) {
      warm = "checkpoint:" + r.spec.load_checkpoint;
    }
    for (std::size_t s = 0; s < r.runs.size(); ++s) {
      const rl::RunResult& run = r.runs[s];
      char best[40];
      std::snprintf(best, sizeof(best), "%.17g", run.best_fom);
      csv.row({std::to_string(i), r.spec.label, r.spec.circuit,
               r.spec.method, r.spec.node, warm, std::to_string(s), best,
               std::to_string(run.evals), std::to_string(run.sims)});
    }
  }
  std::printf("wrote %s\n", path.c_str());
}

void print_list() {
  std::printf("circuits:\n");
  for (const auto& n : api::circuit_names()) {
    std::printf("  %s\n", n.c_str());
  }
  std::printf("methods:\n");
  for (const auto& n : api::method_names()) {
    const api::MethodInfo& mi = api::method_info(n);
    const char* kind = "";
    switch (mi.kind) {
      case api::MethodKind::Anchor: kind = "anchor"; break;
      case api::MethodKind::AskTell: kind = "ask/tell"; break;
      case api::MethodKind::Ddpg: kind = "ddpg"; break;
    }
    if (mi.budget_from.empty()) {
      std::printf("  %-7s (%s)\n", n.c_str(), kind);
    } else {
      std::printf("  %-7s (%s, budget from %s)\n", n.c_str(), kind,
                  mi.budget_from.c_str());
    }
  }
  std::printf("nodes:\n");
  for (const auto& n : circuit::available_nodes()) {
    std::printf("  %s\n", n.c_str());
  }
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--repeat N] [--csv PREFIX] [--circuit FILE]... "
               "<spec.json>\n"
               "       %s --list\n"
               "--circuit registers a .gcir circuit description before the "
               "spec runs\n(repeatable; spec files can also register their "
               "own via \"circuit_file\").\n"
               "Spec schema: src/api/spec.hpp (see also specs/*.json and "
               "README \"Public API\").\n",
               argv0, argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string spec_path;
  std::string csv_prefix;
  std::vector<std::string> circuit_files;
  int repeat = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list") {
      print_list();
      return 0;
    }
    if (arg == "--repeat") {
      if (i + 1 >= argc) return usage(argv[0]);
      repeat = std::atoi(argv[++i]);
      if (repeat < 1) return usage(argv[0]);
    } else if (arg == "--csv") {
      if (i + 1 >= argc) return usage(argv[0]);
      csv_prefix = argv[++i];
    } else if (arg == "--circuit") {
      if (i + 1 >= argc) return usage(argv[0]);
      circuit_files.emplace_back(argv[++i]);
    } else if (!arg.empty() && arg[0] == '-') {
      return usage(argv[0]);
    } else if (spec_path.empty()) {
      spec_path = arg;
    } else {
      return usage(argv[0]);
    }
  }
  if (spec_path.empty()) return usage(argv[0]);

  try {
    // File circuits first, so the spec's validation pass can address them
    // by their declared names just like built-ins.
    for (const std::string& file : circuit_files) {
      std::printf("registered circuit \"%s\" from %s\n",
                  api::register_circuit_file(file).c_str(), file.c_str());
    }
    const api::TaskFile spec = api::load_task_spec(spec_path);
    api::RunOptions opts = spec.options;
    // One service for every pass: pass 2+ run on a fully warmed cache,
    // which must not change a single reported byte.
    opts.service =
        std::make_shared<env::EvalService>(env::eval_config_from_env());

    std::printf("%s: %zu task(s)\n%s\n", spec_path.c_str(),
                spec.tasks.size(), api::eval_banner().c_str());

    std::vector<std::string> first_pass;
    std::set<std::string> csv_paths;
    bool diverged = false;
    for (int pass = 0; pass < repeat; ++pass) {
      const auto results = api::run_tasks(spec.tasks, opts);
      if (pass == 0) {
        TextTable table(
            {"Task", "Circuit", "Method", "Node", "Best FoM", "Sims"});
        long total_sims = 0;
        for (std::size_t i = 0; i < results.size(); ++i) {
          const std::string report = task_report(i, results[i]);
          first_pass.push_back(report);
          std::fputs(report.c_str(), stdout);
          const api::TaskResult& r = results[i];
          long sims = 0;
          for (const long s : r.sims) sims += s;
          total_sims += sims;
          table.add_row({r.spec.label, r.spec.circuit, r.spec.method,
                         r.spec.node,
                         r.spec.seeds > 1
                             ? api::pm(r.mean, r.stddev)
                             : TextTable::num(r.mean, 3),
                         std::to_string(sims)});
          if (!csv_prefix.empty()) {
            write_traces(trace_path(csv_prefix, results[i], i, csv_paths),
                         results[i]);
          }
        }
        if (!csv_prefix.empty()) {
          write_task_summary(csv_prefix + "tasks.csv", results);
        }
        std::printf("\n");
        table.print();
        std::printf("total simulated cost: %ld\n", total_sims);
      } else {
        bool pass_ok = results.size() == first_pass.size();
        for (std::size_t i = 0; pass_ok && i < results.size(); ++i) {
          pass_ok = task_report(i, results[i]) == first_pass[i];
        }
        std::printf("pass %d (warm cache): %s\n", pass + 1,
                    pass_ok ? "byte-identical" : "DIVERGED");
        if (!pass_ok) diverged = true;
      }
    }
    return diverged ? 1 : 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gcnrl_cli: %s\n", e.what());
    return 2;
  }
}
