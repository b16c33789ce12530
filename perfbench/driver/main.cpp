// perfbench_driver: one sizing run of one benchmark workload, printed as a
// single JSON line. perfbench/run.py spawns it, repeats it and checks it;
// see perfbench/README.md.
//
//   perfbench_driver --workload NAME --seed N
//                    --mode untraced|traced|setup [--builtin] [--smoke]
//
//   untraced  api::run_tasks on the workload's task list (end-to-end run)
//   traced    the benchmark's own timed replica of the same lockstep
//             rounds (per-layer run, traced.hpp)
//   setup     stop where run_tasks would be entered (set-up probe)
//
// The tasks run on the EvalProbe's alias circuits; --builtin (untraced
// only) runs them on the built-in circuit names instead, without the probe,
// so run.py can check that the alias runs give the built-in results.
//
// Every mode reports `setup_end`, the CLOCK_MONOTONIC time at which set-up
// (registries, task list, EvalService and its thread pool) was done; the
// spawning process subtracts its own spawn time from it.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "eval_probe.hpp"
#include "traced.hpp"
#include "workloads.hpp"

namespace {

namespace api = gcnrl::api;
using perfbench::SeedOutcome;

// Peak resident set since exec, in MB: VmHWM belongs to the process image,
// whereas getrusage's ru_maxrss also carries the forking parent's peak
// across exec.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) throw std::runtime_error("cannot read /proc/self/status");
  char line[256];
  long kb = -1;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) break;
  }
  std::fclose(f);
  if (kb < 0) throw std::runtime_error("no VmHWM in /proc/self/status");
  return static_cast<double>(kb) / 1024.0;
}

double monotonic_now() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  std::string mode;
  bool builtin = false;
  bool smoke = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--builtin") {
      a.builtin = true;
      continue;
    }
    if (key == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
    } else if (key == "--mode") {
      a.mode = value;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (a.workload.empty() ||
      (a.mode != "untraced" && a.mode != "traced" && a.mode != "setup") ||
      (a.builtin && a.mode != "untraced")) {
    throw std::invalid_argument(
        "usage: perfbench_driver --workload NAME --seed N "
        "--mode untraced|traced|setup [--builtin] [--smoke]");
  }
  return a;
}

// The numbers describe the default engine only: refuse the knobs that
// switch the simulator or the result cache away from it.
void refuse_engine_knobs() {
  for (const char* knob :
       {"GCNRL_SPARSE", "GCNRL_DC_WARM_START", "GCNRL_EVAL_CACHE"}) {
    if (std::getenv(knob) != nullptr) {
      throw std::invalid_argument(std::string(knob) +
                                  " is set; the benchmark measures the "
                                  "default engine only");
    }
  }
}

// Minimal JSON writer for one flat object per line.
class JsonLine {
 public:
  JsonLine& num(const char* key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return raw(key, std::isfinite(v) ? buf : "null");
  }
  JsonLine& str(const char* key, const std::string& v) {
    return raw(key, "\"" + v + "\"");
  }
  JsonLine& raw(const char* key, const std::string& json) {
    out_ += (out_.empty() ? "{\"" : ", \"") + std::string(key) + "\": " + json;
    return *this;
  }
  [[nodiscard]] std::string done() const { return out_ + "}"; }

 private:
  std::string out_;
};

std::string seeds_json(const std::vector<SeedOutcome>& seeds) {
  std::string out = "[";
  for (const SeedOutcome& s : seeds) {
    if (out.size() > 1) out += ", ";
    out += JsonLine()
               .str("task", s.task)
               .num("seed", s.seed)
               .str("fingerprint", s.fingerprint)
               .num("best", s.best)
               .num("sims", static_cast<double>(s.sims))
               .num("evals", static_cast<double>(s.evals))
               .num("steps", s.steps)
               .done();
  }
  return out + "]";
}

std::string probe_json(const perfbench::EvalProbe& probe) {
  JsonLine fail;
  for (std::size_t r = 0; r < perfbench::kFailReasons; ++r) {
    fail.num(perfbench::kFailReasonNames[r],
             static_cast<double>(
                 probe.fails(static_cast<perfbench::FailReason>(r))));
  }
  return JsonLine()
      .num("evals", static_cast<double>(probe.evals()))
      .num("fails", static_cast<double>(probe.fails()))
      .raw("fail", fail.done())
      .done();
}

int run(const Args& a) {
  refuse_engine_knobs();
  const perfbench::Workload w =
      perfbench::make_workload(a.workload, a.seed, a.smoke);
  perfbench::EvalProbe probe(a.mode == "traced");
  std::vector<api::TaskSpec> tasks = w.tasks;
  // Both registries are built on first use; touch them here so their
  // start-up cost lands in set-up, not in run_s.
  for (api::TaskSpec& t : tasks) {
    if (a.builtin) {
      (void)api::circuit_registered(t.circuit);
    } else {
      t.circuit = probe.register_alias(t.circuit);
    }
    (void)api::method_info(t.method);
  }
  gcnrl::env::EvalServiceConfig cfg;  // default engine settings
  cfg.threads = perfbench::kThreads;
  api::RunOptions opts;
  opts.service = std::make_shared<gcnrl::env::EvalService>(cfg);
  opts.calib_samples = w.calib_samples;
  opts.calib_seed = w.calib_seed;
  const double setup_end = monotonic_now();

  JsonLine out;
  out.str("mode", a.mode)
      .num("setup_end", setup_end)
      .num("threads", opts.service->threads());
  if (a.mode == "untraced") {
    const double t0 = monotonic_now();
    const std::vector<api::TaskResult> results = api::run_tasks(tasks, opts);
    const double run_s = monotonic_now() - t0;
    std::vector<SeedOutcome> seeds;
    for (const api::TaskResult& tr : results) {
      for (std::size_t s = 0; s < tr.runs.size(); ++s) {
        const gcnrl::rl::RunResult& r = tr.runs[s];
        seeds.push_back(SeedOutcome{tr.spec.label, static_cast<int>(s),
                                    api::trace_fingerprint(r.best_trace),
                                    r.best_fom, r.sims, r.evals,
                                    tr.spec.steps});
      }
    }
    out.num("run_s", run_s)
        .num("peak_rss_mb", peak_rss_mb())
        .num("service_sims", static_cast<double>(opts.service->sims()))
        .raw("seeds", seeds_json(seeds));
    if (!a.builtin) out.raw("probe", probe_json(probe));
  } else if (a.mode == "traced") {
    const perfbench::TracedRun tr = perfbench::run_traced(tasks, opts, probe);
    JsonLine layers;
    for (const perfbench::LayerMetric& m : tr.layers) {
      layers.raw(m.name.c_str(),
                 JsonLine().num("value", m.value).str("unit", m.unit).done());
    }
    out.num("run_s", tr.run_s)
        .num("service_sims", static_cast<double>(opts.service->sims()))
        .raw("probe", probe_json(probe))
        .raw("seeds", seeds_json(tr.seeds))
        .raw("layers", layers.done());
  }
  std::printf("%s\n", out.done().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 2;
  }
}
