#!/usr/bin/env python3
"""Sizing-run benchmark for the gcnrl library.

Run from the repository root:

    python3 perfbench/run.py --workload gcnrl_2tia --seed 1 --trace 0
    python3 perfbench/run.py --smoke

The script builds perfbench_driver (perfbench/CMakeLists.txt, a Release
build of the library) under $CARGO_TARGET_DIR, default .bench_build, then
spawns it repeatedly for --seconds seconds:

  --trace 0  untraced runs through api::run_tasks, each after a batch of
             set-up-only processes; prints the end-to-end metrics (times
             and memory as medians over the runs, set-up time as the low
             decile of all set-ups).
  --trace 1  untraced and traced runs alternately; prints the per-layer
             metrics of the traced runs (medians) and the tracing overhead.

Every run is checked: per-seed trace fingerprints, best FoM and sims must
agree between all runs of the invocation (traced and untraced, and the
warm-up run, which uses the built-in circuit names instead of the probe's
aliases), every seed must spend its whole step budget, and every metric
must be finite. On any mismatch the script exits non-zero without printing
a result. The last line of standard output is the result object; the line
before it holds the provenance and the raw per-run samples.

--smoke runs every workload at a tiny budget in both modes and checks that
each metric BENCHMARK.json names is emitted with its unit.

perfbench/README.md documents the workloads and the metrics.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("gcnrl_2tia", "bo_2tia", "es_ldo", "es_3tia_2volt")

# End-to-end metrics: name -> unit.
E2E_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "best_fom": "FoM",
}

MIN_RUNS = 3        # untraced runs per --trace 0 invocation, at least
SETUP_PROBES = 10   # set-up-only processes before each untraced run
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def build():
    """Configures and builds perfbench_driver; returns the build directory
    and the driver's path."""
    for need in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, need)):
            raise BenchError("no gcnrl source tree next to perfbench/ "
                             "(missing %s)" % need)
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(
        ROOT, ".bench_build")
    bdir = os.path.join(os.path.abspath(target), "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        p = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if p.returncode != 0:
            sys.stderr.write(p.stdout)
            raise BenchError("build failed: " + " ".join(cmd))
    return bdir, os.path.join(bdir, "perfbench_driver")


def cmake_cache(bdir):
    out = {}
    with open(os.path.join(bdir, "CMakeCache.txt")) as f:
        for line in f:
            if "=" in line and not line.startswith(("#", "//")):
                key, value = line.rstrip("\n").split("=", 1)
                out[key.split(":", 1)[0]] = value
    return out


def spawn(exe, workload, seed, mode, smoke, builtin=False):
    """One driver process; returns its JSON line plus setup_s."""
    cmd = [exe, "--workload", workload, "--seed", str(seed), "--mode", mode]
    if builtin:
        cmd.append("--builtin")
    if smoke:
        cmd.append("--smoke")
    t0 = time.monotonic()
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, timeout=RUN_TIMEOUT_S)
    wall = time.monotonic() - t0
    if p.returncode != 0:
        raise BenchError("%s exited %d: %s" % (" ".join(cmd), p.returncode,
                                              p.stderr.strip()))
    out = json.loads(p.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["setup_end"] - t0
    out["wall_s"] = wall
    return out


def check_run(run, reference):
    """Output check of one sizing run against the invocation's reference.
    The first run that carries probe counts lends them to the reference,
    so every later run is checked against those too."""
    for s in run["seeds"]:
        if s["evals"] != s["steps"]:
            raise BenchError("%s seed %d: %d evals for a %d-step budget" % (
                s["task"], s["seed"], s["evals"], s["steps"]))
    if "probe" in run and run["probe"]["evals"] != run["service_sims"]:
        raise BenchError("circuit probe saw %d evaluations, service ran %d "
                         "sims" % (run["probe"]["evals"], run["service_sims"]))
    if reference is None:
        return
    for key in ("seeds", "probe", "service_sims"):
        if key in run and key in reference and run[key] != reference[key]:
            raise BenchError("%s run disagrees with the reference run on %s:"
                             "\n%s\nvs\n%s" % (run["mode"], key,
                                               json.dumps(run[key]),
                                               json.dumps(reference[key])))
    if "probe" in run:
        reference.setdefault("probe", run["probe"])


def warm_up(exe, workload, seed, smoke):
    """A first untraced run on the built-in circuit names, whose timing is
    discarded: it pulls the binary into the page cache and wakes the CPUs.
    Every later run of the invocation goes through the probe's alias
    circuits and is checked against it, so the probe is seen to leave the
    results as they are."""
    ref = spawn(exe, workload, seed, "untraced", smoke, builtin=True)
    check_run(ref, None)
    return ref


def best_fom(seeds):
    """Per task, the median over its seeds of each seed's best FoM; the
    mean of that over the tasks. A short GCN-RL seed now and then finds no
    feasible design (best FoM -1), which would move a mean over four seeds
    by a third."""
    by_task = {}
    for s in seeds:
        by_task.setdefault(s["task"], []).append(s["best"])
    return statistics.fmean(statistics.median(b) for b in by_task.values())


def measure_e2e(exe, workload, seed, seconds, smoke):
    start = time.monotonic()
    ref = warm_up(exe, workload, seed, smoke)
    runs, setups = [], []
    while True:
        setups += [spawn(exe, workload, seed, "setup", smoke)["setup_s"]
                   for _ in range(SETUP_PROBES)]
        run = spawn(exe, workload, seed, "untraced", smoke)
        check_run(run, ref)
        runs.append(run)
        setups.append(run["setup_s"])
        longest = max(r["wall_s"] for r in runs)
        if (len(runs) >= MIN_RUNS and
                time.monotonic() - start + longest > seconds):
            break
    values = {
        "run_s": statistics.median(r["run_s"] for r in runs),
        # Set-up lasts about a millisecond, so a stray context switch
        # doubles a sample; the low decile of samples spread over the
        # whole invocation is the steady figure.
        "setup_s": statistics.quantiles(setups, n=10)[0],
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "ok_frac": 1.0 - ref["probe"]["fails"] / ref["probe"]["evals"],
        "best_fom": best_fom(ref["seeds"]),
    }
    metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
    samples = {
        "run_s": [r["run_s"] for r in runs],
        "setup_s": setups,
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
        "fail": ref["probe"]["fail"],
        "seeds": ref["seeds"],
        "threads": ref["threads"],
    }
    return metrics, (1 + len(runs)) * len(ref["seeds"]), samples


def measure_layers(exe, workload, seed, seconds, smoke):
    start = time.monotonic()
    ref = warm_up(exe, workload, seed, smoke)
    untraced, traced = [], []
    while True:
        for mode, runs in (("untraced", untraced), ("traced", traced)):
            run = spawn(exe, workload, seed, mode, smoke)
            check_run(run, ref)
            runs.append(run)
        longest = max(a["wall_s"] + b["wall_s"]
                      for a, b in zip(untraced, traced))
        if time.monotonic() - start + longest > seconds:
            break
    metrics = {}
    for name, m in traced[0]["layers"].items():
        metrics[name] = {
            "value": statistics.median(t["layers"][name]["value"]
                                       for t in traced),
            "unit": m["unit"],
        }
    metrics["trace.overhead_frac"] = {
        "value": statistics.median(t["run_s"] for t in traced) /
                 statistics.median(u["run_s"] for u in untraced) - 1.0,
        "unit": "ratio",
    }
    samples = {
        "untraced_run_s": [u["run_s"] for u in untraced],
        "traced_run_s": [t["run_s"] for t in traced],
        "fail": ref["probe"]["fail"],
        "seeds": ref["seeds"],
        "threads": ref["threads"],
    }
    n_runs = 1 + len(untraced) + len(traced)
    return metrics, n_runs * len(ref["seeds"]), samples


def check_finite(metrics):
    for name, m in metrics.items():
        v = m["value"]
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            raise BenchError("metric %s is not finite: %r" % (name, v))


def provenance(bdir, threads):
    cache = cmake_cache(bdir)
    build_type = cache.get("CMAKE_BUILD_TYPE", "")
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        p = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           text=True)
        commit = p.stdout.strip() or None
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f
                        if l.startswith("model name")), "")
    except OSError:
        pass
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "build_type": build_type,
        "cxx_flags": " ".join(filter(None, [
            cache.get("CMAKE_CXX_FLAGS", ""),
            cache.get("CMAKE_CXX_FLAGS_" + build_type.upper(), "")])),
        "compiler": cache.get("CMAKE_CXX_COMPILER", ""),
        "sanitize": cache.get("GCNRL_SANITIZE", ""),
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": threads,
    }


def smoke(exe):
    """Tiny budgets, both modes, every workload: names and units must be
    exactly those BENCHMARK.json declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        raise BenchError("BENCHMARK.json workloads differ from run.py's")
    for section, measure in (("end_to_end", measure_e2e),
                             ("per_layer", measure_layers)):
        want = {m["name"]: m["unit"] for m in spec[section]}
        for w in WORKLOADS:
            metrics, _, _ = measure(exe, w, 1, 0, True)
            check_finite(metrics)
            got = {k: m["unit"] for k, m in metrics.items()}
            if got != want:
                raise BenchError("%s/%s: emitted %s, BENCHMARK.json names "
                                 "%s" % (w, section, sorted(got.items()),
                                         sorted(want.items())))
            print("smoke %-14s %-10s %3d metrics ok" % (w, section,
                                                       len(metrics)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not args.smoke and args.workload is None:
        ap.error("--workload is required")
    try:
        bdir, exe = build()
        if args.smoke:
            smoke(exe)
            return 0
        seed = args.seed % 2**32
        measure = measure_layers if args.trace else measure_e2e
        metrics, attempted, samples = measure(exe, args.workload, seed,
                                              args.seconds, False)
        check_finite(metrics)
        if not args.trace and any(m["value"] <= 0 for m in metrics.values()):
            raise BenchError("an end-to-end metric is not positive: %s" %
                             json.dumps(metrics))
    except (BenchError, OSError, ValueError, subprocess.TimeoutExpired) as e:
        sys.stderr.write("perfbench: %s\n" % e)
        return 1
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace,
                      "provenance": provenance(bdir, samples.pop("threads")),
                      "samples": samples}))
    print(json.dumps({"correct": True, "attempted": attempted, "failed": 0,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
