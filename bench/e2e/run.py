#!/usr/bin/env python3
"""End-to-end benchmark for gompresso: build, run, print, compare.

Builds gomp_bench (the library's CMake Release build plus this
directory's sources) into build-bench/, runs each workload in a fresh
process, checks every delivered byte, prints every metric by name with
its unit, and writes one stamped JSON file per run under
build-bench/e2e/results/. BENCHMARK.json at the repository root is the
metric catalog with directions and regression bounds.

  run.py                                    every workload once, tracing off
  run.py --workload W --seed S --seconds N --trace 0|1
                                            one run; the last stdout line is
                                            {"correct", "attempted", "failed",
                                             "metrics"}
  run.py --reps 10 --out A.json             10 seeds per workload -> set file
  run.py --traced                           5 s per workload, untraced and
                                            traced: spans, Chrome traces,
                                            replays, tracing overhead
  run.py --smoke                            4 MiB, 1 s windows, every check
  run.py --compare A.json B.json            apply the bounds to two set files
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build-bench")
OUT = os.path.join(BUILD, "e2e")
BINARY = os.path.join(BUILD, "gomp_bench")
WORKLOADS = ["native_scan", "gzip_scan", "range_serve", "compress_write"]
RUN_TIMEOUT_S = 170
# --compare: changes of a metric's median below its absolute floor read
# "same" whatever the spread (set-up times of ~0.1 ms jitter by tens of
# microseconds).
FLOORS = {"setup_s": 0.005}
# --compare: metrics that are a pure function of the seed's input. They
# are compared seed by seed, and any difference decides.
PER_SEED = {"comp_ratio"}


class BenchError(Exception):
    pass


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def threads():
    return min(nproc(), 4)


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def build():
    os.makedirs(OUT, exist_ok=True)
    log_path = os.path.join(OUT, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "gomp_bench",
                  "-j", str(threads())])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise BenchError("build failed: " + " ".join(cmd))


def run_one(workload, seed, seconds, trace, size=None, trace_window=None, echo=True):
    """Runs gomp_bench once; returns (run dict, exit code). `size` (input
    bytes) is for smoke runs; the default is gomp_bench's 64 MiB."""
    work = os.path.join(OUT, "work-%s-%d-%d" % (workload, seed, os.getpid()))
    results = os.path.join(OUT, "results")
    traces = os.path.join(OUT, "traces")
    for d in (work, results, traces):
        os.makedirs(d, exist_ok=True)
    out = os.path.join(work, "run.json")
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds)),
           "--threads", str(threads()), "--workdir", work, "--out", out,
           "--trace", "1" if trace else "0"]
    if size:
        cmd += ["--size", str(size)]
    if trace:
        cmd += ["--trace-file", os.path.join(traces, "%s-s%d.json" % (workload, seed))]
        if trace_window:
            cmd += ["--trace-window", repr(float(trace_window))]
    try:
        # Own process group, so a timeout also stops the gzip it may run.
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True, start_new_session=True)
        try:
            stdout, stderr = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError("gomp_bench %s timed out" % workload)
        if echo:
            sys.stdout.write(stdout)
        sys.stderr.write(stderr)
        if proc.returncode not in (0, 1) or not os.path.exists(out):
            raise BenchError("gomp_bench %s exited %d" % (workload, proc.returncode))
        with open(out) as f:
            run = json.load(f)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.update({"git_sha": git_sha(), "nproc": nproc(), "stamped_at": time.time()})
    with open(os.path.join(results, "%s-s%d-trace%d.json" % (workload, seed, trace)), "w") as f:
        json.dump(run, f, indent=1)
    return run, proc.returncode


def value(run, section, name):
    entry = run[section].get(name)
    return None if entry is None else entry["value"]


def result_line(run, spec, trace):
    """The one-line result: every end-to-end metric, or every per-layer
    metric when traced. A per-layer metric whose layer did no work in this
    workload reads 0."""
    if run["attempted"] < 1:
        raise BenchError("%s attempted no operation" % run["workload"])
    metrics = {}
    for m in spec["per_layer" if trace else "end_to_end"]:
        v = value(run, "per_layer" if trace else "end_to_end", m["name"])
        if v is None:
            if not trace:
                raise BenchError("%s did not measure %s" % (run["workload"], m["name"]))
            v = 0.0
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    return {"correct": bool(run["correct"]), "attempted": int(run["attempted"]),
            "failed": int(run["failed"]), "metrics": metrics}


def spread(values):
    """Distance between the first and third quartile, as a share of the
    median (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def stamp(runs):
    first = runs[0]
    return {"git_sha": git_sha(), "build_type": first["build_type"],
            "threads": first["threads"], "nproc": nproc(), "seconds": first["seconds"]}


def valid_runs(runs, workload):
    """A run whose load generator fell behind measured the host, not the
    program; summaries and comparisons leave it out."""
    return [r for r in runs if r["workload"] == workload and r["valid"]]


def summarize(runs, spec):
    """Per workload: median, spread and bound of every end-to-end metric."""
    invalid = [r for r in runs if not r["valid"]]
    if invalid:
        print("\nleft out, load generator fell behind: %s" % ", ".join(
            "%s seed %d" % (r["workload"], r["seed"]) for r in invalid))
    print("\n%-16s %-16s %14s %8s %8s  %s" % ("workload", "metric", "median", "spread",
                                             "bound", "n"))
    for w in WORKLOADS:
        rows = valid_runs(runs, w)
        if not rows:
            continue
        for m in spec["end_to_end"]:
            vals = [value(r, "end_to_end", m["name"]) for r in rows]
            vals = [v for v in vals if v is not None]
            if not vals:
                continue
            s = spread(vals)
            flag = "  (spread above bound/3)" if s > m["bound"] / 3 else ""
            print("%-16s %-16s %14.6g %7.2f%% %7.1f%%  %d %s%s" % (
                w, m["name"], statistics.median(vals), 100 * s, 100 * m["bound"],
                len(vals), m["unit"], flag))


def run_set(args, spec):
    seeds = [args.seed + i for i in range(args.reps)]
    runs, failures = [], 0
    for w in WORKLOADS:
        for s in seeds:
            run, rc = run_one(w, s, args.seconds, False)
            failures += rc != 0
            runs.append(run)
    summarize(runs, spec)
    out = args.out or os.path.join(OUT, "results", "set-%d.json" % int(time.time()))
    with open(out, "w") as f:
        json.dump({"stamp": stamp(runs), "runs": runs}, f, indent=1)
    print("\nset file: %s" % out)
    return 1 if failures else 0


def run_traced(args, spec):
    """Each workload untraced, then traced over its whole window; the
    ratio of the two is the tracing overhead."""
    failures = 0
    overhead = {}
    for w in WORKLOADS:
        plain, rc0 = run_one(w, args.seed, args.seconds, False)
        traced, rc1 = run_one(w, args.seed, args.seconds, True, trace_window=args.seconds)
        failures += (rc0 != 0) + (rc1 != 0)
        if traced["trace_dropped"]:
            print("traced %s dropped %d trace events" % (w, traced["trace_dropped"]))
            failures += 1
        overhead[w] = {}
        for m in spec["end_to_end"]:
            a = value(plain, "end_to_end", m["name"])
            b = value(traced, "end_to_end", m["name"])
            overhead[w][m["name"]] = b / a if a and b is not None else None
    print("\ntracing overhead (traced / untraced)")
    names = [m["name"] for m in spec["end_to_end"]]
    print("%-16s" % "workload" + "".join("%17s" % n for n in names))
    for w in WORKLOADS:
        print("%-16s" % w + "".join(
            "%17s" % ("-" if overhead[w][n] is None else "%.3f" % overhead[w][n])
            for n in names))
    print("chrome traces: %s" % os.path.join(OUT, "traces"))
    return 1 if failures else 0


def run_smoke(spec):
    t0 = time.time()
    failures = 0
    for w in WORKLOADS:
        for trace in (False, True):
            run, rc = run_one(w, 1, 1.0, trace, size=4 << 20, echo=False)
            result_line(run, spec, trace)  # every metric present
            good = rc == 0 and run["correct"] and run["failed"] == 0
            failures += not good
            print("smoke %-15s trace=%d  %s  attempted=%d" % (
                w, trace, "ok" if good else "FAILED", run["attempted"]))
    print("smoke: %s in %.1f s" % ("FAILED" if failures else "ok", time.time() - t0))
    return 1 if failures else 0


def verdict(a, b, better, bound, floor=0.0):
    """'better', 'worse', 'same' (within the bound, or a median change
    below the absolute `floor`) or 'unresolved' (the run-to-run spread is
    wider than the bound and the runs overlap)."""
    ma, mb = statistics.median(a), statistics.median(b)
    worse_by = (mb - ma) / ma if better == "lower" else (ma - mb) / ma
    if abs(mb - ma) < floor:
        return "same", worse_by
    if max(spread(a), spread(b)) > bound:
        b_wins = (max(b) < min(a)) if better == "lower" else (min(b) > max(a))
        a_wins = (max(a) < min(b)) if better == "lower" else (min(a) > max(b))
        return ("better" if b_wins else "worse" if a_wins else "unresolved"), worse_by
    if worse_by > bound:
        return "worse", worse_by
    if -worse_by > bound:
        return "better", worse_by
    return "same", worse_by


def paired_verdict(a_runs, b_runs, better, name):
    """For a metric that is a pure function of the seed's input: any
    difference on any seed decides. Returns (label, largest change)."""
    b_by_seed = {r["seed"]: value(r, "end_to_end", name) for r in b_runs}
    changes = []
    for r in a_runs:
        va, vb = value(r, "end_to_end", name), b_by_seed.get(r["seed"])
        if va and vb is not None:
            changes.append((vb - va) / va if better == "lower" else (va - vb) / va)
    if not changes:
        return None
    if max(changes) > 0:
        return "worse", max(changes)
    if min(changes) < 0:
        return "better", min(changes)
    return "same", 0.0


def seeds(runs, workload):
    return sorted(r["seed"] for r in runs if r["workload"] == workload)


def compare(path_a, path_b, spec):
    with open(path_a) as f:
        a = json.load(f)
    with open(path_b) as f:
        b = json.load(f)
    for key in ("threads", "build_type", "seconds"):
        if a["stamp"][key] != b["stamp"][key]:
            print("refusing to compare: %s differs (%s vs %s)" % (
                key, a["stamp"][key], b["stamp"][key]))
            return 2
    for w in WORKLOADS:
        if seeds(a["runs"], w) != seeds(b["runs"], w):
            print("refusing to compare: %s ran seeds %s vs %s" % (
                w, seeds(a["runs"], w), seeds(b["runs"], w)))
            return 2
    print("A = %s (%s)\nB = %s (%s)\nT = %s, build %s; cells: B vs A, + = worse" % (
        path_a, a["stamp"]["git_sha"], path_b, b["stamp"]["git_sha"],
        a["stamp"]["threads"], a["stamp"]["build_type"]))
    names = [m["name"] for m in spec["end_to_end"]]
    print("%-16s" % "workload" + "".join("%22s" % n for n in names))
    worse = 0
    for w in WORKLOADS:
        cells = []
        for m in spec["end_to_end"]:
            if m["name"] in PER_SEED:
                paired = paired_verdict([r for r in a["runs"] if r["workload"] == w],
                                        [r for r in b["runs"] if r["workload"] == w],
                                        m["better"], m["name"])
                if paired is None:
                    cells.append("-")
                    continue
                label, worse_by = paired
                worse += label == "worse"
                cells.append("%+.2f%% %s" % (100 * worse_by, label))
                continue
            va = [v for v in (value(r, "end_to_end", m["name"])
                              for r in valid_runs(a["runs"], w)) if v is not None]
            vb = [v for v in (value(r, "end_to_end", m["name"])
                              for r in valid_runs(b["runs"], w)) if v is not None]
            if not va or not vb:
                cells.append("-")
                continue
            label, worse_by = verdict(va, vb, m["better"], m["bound"],
                                      FLOORS.get(m["name"], 0.0))
            worse += label == "worse"
            cells.append("%+.1f%% %s" % (100 * worse_by, label))
        print("%-16s" % w + "".join("%22s" % c for c in cells))
    return 1 if worse else 0


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--reps", type=int, default=1, help="seeds per workload")
    p.add_argument("--out", help="set file to write")
    p.add_argument("--traced", action="store_true")
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = p.parse_args()

    spec = load_spec()
    if args.compare:
        return compare(args.compare[0], args.compare[1], spec)
    build()
    if args.smoke:
        return run_smoke(spec)
    if args.traced:
        args.seconds = args.seconds or 5
        return run_traced(args, spec)
    args.seconds = args.seconds or spec["run_seconds"]
    if args.workload:
        run, rc = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result_line(run, spec, bool(args.trace))))
        return rc
    return run_set(args, spec)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, ValueError, KeyError) as e:
        sys.stderr.write("run.py: %s\n" % e)
        sys.exit(2)
