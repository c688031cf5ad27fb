#!/usr/bin/env python3
r"""
Closed-loop benchmark of the curvelat command line tool.

Run from the root of a checkout:

    python3 bench/run.py --workload shipped --seed 1 --seconds 35 --trace 0

One client runs one invocation at a time; each invocation is a fresh
Python process (``bench/child.py``) that calls ``curvelat.cli.main``, as
a user of the command line tool would run it.  A pass runs every
invocation of the workload once, in an order permuted by the seed.
After one whole pass, an untraced run goes on up to the first
invocation that would end past ``--seconds``; a traced run keeps whole
passes while the next one fits.

The host's execution speed drifts by up to 2x within seconds, so every
child runs between two runs of a fixed reference job
(``bench/reference.py``), and its wall and CPU times are scaled to a
machine on which that job takes ``REFERENCE_S``.  A command's figure is
the median of its scaled samples.

Every output is checked against a reference that does not come from the
program under test (see ``bench/README.md``).  The last line of stdout
is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end
ones; with ``--trace 1`` untraced and traced passes alternate and the
metrics are the per-layer ones, plus the tracing overhead.
``--workload all`` runs every workload in turn and prefixes each metric
with the workload name.
"""

import argparse
import hashlib
import importlib.metadata
import importlib.util
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DATA = "src/curvelat/data/"
CURVES = "bench/curves/"

# every child of a workload is reaped within this many seconds of its start
RUN_DEADLINE_S = 170.0
# set-up samples, half taken before the passes and half after them
SETUP_SPAWNS = 8
# Timed children are scaled to a machine on which bench/reference.py
# takes this long: about its wall time on a quiet 2-vCPU Xeon VM
REFERENCE_S = 0.3
REFERENCE_STDOUT = "26 462816 88890\n"

STAGES = ["invariants", "hilbert-table", "symmetry", "large-index-steps",
          "semigroup", "series-round-trip", "motivic", "alexander",
          "restriction", "euler", "graded-homology",
          "arrangement-structure", "sublevel-contractible",
          "branch-structure"]


def verify_lines(r):
    r"""The exact stdout of a passing ``verify`` on an r-branch curve."""
    lines = []
    for stage in STAGES:
        if stage == "restriction" and r == 1:
            lines.append("skip restriction (single branch)")
        elif stage == "branch-structure" and r >= 3:
            lines.append("skip branch-structure (three or more branches)")
        else:
            lines.append("ok " + stage)
    return lines + ["all checks passed"]


def a_odd_grid(n, box):
    r"""``hilbert`` grid of y^2 = x^(2n) from ``tests/oracles.h_a_odd``."""
    spec = importlib.util.spec_from_file_location(
        "oracles", os.path.join(ROOT, "tests", "oracles.py"))
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    values = {(a, b): oracles.h_a_odd(n, a, b)
              for a in range(box[0] + 1) for b in range(box[1] + 1)}
    width = max(len(str(h)) for h in values.values())
    return [" ".join(str(values[(a, b)]).rjust(width)
                     for a in range(box[0] + 1))
            for b in range(box[1], -1, -1)]


def lines_alexander(r):
    r"""
    ``series alexander`` of r >= 3 distinct lines through the origin:
    (t1...tr - 1)^(r-2), the Alexander polynomial of the link of an
    ordinary r-fold point, written with a positive constant term.
    """
    e = r - 2
    terms = []
    for k in range(e + 1):
        c = math.comb(e, k) * (-1) ** k
        monomial = "*".join("t%d" % (i + 1) + ("^%d" % k if k > 1 else "")
                            for i in range(r))
        body = str(abs(c)) if k == 0 else (
            monomial if abs(c) == 1 else "%d*%s" % (abs(c), monomial))
        if not terms:
            terms.append(("-" if c < 0 else "") + body)
        else:
            terms.append(("- " if c < 0 else "+ ") + body)
    return [" ".join(terms)]


# why each workload exists is documented in bench/README.md
SHIPPED = [("line", 1), ("cusp", 1), ("t2t5", 1), ("a3", 2), ("a5", 2),
           ("a7", 2), ("d5", 2), ("triple", 3)]
WORKLOADS = {
    "shipped": [(["verify", DATA + name + ".json"], ("verify", r))
                for name, r in SHIPPED],
    "multibranch": [
        (["verify", CURVES + "tacnode3.json"], ("verify", 3)),
        (["series", "alexander", CURVES + "four.json"],
         ("lines_alexander", 4)),
    ],
    "bigtable": [
        # A_31: default box is conductor (16, 16) plus 2
        (["hilbert", CURVES + "a31.json"], ("a_odd", 16, (18, 18))),
        (["hilbert", "--box", "16,16", DATA + "a3.json"],
         ("a_odd", 2, (16, 16))),
    ],
}


def expected_stdout(spec):
    kind = spec[0]
    if kind == "verify":
        lines = verify_lines(spec[1])
    elif kind == "a_odd":
        lines = a_odd_grid(spec[1], spec[2])
    else:
        lines = lines_alexander(spec[1])
    return "\n".join(lines) + "\n"


def curve_files(invocations):
    return sorted({argv[-1] for argv, _ in invocations})


# ---------------------------------------------------------------------------
# child processes


class Child:
    __slots__ = ("wall_s", "cpu_s", "rss_mb", "code", "stdout", "stderr",
                 "norm_wall_s", "norm_cpu_s")


def run_child(args, workdir, deadline, script="child.py"):
    r"""
    Run ``python3 bench/SCRIPT ARGS`` to completion and reap it with
    ``os.wait4`` so that CPU time and max RSS are this child's alone.
    A child still running at ``deadline`` (monotonic) is killed.
    """
    out = os.path.join(workdir, "stdout")
    err = os.path.join(workdir, "stderr")
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, out, flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, err, flags, 0o644)]
    argv = [sys.executable, os.path.join("bench", script)] + args
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, os.environ,
                         file_actions=actions)
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0),
                            os.kill, (pid, signal.SIGKILL))
    timer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    finally:
        timer.cancel()
        timer.join()
    child = Child()
    child.wall_s = time.perf_counter() - start
    child.cpu_s = usage.ru_utime + usage.ru_stime
    child.rss_mb = usage.ru_maxrss / 1024.0
    child.code = os.waitstatus_to_exitcode(status)
    with open(out) as handle:
        child.stdout = handle.read()
    with open(err) as handle:
        child.stderr = handle.read()
    return child


# ---------------------------------------------------------------------------
# trace aggregation


def layer_metric_names():
    r"""Every per-layer metric name with its unit, in report order."""
    names = [("cli.load_curve.s", "s")]
    names += [("cli.verify.%s.s" % stage, "s") for stage in STAGES]
    fields = {
        "curve.h_oracle": ["calls", "s", "self_s", "cells"],
        "curve.branch_delta": ["calls", "s"],
        "curve.intersection_multiplicity": ["calls", "s", "self_s"],
        "curve.monomial": ["calls", "s"],
        "exactalg.rank_rational": ["calls", "s", "cells"],
        "exactalg.smith_normal_form": ["calls", "s", "cells"],
        "exactalg.series_mul": ["calls"],
        "hilbert.build_table": ["calls", "distinct", "s", "self_s", "cells"],
        "hilbert.invariants": ["calls", "hits", "s"],
        "hilbert.large_n_step_check": ["s"],
        "hilbert.symmetry_check": ["s"],
        "hilbert.semigroup": ["s"],
        "hilbert.local_matroid": ["calls"],
        "series.alexander": ["calls", "s"],
        "series.torres_restriction_check": ["s"],
        "series.poincare_from_hilbert": ["calls", "s"],
        "series.motivic_normalized": ["s"],
        "oslattice.du_homology": ["calls", "distinct", "s"],
        "oslattice.homology_from_boundaries": ["calls", "s"],
        "oslattice.d0_structure_checks": ["s"],
        "latthom.grv_homology": ["calls", "s"],
        "latthom.euler_check": ["s"],
        "latthom.sk_homology": ["s"],
        "latthom.r1_structure": ["s"],
        "latthom.r2_classify": ["calls", "s"],
    }
    for prefix, keys in fields.items():
        for key in keys:
            unit = "s" if key in ("s", "self_s") else "count"
            names.append(("%s.%s" % (prefix, key), unit))
    names += [("hilbert.build_table.distinct_ratio", "ratio"),
              ("oslattice.du_homology.distinct_ratio", "ratio"),
              ("trace.untraced_pass_s", "s"),
              ("trace.traced_pass_s", "s"),
              ("trace.overhead_s", "s")]
    return names


def aggregate_trace(path, is_verify):
    r"""Sum one invocation's spans into per-layer metric values."""
    with open(path) as handle:
        trace = json.load(handle)
    out = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    distinct = {}
    load_end = None
    for name, start, end, _parent, child_s, extra in trace["spans"]:
        took = end - start
        add(name + ".calls", 1)
        add(name + ".s", took)
        add(name + ".self_s", took - child_s)
        if name == "cli.load_curve" and load_end is None:
            load_end = end
        if extra:
            add(name + ".cells", extra.get("cells", 0))
            add(name + ".hits", extra.get("hit", 0))
            if "key" in extra:
                distinct.setdefault(name, set()).add(extra["key"])
    for name, keys in distinct.items():
        out[name + ".distinct"] = len(keys)
    for name, (calls, seconds) in trace["totals"].items():
        add(name + ".calls", calls)
        add(name + ".s", seconds)
    if is_verify and load_end is not None:
        previous = load_end
        for stamp, stage in trace["marks"]:
            add("cli.verify.%s.s" % stage, stamp - previous)
            previous = stamp
    return out


def finish_layers(per_pass, names):
    r"""Median over traced passes of every per-layer metric."""
    values = {}
    for name, _unit in names:
        values[name] = statistics.median(p.get(name, 0) for p in per_pass)
    for prefix in ("hilbert.build_table", "oslattice.du_homology"):
        calls = values[prefix + ".calls"]
        values[prefix + ".distinct_ratio"] = (
            values[prefix + ".distinct"] / calls if calls else 0.0)
    return values


# ---------------------------------------------------------------------------
# one workload


def percentile_note(samples):
    r"""Median and the highest percentile with >= 10 samples beyond it."""
    n = len(samples)
    text = "median %.4f n=%d" % (statistics.median(samples), n)
    if n > 10:
        p = int(100 * (1 - 10 / n))
        ordered = sorted(samples)
        # nearest-rank percentile: rank ceil(n p / 100) leaves >= 10 above
        text += " p%d %.4f" % (p, ordered[-(-n * p // 100) - 1])
    else:
        text += " (n<=10: no tail percentile)"
    return text


class Reference:
    r"""
    Runs ``bench/reference.py`` between timed children and scales each
    child's wall and CPU time by REFERENCE_S over the mean wall time of
    the two reference runs next to it.
    """

    def __init__(self, workdir, deadline):
        self.workdir = workdir
        self.deadline = deadline
        self.walls = []
        self.last = self.run()

    def run(self):
        job = run_child([], self.workdir, self.deadline, "reference.py")
        if job.code != 0 or job.stdout != REFERENCE_STDOUT:
            raise SystemExit("reference job failed (exit %d): %r %s"
                             % (job.code, job.stdout, job.stderr.strip()))
        self.walls.append(job.wall_s)
        return job

    def time(self, args):
        r"""Run one child between two reference runs; return it, scaled."""
        before = self.last
        child = run_child(args, self.workdir, self.deadline)
        self.last = after = self.run()
        factor = REFERENCE_S / ((before.wall_s + after.wall_s) / 2)
        child.norm_wall_s = child.wall_s * factor
        child.norm_cpu_s = child.cpu_s * factor
        return child


def run_workload(name, seed, seconds, trace, workdir):
    invocations = WORKLOADS[name]
    deadline = time.monotonic() + RUN_DEADLINE_S
    expected = [expected_stdout(spec) for _, spec in invocations]
    rng = random.Random(seed)

    setup_args = ["--setup"] + curve_files(invocations)
    # the first spawns write bytecode caches; they are not samples
    run_child(setup_args, workdir, deadline)
    reference = Reference(workdir, deadline)
    setups = []

    def set_up(count):
        for _ in range(count):
            child = reference.time(setup_args)
            if child.code != 0:
                raise SystemExit("set-up failed (exit %d): %s"
                                 % (child.code, child.stderr.strip()))
            setups.append(child.norm_wall_s)

    set_up(SETUP_SPAWNS // 2)

    passes = {False: [], True: []}
    per_command = {}
    layer_passes = []
    per_command_layers = {}
    failures = []
    attempted = 0
    trace_path = os.path.join(workdir, "trace.json")
    start = time.monotonic()
    plan = [False, True] if trace else [False]

    def fits(command):
        # untraced runs stop at the first command that would overrun,
        # once every command has one sample; traced runs keep whole passes
        if trace or not passes[False]:
            return True
        estimate = per_command[command][-1].wall_s + reference.walls[-1]
        return time.monotonic() - start + estimate <= seconds

    stop = False
    while not stop:
        for traced in plan:
            order = list(range(len(invocations)))
            rng.shuffle(order)
            wall = 0.0
            layers = {}
            for i in order:
                argv, spec = invocations[i]
                command = " ".join(argv)
                if not fits(command):
                    stop = True
                    break
                if traced:
                    if os.path.exists(trace_path):
                        os.remove(trace_path)
                    child = reference.time(["--trace", trace_path, "--"]
                                           + argv)
                else:
                    child = reference.time(["--"] + argv)
                    per_command.setdefault(command, []).append(child)
                attempted += 1
                wall += child.norm_wall_s
                if child.code != 0 or child.stdout != expected[i]:
                    failures.append((command, child.code,
                                     child.stderr.strip()[-300:]))
                    continue
                if traced:
                    counts = aggregate_trace(trace_path, spec[0] == "verify")
                    per_command_layers.setdefault(command, counts)
                    for key, value in counts.items():
                        layers[key] = layers.get(key, 0) + value
            if stop:
                break
            passes[traced].append(wall)
            if traced:
                layer_passes.append(layers)
        elapsed = time.monotonic() - start
        rounds = len(passes[False])
        if failures or trace and elapsed + elapsed / rounds > seconds:
            stop = True
    set_up(SETUP_SPAWNS - SETUP_SPAWNS // 2)
    return {"setups": setups, "passes": passes, "per_command": per_command,
            "layer_passes": layer_passes,
            "per_command_layers": per_command_layers, "failures": failures,
            "attempted": attempted, "reference_walls": reference.walls}


def end_to_end(per_command):
    r"""
    The end-to-end metrics from every untraced child of a run.  Each
    command's figure is the median of its scaled samples; a pass is the
    sum of those medians, so every command weighs once per pass.
    """
    def median_of(key):
        return {command: statistics.median(getattr(c, key) for c in runs)
                for command, runs in per_command.items()}

    walls = median_of("norm_wall_s")
    return {"pass_s": sum(walls.values()),
            "cmd_max_s": max(walls.values()),
            "cpu_s": sum(median_of("norm_cpu_s").values()),
            "peak_rss_mb": max(c.rss_mb for runs in per_command.values()
                               for c in runs)}


def report(name, result, trace):
    r"""Print the human-readable summary; return the metrics dict."""
    metrics = {"setup_s": (statistics.median(result["setups"]), "s")}
    units = {"pass_s": "s", "cmd_max_s": "s", "cpu_s": "s",
             "peak_rss_mb": "MB"}
    values = end_to_end(result["per_command"])
    for key, unit in units.items():
        metrics[key] = (values[key], unit)
    samples = {"setup_s": "median of %d set-ups" % len(result["setups"]),
               "pass_s": "sum of per-command medians",
               "cmd_max_s": "largest per-command median",
               "cpu_s": "sum of per-command medians",
               "peak_rss_mb": "largest of any child"}
    for key, (value, unit) in metrics.items():
        print("[%s] %-11s %.4f %-2s  %s" % (name, key, value, unit,
                                            samples[key]))
    attempted, failed = result["attempted"], len(result["failures"])
    print("[%s] fail_ratio  %.4f     %d failed of %d attempted"
          % (name, failed / attempted, failed, attempted))
    refs = result["reference_walls"]
    print("[%s] reference job: median %.4f s raw over %d runs; times are "
          "scaled to %.2f s" % (name, statistics.median(refs), len(refs),
                                REFERENCE_S))
    for command, runs in sorted(result["per_command"].items()):
        print("[%s]   %-42s scaled %s s; raw median %.4f s" % (
            name, command, percentile_note([c.norm_wall_s for c in runs]),
            statistics.median(c.wall_s for c in runs)))
    for command, code, err in result["failures"]:
        print("[%s] FAILED %s: exit %d %s" % (name, command, code, err))
    if not trace:
        return metrics
    names = layer_metric_names()
    values = finish_layers(result["layer_passes"], names)
    untraced = statistics.median(result["passes"][False])
    traced = statistics.median(result["passes"][True])
    values["trace.untraced_pass_s"] = untraced
    values["trace.traced_pass_s"] = traced
    values["trace.overhead_s"] = traced - untraced
    print("[%s] traced passes %d; tracing overhead %.4f s on a %.4f s pass "
          "(scaled)" % (name, len(result["layer_passes"]), traced - untraced,
                        untraced))
    for command, counts in sorted(result["per_command_layers"].items()):
        print("[%s]   %-42s" % (name, command) + "".join(
            "  %s distinct/calls %d/%d" % (prefix, counts.get(
                prefix + ".distinct", 0), counts.get(prefix + ".calls", 0))
            for prefix in ("hilbert.build_table", "oslattice.du_homology")))
    for prefix in ("hilbert.build_table", "oslattice.du_homology"):
        print("[%s] %s distinct/calls = %d/%d" % (
            name, prefix, values[prefix + ".distinct"],
            values[prefix + ".calls"]))
    return {key: (values[key], unit) for key, unit in names}


# ---------------------------------------------------------------------------


def source_digest():
    digest = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for file in sorted(files):
            path = os.path.join(base, file)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    for needed in ("src/curvelat/cli.py", "tests/oracles.py"):
        if not os.path.isfile(needed):
            print("run.py: %s is missing; run from a full checkout"
                  % needed, file=sys.stderr)
            return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    meta = {"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "sympy": importlib.metadata.version("sympy"),
            "commit": commit(), "src_sha256": source_digest()}
    metrics = {}
    correct = True
    attempted = failed = 0
    workdir = tempfile.mkdtemp(prefix="run-", dir=HERE)
    try:
        for name in names:
            result = run_workload(name, args.seed, args.seconds,
                                  args.trace, workdir)
            meta[name] = {
                "setup_samples": len(result["setups"]),
                "passes": len(result["passes"][False]),
                "traced_passes": len(result["passes"][True]),
                "invocations": result["attempted"]}
            for key, (value, unit) in report(name, result,
                                             args.trace).items():
                label = key if len(names) == 1 else name + "." + key
                metrics[label] = {"value": value, "unit": unit}
            attempted += result["attempted"]
            failed += len(result["failures"])
            correct = correct and not result["failures"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
