#!/usr/bin/env python3
"""Alternating parent/change runs of the affsim benchmark.

    python3 scripts/bench_pair.py --parent ../affsim-parent --change . \\
        --label block_eval --seed-base 700 [--workload rn_adaptive ...]

Both trees are checkouts of this repository. For every workload named in
the change's ``BENCHMARK.json`` (or only those given by ``--workload``,
in that file's order; an unknown name exits with code 2 before any run),
pair i of ``PAIRS`` runs
``perfbench/run.py --seed <seed-base + i> --trace 0`` for that file's
``run_seconds`` once in each tree, parent first on even pairs and change
first on odd ones, so a drift in machine speed falls on both sides. The last line a run prints is its
result; a run that exits non-zero or reports ``correct: false`` is kept
and counted in ``incorrect_runs``. After the workloads, pair i times one
tier-1 run (``python -m pytest`` of the tree's tests, with its ``src`` first
on ``PYTHONPATH``) in each tree, in the same alternating order.

Writes ``BENCH_<label>.json`` into the change tree: the environment of each
side (git sha, whether the tree had uncommitted changes, the lines of
``src/affsim/*.py`` and of ``tests/*.py`` as ``wc -l`` counts them, so the
net line changes sit beside the timings, the SHA-256 of the ``src/affsim``
files as the benchmark computes it, Python, numpy, BLAS, nproc, CPU), and
for every workload and end-to-end metric both sides'
median and quartiles (null quartiles when fewer than two pairs gave both
results), the number of pairs in which the change was better (ties count
for neither side), every value in pair order and three verdicts:
``gain_met`` (the change won at least ``GAIN_WINS`` pairs and its median
beats the parent's by more than the parent's q3 - q1), ``within_bound``
(the change's median is worse than the parent's by at most the metric's
``bound`` times the parent's median) and ``resolved`` (the wider of the
two sides' q3 - q1 is at most that same allowance, every change value
beats every parent value, or every pair ties; a spread wider than the
bound leaves ``within_bound`` unresolved, unless the inputs alone spread
values that each pair shares); the last two are null without medians; under
``"tier1"``, the same for the suite's wall seconds, with each run's passed
and failed counts. Exit code 1 if any benchmark run failed; failing tests
are only counted.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")
# Alternating pairs per workload: a claimed gain is judged on ten pairs,
# and must win at least GAIN_WINS of them.
PAIRS = 10
GAIN_WINS = 9
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="scripts/bench_pair.py")
    parser.add_argument("--parent", required=True, type=Path, help="parent checkout")
    parser.add_argument("--change", required=True, type=Path, help="changed checkout")
    parser.add_argument("--label", required=True, help="names BENCH_<label>.json")
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--workload", action="append", metavar="NAME",
                        help="run only this workload (repeatable; default: every workload)")
    return parser.parse_args(argv)


def run_once(tree, workload, seed, seconds):
    """One benchmark run: (environment line, result line), either None if
    the run printed no such line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    env = result = None
    for line in proc.stdout.splitlines():
        if line.startswith("environment "):
            env = json.loads(line[len("environment "):])
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        result = json.loads(lines[-1])
    else:
        print(f"{tree}: {workload} seed {seed} exited {proc.returncode}\n{proc.stderr}",
              file=sys.stderr)
    return env, result


def run_tier1(tree):
    """One tier-1 run: its wall seconds and the passed and failed counts of
    pytest's summary line (errors count as failed)."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(tree / "src")] + ([path] if path else []))}
    start = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=tree, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    counts = dict((word, int(count)) for count, word in
                  re.findall(r"(\d+) (passed|failed|errors?)\b", lines[-1] if lines else ""))
    return {"wall_s": wall, "passed": counts.get("passed", 0),
            "failed": counts.get("failed", 0) + counts.get("error", 0) + counts.get("errors", 0)}


def git_state(tree):
    def git(*cmd):
        proc = subprocess.run(["git", "-C", str(tree), *cmd], capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    status = git("status", "--porcelain", "--untracked-files=no")
    return {"git_sha": git("rev-parse", "HEAD"),
            "uncommitted_changes": None if status is None else bool(status)}


def line_count(directory):
    """Newline count of ``directory/*.py``, ``wc -l``'s total."""
    return sum(path.read_bytes().count(b"\n") for path in directory.glob("*.py"))


def summary(values):
    """Median and quartiles; quartiles need two values, so with fewer they
    are null, and so is the median of none."""
    if len(values) < 2:
        return {"median": values[0] if values else None, "q1": None, "q3": None}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def paired(values, lower):
    """Both sides' summaries and the change's wins over paired values."""
    wins = sum((c < p) if lower else (c > p) for p, c in zip(values["parent"], values["change"]))
    return {**{side: summary(values[side]) for side in SIDES},
            "change_better_pairs": wins, "pairs": len(values["parent"]), "values": values}


def verdicts(result, lower, bound):
    """``gain_met``, ``within_bound`` and ``resolved`` of one ``paired``
    result, for a metric where lower (or higher) is better and ``bound`` is
    the largest allowed loss as a fraction of the parent's median. Both
    sides have quartiles, or neither has; without them the spread is
    unknown, so only a change that dominates, or ties every pair, is
    resolved."""
    parent, change = result["parent"], result["change"]
    if parent["median"] is None or change["median"] is None:
        return {"gain_met": False, "within_bound": None, "resolved": None}
    sign = 1 if lower else -1
    gain = (parent["median"] - change["median"]) * sign
    allowed = bound * abs(parent["median"])
    spread = None if parent["q1"] is None else parent["q3"] - parent["q1"]
    values = result["values"]
    dominates = max(sign * v for v in values["change"]) < min(sign * v for v in values["parent"])
    tied = values["change"] == values["parent"]
    return {"gain_met": (result["change_better_pairs"] >= GAIN_WINS and spread is not None
                         and gain > spread),
            "within_bound": -gain <= allowed,
            "resolved": dominates or tied or (
                spread is not None and max(spread, change["q3"] - change["q1"]) <= allowed)}


def compare(spec, runs):
    """Per end-to-end metric of BENCHMARK.json: ``paired`` over the pairs in
    which both runs gave a result, and its ``verdicts``."""
    out = {}
    pairs = [p for p in runs if p["parent"] and p["change"]]
    for metric in spec["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        result = paired(values, lower)
        out[name] = {"unit": metric["unit"], "better": metric["better"],
                     "bound": metric["bound"], **result,
                     **verdicts(result, lower, metric["bound"])}
    return out


def tier1_pairs(trees):
    """One tier-1 run per tree in each of ``PAIRS`` alternating pairs."""
    runs = {side: [] for side in SIDES}
    for i in range(PAIRS):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            runs[side].append(run_tier1(trees[side]))
        print(f"tier1 pair {i}: " + " ".join(
            f"{side} {runs[side][-1]['wall_s']:.2f} s ({runs[side][-1]['passed']} passed, "
            f"{runs[side][-1]['failed']} failed)" for side in SIDES), flush=True)
    walls = {side: [run["wall_s"] for run in runs[side]] for side in SIDES}
    return {"wall_s": {"unit": "s", "better": "lower", **paired(walls, True)},
            **{key: {side: [run[key] for run in runs[side]] for side in SIDES}
               for key in ("passed", "failed")}}


def main(argv=None):
    args = parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    unknown = sorted(set(args.workload or ()) - set(names))
    if unknown:
        print(f"unknown workload {', '.join(unknown)}; BENCHMARK.json has {', '.join(names)}",
              file=sys.stderr)
        return 2
    env = {side: {**git_state(tree), "src_lines": line_count(tree / "src" / "affsim"),
                  "tests_lines": line_count(tree / "tests")} for side, tree in trees.items()}
    report = {"label": args.label, "seconds": seconds, "seed_base": args.seed_base,
              "pairs": PAIRS, "environment": env, "workloads": {}}
    incorrect = 0
    for workload in (name for name in names if not args.workload or name in args.workload):
        runs = []
        for i in range(PAIRS):
            seed = args.seed_base + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                run_env, result = run_once(trees[side], workload, seed, seconds)
                env[side] = {**(run_env or {}), **env[side]}
                incorrect += result is None or not result["correct"]
                pair[side] = result
            runs.append(pair)
            walls = [pair[s]["metrics"]["wall_s"]["value"] if pair[s] else None for s in SIDES]
            print(f"{workload} seed {seed}: wall_s parent {walls[0]} change {walls[1]}",
                  flush=True)
        report["workloads"][workload] = compare(spec, runs)
    report["tier1"] = tier1_pairs(trees)
    report["incorrect_runs"] = incorrect
    path = trees["change"] / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {path}")
    return 1 if incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
